"""Benchmark harness: report consistency on tiny sizes, guard rails."""

import collections

import pytest

from geofence import bench
from geofence.bench import BenchError, format_table, percentile, run_bench


def test_percentile_interpolates():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0) == 10.0
    assert percentile(values, 100) == 40.0
    assert percentile(values, 50) == 25.0


def test_sizes_must_be_ascending_and_positive(tmp_path):
    with pytest.raises(BenchError):
        run_bench([100, 50], seed=1, workdir=str(tmp_path))
    with pytest.raises(BenchError):
        run_bench([0], seed=1, workdir=str(tmp_path))
    with pytest.raises(BenchError):
        run_bench([], seed=1, workdir=str(tmp_path))


def test_non_2xx_reply_is_a_bench_error(live_server):
    with pytest.raises(BenchError) as excinfo:
        bench._request("GET", live_server.url + "/v1/boxes?lat=95&lon=0&radius_m=100")
    assert "status 400" in str(excinfo.value)


def test_insufficient_disk_is_reported_before_starting(tmp_path, monkeypatch):
    usage = collections.namedtuple("usage", "total used free")

    def tiny_disk(path):
        return usage(total=1000, used=990, free=10)

    monkeypatch.setattr(bench.shutil, "disk_usage", tiny_disk)
    with pytest.raises(BenchError) as excinfo:
        run_bench([100], seed=1, workdir=str(tmp_path))
    assert "disk space" in str(excinfo.value)


def test_small_run_report_is_internally_consistent(tmp_path):
    sizes = [50, 200]
    report = run_bench(sizes, seed=3, workdir=str(tmp_path), ops=5, startup_reps=3)
    assert [row["n"] for row in report["rows"]] == sizes
    for row in report["rows"]:
        assert row["bytes_per_box"] > 0
        for stats in (row["add_ms"], row["fetch_ms"], row["startup_ms"]):
            assert stats["p95"] >= stats["median"] > 0
    # scratch files are cleaned up afterwards
    assert list(tmp_path.iterdir()) == []

    assert report["sizes"] == sizes and report["ops"] == 5
    assert len(report["rows"]) == 2
    table = format_table(report)
    assert "50" in table and "200" in table


def test_bench_is_reproducible_in_structure(tmp_path):
    a = run_bench([30], seed=5, workdir=str(tmp_path / "a"), ops=3, startup_reps=2)
    b = run_bench([30], seed=5, workdir=str(tmp_path / "b"), ops=3, startup_reps=2)
    # byte identity of the stores implies identical bytes-per-box
    assert a["rows"][0]["bytes_per_box"] == b["rows"][0]["bytes_per_box"]
