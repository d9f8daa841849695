"""Acceptance gate: every release criterion, one test each, at its stated
tolerance. Each test prints a PASS line on success (run with -s to see them).

Criterion 7 also has a full-scale 1,000,000-box variant that takes minutes;
it is skipped unless GEOFENCE_PAPER_SCALE is set in the environment. The CI
variant at 100,000 boxes enforces the same per-box bound.
"""

import json
import math
import os
import random
import time

import pytest

from geofence import datasets, device, geo, replay
from geofence.bench import run_bench
from geofence.device import DevicePolicy, DeviceState, Verdict
from geofence.geo import EARTH_RADIUS_M, BoxExtent, GeoPoint
from geofence.registry import Registry

from conftest import stored_boxes

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def _announce(number, message):
    print(f"ACCEPTANCE PASS criterion {number}: {message}")


def _random_point(rng):
    return GeoPoint(lat=rng.uniform(-90, 90), lon=rng.uniform(-180, 180))


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_geo_kernel_properties():
    """Property suite (1,000 cases each) plus analytic anchors, under 10 s."""
    started = time.perf_counter()
    rng = random.Random(101)

    for _ in range(1000):  # corner-order invariance
        p1, p2 = _random_point(rng), _random_point(rng)
        if abs(p1.lon - p2.lon) > 180:
            continue
        assert geo.normalize_box(p1, p2) == geo.normalize_box(p2, p1)

    for _ in range(1000):  # symmetry, zero on identity, upper bound
        a, b = _random_point(rng), _random_point(rng)
        d = geo.haversine_distance(a, b)
        assert d == geo.haversine_distance(b, a)
        assert geo.haversine_distance(a, a) == 0.0
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M

    slack = 1e-6 * EARTH_RADIUS_M
    for _ in range(1000):  # approximate triangle inequality
        a, b, c = _random_point(rng), _random_point(rng), _random_point(rng)
        assert geo.haversine_distance(a, c) <= (
            geo.haversine_distance(a, b) + geo.haversine_distance(b, c) + slack
        )

    for _ in range(1000):  # centroid containment
        lon, lat = rng.uniform(-175, 170), rng.uniform(-85, 80)
        box = BoxExtent(lon, lat, lon + rng.uniform(0, 5), lat + rng.uniform(0, 5))
        assert geo.contains(box, geo.centroid(box))

    for _ in range(1000):  # distance_to_box == 0 exactly when contained
        lon, lat = rng.uniform(-170, 165), rng.uniform(-80, 75)
        box = BoxExtent(lon, lat, lon + rng.uniform(0, 2), lat + rng.uniform(0, 2))
        if rng.random() < 0.5:
            p = GeoPoint(lat=rng.uniform(box.min_lat, box.max_lat),
                         lon=rng.uniform(box.min_lon, box.max_lon))
        else:
            p = _random_point(rng)
        if geo.contains(box, p):
            assert geo.distance_to_box(p, box) == 0.0
        else:
            assert geo.distance_to_box(p, box) > 0.0

    quarter = geo.haversine_distance(GeoPoint(0, 0), GeoPoint(0, 90))
    assert abs(quarter - EARTH_RADIUS_M * math.pi / 2) <= 1e-6 * quarter
    one_degree = geo.haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1))
    assert abs(one_degree - EARTH_RADIUS_M * math.pi / 180) <= 1e-6 * one_degree

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"property suite took {elapsed:.1f}s"
    _announce(1, f"geo kernel properties and anchors hold ({elapsed:.2f}s)")


# -- criterion 2 -------------------------------------------------------------


def test_criterion_2_merge_semantics():
    """Two disjoint boxes stay separate; a bridging third yields [0,0,3,3]."""
    reg = Registry()
    a = reg.add_box(BoxExtent(0, 0, 1, 1), "tester", "", now=1.0)
    b = reg.add_box(BoxExtent(2, 2, 3, 3), "tester", "", now=2.0)
    assert reg.count() == 2
    assert a.replaced_ids == () and b.replaced_ids == ()
    c = reg.add_box(BoxExtent(0.5, 0.5, 2.5, 2.5), "tester", "", now=3.0)
    assert reg.count() == 1
    assert c.stored.extent == BoxExtent(0.0, 0.0, 3.0, 3.0)
    assert set(c.replaced_ids) == {a.stored.id, b.stored.id}
    _announce(2, "overlap merge produces exactly the encompassing box")


# -- criterion 3 -------------------------------------------------------------


def _assert_pairwise_disjoint(boxes):
    if len(boxes) <= 1000:
        for i, a in enumerate(boxes):
            for b in boxes[i + 1:]:
                assert not geo.boxes_overlap(a.extent, b.extent)
        return
    # sweep over min_lon with an active window pruned by max_lon
    ordered = sorted(boxes, key=lambda b: b.extent.min_lon)
    active: list = []
    for box in ordered:
        active = [other for other in active if other.extent.max_lon >= box.extent.min_lon]
        for other in active:
            assert not geo.boxes_overlap(box.extent, other.extent)
        active.append(box)


def test_criterion_3_disjointness_and_coverage_after_10k_adds():
    """10,000 random adds: stored set disjoint, covered points stay covered."""
    started = time.perf_counter()
    rng = random.Random(303)
    reg = Registry()
    witness_points = []
    for _ in range(10_000):
        lon = rng.uniform(-10.0, 9.9)
        lat = rng.uniform(-10.0, 9.9)
        ext = BoxExtent(lon, lat, lon + rng.uniform(0, 0.1), lat + rng.uniform(0, 0.1))
        reg.add_box(ext, "tester", "", now=1.0)
        witness_points.append(geo.centroid(ext))
        witness_points.append(GeoPoint(ext.min_lat, ext.min_lon))
        witness_points.append(GeoPoint(ext.max_lat, ext.max_lon))

    boxes = stored_boxes(reg)
    _assert_pairwise_disjoint(boxes)

    # coverage grows monotonically, so checking every witness against the
    # final set covers all intermediate adds too
    cells: dict = {}
    for box in boxes:
        for ci in range(math.floor(box.extent.min_lat), math.floor(box.extent.max_lat) + 1):
            for cj in range(math.floor(box.extent.min_lon), math.floor(box.extent.max_lon) + 1):
                cells.setdefault((ci, cj), []).append(box)
    for p in witness_points:
        candidates = cells.get((math.floor(p.lat), math.floor(p.lon)), ())
        assert any(geo.contains(b.extent, p) for b in candidates), p

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"10k adds took {elapsed:.1f}s"
    _announce(3, f"disjointness and coverage hold after 10k adds "
                 f"(final store: {len(boxes)} boxes, {elapsed:.1f}s)")


# -- criterion 4 -------------------------------------------------------------


def test_criterion_4_index_transparency():
    """boxes_within_radius equals the linear centroid scan: 10k x 1k, exact."""
    rng = random.Random(404)
    center = GeoPoint(40.0, -74.5)
    reg = Registry()
    reg.bulk_load(
        datasets.generate_extents(10_000, center, 200_000.0, rng),
        added_by="gen", reason="", now=0,
    )
    scan = [(b.id, geo.centroid(b.extent)) for b in stored_boxes(reg)]
    assert len(scan) == 10_000
    mismatches = 0
    for _ in range(1000):
        q = geo.destination(center, rng.uniform(0, 360), rng.uniform(0, 300_000.0))
        radius = rng.uniform(1_000.0, 150_000.0)
        expected = {bid for bid, c in scan if geo.haversine_distance(q, c) <= radius}
        got = {json.loads(line)["id"] for line in reg.boxes_within_radius(q, radius)}
        if got != expected:
            mismatches += 1
    assert mismatches == 0
    _announce(4, "index query equals linear scan on 10,000 boxes x 1,000 queries")


# -- criterion 5 -------------------------------------------------------------


def test_criterion_5_state_machine_boundaries():
    """Movement/staleness/lockout fire strictly past their thresholds."""
    started = time.perf_counter()
    home = GeoPoint(40.0, -74.0)

    def refreshed_state(at=0.0):
        state = DeviceState()
        device.apply_refresh(state, device.BoxRows(), home, 1e7, now=at)
        state.last_location = home
        state.last_location_at = at
        return state

    # movement: pin the threshold to the exact distance between two fixes
    near = geo.destination(home, 90.0, 1_609.344)
    exact = geo.haversine_distance(home, near)
    policy = DevicePolicy(movement_threshold=exact)
    assert device.tick(refreshed_state(), policy, 600.0, near) is None
    past = geo.destination(home, 90.0, 1_609.344 + 1.0)
    assert geo.haversine_distance(home, past) > exact
    assert device.tick(refreshed_state(), policy, 600.0, past) is device.RefreshReason.MOVED

    # staleness: 86,400 s exactly does not fire, 86,401 s does
    policy = DevicePolicy()
    assert device.tick(refreshed_state(at=0.0), policy, 86_400.0, home) is None
    assert (
        device.tick(refreshed_state(at=0.0), policy, 86_401.0, home)
        is device.RefreshReason.STALE_24H
    )

    # lockout: 2,592,000 s exactly still allows, 2,592,001 s locks out
    verdict = device.capture_request(refreshed_state(at=0.0), policy, 2_592_000.0, home).verdict
    assert verdict is Verdict.ALLOWED
    verdict = device.capture_request(refreshed_state(at=0.0), policy, 2_592_001.0, home).verdict
    assert verdict is Verdict.DENIED_STALE_CACHE

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"boundary checks took {elapsed:.3f}s"
    _announce(5, f"trigger boundaries are strict ({elapsed * 1000:.0f}ms)")


# -- criterion 6 -------------------------------------------------------------


def test_criterion_6_end_to_end_replay_matches_golden_log(live_server_factory):
    """Scenario log over a live server is byte-identical to the golden file."""
    registry = Registry(id_rng=random.Random(20240809))
    registry.add_box(BoxExtent(0.0, 40.0, 0.02, 40.02), "authority", "initial site", now=100.0)
    server = live_server_factory(registry=registry)

    def on_event(i, event, state):
        if i == 5:  # just before the fix at t=1800: a new site appears
            registry.add_box(BoxExtent(0.59, 40.0, 0.61, 40.02), "authority", "new site", now=1500.0)

    events = replay.load_trajectory(os.path.join(DATA_DIR, "replay_trajectory.jsonl"))
    log = replay.run_replay(events, DevicePolicy(), server.url, on_event=on_event)
    produced = "\n".join(log) + "\n"
    with open(os.path.join(DATA_DIR, "golden_replay.log"), "r", encoding="utf-8") as f:
        golden = f.read()
    assert produced == golden
    # spot-check the story the log must tell
    assert "t=610 capture verdict=allowed" in produced
    assert "t=1810 capture verdict=denied_restricted_area" in produced
    assert "t=2410 capture verdict=denied_restricted_area" in produced
    assert "t=3000 fix" in produced and "count=2" in produced
    _announce(6, "end-to-end replay log matches the golden log byte for byte")


# -- criterion 7 -------------------------------------------------------------


def _storage_bytes_per_box(n, tmp_path, seed=71):
    dataset_path = str(tmp_path / f"dataset_{n}.snap")
    snapshot_path = str(tmp_path / f"registry_{n}.snap")
    center = GeoPoint(40.0, -74.5)
    datasets.write_dataset(
        dataset_path,
        datasets.generate_extents(n, center, 50 * geo.MILE_M, random.Random(seed)),
    )
    reg = Registry(snapshot_path=snapshot_path)
    loaded = reg.bulk_load(datasets.read_dataset(dataset_path), "gen", "", now=1_723_200_000)
    assert loaded == n
    return os.path.getsize(snapshot_path) / n


def test_criterion_7_storage_100k_variant(tmp_path):
    """100,000 generated boxes persist at no more than 250 bytes each."""
    per_box = _storage_bytes_per_box(100_000, tmp_path)
    assert per_box <= 250.0, f"{per_box:.1f} bytes/box"
    _announce(7, f"storage footprint {per_box:.1f} bytes/box at 100k (bound 250)")


@pytest.mark.skipif(
    not os.environ.get("GEOFENCE_PAPER_SCALE"),
    reason="full 1M-box storage run takes minutes; set GEOFENCE_PAPER_SCALE=1",
)
def test_criterion_7_storage_full_scale_1m(tmp_path):
    per_box = _storage_bytes_per_box(1_000_000, tmp_path)
    assert per_box <= 250.0, f"{per_box:.1f} bytes/box"
    _announce(7, f"storage footprint {per_box:.1f} bytes/box at 1M (bound 250)")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_latency_shape(tmp_path):
    """Table orderings hold in at least 2 of 3 repeated desk-scale runs."""
    sizes = [1_000, 100_000, 250_000]
    passes = 0
    outcomes = []
    for attempt in range(3):
        report = run_bench(sizes, seed=88, workdir=str(tmp_path / f"run{attempt}"))
        adds = [row["add_ms"]["median"] for row in report["rows"]]
        fetches = [row["fetch_ms"]["median"] for row in report["rows"]]
        startups = [row["startup_ms"]["median"] for row in report["rows"]]
        ok = (
            all(adds[i] <= adds[i + 1] for i in range(len(adds) - 1))
            and all(f <= a for f, a in zip(fetches, adds))
            and all(startups[i] <= startups[i + 1] for i in range(len(startups) - 1))
        )
        passes += ok
        outcomes.append((ok, adds, fetches, startups))
    assert passes >= 2, f"orderings held in {passes}/3 runs: {outcomes}"
    _announce(8, f"latency orderings held in {passes}/3 runs")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_privacy_single_fix_after_1000_fix_replay(tmp_path):
    """A 1,000-fix replay leaves exactly one location fix in the saved cache."""
    rng = random.Random(909)
    start = GeoPoint(40.0, -74.0)
    lines = []
    t = 0
    last = start
    for _ in range(1000):
        last = geo.destination(start, rng.uniform(0, 360), rng.uniform(0, 30_000))
        lines.append(
            f'{{"t": {t}, "kind": "fix", "lat": {last.lat}, "lon": {last.lon}}}'
        )
        t += 600
    events = replay.parse_trajectory(lines)
    state = DeviceState()
    replay.run_replay(events, DevicePolicy(), "http://127.0.0.1:9", state=state)
    assert state.last_location == last

    cache_path = str(tmp_path / "device.cache")
    device.cache_save(state, cache_path)
    text = open(cache_path, encoding="utf-8").read()
    assert text.count("last_location_lat") == 1
    assert text.count("last_location_lon") == 1
    reloaded = device.cache_load(cache_path)
    assert reloaded.last_location == last
    _announce(9, "serialized cache carries exactly one location fix")
