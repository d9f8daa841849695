"""CLI subcommands: in-process invocations, output shape, exit codes."""

import http.server
import json
import threading

import pytest

from geofence import bench, cli
from geofence.config import api_config_from_values, load_kv_config, policy_from_values
from geofence.geo import BoxExtent
from geofence.registry import Registry


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- add / fetch -------------------------------------------------------------


def test_add_then_fetch_round_trip(capsys, live_server):
    code, out, _ = run_cli(
        capsys, "--server-url", live_server.url,
        "add", "-74.0", "40.0", "-73.9", "40.1", "--added-by", "cli", "--reason", "demo",
    )
    assert code == 0
    stored = json.loads(out)["stored"]
    code, out, _ = run_cli(
        capsys, "--server-url", live_server.url,
        "fetch", str(stored["centroid_lat"]), str(stored["centroid_lon"]), "10000",
    )
    assert code == 0
    body = json.loads(out)
    assert body["count"] == 1
    assert body["boxes"][0]["id"] == stored["id"]


def test_add_overlapping_pair_prints_replaced_ids(capsys, live_server):
    run_cli(capsys, "--server-url", live_server.url,
            "add", "0", "0", "1", "1", "--added-by", "cli")
    run_cli(capsys, "--server-url", live_server.url,
            "add", "2", "2", "3", "3", "--added-by", "cli")
    code, out, _ = run_cli(capsys, "--server-url", live_server.url,
                           "add", "0.5", "0.5", "2.5", "2.5", "--added-by", "cli")
    assert code == 0
    assert len(json.loads(out)["replaced_ids"]) == 2


def test_fetch_with_bad_latitude_exits_rejected(capsys, live_server):
    code, out, _ = run_cli(capsys, "--server-url", live_server.url, "fetch", "95", "0", "100")
    assert code == cli.EXIT_REJECTED
    assert json.loads(out)["error"] == "invalid_coordinate"


def test_add_rejected_by_server_exits_rejected(capsys, live_server):
    code, out, _ = run_cli(
        capsys, "--server-url", live_server.url,
        "add", "179", "0", "-179", "1", "--added-by", "cli",
    )
    assert code == cli.EXIT_REJECTED
    assert json.loads(out)["error"] == "antimeridian_unsupported"


def test_unreachable_server_exits_network(capsys):
    code, _, err = run_cli(capsys, "--server-url", "http://127.0.0.1:9", "fetch", "0", "0", "100")
    assert code == cli.EXIT_NETWORK
    assert "network failure" in err


class _HtmlHandler(http.server.BaseHTTPRequestHandler):
    def do_GET(self):
        body = b"<html>not the registry</html>"
        self.send_response(200)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format, *args):
        pass


@pytest.fixture
def html_server():
    """A server that answers every GET with 200 and an HTML page."""
    server = http.server.HTTPServer(("127.0.0.1", 0), _HtmlHandler)
    thread = threading.Thread(target=lambda: server.serve_forever(poll_interval=0.02), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10.0)


def test_2xx_reply_that_is_not_json_exits_server_error(capsys, html_server):
    code, out, err = run_cli(capsys, "--server-url", html_server, "fetch", "0", "0", "100")
    assert code == cli.EXIT_SERVER_ERROR
    assert out == ""
    assert "not JSON" in err and "<html>" in err


def test_unparseable_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["fetch", "abc", "0", "100"])
    assert excinfo.value.code == 2


# -- bench ---------------------------------------------------------------------


def _failing_query(self, center, radius_m):
    raise RuntimeError("simulated query failure")


@pytest.mark.parametrize(
    "patch, expected",
    [
        (lambda mp: mp.setattr(bench, "DEFAULT_FETCH_RADIUS_M", -1.0), cli.EXIT_REJECTED),
        (lambda mp: mp.setattr(Registry, "boxes_within_radius", _failing_query), cli.EXIT_SERVER_ERROR),
    ],
    ids=["4xx", "5xx"],
)
def test_bench_maps_a_non_2xx_reply_to_its_status_exit(tmp_path, capsys, monkeypatch, patch, expected):
    patch(monkeypatch)
    code, _, err = run_cli(
        capsys, "bench", "--sizes", "20", "--ops", "2", "--startup-reps", "1",
        "--workdir", str(tmp_path / "work"),
    )
    assert code == expected
    assert "answered status" in err


def test_bench_argument_error_stays_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "100,50", "--workdir", str(tmp_path))
    assert code == cli.EXIT_USAGE
    assert "ascending" in err


# -- genboxes ------------------------------------------------------------------


def test_genboxes_deterministic_per_seed(tmp_path, capsys):
    out1 = str(tmp_path / "a.snap")
    out2 = str(tmp_path / "b.snap")
    for out in (out1, out2):
        code, _, _ = run_cli(capsys, "--seed", "9", "--output", out, "genboxes", "--n", "200")
        assert code == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()
    code, _, _ = run_cli(capsys, "--seed", "10", "--output", out1, "genboxes", "--n", "200")
    assert code == 0
    assert open(out1, "rb").read() != open(out2, "rb").read()


def test_genboxes_rejects_zero_n(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "--output", str(tmp_path / "x.snap"), "genboxes", "--n", "0"
    )
    assert code == cli.EXIT_USAGE


def test_genboxes_requires_output(capsys):
    code, _, err = run_cli(capsys, "genboxes", "--n", "10")
    assert code == cli.EXIT_USAGE
    assert "--output" in err


# -- replay ----------------------------------------------------------------------


def test_replay_cli_prints_and_writes_log(tmp_path, capsys, live_server):
    traj = tmp_path / "traj.jsonl"
    traj.write_text(
        '{"t": 0, "kind": "fix", "lat": 40.0, "lon": -74.0}\n'
        '{"t": 1, "kind": "net_up"}\n'
        '{"t": 2, "kind": "fix", "lat": 40.0, "lon": -74.0}\n'
        '{"t": 3, "kind": "capture"}\n'
    )
    out_path = tmp_path / "log.txt"
    code, out, _ = run_cli(
        capsys, "--server-url", live_server.url, "--output", str(out_path),
        "replay", str(traj),
    )
    assert code == 0
    assert out.splitlines()[-1] == "t=3 capture verdict=allowed"
    assert out_path.read_text() == out


def test_replay_cli_bad_trajectory_exits_bad_input(tmp_path, capsys):
    traj = tmp_path / "traj.jsonl"
    traj.write_text('{"t": 0, "kind": "capture"}\n')
    code, _, err = run_cli(capsys, "replay", str(traj))
    assert code == cli.EXIT_BAD_INPUT
    assert "line 1" in err


def test_replay_cli_missing_file_exits_io(tmp_path, capsys):
    code, _, _ = run_cli(capsys, "replay", str(tmp_path / "missing.jsonl"))
    assert code == cli.EXIT_IO


def test_replay_cli_honors_policy_config(tmp_path, capsys, live_server):
    # box whose near edge sits ~300 m east of the fix: the default 500 m
    # standoff denies, a tightened 100 m standoff allows
    from geofence import geo

    edge = geo.destination(geo.GeoPoint(40.0, -74.0), 90.0, 300.0)
    live_server.registry.add_box(
        BoxExtent(edge.lon, 39.99, edge.lon + 0.02, 40.01), "t", "", now=0.0
    )
    traj = tmp_path / "traj.jsonl"
    traj.write_text(
        '{"t": 0, "kind": "fix", "lat": 40.0, "lon": -74.0}\n'
        '{"t": 1, "kind": "net_up"}\n'
        '{"t": 2, "kind": "fix", "lat": 40.0, "lon": -74.0}\n'
        '{"t": 3, "kind": "capture"}\n'
    )
    code, out, _ = run_cli(capsys, "--server-url", live_server.url, "replay", str(traj))
    assert code == 0
    assert "verdict=denied_restricted_area" in out.splitlines()[-1]

    conf = tmp_path / "device.conf"
    conf.write_text("permissible_distance=100\n")
    code, out, _ = run_cli(
        capsys, "--server-url", live_server.url, "--config", str(conf),
        "replay", str(traj),
    )
    assert code == 0
    assert out.splitlines()[-1] == "t=3 capture verdict=allowed"


# -- config files -----------------------------------------------------------------


def test_config_file_parsing(tmp_path):
    conf = tmp_path / "all.conf"
    conf.write_text(
        "# device overrides\n"
        "permissible_distance=250\n"
        "movement_threshold = 2000\n"
        "\n"
        "bind_addr=127.0.0.1:9111\n"
        "max_radius_m=99000\n"
    )
    values = load_kv_config(str(conf))
    policy = policy_from_values(values)
    assert policy.permissible_distance == 250.0
    assert policy.movement_threshold == 2000.0
    assert policy.stale_after == 86_400.0  # untouched default
    api = api_config_from_values(values)
    assert (api.host, api.port) == ("127.0.0.1", 9111)
    assert api.max_radius_m == 99_000.0


def test_config_unknown_key_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("permissible_distanse=250\n")
    with pytest.raises(ValueError) as excinfo:
        load_kv_config(str(conf))
    assert "permissible_distanse" in str(excinfo.value)


def test_config_non_numeric_policy_value_rejected(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("permissible_distance=lots\n")
    with pytest.raises(ValueError):
        policy_from_values(load_kv_config(str(conf)))


@pytest.mark.parametrize("key, value", [("permissible_distance", "nan"), ("lockout_after", "inf")])
def test_config_non_finite_policy_value_rejected(key, value):
    # a NaN standoff used to build a policy that allowed a capture inside a box
    with pytest.raises(ValueError, match="finite"):
        policy_from_values({key: value})


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_config_non_finite_radius_cap_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        api_config_from_values({"max_radius_m": value})


def test_replay_cli_rejects_a_non_finite_policy_config(tmp_path, capsys):
    traj = tmp_path / "traj.jsonl"
    traj.write_text('{"t": 0, "kind": "fix", "lat": 40.0, "lon": -74.0}\n')
    conf = tmp_path / "device.conf"
    conf.write_text("permissible_distance=nan\n")
    code, out, err = run_cli(capsys, "--config", str(conf), "replay", str(traj))
    assert code == cli.EXIT_USAGE
    assert out == ""
    assert "permissible_distance must be finite and positive" in err
