"""Trajectory parsing and deterministic replay against a live service."""

import json

import pytest

from geofence import geo, replay
from geofence.device import DevicePolicy
from geofence.geo import BoxExtent, GeoPoint
from geofence.replay import TrajectoryError, parse_trajectory, run_replay

START = GeoPoint(40.0, -74.0)


def jline(**kwargs):
    return json.dumps(kwargs)


def fix_line(t, p):
    return jline(t=t, kind="fix", lat=p.lat, lon=p.lon)


# -- parsing -------------------------------------------------------------------


def test_parse_happy_path():
    events = parse_trajectory([
        fix_line(0, START),
        jline(t=1, kind="net_up"),
        jline(t=5, kind="capture"),
        "",
        jline(t=9, kind="net_down"),
    ])
    assert [e.kind for e in events] == ["fix", "net_up", "capture", "net_down"]
    assert events[0].lat == START.lat


@pytest.mark.parametrize("lines,line_no", [
    (["{broken"], 1),
    (['["not", "an", "object"]'], 1),
    ([jline(t=0, kind="teleport")], 1),
    ([jline(t=0, kind="capture")], 1),  # first event must be a fix
    ([fix_line(0, START), jline(t=-1, kind="capture")], 2),  # unsorted
    ([jline(t=0, kind="fix", lat=1.0)], 1),  # missing lon
    ([jline(t=0, kind="fix", lat=99.0, lon=0.0)], 1),  # invalid coordinate
    ([jline(t="soon", kind="net_up")], 1),
    ([fix_line(0, START), "also broken"], 2),
    ([jline(t=0, kind="fix", lat=True, lon=False)], 1),  # bools are not coordinates
])
def test_parse_errors_carry_line_numbers(lines, line_no):
    with pytest.raises(TrajectoryError) as excinfo:
        parse_trajectory(lines)
    assert excinfo.value.line_no == line_no


def test_load_trajectory_from_file(tmp_path):
    path = tmp_path / "traj.jsonl"
    path.write_text(fix_line(0, START) + "\n" + jline(t=3, kind="capture") + "\n")
    events = replay.load_trajectory(str(path))
    assert len(events) == 2


# -- replay behavior -------------------------------------------------------------


def test_offline_replay_denies_every_capture():
    events = parse_trajectory([
        fix_line(0, START),
        jline(t=10, kind="capture"),
        fix_line(600, START),
        jline(t=610, kind="capture"),
    ])
    log = run_replay(events, DevicePolicy(), "http://127.0.0.1:9")
    assert log == [
        "t=0 fix lat=40.000000 lon=-74.000000 trigger=first_run refresh=offline",
        "t=10 capture verdict=denied_no_coverage",
        "t=600 fix lat=40.000000 lon=-74.000000 trigger=first_run refresh=offline",
        "t=610 capture verdict=denied_no_coverage",
    ]


def test_unreachable_server_logs_failed_refresh_and_stays_denied():
    events = parse_trajectory([
        fix_line(0, START),
        jline(t=1, kind="net_up"),
        fix_line(600, START),
        jline(t=601, kind="capture"),
    ])
    log = run_replay(events, DevicePolicy(), "http://127.0.0.1:9")
    assert log[2].endswith("trigger=first_run refresh=failed")
    assert log[3] == "t=601 capture verdict=denied_no_coverage"


def test_replay_denies_inside_restricted_box(live_server):
    live_server.registry.add_box(
        BoxExtent(START.lon - 0.01, START.lat - 0.01, START.lon + 0.01, START.lat + 0.01),
        added_by="t", reason="", now=0.0,
    )
    events = parse_trajectory([
        fix_line(0, START),
        jline(t=1, kind="net_up"),
        fix_line(600, START),
        jline(t=601, kind="capture"),
    ])
    log = run_replay(events, DevicePolicy(), live_server.url)
    assert "refresh=ok count=1" in log[2]
    assert "verdict=denied_restricted_area" in log[3]
    assert "distance_m=0.000" in log[3]


def test_replay_is_deterministic(live_server):
    live_server.registry.add_box(BoxExtent(-74.1, 39.9, -74.05, 39.95), "t", "", now=0.0)
    lines = [fix_line(0, START), jline(t=1, kind="net_up")]
    t = 600
    for i in range(10):
        p = geo.destination(START, 80.0, 2_000.0 * (i + 1))
        lines.append(fix_line(t, p))
        lines.append(jline(t=t + 10, kind="capture"))
        t += 600
    events = parse_trajectory(lines)
    first = run_replay(events, DevicePolicy(), live_server.url)
    second = run_replay(events, DevicePolicy(), live_server.url)
    assert first == second


def test_mid_replay_server_add_is_picked_up_in_vicinity(live_server):
    policy = DevicePolicy()
    # new box ~20 miles east of the second fix: inside its fetch radius
    second_fix = geo.destination(START, 90.0, 3_000.0)
    new_center = geo.destination(second_fix, 90.0, 20 * geo.MILE_M)
    added_ids = []

    def on_event(i, event, state):
        if i == 3:  # before the second fix is processed
            outcome = live_server.registry.add_box(
                BoxExtent(new_center.lon - 0.01, new_center.lat - 0.01,
                          new_center.lon + 0.01, new_center.lat + 0.01),
                added_by="authority", reason="new site", now=50.0,
            )
            added_ids.append(outcome.stored.id)

    events = parse_trajectory([
        fix_line(0, START),
        jline(t=1, kind="net_up"),
        fix_line(2, START),  # first successful refresh: no boxes yet
        fix_line(600, second_fix),  # on_event adds the box just before this
        jline(t=601, kind="capture"),
    ])
    log = run_replay(events, policy, live_server.url, on_event=on_event)
    assert log[2].endswith("refresh=ok count=0 ids=-")
    assert f"refresh=ok count=1 ids={added_ids[0]}" in log[3]
    assert log[4] == "t=601 capture verdict=allowed"


def test_net_down_stops_refreshes():
    events = parse_trajectory([
        fix_line(0, START),
        jline(t=1, kind="net_up"),
        jline(t=2, kind="net_down"),
        fix_line(600, START),
    ])
    log = run_replay(events, DevicePolicy(), "http://127.0.0.1:9")
    assert log[3].endswith("refresh=offline")
