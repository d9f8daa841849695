"""Device state machine: refresh triggers, capture gate, cache persistence."""

import ast
import gc
import glob
import json
import math
import os
import random
import types

import pytest

from geofence import datasets, device, geo, registry, snapshot
from geofence.device import (
    DevicePolicy,
    DeviceState,
    FetchFailed,
    RefreshReason,
    ServerRejected,
    Verdict,
)
from geofence.geo import MILE_M, BoxExtent, GeoPoint
from geofence.registry import RestrictedBox
from geofence.snapshot import CorruptSnapshot

POLICY = DevicePolicy()
HOME = GeoPoint(40.0, -74.0)


def fresh_state(at=0.0, center=HOME, radius=POLICY.fetch_radius, boxes=()):
    """A state that just refreshed at `at`, covered around `center`."""
    state = DeviceState()
    state.last_location = center
    state.last_location_at = at
    device.apply_refresh(state, device.BoxRows(map(device.box_record, boxes)), center, radius, now=at)
    return state


def cached_box(extent, box_id="box-1"):
    return RestrictedBox(
        id=box_id,
        extent=extent,
        added_by="t",
        reason="",
        created_at=0.0,
    )


# -- policy validation ---------------------------------------------------------


def test_policy_defaults_match_contract():
    assert POLICY.poll_interval == 600.0
    assert POLICY.movement_threshold == 1609.344
    assert POLICY.fetch_radius == 40233.6
    assert POLICY.stale_after == 86_400.0
    assert POLICY.lockout_after == 2_592_000.0
    assert POLICY.permissible_distance == 500.0


@pytest.mark.parametrize("kwargs", [
    {"poll_interval": 0},
    {"movement_threshold": -1},
    {"stale_after": 90_000.0, "lockout_after": 89_000.0},
    {"fetch_radius": 1000.0},  # below the movement threshold
    {"permissible_distance": float("nan")},
    {"lockout_after": float("inf")},
    {"stale_after": float("nan")},
])
def test_policy_rejects_inconsistent_values(kwargs):
    with pytest.raises(ValueError):
        DevicePolicy(**kwargs)


# -- tick triggers -------------------------------------------------------------


def test_tick_first_run_until_a_refresh_lands():
    state = DeviceState()
    assert device.tick(state, POLICY, 0.0, HOME) is RefreshReason.FIRST_RUN
    # still no refresh: keeps asking
    assert device.tick(state, POLICY, 600.0, HOME) is RefreshReason.FIRST_RUN
    device.apply_refresh(state, device.BoxRows(), HOME, POLICY.fetch_radius, now=600.0)
    assert device.tick(state, POLICY, 1200.0, HOME) is None


def test_tick_moved_beyond_a_mile():
    state = fresh_state()
    fix = geo.destination(HOME, 90.0, 2_500.0)  # ~1.55 miles
    assert device.tick(state, POLICY, 600.0, fix) is RefreshReason.MOVED


def test_tick_no_trigger_for_short_hop_fresh_cache():
    state = fresh_state()
    fix = geo.destination(HOME, 90.0, 800.0)
    assert device.tick(state, POLICY, 3600.0, fix) is None


def test_tick_stale_after_24h():
    state = fresh_state(at=0.0)
    assert device.tick(state, POLICY, 25 * 3600.0, HOME) is RefreshReason.STALE_24H


def test_tick_left_coverage():
    state = fresh_state()
    outside = geo.destination(HOME, 0.0, POLICY.fetch_radius + 1_000.0)
    assert device.tick(state, POLICY, 600.0, outside) is RefreshReason.LEFT_COVERAGE


def test_tick_priority_left_coverage_beats_stale_and_moved():
    state = fresh_state(at=0.0)
    outside = geo.destination(HOME, 0.0, POLICY.fetch_radius + 1_000.0)
    assert device.tick(state, POLICY, 30 * 3600.0, outside) is RefreshReason.LEFT_COVERAGE


def test_tick_priority_stale_beats_moved():
    state = fresh_state(at=0.0)
    fix = geo.destination(HOME, 90.0, 3_000.0)  # inside coverage, beyond a mile
    assert device.tick(state, POLICY, 25 * 3600.0, fix) is RefreshReason.STALE_24H


def test_tick_overwrites_the_single_stored_fix():
    state = fresh_state()
    a = geo.destination(HOME, 90.0, 100.0)
    b = geo.destination(HOME, 90.0, 200.0)
    device.tick(state, POLICY, 600.0, a)
    device.tick(state, POLICY, 1200.0, b)
    assert state.last_location == b
    assert state.last_location_at == 1200.0


def test_movement_boundary_is_strict():
    # pin the policy threshold to the exact computed distance between fixes,
    # so "moved exactly the threshold" is representable without float luck
    a = HOME
    b = geo.destination(HOME, 90.0, 1_609.344)
    exact = geo.haversine_distance(a, b)
    policy = DevicePolicy(movement_threshold=exact)
    state = fresh_state(center=a, radius=1e7)
    assert device.tick(state, policy, 600.0, b) is None  # == threshold: no trigger

    state = fresh_state(center=a, radius=1e7)
    c = geo.destination(HOME, 90.0, 1_609.344 + 1.0)
    assert geo.haversine_distance(a, c) > exact
    assert device.tick(state, policy, 600.0, c) is RefreshReason.MOVED


def test_dense_fixes_trigger_moved_from_the_refresh_point():
    # 100 m hops never exceed the 1-mile threshold between consecutive
    # fixes; measured from the refresh point, step 17 (1.7 km) does
    state = fresh_state()
    for step in range(1, 404):
        fix = geo.destination(HOME, 90.0, 100.0 * step)
        reason = device.tick(state, POLICY, 60.0 * step, fix)
        if reason is not None:
            break
    assert (step, reason) == (17, RefreshReason.MOVED)


def test_staleness_boundary_is_strict():
    state = fresh_state(at=0.0)
    assert device.tick(state, POLICY, 86_400.0, HOME) is None
    state = fresh_state(at=0.0)
    assert device.tick(state, POLICY, 86_401.0, HOME) is RefreshReason.STALE_24H


def test_coverage_boundary_is_inclusive():
    b = geo.destination(HOME, 45.0, 1_000.0)  # under the movement threshold
    rim = geo.haversine_distance(HOME, b)
    state = fresh_state(center=HOME, radius=rim)
    assert device.tick(state, POLICY, 600.0, b) is None  # on the rim: covered
    state = fresh_state(center=HOME, radius=rim * 0.999)
    assert device.tick(state, POLICY, 600.0, b) is RefreshReason.LEFT_COVERAGE


# -- apply_refresh ---------------------------------------------------------------


def test_refresh_replaces_cache_not_merges():
    state = fresh_state(boxes=[cached_box(BoxExtent(0, 0, 1, 1), "old")])
    new_a, new_b = cached_box(BoxExtent(5, 5, 6, 6), "new-a"), cached_box(BoxExtent(7, 7, 8, 8), "new-b")
    second = device.BoxRows(map(device.box_record, [new_a, new_b]))
    device.apply_refresh(state, second, HOME, POLICY.fetch_radius, now=700.0)
    assert [b.id for b in state.cache] == ["new-a", "new-b"]
    assert state.last_refresh_at == 700.0
    device.apply_refresh(state, device.BoxRows(), HOME, POLICY.fetch_radius, now=800.0)
    assert len(state.cache) == 0
    assert state.coverage_center == HOME and state.coverage_radius_m == POLICY.fetch_radius


# -- capture gate ----------------------------------------------------------------


def test_capture_inside_cached_box_denied_distance_zero():
    box = cached_box(BoxExtent(HOME.lon - 0.01, HOME.lat - 0.01, HOME.lon + 0.01, HOME.lat + 0.01))
    state = fresh_state(boxes=[box])
    decision = device.capture_request(state, POLICY, 600.0, HOME)
    assert decision.verdict is Verdict.DENIED_RESTRICTED_AREA
    assert decision.box_id == box.id
    assert decision.distance_m == 0.0


def test_capture_far_from_boxes_allowed():
    box = cached_box(BoxExtent(HOME.lon + 0.1, HOME.lat + 0.1, HOME.lon + 0.12, HOME.lat + 0.12))
    state = fresh_state(boxes=[box])
    decision = device.capture_request(state, POLICY, 600.0, HOME)
    assert decision.verdict is Verdict.ALLOWED


def test_capture_within_permissible_distance_denied():
    # a box whose near edge sits ~300 m east of the fix
    edge = geo.destination(HOME, 90.0, 300.0)
    box = cached_box(BoxExtent(edge.lon, HOME.lat - 0.01, edge.lon + 0.02, HOME.lat + 0.01))
    state = fresh_state(boxes=[box])
    decision = device.capture_request(state, POLICY, 600.0, HOME)
    assert decision.verdict is Verdict.DENIED_RESTRICTED_AREA
    assert decision.distance_m == pytest.approx(300.0, rel=0.01)


def test_capture_stale_lockout_after_30_days():
    state = fresh_state(at=0.0)
    decision = device.capture_request(state, POLICY, 31 * 86_400.0, HOME)
    assert decision.verdict is Verdict.DENIED_STALE_CACHE


def test_capture_lockout_boundary_is_strict():
    state = fresh_state(at=0.0)
    assert device.capture_request(state, POLICY, 2_592_000.0, HOME).verdict is Verdict.ALLOWED
    assert (
        device.capture_request(state, POLICY, 2_592_001.0, HOME).verdict
        is Verdict.DENIED_STALE_CACHE
    )


def test_capture_outside_coverage_denied():
    state = fresh_state()
    outside = geo.destination(HOME, 0.0, POLICY.fetch_radius + 5_000.0)
    decision = device.capture_request(state, POLICY, 600.0, outside)
    assert decision.verdict is Verdict.DENIED_NO_COVERAGE


def test_capture_never_allowed_without_any_refresh():
    rng = random.Random(31)
    state = DeviceState()
    for _ in range(200):
        fix = GeoPoint(lat=rng.uniform(-80, 80), lon=rng.uniform(-170, 170))
        device.tick(state, POLICY, rng.uniform(0, 1e6), fix)
        decision = device.capture_request(state, POLICY, rng.uniform(0, 1e6), fix)
        assert decision.verdict is Verdict.DENIED_NO_COVERAGE


def test_a_coverage_disc_without_a_refresh_on_record_denies():
    # the gate used to trust the disc alone and allow at its centre
    state = DeviceState(coverage_center=HOME, coverage_radius_m=1e5)
    assert device.capture_request(state, POLICY, 600.0, HOME).verdict is Verdict.DENIED_NO_COVERAGE


def test_a_loaded_cache_with_a_disc_but_no_refresh_denies(tmp_path):
    path = str(tmp_path / "cache.snap")
    device.cache_save(DeviceState(coverage_center=HOME, coverage_radius_m=1e5), path)
    state = device.cache_load(path)
    assert state.last_refresh_at is None and state.coverage_center == HOME
    assert device.capture_request(state, POLICY, 600.0, HOME).verdict is Verdict.DENIED_NO_COVERAGE


def test_a_clock_stepped_back_before_the_refresh_locks_out_and_refreshes():
    # a negative cache age used to read as fresh: the gate allowed and no trigger fired
    state = fresh_state(at=4e9)
    assert device.capture_request(state, POLICY, 1e9, HOME).verdict is Verdict.DENIED_STALE_CACHE
    assert device.capture_request(state, POLICY, math.nan, HOME).verdict is Verdict.DENIED_STALE_CACHE
    assert device.tick(state, POLICY, 1e9, HOME) is RefreshReason.STALE_24H


def test_a_loaded_cache_stamped_in_the_future_locks_out_and_refreshes(tmp_path):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(at=4e9), path)
    state = device.cache_load(path)
    assert state.last_refresh_at == 4e9
    assert device.capture_request(state, POLICY, 600.0, HOME).verdict is Verdict.DENIED_STALE_CACHE
    assert device.tick(state, POLICY, 600.0, HOME) is RefreshReason.STALE_24H


def test_lockout_is_monotone_without_refresh():
    state = fresh_state(at=0.0)
    t = 2_592_001.0
    for _ in range(20):
        assert device.capture_request(state, POLICY, t, HOME).verdict is Verdict.DENIED_STALE_CACHE
        t += 86_400.0


def test_lockout_check_precedes_coverage_and_restriction():
    box = cached_box(BoxExtent(HOME.lon - 0.01, HOME.lat - 0.01, HOME.lon + 0.01, HOME.lat + 0.01))
    state = fresh_state(at=0.0, boxes=[box])
    decision = device.capture_request(state, POLICY, 2_592_001.0, HOME)
    assert decision.verdict is Verdict.DENIED_STALE_CACHE  # not RESTRICTED_AREA


def test_gate_matches_brute_force_scan():
    rng = random.Random(37)
    for _ in range(100):
        boxes = []
        for i in range(rng.randint(0, 12)):
            lon = HOME.lon + rng.uniform(-0.2, 0.2)
            lat = HOME.lat + rng.uniform(-0.2, 0.2)
            boxes.append(
                cached_box(
                    BoxExtent(lon, lat, lon + rng.uniform(0, 0.05), lat + rng.uniform(0, 0.05)),
                    box_id=f"b{i}",
                )
            )
        state = fresh_state(boxes=boxes, radius=1e7)
        fix = GeoPoint(
            lat=HOME.lat + rng.uniform(-0.25, 0.25), lon=HOME.lon + rng.uniform(-0.25, 0.25)
        )
        assert_gate_matches_brute_force(state, fix)


def brute_force_gate(state, policy, fix):
    """(distance, id) of the nearest box within reach by a plain scan, or None."""
    within = [
        (geo.distance_to_box(fix, b.extent), b.id)
        for b in state.cache
        if geo.distance_to_box(fix, b.extent) <= policy.permissible_distance
    ]
    return min(within) if within else None


def assert_gate_matches_brute_force(state, fix):
    decision = device.capture_request(state, POLICY, 600.0, fix)
    best = brute_force_gate(state, POLICY, fix)
    if best is None:
        assert decision.verdict is Verdict.ALLOWED
    else:
        assert decision.verdict is Verdict.DENIED_RESTRICTED_AREA
        assert (decision.distance_m, decision.box_id) == best
    return decision


@pytest.mark.parametrize("fix_lat", [-89.9995, -45.0, 0.0, 40.0, 89.999, 90.0])
def test_gate_latitude_band_matches_brute_force_scan(fix_lat):
    rng = random.Random(int(fix_lat * 1000))
    reach_deg = POLICY.permissible_distance / geo.METERS_PER_DEG  # meridian arc
    for trial in range(60):
        fix = GeoPoint(lat=fix_lat, lon=rng.uniform(-179.0, 179.0))
        boxes = []
        # boxes whose near edge is exactly permissible_distance due north or
        # south of the fix, as a strip and as a zero-area point
        for tag, lat in (("n", fix.lat + reach_deg), ("s", fix.lat - reach_deg)):
            if -90.0 <= lat <= 90.0:
                far_lat = min(90.0, max(-90.0, lat + (0.01 if tag == "n" else -0.01)))
                strip = BoxExtent(fix.lon - 0.01, min(lat, far_lat), fix.lon + 0.01, max(lat, far_lat))
                boxes.append(cached_box(strip, f"{tag}-edge"))
                boxes.append(cached_box(BoxExtent(fix.lon, lat, fix.lon, lat), f"{tag}-point"))
        for i in range(rng.randint(0, 20)):
            lat = min(90.0, max(-90.0, fix.lat + rng.uniform(-0.02, 0.02)))
            lon = min(180.0, max(-180.0, fix.lon + rng.uniform(-0.02, 0.02)))
            w = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.01)
            h = 0.0 if rng.random() < 0.3 else rng.uniform(0.0, 0.01)
            extent = BoxExtent(lon, lat, min(180.0, lon + w), min(90.0, lat + h))
            boxes.append(cached_box(extent, f"r{trial}-{i}"))
            if rng.random() < 0.2:  # an equal-distance twin: the lower id wins
                boxes.append(cached_box(extent, f"q{trial}-{i}"))
        rng.shuffle(boxes)
        assert_gate_matches_brute_force(fresh_state(center=fix, boxes=boxes, radius=1e7), fix)


def test_gate_breaks_equal_distance_ties_by_id():
    edge = geo.destination(HOME, 90.0, 300.0)
    extent = BoxExtent(edge.lon, HOME.lat - 0.01, edge.lon + 0.02, HOME.lat + 0.01)
    state = fresh_state(boxes=[cached_box(extent, "b"), cached_box(extent, "a"), cached_box(extent, "c")])
    decision = assert_gate_matches_brute_force(state, HOME)
    assert decision.box_id == "a"


def test_gate_measures_only_boxes_inside_the_latitude_band(monkeypatch):
    near = cached_box(BoxExtent(HOME.lon - 0.01, HOME.lat - 0.001, HOME.lon + 0.01, HOME.lat + 0.001), "near")
    # 0.01 deg of latitude is about 1.1 km: both are out of reach by latitude alone
    far = [
        cached_box(BoxExtent(HOME.lon - 1, HOME.lat + 0.01, HOME.lon + 1, HOME.lat + 0.02), "north"),
        cached_box(BoxExtent(HOME.lon - 1, HOME.lat - 0.02, HOME.lon + 1, HOME.lat - 0.01), "south"),
    ]
    state = fresh_state(boxes=[near, *far])
    measured = []
    distance_to_box = geo.distance_to_box

    def recording(p, extent):
        measured.append((extent.min_lon, extent.min_lat, extent.max_lon, extent.max_lat))
        return distance_to_box(p, extent)

    monkeypatch.setattr(geo, "distance_to_box", recording)
    decision = device.capture_request(state, POLICY, 600.0, HOME)
    assert decision.box_id == "near"
    assert measured == [(near.extent.min_lon, near.extent.min_lat, near.extent.max_lon, near.extent.max_lat)]


def linear_scan_gate(boxes, fix):
    """The gate's verdict by a plain scan over the boxes themselves, not the cache."""
    within = [(geo.distance_to_box(fix, b.extent), b.id) for b in boxes]
    within = [hit for hit in within if hit[0] <= POLICY.permissible_distance]
    if not within:
        return Verdict.ALLOWED, None, None
    d, box_id = min(within)
    return Verdict.DENIED_RESTRICTED_AREA, box_id, d


def assert_gate_matches_linear_scan(state, boxes, fix):
    decision = device.capture_request(state, POLICY, 600.0, fix)
    assert (decision.verdict, decision.box_id, decision.distance_m) == linear_scan_gate(boxes, fix)
    return decision


def band_edge_boxes(rng, fix, tag):
    """A giant, boxes of its height touching the band at exactly permissible_distance, ties and clutter."""
    reach_deg = POLICY.permissible_distance / geo.METERS_PER_DEG  # meridian arc
    height = rng.uniform(0.01, 3.0)
    boxes = []
    # the giant sets the cache's largest half-height, near the fix or far from it
    giant_lat = fix.lat + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 2.0 * height)
    giant_lon = fix.lon + rng.uniform(-0.5, 0.5)
    giant = BoxExtent(giant_lon, giant_lat - height / 2.0, giant_lon + 0.01, giant_lat + height / 2.0)
    boxes.append(cached_box(giant, f"{tag}-giant"))
    for edge, lat in (("n", fix.lat + reach_deg), ("s", fix.lat - reach_deg)):
        for nudge, near in ((-1, math.nextafter(lat, -math.inf)), (0, lat), (1, math.nextafter(lat, math.inf))):
            lo, hi = (near, near + height) if edge == "n" else (near - height, near)
            boxes.append(cached_box(BoxExtent(fix.lon - 0.001, lo, fix.lon + 0.001, hi), f"{tag}-{edge}{nudge}"))
    for i in range(rng.randint(0, 30)):
        lat = fix.lat + rng.uniform(-0.02, 0.02)
        lon = fix.lon + rng.uniform(-0.02, 0.02)
        extent = BoxExtent(lon, lat, lon + rng.uniform(0.0, 0.005), lat + rng.uniform(0.0, 0.005))
        boxes.append(cached_box(extent, f"{tag}-r{i}"))
        if rng.random() < 0.3:  # an equal-distance twin: the lower id must win
            boxes.append(cached_box(extent, f"{tag}-q{i}"))
    return boxes


def test_bisected_gate_matches_a_linear_scan_with_giants_edges_and_ties():
    rng = random.Random(1601)
    for trial in range(150):
        fix = GeoPoint(lat=rng.uniform(-60.0, 60.0), lon=rng.uniform(-170.0, 170.0))
        boxes = band_edge_boxes(rng, fix, f"t{trial}")
        rng.shuffle(boxes)
        state = fresh_state(center=fix, boxes=boxes, radius=1e7)
        assert_gate_matches_linear_scan(state, boxes, fix)
        for _ in range(5):
            near = geo.destination(fix, rng.uniform(0.0, 360.0), rng.uniform(0.0, 3_000.0))
            assert_gate_matches_linear_scan(state, boxes, near)


def _wrap_lon(lon):
    return (lon + 180.0) % 360.0 - 180.0 if not -180.0 <= lon <= 180.0 else lon


def lon_edge_boxes(rng, fix, tag):
    """Boxes whose near edge is permissible_distance east or west of the fix (and an ulp either side),
    wrapped across +/-180, plus clutter around the fix."""
    boxes = []
    lat_cos = math.cos(math.radians(fix.lat))
    sin_half = math.sin(POLICY.permissible_distance / geo.EARTH_RADIUS_M / 2.0)
    if lat_cos > sin_half:
        # the longitude gap at which a point on the fix's parallel is exactly permissible_distance away
        gap = math.degrees(2.0 * math.asin(sin_half / lat_cos))
        for side in (-1.0, 1.0):
            edge = fix.lon + side * gap
            for nudge, near in enumerate((math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf))):
                near = _wrap_lon(near)
                far = near + side * rng.uniform(0.0, 0.01)
                if -180.0 <= far <= 180.0:
                    lo, hi = min(near, far), max(near, far)
                    boxes.append(cached_box(BoxExtent(lo, fix.lat - 0.001, hi, fix.lat + 0.001), f"{tag}-{side}{nudge}"))
    # the reach's easternmost and westernmost points, poleward of the fix's parallel
    for side, bearings in (("e", range(0, 181)), ("w", range(180, 361))):
        rim = [geo.destination(fix, b, POLICY.permissible_distance * (1 - 1e-9)) for b in bearings]
        far = max(rim, key=lambda p: abs(_wrap_lon(p.lon - fix.lon)))
        boxes.append(cached_box(BoxExtent(far.lon, far.lat, far.lon, far.lat), f"{tag}-{side}-rim"))
    spread = min(180.0, 0.02 / max(lat_cos, 1e-4))  # about 2 km of longitude, all of it at a pole
    for i in range(rng.randint(0, 40)):
        lat = min(90.0, max(-90.0, fix.lat + rng.uniform(-0.02, 0.02)))
        lon = _wrap_lon(fix.lon + rng.uniform(-spread, spread))
        extent = BoxExtent(lon, lat, min(180.0, lon + rng.uniform(0.0, spread / 8)), min(90.0, lat + rng.uniform(0.0, 0.005)))
        boxes.append(cached_box(extent, f"{tag}-r{i}"))
        if rng.random() < 0.2:  # an equal-distance twin: the lower id must win
            boxes.append(cached_box(extent, f"{tag}-q{i}"))
    return boxes


def test_gate_longitude_window_matches_a_linear_scan_at_the_poles_and_the_antimeridian():
    rng = random.Random(1901)
    places = (
        lambda: GeoPoint(rng.uniform(89.9, 90.0), rng.uniform(-180.0, 180.0)),
        lambda: GeoPoint(rng.uniform(-90.0, -89.9), rng.uniform(-180.0, 180.0)),
        lambda: GeoPoint(rng.uniform(70.0, 89.9), rng.uniform(-180.0, 180.0)),
        lambda: GeoPoint(rng.uniform(-60.0, 60.0), rng.choice((180.0, -180.0, rng.uniform(179.99, 180.0)))),
        lambda: GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(-180.0, -179.99)),
        lambda: GeoPoint(rng.uniform(-80.0, 80.0), rng.uniform(-180.0, 180.0)),
    )
    for trial in range(240):
        fix = places[trial % len(places)]()
        boxes = lon_edge_boxes(rng, fix, f"t{trial}")
        rng.shuffle(boxes)
        state = fresh_state(center=fix, boxes=boxes, radius=1e7)
        assert_gate_matches_linear_scan(state, boxes, fix)
        for _ in range(3):
            near = geo.destination(fix, rng.uniform(0.0, 360.0), rng.uniform(0.0, 1_000.0))
            assert_gate_matches_linear_scan(state, boxes, near)


def test_gate_measures_few_boxes_on_a_dense_cache(monkeypatch):
    center = GeoPoint(40.0, -74.5)
    extents = datasets.generate_extents(25_000, center, 25 * MILE_M, random.Random(1903))
    boxes = [cached_box(extent, f"b{i:05d}") for i, extent in enumerate(extents)]
    state = fresh_state(center=center, boxes=boxes)
    rng = random.Random(1904)
    fixes = [geo.destination(center, rng.uniform(0.0, 360.0), rng.uniform(0.0, 20 * MILE_M)) for _ in range(100)]
    calls = []
    distance_to_box = geo.distance_to_box

    def counting(p, extent):
        calls[-1] += 1
        return distance_to_box(p, extent)

    monkeypatch.setattr(geo, "distance_to_box", counting)
    decisions = []
    for fix in fixes:
        calls.append(0)
        decisions.append(device.capture_request(state, POLICY, 600.0, fix))
    monkeypatch.undo()
    assert max(calls) < 50
    for fix, decision in list(zip(fixes, decisions))[:5]:
        assert (decision.verdict, decision.box_id, decision.distance_m) == linear_scan_gate(boxes, fix)


def test_bisected_gate_on_an_empty_cache_allows():
    state = fresh_state(boxes=[])
    assert len(state.cache) == 0 and state.cache.half_h == 0.0
    assert_gate_matches_linear_scan(state, [], HOME).verdict is Verdict.ALLOWED


def test_fetched_rows_sort_themselves_whatever_order_the_records_arrive_in(monkeypatch):
    rng = random.Random(1602)
    for trial in range(40):
        fix = geo.destination(HOME, rng.uniform(0.0, 360.0), rng.uniform(0.0, 2_000.0))
        boxes = band_edge_boxes(rng, fix, f"t{trial}")
        records = [device.box_record(b) for b in boxes]
        rng.shuffle(records)
        # the server's order, reversed, or as it is (a stable sort leaves equal latitudes as they came)
        records.sort(key=lambda r: -r["centroid_lat"] if trial % 2 else r["centroid_lat"])
        serve_records(monkeypatch, records)
        rows = device.fetch_boxes("http://127.0.0.1:9", HOME, POLICY.fetch_radius)
        assert list(rows.centroid_lat) == sorted(r["centroid_lat"] for r in records)
        assert rows.ids == [r["id"] for r in sorted(records, key=lambda r: r["centroid_lat"])]
        assert sorted(tuple(device.box_record(b).items()) for b in rows) == sorted(tuple(r.items()) for r in records)
        state = fresh_state(center=fix, radius=1e7)
        device.apply_refresh(state, rows, fix, 1e7, now=0.0)
        assert state.cache is rows  # installed, not copied
        assert_gate_matches_linear_scan(state, boxes, fix)


def test_gate_is_deterministic():
    box = cached_box(BoxExtent(HOME.lon, HOME.lat, HOME.lon + 0.01, HOME.lat + 0.01))
    state = fresh_state(boxes=[box])
    first = device.capture_request(state, POLICY, 600.0, HOME)
    for _ in range(5):
        assert device.capture_request(state, POLICY, 600.0, HOME) == first


# -- fetch_boxes -----------------------------------------------------------------


def test_fetch_boxes_round_trips_server_records(live_server):
    reg = live_server.registry
    stored = [
        reg.add_box(BoxExtent(-74.02, 39.99, -74.0, 40.01), "t", "a", now=5.0).stored,
        reg.add_box(BoxExtent(-73.95, 40.02, -73.93, 40.04), "t", "b", now=6.0).stored,
    ]
    boxes = device.fetch_boxes(live_server.url, HOME, 25 * MILE_M)
    assert {b.id: device.box_record(b) for b in boxes} == {b.id: device.box_record(b) for b in stored}


def test_fetch_boxes_unreachable_server_raises_fetch_failed():
    with pytest.raises(FetchFailed):
        device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0, timeout=0.5)


def test_fetch_boxes_rejection_carries_status(live_server):
    with pytest.raises(ServerRejected) as excinfo:
        device.fetch_boxes(live_server.url, HOME, -5.0)
    assert excinfo.value.status == 400


# a created_at no float holds, as json.dumps writes it: the non-JSON NaN token, or all 401 digits
NON_FINITE_TIMES = [
    pytest.param("created_at", float("nan"), id="created_at-nan"),
    pytest.param("created_at", 10**400, id="created_at-int too large"),
]


@pytest.mark.parametrize(
    "key, value", [("min_lat", True), ("created_at", "12"), ("centroid_lat", 40.001), *NON_FINITE_TIMES]
)
def test_fetch_boxes_rejects_a_record_with_a_bool_coordinate_or_text_time(monkeypatch, key, value):
    record = device.box_record(cached_box(BoxExtent(-74.01, 39.99, -73.99, 40.01)))
    body = json.dumps({"boxes": [dict(record, **{key: value})]}).encode()
    monkeypatch.setattr(device, "http_request", lambda *args, **kwargs: (200, body))
    with pytest.raises(FetchFailed, match=key):
        device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)


# JSON values that str() would turn into text; a box record's text fields must be strings
NON_STRING_TEXT = [("id", None), ("added_by", 5), ("reason", ["x"])]


@pytest.mark.parametrize("key, value", NON_STRING_TEXT)
def test_fetch_boxes_rejects_a_record_whose_text_field_is_not_a_string(monkeypatch, key, value):
    record = device.box_record(cached_box(BoxExtent(-74.01, 39.99, -73.99, 40.01)))
    body = json.dumps({"boxes": [dict(record, **{key: value})]}).encode()
    monkeypatch.setattr(device, "http_request", lambda *args, **kwargs: (200, body))
    with pytest.raises(FetchFailed, match=f"'{key}' is not a string"):
        device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)


def many_boxes(n):
    """n disjoint small boxes near HOME."""
    return [cached_box(BoxExtent(-74.0 + i * 1e-5, 40.0, -73.999999 + i * 1e-5, 40.000001), f"b{i}") for i in range(n)]


def serve_records(monkeypatch, records):
    """Reply to every request with records as the registry serves them: canonical lines."""
    body = registry.encode_boxes([snapshot.encode_record(r) for r in records])
    monkeypatch.setattr(device, "http_request", lambda *args, **kwargs: (200, body))


@pytest.mark.parametrize("enabled", [True, False])
def test_fetch_boxes_leaves_the_collector_as_it_found_it(monkeypatch, gc_starts, enabled):
    records = [device.box_record(b) for b in many_boxes(50)]
    serve_records(monkeypatch, records)
    (gc.enable if enabled else gc.disable)()
    assert len(device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)) == 50
    assert gc.isenabled() is enabled
    records[25]["min_lat"] = True
    serve_records(monkeypatch, records)
    with pytest.raises(FetchFailed, match="min_lat"):
        device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)
    assert gc.isenabled() is enabled


def test_fetch_boxes_starts_no_collection_while_it_decodes(monkeypatch, gc_starts):
    serve_records(monkeypatch, [device.box_record(b) for b in many_boxes(5000)])
    check = registry.canonical_columns
    seen = []  # collections started so far: at the parse, then once the records are checked

    def watched_loads(body):
        seen.append(len(gc_starts))
        return json.loads(body)

    def watched(records, lines=None):
        columns = check(records, lines)
        seen.append(len(gc_starts))
        return columns

    # the parse is called as device.json.loads, as perfbench's tracer relies on
    monkeypatch.setattr(device, "json", types.SimpleNamespace(loads=watched_loads))
    monkeypatch.setattr(registry, "canonical_columns", watched)
    gc.enable()
    assert len(device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)) == 5000
    assert len(seen) == 2 and seen[-1] == seen[0]


def test_a_refresh_leaves_the_young_generation_a_handful_of_objects(monkeypatch, gc_starts):
    serve_records(monkeypatch, [device.box_record(b) for b in many_boxes(5000)])
    state = DeviceState()
    gc.disable()
    gc.collect()
    before = len(gc.get_objects(0))
    rows = device.fetch_boxes("http://127.0.0.1:9", HOME, 1000.0)
    device.apply_refresh(state, rows, HOME, 1000.0, now=0.0)
    young = len(gc.get_objects(0)) - before
    assert len(state.cache) == 5000
    assert young < 50  # a box per record would leave about 10,000


# -- http_request ----------------------------------------------------------------


def test_http_request_returns_error_replies_with_their_body(live_server):
    status, body = device.http_request("GET", live_server.url + "/v1/boxes?lat=95&lon=0&radius_m=100")
    assert status == 400
    assert json.loads(body)["error"] == "invalid_coordinate"
    status, body = device.http_request("GET", live_server.url + "/nowhere")
    assert status == 404


_HTTP_CLIENT_MODULES = {"urllib.request", "urllib.error", "http.client"}


def _http_client_imports(path):
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(name for name in names if name in _HTTP_CLIENT_MODULES)
    return found


def test_only_the_device_module_imports_an_http_client():
    package_dir = os.path.dirname(device.__file__)
    importers = {
        os.path.basename(path): _http_client_imports(path)
        for path in glob.glob(os.path.join(package_dir, "*.py"))
    }
    assert importers.pop("device.py") == _HTTP_CLIENT_MODULES
    assert {name: mods for name, mods in importers.items() if mods} == {}


# -- cache persistence -------------------------------------------------------------


def test_cached_rows_iterate_as_the_boxes_they_were_built_from():
    rng = random.Random(18)
    boxes = []
    for i in range(50):
        lon, lat = rng.uniform(-75, -73), rng.uniform(39, 41)
        extent = BoxExtent(lon, lat, lon + rng.uniform(0, 0.02), lat + rng.uniform(0, 0.02))
        boxes.append(RestrictedBox(f"b{i}", extent, f"op{i}", f"reason {i}", rng.uniform(0, 1e9)))
    rows = device.BoxRows(map(device.box_record, boxes))
    assert list(rows) == sorted(boxes, key=lambda b: geo.centroid(b.extent).lat)


def test_cache_round_trip_empty_state(tmp_path):
    path = str(tmp_path / "cache.snap")
    device.cache_save(DeviceState(), path)
    state = device.cache_load(path)
    assert state == DeviceState()


def test_cache_round_trip_populated_state(tmp_path):
    path = str(tmp_path / "cache.snap")
    boxes = [
        cached_box(BoxExtent(1.25, 2.5, 3.75, 4.125), "a"),
        cached_box(BoxExtent(-10.1, -20.2, -10.0, -20.1), "b"),
    ]
    state = fresh_state(at=123.5, boxes=boxes)
    device.tick(state, POLICY, 700.25, geo.destination(HOME, 10.0, 50.0))
    device.cache_save(state, path)
    loaded = device.cache_load(path)
    assert loaded == state


def test_cache_truncation_detected(tmp_path):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(), path)
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-1])
    with pytest.raises(CorruptSnapshot):
        device.cache_load(path)


@pytest.mark.parametrize(
    "bad, message",
    [(b"{not json\n", "invalid JSON on line 3"), (b"[1, 2]\n", "record on line 3 is not an object")],
    ids=["not JSON", "JSON array"],
)
def test_cache_load_names_the_bad_line(tmp_path, bad, message):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(boxes=[cached_box(BoxExtent(1.0, 1.0, 2.0, 2.0), "a")]), path)
    head = open(path, "rb").read().split(b"\n")[1] + b"\n"
    snapshot.write_snapshot(path, [head, bad])
    with pytest.raises(CorruptSnapshot, match=message):
        device.cache_load(path)


@pytest.mark.parametrize(
    "key, value", [("max_lon", False), ("created_at", "0"), ("centroid_lat", 40.001), *NON_FINITE_TIMES]
)
def test_cache_load_rejects_a_box_with_a_bool_coordinate_or_text_time(tmp_path, key, value):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(boxes=[cached_box(BoxExtent(-74.01, 39.99, -73.99, 40.01))]), path)
    head, line = snapshot.read_snapshot(path)
    bad = snapshot.encode_record(dict(json.loads(line), **{key: value}))
    snapshot.write_snapshot(path, [head, bad])
    with pytest.raises(CorruptSnapshot, match=key):
        device.cache_load(path)


@pytest.mark.parametrize("key, value", NON_STRING_TEXT)
def test_cache_load_rejects_a_box_whose_text_field_is_not_a_string(tmp_path, key, value):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(boxes=[cached_box(BoxExtent(-74.01, 39.99, -73.99, 40.01))]), path)
    head, line = snapshot.read_snapshot(path)
    bad = snapshot.encode_record(dict(json.loads(line), **{key: value}))
    snapshot.write_snapshot(path, [head, bad])
    with pytest.raises(CorruptSnapshot, match=f"'{key}' is not a string"):
        device.cache_load(path)


def test_cache_load_reads_non_canonical_box_lines_as_each_line_alone(tmp_path):
    path = str(tmp_path / "cache.snap")
    state = fresh_state(boxes=many_boxes(600))
    device.cache_save(state, path)
    lines = snapshot.read_snapshot(path)
    assert device.cache_load(path).cache == state.cache
    # lines 1-256 are the first chunk of box lines; an int-cornered, a spaced
    # and a newline-less line parse to the same boxes
    for k in (1, 256, 257):
        record = json.loads(lines[k])
        lines[k] = json.dumps(dict(record, created_at=0)).encode() + b"\n"
    lines[-1] = lines[-1].rstrip(b"\n")
    snapshot.write_snapshot(path, lines)
    loaded = device.cache_load(path)
    assert loaded.cache == state.cache and loaded.last_refresh_at == state.last_refresh_at
    lines[400] = b"{not json\n"
    snapshot.write_snapshot(path, lines)
    with pytest.raises(CorruptSnapshot, match="invalid JSON on line 402"):
        device.cache_load(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_cache_load_leaves_the_collector_as_it_found_it(tmp_path, gc_starts, enabled):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(boxes=many_boxes(50)), path)
    (gc.enable if enabled else gc.disable)()
    assert len(device.cache_load(path).cache) == 50
    assert gc.isenabled() is enabled
    lines = snapshot.read_snapshot(path)
    lines[25] = snapshot.encode_record(dict(json.loads(lines[25]), max_lon=False))
    snapshot.write_snapshot(path, lines)
    with pytest.raises(CorruptSnapshot, match="max_lon"):
        device.cache_load(path)
    assert gc.isenabled() is enabled


def test_cache_load_starts_no_collection_while_it_builds(tmp_path, monkeypatch, gc_starts):
    path = str(tmp_path / "cache.snap")
    device.cache_save(fresh_state(boxes=many_boxes(5000)), path)
    check = registry.canonical_columns
    checked, seen = [], []  # records checked and collections started so far, as each chunk is checked

    def watched(records, lines=None):
        columns = check(records, lines)
        checked.append(len(records))
        seen.append(len(gc_starts))
        return columns

    monkeypatch.setattr(registry, "canonical_columns", watched)
    gc.enable()
    assert len(device.cache_load(path).cache) == 5000
    assert sum(checked) == 5000 and seen[-1] == seen[0]


def test_cache_file_contains_exactly_one_fix(tmp_path):
    path = str(tmp_path / "cache.snap")
    state = DeviceState()
    rng = random.Random(41)
    for i in range(500):
        fix = GeoPoint(lat=rng.uniform(-80, 80), lon=rng.uniform(-170, 170))
        device.tick(state, POLICY, 600.0 * i, fix)
    device.cache_save(state, path)
    text = open(path, encoding="utf-8").read()
    assert text.count("last_location_lat") == 1


@pytest.mark.parametrize(
    "key, value",
    [
        ("coverage_radius_m", float("nan")),
        ("coverage_radius_m", float("inf")),
        ("coverage_radius_m", -1.0),
        ("coverage_radius_m", None),
        ("coverage_radius_m", "40000"),
        ("last_refresh_at", "yesterday"),
        ("last_refresh_at", True),
        ("last_refresh_at", float("nan")),
        ("last_location_at", float("inf")),
        ("last_location_at", "0"),
    ],
)
def test_cache_load_rejects_a_header_number_that_is_not_one(tmp_path, key, value):
    path = str(tmp_path / "cache.snap")
    box = cached_box(BoxExtent(-74.01, 39.99, -73.99, 40.01), "a")
    device.cache_save(fresh_state(at=100.0, boxes=[box]), path)
    lines = snapshot.read_snapshot(path)
    head = json.loads(lines[0])
    head[key] = value
    snapshot.write_snapshot(path, [snapshot.encode_record(head), *lines[1:]])
    with pytest.raises(CorruptSnapshot, match=key):
        device.cache_load(path)
