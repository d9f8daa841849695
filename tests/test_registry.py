"""Registry: merge-on-add semantics, vicinity queries, persistence, audit."""

import errno
import itertools
import json
import math
import os
import random
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

from geofence import datasets, device, geo, registry, snapshot
from geofence.geo import MILE_M, BoxExtent, GeoPoint
from geofence.registry import Registry, RestrictedBox, box_record, encode_boxes, row_from_record
from geofence.snapshot import CorruptSnapshot, StorageFailure

from conftest import WORLD_RADIUS_M, box_from_row, stored_boxes


def add(reg, extent, now=1000.0, added_by="tester", reason="test"):
    return reg.add_box(extent, added_by=added_by, reason=reason, now=now)


def extents(reg):
    return {b.extent for b in stored_boxes(reg)}


def query_ids(reg, center, radius):
    """The ids of a radius query's boxes, parsed from the lines it returns."""
    return [json.loads(line)["id"] for line in reg.boxes_within_radius(center, radius)]


# -- add and merge -----------------------------------------------------------


def test_disjoint_boxes_stored_separately():
    reg = Registry()
    a = add(reg, BoxExtent(0, 0, 1, 1))
    b = add(reg, BoxExtent(2, 2, 3, 3))
    assert a.replaced_ids == () and b.replaced_ids == ()
    assert a.stored.extent == BoxExtent(0, 0, 1, 1)
    assert b.stored.extent == BoxExtent(2, 2, 3, 3)
    assert reg.count() == 2


def test_overlapping_add_merges_into_encompassing_box():
    reg = Registry()
    a = add(reg, BoxExtent(0, 0, 1, 1))
    b = add(reg, BoxExtent(2, 2, 3, 3))
    c = add(reg, BoxExtent(0.5, 0.5, 2.5, 2.5))
    assert c.stored.extent == BoxExtent(0, 0, 3, 3)
    assert set(c.replaced_ids) == {a.stored.id, b.stored.id}
    assert reg.count() == 1


def test_add_inside_existing_box_does_not_grow_it():
    reg = Registry()
    existing = add(reg, BoxExtent(0, 0, 10, 10))
    inner = add(reg, BoxExtent(2, 2, 3, 3))
    assert inner.stored.extent == BoxExtent(0, 0, 10, 10)
    assert inner.replaced_ids == (existing.stored.id,)
    assert reg.count() == 1


def test_merge_cascades_transitively():
    # D overlaps only C, but the C+D union then reaches B, then A
    reg = Registry()
    add(reg, BoxExtent(0, 0, 1, 1))
    add(reg, BoxExtent(1.5, 0, 2.5, 1))
    add(reg, BoxExtent(3, 0, 4, 1))
    outcome = add(reg, BoxExtent(2.4, 0, 3.1, 1))
    assert outcome.stored.extent == BoxExtent(0, 0, 4, 1) or reg.count() > 1
    # the cascade only reaches A if the merged union touches it; verify exactly
    assert reg.count() == 2
    assert extents(reg) == {BoxExtent(0, 0, 1, 1), BoxExtent(1.5, 0, 4, 1)}


def test_boundary_touch_merges():
    reg = Registry()
    add(reg, BoxExtent(0, 0, 1, 1))
    outcome = add(reg, BoxExtent(1, 1, 2, 2))
    assert outcome.stored.extent == BoxExtent(0, 0, 2, 2)
    assert reg.count() == 1


def test_readding_same_extent_is_idempotent_on_extents():
    reg = Registry()
    add(reg, BoxExtent(5, 5, 6, 6))
    before = extents(reg)
    add(reg, BoxExtent(5, 5, 6, 6))
    assert extents(reg) == before


def test_added_by_must_be_non_empty():
    reg = Registry()
    with pytest.raises(ValueError):
        add(reg, BoxExtent(0, 0, 1, 1), added_by="")


def test_stored_centroid_matches_extent():
    reg = Registry()
    outcome = add(reg, BoxExtent(10, 20, 14, 26))
    [line] = reg.boxes_within_radius(GeoPoint(23.0, 12.0), 1.0)
    record = json.loads(line)
    assert GeoPoint(record["centroid_lat"], record["centroid_lon"]) == geo.centroid(outcome.stored.extent)


def test_audit_fields_come_from_latest_caller():
    reg = Registry()
    add(reg, BoxExtent(0, 0, 1, 1), added_by="first", reason="one")
    outcome = reg.add_box(BoxExtent(0.5, 0.5, 2, 2), added_by="second", reason="two", now=2000.0)
    assert outcome.stored.added_by == "second"
    assert outcome.stored.reason == "two"
    assert outcome.stored.created_at == 2000.0


def test_ids_are_unique_32_hex():
    reg = Registry(id_rng=random.Random(1))
    seen = set()
    for i in range(200):
        lon = (i % 100) * 1.5 - 80
        lat = (i // 100) * 2.0 - 40
        outcome = add(reg, BoxExtent(lon, lat, lon + 0.5, lat + 0.5))
        assert len(outcome.stored.id) == 32
        int(outcome.stored.id, 16)
        seen.add(outcome.stored.id)
    assert len(seen) == 200


def test_global_disjointness_after_random_adds():
    reg = Registry()
    rng = random.Random(42)
    for _ in range(300):
        lon = rng.uniform(-10, 9)
        lat = rng.uniform(-10, 9)
        add(reg, BoxExtent(lon, lat, lon + rng.uniform(0, 1), lat + rng.uniform(0, 1)))
    boxes = stored_boxes(reg)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1:]:
            assert not geo.boxes_overlap(a.extent, b.extent)


def test_coverage_monotone_after_random_adds():
    reg = Registry()
    rng = random.Random(43)
    samples = []
    for _ in range(200):
        lon = rng.uniform(-10, 9)
        lat = rng.uniform(-10, 9)
        ext = BoxExtent(lon, lat, lon + rng.uniform(0, 1), lat + rng.uniform(0, 1))
        samples.append(geo.centroid(ext))
        add(reg, ext)
    boxes = stored_boxes(reg)
    for p in samples:
        assert any(geo.contains(b.extent, p) for b in boxes)


# -- vicinity queries ----------------------------------------------------------


def box_with_centroid_at(center, bearing, distance_m, half_deg=0.01):
    c = geo.destination(center, bearing, distance_m)
    return BoxExtent(c.lon - half_deg, c.lat - half_deg, c.lon + half_deg, c.lat + half_deg)


def test_radius_query_includes_near_and_excludes_far():
    center = GeoPoint(40.0, -74.0)
    reg = Registry()
    near = add(reg, box_with_centroid_at(center, 90.0, 10 * MILE_M)).stored
    far = add(reg, box_with_centroid_at(center, 270.0, 30 * MILE_M)).stored
    ids = set(query_ids(reg, center, 25 * MILE_M))
    assert near.id in ids
    assert far.id not in ids


def test_radius_query_is_inclusive_at_the_boundary():
    center = GeoPoint(10.0, 10.0)
    reg = Registry()
    stored = add(reg, BoxExtent(10.5, 10.0, 10.7, 10.0)).stored
    exact = geo.haversine_distance(center, geo.centroid(stored.extent))
    assert query_ids(reg, center, exact) == [stored.id]


def test_radius_query_rejects_non_positive_radius():
    reg = Registry()
    with pytest.raises(ValueError):
        reg.boxes_within_radius(GeoPoint(0, 0), 0.0)
    with pytest.raises(ValueError):
        reg.boxes_within_radius(GeoPoint(0, 0), -5.0)


def test_a_query_at_the_world_radius_returns_every_stored_line(tmp_path):
    # stored_boxes reads the store through this query, so it must miss no box anywhere
    rng = random.Random(1717)
    edges = [
        BoxExtent(-180, 89.9, 180, 90), BoxExtent(0, 90, 0, 90),  # north pole
        BoxExtent(-10, -90, 10, -89.99), BoxExtent(0, -90, 0, -90),  # south pole
        BoxExtent(179.9, 0, 180, 0.1), BoxExtent(-180, 5, -179.9, 5.1),  # beside +180 and -180
        BoxExtent(180, -30, 180, -29), BoxExtent(-180, 45, -180, 45),  # on the antimeridian
        BoxExtent(-180, -60, 180, 60),  # the whole width
    ]
    randoms = []
    for _ in range(2000):
        lon, lat = rng.uniform(-180, 179.99), rng.uniform(-90, 89.99)
        randoms.append(BoxExtent(lon, lat, lon + rng.uniform(0, 0.01), lat + rng.uniform(0, 0.01)))
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    reg.bulk_load(edges + randoms, "t", "", now=0)
    stored = sorted(snapshot.read_snapshot(path))
    assert len(stored) == len(edges) + len(randoms)
    for center in (GeoPoint(0, 0), GeoPoint(90, 0), GeoPoint(-90, 0), GeoPoint(0, 180), GeoPoint(0, -180)):
        assert sorted(reg.boxes_within_radius(center, WORLD_RADIUS_M)) == stored
    assert {b.extent for b in stored_boxes(reg)} == set(edges + randoms)


def assert_query_matches_scan(reg, center, radius):
    expected = {b.id for b in stored_boxes(reg) if geo.haversine_distance(center, geo.centroid(b.extent)) <= radius}
    got = query_ids(reg, center, radius)
    assert len(got) == len(set(got))
    assert set(got) == expected
    return expected


def _anywhere(rng):
    return rng.uniform(-85, 85), rng.uniform(-179, 178)


def _north_cap(rng):
    return rng.uniform(80, 89.97), rng.uniform(-180, 179.97)


def _south_cap(rng):
    return rng.uniform(-90, -80), rng.uniform(-180, 179.97)


def _antimeridian(rng):
    return rng.uniform(-60, 60), rng.choice((rng.uniform(-180, -176), rng.uniform(176, 179.97)))


def test_radius_query_matches_linear_scan_oracle():
    for seed, where in ((4242, _anywhere), (4243, _north_cap), (4244, _south_cap), (4245, _antimeridian)):
        rng = random.Random(seed)
        reg = Registry()
        reg.bulk_load(
            (BoxExtent(lon, lat, lon + 0.02, lat + 0.02) for lat, lon in (where(rng) for _ in range(1000))),
            added_by="gen",
            reason="",
            now=0,
        )
        boxes = stored_boxes(reg)
        for _ in range(100):
            lat, lon = where(rng)
            center = GeoPoint(lat=lat, lon=lon)
            # 1 m to 21,000 km; near a pole the wider radii reach its cap,
            # so the longitude window is the whole circle
            assert_query_matches_scan(reg, center, 10 ** rng.uniform(0.0, 7.33))
            # a radius exactly equal to one centroid's distance includes it
            box = rng.choice(boxes)
            exact = geo.haversine_distance(center, geo.centroid(box.extent))
            if exact > 0:
                assert box.id in assert_query_matches_scan(reg, center, exact)


@pytest.mark.parametrize("radius", [1.0, 5_000.0, 25 * MILE_M, WORLD_RADIUS_M], ids=["1m", "5km", "25mi", "world"])
def test_centroids_at_the_radius_and_an_ulp_either_side_match_the_linear_scan(radius):
    rng = random.Random(int(radius) + 1907)
    centres = [
        GeoPoint(0.0, rng.uniform(-179.0, 179.0)),  # the equator
        GeoPoint(90.0, 0.0), GeoPoint(rng.uniform(89.99, 90.0), rng.uniform(-180.0, 180.0)),  # north pole
        GeoPoint(-90.0, 0.0), GeoPoint(rng.uniform(-90.0, -89.99), rng.uniform(-180.0, 180.0)),  # south pole
        GeoPoint(rng.uniform(-60.0, 60.0), 180.0), GeoPoint(rng.uniform(-60.0, 60.0), -180.0),  # +/-180
        GeoPoint(rng.uniform(-60.0, 60.0), rng.uniform(179.999, 180.0)),
    ]
    def at(center, distance):
        if abs(center.lat) < 90.0:
            return geo.destination(center, rng.uniform(0.0, 360.0), distance)
        # from a pole every bearing is south or north: a ring is a parallel
        colat = math.degrees(min(math.pi, distance / geo.EARTH_RADIUS_M))
        return GeoPoint(math.copysign(90.0 - colat, center.lat), rng.uniform(-180.0, 180.0))

    for center in centres:
        # point boxes, so each centroid is the point itself; one ring at the radius, one just inside and outside it
        points = [at(center, radius) for _ in range(40)]
        points += [at(center, radius * f) for f in (1 - 1e-9, 1 + 1e-9) * 10]
        reg = Registry()
        reg.bulk_load({BoxExtent(p.lon, p.lat, p.lon, p.lat) for p in points}, "gen", "", now=0)
        assert_query_matches_scan(reg, center, radius)
        boxes = stored_boxes(reg)
        for box in rng.sample(boxes, min(10, len(boxes))):
            exact = geo.haversine_distance(center, geo.centroid(box.extent))
            for r in (math.nextafter(exact, 0.0), exact, math.nextafter(exact, math.inf)):
                if r > 0:
                    assert (box.id in assert_query_matches_scan(reg, center, r)) is (r >= exact)


def test_a_far_away_giant_does_not_widen_a_later_adds_overlap_search(monkeypatch):
    store = datasets.generate_extents(20_000, GeoPoint(40.0, -74.5), 50 * MILE_M, random.Random(1908))
    small = BoxExtent(-74.5, 40.0, -74.499, 40.001)
    checks = []
    overlap = geo.boxes_overlap

    def counting(a, b):
        checks[-1] += 1
        return overlap(a, b)

    for giant in (False, True):
        reg = Registry(id_rng=random.Random(1909))
        reg.bulk_load(store, "gen", "", now=0)
        if giant:
            # 120 adjacent 0.01 degree boxes at 50N 10E merge into one 1.2 degrees wide
            for i in range(120):
                add(reg, BoxExtent(10.0 + 0.01 * i, 50.0, 10.0 + 0.01 * (i + 1), 50.01))
            assert reg.count() == len(store) + 1
        monkeypatch.setattr(geo, "boxes_overlap", counting)
        checks.append(0)
        add(reg, small)
        monkeypatch.undo()
    before, after = checks
    assert after <= before


def test_merge_absorbs_one_of_twins_with_equal_centroid_latitudes():
    reg = Registry()
    twins = [add(reg, BoxExtent(i, 10.0, i + 0.5, 11.0)).stored for i in range(6)]
    assert len({geo.centroid(b.extent).lat for b in twins}) == 1
    centers = [GeoPoint(10.5, 2.0), GeoPoint(10.5, 0.0), GeoPoint(-5.0, 3.0)]
    # inside twin 2 only: the stored box replaces it, at the same latitude
    inner = add(reg, BoxExtent(2.1, 10.2, 2.2, 10.3))
    assert inner.replaced_ids == (twins[2].id,)
    assert geo.centroid(inner.stored.extent).lat == geo.centroid(twins[2].extent).lat
    # bridging twins 4 and 5
    bridge = add(reg, BoxExtent(4.4, 10.4, 5.1, 10.6))
    assert bridge.replaced_ids == tuple(sorted((twins[4].id, twins[5].id)))
    assert reg.count() == 5
    for center in centers:
        for radius in (1_000.0, 200_000.0, 2_000_000.0):
            assert_query_matches_scan(reg, center, radius)
    # the survivors still merge: one add over every box at that latitude
    everything = add(reg, BoxExtent(-1.0, 10.5, 7.0, 10.5))
    assert len(everything.replaced_ids) == 5 and reg.count() == 1
    assert query_ids(reg, GeoPoint(10.5, 3.0), 1_000_000.0) == [everything.stored.id]


def test_an_integer_now_serves_the_same_bytes_before_and_after_a_restart(tmp_path):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    reg.bulk_load([BoxExtent(0, 0, 1, 1), BoxExtent(2, 0, 3, 1), BoxExtent(4, 0, 5, 1)], "t", "", now=0)
    add(reg, BoxExtent(6, 0, 7, 1), now=5)
    center = GeoPoint(0.5, 3.5)
    before = encode_boxes(reg.boxes_within_radius(center, 1_000_000.0))
    reloaded = Registry(snapshot_path=path)
    assert reloaded.load_snapshot() == 4
    assert encode_boxes(reloaded.boxes_within_radius(center, 1_000_000.0)) == before
    assert b'"created_at":0.0' in before and b'"created_at":5.0' in before


def test_integer_corners_are_stored_as_canonical_float_lines(tmp_path):
    # an int corner was stored as "min_lon":10, which no load ever took as canonical
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    add(reg, BoxExtent(10, 10, 11, 11))
    reg.bulk_load([BoxExtent(0, 0, 1, 1)], "t", "", now=0)
    lines = list(snapshot.read_snapshot(path))
    assert len(lines) == 2
    assert all(registry._is_canonical(line, json.loads(line)) for line in lines)
    assert b'"min_lon":10.0' in lines[0] and b'"min_lon":0.0' in lines[1]


def test_bulk_load_into_a_non_empty_registry_then_query_and_merge():
    rng = random.Random(77)
    reg = Registry()
    first = [add(reg, BoxExtent(i, 0.0, i + 0.1, 0.1)).stored for i in range(0, 10, 2)]
    reg.bulk_load(
        (
            BoxExtent(lon, lat, lon + 0.05, lat + 0.05)
            for lon, lat in ((rng.uniform(-5, 15), rng.uniform(1, 5)) for _ in range(500))
        ),
        added_by="gen",
        reason="",
        now=0,
    )
    assert reg.count() == 505
    for _ in range(50):
        center = GeoPoint(rng.uniform(-1, 6), rng.uniform(-6, 16))
        assert_query_matches_scan(reg, center, rng.uniform(1_000.0, 800_000.0))
    # one add bridging a box added before the bulk load and a bulk-loaded one
    loaded = next(b for b in stored_boxes(reg) if b.extent.min_lat >= 1 and b.extent.min_lon > 0)
    bridge = BoxExtent(
        first[0].extent.min_lon, first[0].extent.min_lat, loaded.extent.min_lon, loaded.extent.min_lat
    )
    outcome = add(reg, bridge)
    assert {first[0].id, loaded.id} <= set(outcome.replaced_ids)
    stored = outcome.stored
    assert all(not geo.boxes_overlap(b.extent, stored.extent) for b in stored_boxes(reg) if b.id != stored.id)
    for _ in range(50):
        center = GeoPoint(rng.uniform(-1, 6), rng.uniform(-6, 16))
        assert_query_matches_scan(reg, center, rng.uniform(1_000.0, 800_000.0))


def test_radius_query_finds_centroids_across_the_antimeridian():
    reg = Registry()
    west = add(reg, BoxExtent(179.5, 0, 179.9, 0.4)).stored
    east = add(reg, BoxExtent(-179.9, 0, -179.5, 0.4)).stored
    assert set(query_ids(reg, GeoPoint(0.2, 179.9), 100_000.0)) == {west.id, east.id}


# -- counting ------------------------------------------------------------------


def test_count_and_all_boxes():
    reg = Registry()
    assert reg.count() == 0 and stored_boxes(reg) == []
    add(reg, BoxExtent(0, 0, 1, 1))
    assert reg.count() == 1
    add(reg, BoxExtent(10, 10, 11, 11))
    assert reg.count() == 2
    add(reg, BoxExtent(0.5, 0.5, 10.5, 10.5))  # merges both
    assert reg.count() == 1


# -- persistence ---------------------------------------------------------------


def test_snapshot_round_trip_empty(tmp_path):
    path = str(tmp_path / "reg.snap")
    snapshot.write_snapshot(path, [])
    reg = Registry()
    assert reg.load_snapshot(path) == 0
    assert reg.count() == 0


def test_snapshot_round_trip_field_by_field(tmp_path):
    rng = random.Random(99)
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    for i in range(50):
        lon = rng.uniform(-170, 160)
        lat = rng.uniform(-80, 75)
        reg.add_box(
            BoxExtent(lon, lat, lon + rng.uniform(0.001, 0.3), lat + rng.uniform(0.001, 0.3)),
            added_by=f"user-{i}",
            reason=f"reason {i}",
            now=1_700_000_000.0 + i,
        )
    loaded = Registry()
    assert loaded.load_snapshot(path) == reg.count()
    original = {b.id: b for b in stored_boxes(reg)}
    restored = {b.id: b for b in stored_boxes(loaded)}
    assert restored == original


def test_snapshot_truncation_reported_corrupt(tmp_path):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    add(reg, BoxExtent(0, 0, 1, 1))
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-1])
    with pytest.raises(CorruptSnapshot):
        Registry().load_snapshot(path)


def test_bound_registry_persists_every_add(tmp_path):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    add(reg, BoxExtent(0, 0, 1, 1))
    add(reg, BoxExtent(5, 5, 6, 6))
    reloaded = Registry()
    assert reloaded.load_snapshot(path) == 2
    assert {b.id for b in stored_boxes(reloaded)} == {b.id for b in stored_boxes(reg)}


def test_failed_persistence_applies_nothing(tmp_path):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    first = add(reg, BoxExtent(0, 0, 1, 1))
    reg.snapshot_path = str(tmp_path / "missing-dir" / "reg.snap")
    with pytest.raises(StorageFailure):
        add(reg, BoxExtent(0.5, 0.5, 2, 2))
    # the overlapping add failed: memory still holds exactly the old box
    assert reg.count() == 1
    assert stored_boxes(reg)[0].id == first.stored.id
    reloaded = Registry()
    reloaded.load_snapshot(path)
    assert {b.id for b in stored_boxes(reloaded)} == {first.stored.id}


def test_failed_bulk_load_applies_nothing(tmp_path):
    reg = Registry(snapshot_path=str(tmp_path / "missing-dir" / "reg.snap"))
    with pytest.raises(StorageFailure):
        reg.bulk_load([BoxExtent(0, 0, 1, 1)], added_by="gen", reason="", now=0)
    assert reg.count() == 0


def test_corrupt_snapshot_load_keeps_previous_contents(tmp_path):
    path = str(tmp_path / "dup.snap")
    line = snapshot.encode_record(box_record(add(Registry(), BoxExtent(5, 5, 6, 6)).stored))
    snapshot.write_snapshot(path, [line, line])
    reg = Registry()
    kept = add(reg, BoxExtent(0, 0, 1, 1)).stored
    with pytest.raises(CorruptSnapshot):
        reg.load_snapshot(path)
    assert stored_boxes(reg) == [kept]


def test_load_snapshot_rejects_a_centroid_off_its_extent_midpoint(tmp_path):
    path = str(tmp_path / "shifted.snap")
    good = add(Registry(), BoxExtent(5, 5, 6, 6)).stored
    shifted = dict(box_record(good), centroid_lat=geo.centroid(good.extent).lat + 0.25)
    other = box_record(add(Registry(), BoxExtent(8, 8, 9, 9)).stored)
    snapshot.write_records(path, [other, shifted])
    reg = Registry()
    kept = add(reg, BoxExtent(0, 0, 1, 1)).stored
    with pytest.raises(CorruptSnapshot, match="centroid"):
        reg.load_snapshot(path)
    assert stored_boxes(reg) == [kept]


def test_encode_boxes_joins_the_snapshot_lines(tmp_path):
    rng = random.Random(17)
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    for i in range(60):
        lon, lat = rng.uniform(-1, 1), rng.uniform(-1, 1)
        add(reg, BoxExtent(lon, lat, lon + rng.uniform(0, 0.2), lat + rng.uniform(0, 0.2)), reason=f"r{i}")
    lines = reg.boxes_within_radius(GeoPoint(0, 0), 100_000.0)
    assert lines
    encoded = encode_boxes(lines)
    assert json.loads(encoded) == {"boxes": [json.loads(line) for line in lines], "count": len(lines)}
    on_disk = {json.loads(line)["id"]: line + b"\n" for line in open(path, "rb").read().splitlines()[1:]}
    joined = b",".join(on_disk[json.loads(line)["id"]] for line in lines)
    assert encoded == b'{"boxes":[' + joined + b'],"count":%d}' % len(lines)
    for n in range(4):
        assert encode_boxes(lines[:n]) == b'{"boxes":[' + b",".join(lines[:n]) + b'],"count":%d}' % n
    assert encode_boxes([]) == b'{"boxes":[],"count":0}'


# -- loading a snapshot: which lines are kept as they are ---------------------


def _stored_line(extent=BoxExtent(5.0, 5.0, 6.0, 6.0)):
    box = add(Registry(), extent, reason="test").stored
    return box, snapshot.encode_record(box_record(box))


def test_load_keeps_a_canonical_line_byte_for_byte(tmp_path, live_server_factory):
    path = str(tmp_path / "reg.snap")
    box, line = _stored_line()
    # parses to the same record, but this encoder would spell it "test"
    own = line.replace(b'"reason":"test"', b'"reason":"t\\u0065st"')
    assert own != line and json.loads(own) == box_record(box)
    snapshot.write_snapshot(path, [own])
    reg = Registry()
    assert reg.load_snapshot(path) == 1
    centroid = geo.centroid(box.extent)
    assert encode_boxes(reg.boxes_within_radius(centroid, 1000.0)) == b'{"boxes":[' + own + b'],"count":1}'
    server = live_server_factory(registry=reg)
    query = f"lat={centroid.lat}&lon={centroid.lon}&radius_m=1000"
    status, body = device.http_request("GET", f"{server.url}/v1/boxes?{query}")
    assert status == 200
    assert own in body
    assert json.loads(body)["boxes"] == [box_record(box)]


def _compact(record, sort_keys=True):
    return json.dumps(record, sort_keys=sort_keys, separators=(",", ":"))


# each differs from the canonical line in one way, and parses to the same box
_REWORDINGS = {
    "int coordinates": lambda r: _compact(dict(r, min_lon=5, min_lat=5, max_lon=6, max_lat=6)),
    "int created_at": lambda r: _compact(dict(r, created_at=1000)),
    "extra key": lambda r: _compact(dict(r, note="extra")),
    "unsorted keys": lambda r: _compact(dict(reversed(r.items())), sort_keys=False),
    "extra whitespace": lambda r: json.dumps(r, sort_keys=True),
}


@pytest.mark.parametrize("how", list(_REWORDINGS))
def test_load_re_encodes_a_line_that_is_not_canonical(tmp_path, how):
    path = str(tmp_path / "reg.snap")
    box, _ = _stored_line()
    foreign = _REWORDINGS[how](box_record(box)).encode() + b"\n"
    snapshot.write_snapshot(path, [foreign])
    reg = Registry()
    assert reg.load_snapshot(path) == 1
    [loaded] = stored_boxes(reg)
    encoded = encode_boxes(reg.boxes_within_radius(geo.centroid(loaded.extent), 1000.0))
    assert encoded == b'{"boxes":[' + snapshot.encode_record(box_record(loaded)) + b'],"count":1}'
    assert json.loads(encoded)["boxes"] == [box_record(loaded)]
    assert {k: v for k, v in json.loads(foreign).items() if k != "note"} == box_record(loaded)


def test_snapshot_whose_last_line_has_no_newline_survives_the_next_add(tmp_path):
    path = str(tmp_path / "reg.snap")
    first, first_line = _stored_line(BoxExtent(0.0, 0.0, 1.0, 1.0))
    last, last_line = _stored_line()
    snapshot.write_snapshot(path, [first_line, last_line.rstrip(b"\n")])
    reg = Registry(snapshot_path=path)
    assert reg.load_snapshot() == 2
    added = add(reg, BoxExtent(10, 10, 11, 11)).stored
    reloaded = Registry()
    assert reloaded.load_snapshot(path) == 3
    assert {b.id: b for b in stored_boxes(reloaded)} == {b.id: b for b in (first, last, added)}
    last_reply = encode_boxes(reg.boxes_within_radius(geo.centroid(last.extent), 1000.0))
    assert last_reply == b'{"boxes":[' + last_line + b'],"count":1}'


@pytest.mark.parametrize(
    "bad, message",
    [(b"{not json\n", "invalid JSON on line 3"), (b"[1, 2]\n", "record on line 3 is not an object")],
    ids=["not JSON", "JSON array"],
)
def test_load_names_the_bad_line_and_keeps_previous_contents(tmp_path, bad, message):
    path = str(tmp_path / "reg.snap")
    _, line = _stored_line()
    snapshot.write_snapshot(path, [line, bad])
    reg = Registry()
    kept = add(reg, BoxExtent(0, 0, 1, 1)).stored
    with pytest.raises(CorruptSnapshot, match=message):
        reg.load_snapshot(path)
    assert stored_boxes(reg) == [kept]


def test_load_keeps_little_beyond_the_line_bytes(tmp_path):
    path = str(tmp_path / "reg.snap")
    extents = datasets.generate_extents(5_000, GeoPoint(40.0, -74.5), 50 * MILE_M, random.Random(6))
    Registry(snapshot_path=path).bulk_load(extents, added_by="operator-7", reason="seeded store", now=0.0)
    line_bytes = sum(sys.getsizeof(line) for line in snapshot.read_snapshot(path))
    reg = Registry()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert reg.load_snapshot(path) == 5_000
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the lines are the record; the ids, the id map and the columns come to
    # about 170 B a box, and a box object per row (with its extent, centroid
    # and their floats) would add about 300 more
    assert kept - line_bytes <= 250 * 5_000


@pytest.mark.parametrize("key", ["added_by", "reason"])
def test_load_still_rejects_a_record_missing_an_audit_field(tmp_path, key):
    path = str(tmp_path / "reg.snap")
    record = box_record(_stored_line()[0])
    del record[key]
    snapshot.write_records(path, [record])
    with pytest.raises(CorruptSnapshot, match=f"missing field '{key}'"):
        Registry().load_snapshot(path)


def test_load_snapshot_peak_memory_stays_near_what_it_keeps(tmp_path):
    path = str(tmp_path / "reg.snap")
    extents = datasets.generate_extents(5_000, GeoPoint(40.0, -74.5), 50 * MILE_M, random.Random(5))
    Registry(snapshot_path=path, id_rng=random.Random(5)).bulk_load(
        extents, added_by="gen", reason="memory check", now=0.0
    )
    reg = Registry()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert reg.load_snapshot(path) == 5_000
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.5 * (after - before)


def test_box_classes_have_no_instance_dict():
    outcome = add(Registry(), BoxExtent(0, 0, 1, 1))
    for value in (outcome, outcome.stored, outcome.stored.extent, geo.centroid(outcome.stored.extent)):
        assert not hasattr(value, "__dict__"), type(value).__name__


def test_concurrent_queries_see_only_committed_disjoint_sets():
    # readers take their latitude band while the writer merges boxes out of
    # the sorted list and inserts their unions; a torn view would show a
    # box twice, or an absorbed box beside the union that replaced it
    reg = Registry()
    stop = threading.Event()
    torn = []

    def reader():
        while not stop.is_set():
            lines = reg.boxes_within_radius(GeoPoint(0.5, 0.5), 200_000.0)
            boxes = [box_from_row(row_from_record(json.loads(line))) for line in lines]
            if len({b.id for b in boxes}) != len(boxes) or any(
                geo.boxes_overlap(a.extent, b.extent) for a, b in itertools.combinations(boxes, 2)
            ):
                torn.append([b.id for b in boxes])

    readers = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in readers:
            thread.start()
        rng = random.Random(9)
        for _ in range(2000):
            lon, lat = rng.uniform(0, 1), rng.uniform(0, 1)
            add(reg, BoxExtent(lon, lat, lon + 0.04, lat + 0.04))
    finally:
        stop.set()
        sys.setswitchinterval(interval)
        for thread in readers:
            thread.join(timeout=10.0)
    assert not any(thread.is_alive() for thread in readers)
    assert torn == []
    assert_query_matches_scan(reg, GeoPoint(0.5, 0.5), 200_000.0)


def test_reader_does_not_wait_on_snapshot_write(tmp_path, monkeypatch):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    first = add(reg, BoxExtent(0, 0, 1, 1)).stored
    writing, release = threading.Event(), threading.Event()
    write_snapshot = snapshot.write_snapshot

    def blocking_write(target, lines):
        writing.set()
        release.wait(timeout=10.0)
        write_snapshot(target, lines)

    monkeypatch.setattr(snapshot, "write_snapshot", blocking_write)
    added, seen = [], []
    writer = threading.Thread(target=lambda: added.append(add(reg, BoxExtent(5, 5, 6, 6))), daemon=True)
    reader = threading.Thread(
        target=lambda: seen.append(
            (
                [
                    box_from_row(row_from_record(json.loads(line)))
                    for line in reg.boxes_within_radius(GeoPoint(3.0, 3.0), 2_000_000.0)
                ],
                reg.count(),
            )
        ),
        daemon=True,
    )
    writer.start()
    try:
        assert writing.wait(timeout=5.0)
        reader.start()
        reader.join(timeout=1.0)
        # the reader finished while the write was still blocked, and saw
        # only the committed set
        assert not reader.is_alive()
        assert seen == [([first], 1)]
    finally:
        release.set()
        writer.join(timeout=10.0)
        reader.join(timeout=10.0)
    assert not writer.is_alive()
    stored = added[0].stored
    assert set(query_ids(reg, GeoPoint(3.0, 3.0), 2_000_000.0)) == {first.id, stored.id}
    reloaded = Registry()
    assert reloaded.load_snapshot(path) == 2
    assert {b.id for b in stored_boxes(reloaded)} == {first.id, stored.id}


def test_failed_merge_leaves_audit_log_unchanged(tmp_path):
    audit = tmp_path / "reg.audit"
    reg = Registry(snapshot_path=str(tmp_path / "reg.snap"), audit_log_path=str(audit))
    add(reg, BoxExtent(0, 0, 1, 1))
    merged = add(reg, BoxExtent(0.5, 0.5, 2, 2)).stored  # one audit entry
    before = audit.read_bytes()
    reg.snapshot_path = str(tmp_path / "missing-dir" / "reg.snap")
    with pytest.raises(StorageFailure):
        add(reg, BoxExtent(1.5, 1.5, 3, 3))  # would absorb the merged box
    assert stored_boxes(reg) == [merged]
    assert audit.read_bytes() == before


def _fail_directory_fsyncs(monkeypatch):
    """Make os.fsync raise EIO on a directory, after a snapshot's rename; files still sync."""
    fsync = os.fsync

    def failing_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode):
            raise OSError(errno.EIO, "injected directory fsync failure")
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)


def assert_memory_matches_the_file(reg, path):
    on_disk = Registry()
    on_disk.load_snapshot(path)
    assert list(reg._lines.items()) == list(on_disk._lines.items())
    assert_columns_consistent(reg)


def test_merge_whose_directory_fsync_fails_matches_the_renamed_snapshot(tmp_path, monkeypatch):
    path, audit = str(tmp_path / "reg.snap"), tmp_path / "reg.audit"
    reg = Registry(snapshot_path=path, audit_log_path=str(audit))
    first = add(reg, BoxExtent(0, 0, 1, 1)).stored
    add(reg, BoxExtent(5, 5, 6, 6))
    _fail_directory_fsyncs(monkeypatch)
    with pytest.raises(StorageFailure):
        add(reg, BoxExtent(0.5, 0.5, 2, 2), now=2000.0)  # absorbs first
    monkeypatch.undo()
    # the rename committed the merge: memory and the audit log follow the file
    assert_memory_matches_the_file(reg, path)
    [merged] = [b for b in stored_boxes(reg) if b.extent == BoxExtent(0, 0, 2, 2)]
    [entry] = [json.loads(line) for line in audit.read_bytes().splitlines()]
    assert (entry["box"]["id"], entry["merged_into"], entry["at"]) == (first.id, merged.id, 2000.0)
    # and the next add starts from it
    add(reg, BoxExtent(1.5, 1.5, 3, 3))
    assert_memory_matches_the_file(reg, path)
    assert reg.count() == 2


def test_bulk_load_whose_directory_fsync_fails_matches_the_renamed_snapshot(tmp_path, monkeypatch):
    path = str(tmp_path / "reg.snap")
    reg = Registry(snapshot_path=path)
    add(reg, BoxExtent(0, 0, 1, 1))
    _fail_directory_fsyncs(monkeypatch)
    with pytest.raises(StorageFailure):
        reg.bulk_load([BoxExtent(5, 5, 6, 6), BoxExtent(7, 7, 8, 8)], added_by="gen", reason="", now=0.0)
    monkeypatch.undo()
    assert_memory_matches_the_file(reg, path)
    assert reg.count() == 3


def test_audit_log_records_absorbed_boxes(tmp_path):
    audit = str(tmp_path / "reg.audit")
    reg = Registry(audit_log_path=audit)
    a = add(reg, BoxExtent(0, 0, 1, 1))
    b = add(reg, BoxExtent(2, 2, 3, 3))
    merged = add(reg, BoxExtent(0.5, 0.5, 2.5, 2.5), now=1234.5)
    entries = [json.loads(line) for line in open(audit, encoding="utf-8")]
    assert {e["box"]["id"] for e in entries} == {a.stored.id, b.stored.id}
    assert all(e["merged_into"] == merged.stored.id for e in entries)
    assert all(e["event"] == "absorbed" and e["at"] == 1234.5 for e in entries)


def test_no_audit_entries_for_clean_adds(tmp_path):
    audit = tmp_path / "reg.audit"
    reg = Registry(audit_log_path=str(audit))
    add(reg, BoxExtent(0, 0, 1, 1))
    assert not audit.exists()


# -- repairing the audit log on load ---------------------------------------------

# loads a store, makes the snapshot write end the process, then makes a merging add
_CRASHING_ADD = """
import os, sys
from geofence import snapshot
from geofence.geo import BoxExtent
from geofence.registry import Registry

reg = Registry(snapshot_path=sys.argv[1], audit_log_path=sys.argv[2])
reg.load_snapshot()
snapshot.write_snapshot = lambda *args: os._exit(17)
reg.add_box(BoxExtent(*map(float, sys.argv[3:7])), "op", "crash", now=9.0)
"""


def crash_during_add(path, audit, extent):
    src = os.path.dirname(os.path.dirname(registry.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = [sys.executable, "-c", _CRASHING_ADD, path, str(audit), *map(str, extent)]
    assert subprocess.run(args, env=env, timeout=60).returncode == 17


def test_a_crash_at_the_snapshot_write_of_a_merge_leaves_no_audit_entry_after_the_load(tmp_path):
    path, audit = str(tmp_path / "reg.snap"), tmp_path / "reg.snap.audit"
    reg = Registry(snapshot_path=path, audit_log_path=str(audit))
    first = add(reg, BoxExtent(0, 0, 1, 1)).stored
    crash_during_add(path, audit, BoxExtent(0.5, 0.5, 2, 2))
    [torn] = [json.loads(line) for line in audit.read_bytes().splitlines()]
    assert torn["box"]["id"] == first.id and torn["merged_into"] != first.id
    restarted = Registry(snapshot_path=path, audit_log_path=str(audit))
    assert restarted.load_snapshot() == 1
    assert audit.read_bytes() == b""
    assert stored_boxes(restarted) == [first]
    # the next merge logs as usual, and a restart keeps its entry
    merged = add(restarted, BoxExtent(0.5, 0.5, 2, 2)).stored
    logged = audit.read_bytes()
    assert [json.loads(line)["merged_into"] for line in logged.splitlines()] == [merged.id]
    assert Registry(snapshot_path=path, audit_log_path=str(audit)).load_snapshot() == 1
    assert audit.read_bytes() == logged


def test_a_crash_cuts_only_the_last_adds_entries_behind_a_merge_chain(tmp_path):
    path, audit = str(tmp_path / "reg.snap"), tmp_path / "reg.snap.audit"
    reg = Registry(snapshot_path=path, audit_log_path=str(audit))
    add(reg, BoxExtent(0, 0, 1, 1))
    add(reg, BoxExtent(3, 0, 4, 1))
    add(reg, BoxExtent(0.5, 0.5, 2, 2))  # its box is absorbed by the next merge
    add(reg, BoxExtent(1.5, 0.5, 3.5, 2))
    committed = audit.read_bytes()
    assert len(committed.splitlines()) == 3
    crash_during_add(path, audit, BoxExtent(3.9, 1.9, 5, 3))
    assert len(audit.read_bytes().splitlines()) == 4
    assert Registry(snapshot_path=path, audit_log_path=str(audit)).load_snapshot() == 1
    assert audit.read_bytes() == committed


def test_a_partial_last_audit_line_is_cut_on_load(tmp_path):
    path, audit = str(tmp_path / "reg.snap"), tmp_path / "reg.snap.audit"
    reg = Registry(snapshot_path=path, audit_log_path=str(audit))
    add(reg, BoxExtent(0, 0, 1, 1))
    add(reg, BoxExtent(0.5, 0.5, 2, 2))
    committed = audit.read_bytes()
    with open(audit, "ab") as f:
        f.write(committed[: len(committed) // 2])  # a crash inside the next append
    assert Registry(snapshot_path=path, audit_log_path=str(audit)).load_snapshot() == 1
    assert audit.read_bytes() == committed


def test_an_uncommitted_audit_entry_before_the_tail_is_corrupt(tmp_path):
    path, audit = str(tmp_path / "reg.snap"), tmp_path / "reg.snap.audit"
    reg = Registry(snapshot_path=path, audit_log_path=str(audit))
    add(reg, BoxExtent(0, 0, 1, 1))
    add(reg, BoxExtent(0.5, 0.5, 2, 2))
    [entry] = audit.read_bytes().splitlines(keepends=True)
    stray = entry.replace(b'"merged_into":"', b'"merged_into":"gone')
    audit.write_bytes(stray + entry)
    restarted = Registry(audit_log_path=str(audit))
    kept = add(restarted, BoxExtent(10, 10, 11, 11)).stored
    with pytest.raises(CorruptSnapshot, match="gone"):
        restarted.load_snapshot(path)
    assert stored_boxes(restarted) == [kept]
    assert audit.read_bytes() == stray + entry


# -- record codec ----------------------------------------------------------------


def test_box_record_round_trip():
    reg = Registry()
    stored = add(reg, BoxExtent(-73.99, 40.7, -73.97, 40.72), now=1_699_999_999.25).stored
    assert box_from_row(row_from_record(box_record(stored))) == stored


def test_box_record_has_exactly_the_wire_fields():
    reg = Registry()
    stored = add(reg, BoxExtent(0, 0, 1, 1)).stored
    assert set(box_record(stored)) == {
        "id", "min_lon", "min_lat", "max_lon", "max_lat",
        "centroid_lon", "centroid_lat", "added_by", "reason", "created_at",
    }


def test_box_from_record_rejects_missing_fields():
    with pytest.raises(ValueError):
        row_from_record({"id": "x", "min_lon": 0})


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("min_lon", True, "min_lon must be"),
        ("centroid_lat", False, "centroid_lat is not the midpoint"),
        ("created_at", "12", "created_at"),
        ("created_at", True, "created_at"),
        ("created_at", math.nan, "non-finite created_at"),
        ("created_at", math.inf, "non-finite created_at"),
        ("created_at", -math.inf, "non-finite created_at"),
        pytest.param("created_at", 10**400, "non-finite created_at", id="created_at-int too large"),
    ],
)
def test_box_from_record_rejects_a_bool_coordinate_or_a_non_numeric_time(key, value, message):
    record = box_record(add(Registry(), BoxExtent(0, 0, 1, 1)).stored)
    with pytest.raises(ValueError, match=message):
        row_from_record(dict(record, **{key: value}))


def test_load_snapshot_rejects_a_bool_coordinate(tmp_path):
    path = str(tmp_path / "reg.snap")
    record = box_record(add(Registry(), BoxExtent(0, 0, 1, 1)).stored)
    snapshot.write_records(path, [dict(record, min_lon=False)])
    with pytest.raises(CorruptSnapshot, match="min_lon"):
        Registry().load_snapshot(path)


@pytest.mark.parametrize("key, value", [("id", None), ("added_by", 5), ("reason", ["x"])])
def test_load_snapshot_rejects_a_text_field_that_is_not_a_string(tmp_path, key, value):
    path = str(tmp_path / "reg.snap")
    record = box_record(add(Registry(), BoxExtent(0, 0, 1, 1)).stored)
    snapshot.write_records(path, [dict(record, **{key: value})])
    with pytest.raises(CorruptSnapshot, match=f"'{key}' is not a string"):
        Registry().load_snapshot(path)


def random_record(rng):
    """A valid record in box_record's key order: int and float values, -0.0, the range limits, degenerate boxes."""

    def coord(limit):
        pick = rng.random()
        if pick < 0.1:
            return rng.choice((-limit, limit, -float(limit), float(limit)))
        if pick < 0.2:
            return rng.choice((0, 0.0, -0.0))
        if pick < 0.4:
            return rng.randint(-limit, limit)
        return rng.uniform(-limit, limit)

    lons, lats = sorted((coord(180), coord(180))), sorted((coord(90), coord(90)))
    if rng.random() < 0.1:
        lons[1] = lons[0]
    if rng.random() < 0.1:
        lats[1] = lats[0]
    return {
        "id": f"{rng.getrandbits(64):016x}",
        "min_lon": lons[0], "min_lat": lats[0], "max_lon": lons[1], "max_lat": lats[1],
        "centroid_lon": (lons[0] + lons[1]) / 2.0, "centroid_lat": (lats[0] + lats[1]) / 2.0,
        "added_by": rng.choice(("op", "ops team", "")), "reason": rng.choice(("", "base", "a b c")),
        "created_at": rng.choice((rng.randint(0, 2**40), rng.uniform(0, 2e9), 0, -0.0)),
    }


def test_box_from_record_equals_the_box_built_directly_on_seeded_records():
    rng = random.Random(1507)
    for _ in range(2000):
        record = random_record(rng)
        keys = ("id", "min_lon", "min_lat", "max_lon", "max_lat", "centroid_lat", "added_by", "reason", "created_at")
        expected = tuple(record[key] for key in keys)
        row = row_from_record(record)
        # repr tells -0.0 from 0.0 and an int from a float, which == does not
        assert row == expected and repr(row) == repr(expected)
        box = box_from_row(row)
        assert box_record(box) == record
        # box_record writes every number as a float
        assert repr(box_record(box)) == repr({k: float(v) if type(v) is int else v for k, v in record.items()})


BASE_RECORD = box_record(RestrictedBox("a", BoxExtent(-74.01, 39.99, -73.99, 40.01), "op", "base", 1.7e9))
EXTENT_KEYS = ("min_lon", "min_lat", "max_lon", "max_lat")


def rejection_cases():
    """One fault per record: the record, the exception class and a fragment of its message."""
    for key in BASE_RECORD:
        missing = {k: v for k, v in BASE_RECORD.items() if k != key}
        yield pytest.param(missing, ValueError, f"missing field '{key}'", id=f"missing {key}")
    for key in (*EXTENT_KEYS, "centroid_lon", "centroid_lat"):
        for value in (True, "12", math.nan, math.inf, -math.inf):
            if key not in EXTENT_KEYS:
                cls, fragment = ValueError, f"{key} is not the midpoint"
            elif value == "12":
                cls, fragment = ValueError, "non-numeric field"
            else:
                cls, fragment = geo.InvalidCoordinate, f"{key} must be"
            yield pytest.param(dict(BASE_RECORD, **{key: value}), cls, fragment, id=f"{key}={value!r}")
    # a NaN or infinite created_at used to load; test_box_from_record_rejects_a_bool_coordinate_or_a_non_numeric_time
    for value in (True, "12"):
        bad = dict(BASE_RECORD, created_at=value)
        yield pytest.param(bad, ValueError, "non-numeric.* created_at", id=f"created_at={value!r}")
    for lo, hi in (("min_lon", "max_lon"), ("min_lat", "max_lat")):
        swapped = dict(BASE_RECORD, **{lo: BASE_RECORD[hi], hi: BASE_RECORD[lo]})
        yield pytest.param(swapped, geo.InvalidCoordinate, "corners out of order", id=f"{lo} > {hi}")
    for key, toward in (("centroid_lat", math.inf), ("centroid_lon", -math.inf)):
        off = dict(BASE_RECORD, **{key: math.nextafter(BASE_RECORD[key], toward)})
        yield pytest.param(off, ValueError, f"{key} is not the midpoint", id=f"{key} one ulp off")
    for key, value in (("id", None), ("added_by", 5), ("reason", ["x"])):
        bad = dict(BASE_RECORD, **{key: value})
        yield pytest.param(bad, ValueError, f"'{key}' is not a string", id=f"{key}={value!r}")


@pytest.mark.parametrize("record, cls, fragment", rejection_cases())
def test_box_from_record_rejection_table(record, cls, fragment):
    with pytest.raises(ValueError, match=fragment) as excinfo:
        row_from_record(record)
    assert type(excinfo.value) is cls


@pytest.mark.parametrize("value", [math.nan, 10**400], ids=["nan", "int too large"])
def test_load_snapshot_rejects_a_created_at_that_is_not_a_finite_float(tmp_path, value):
    path = str(tmp_path / "reg.snap")
    record = box_record(add(Registry(), BoxExtent(0, 0, 1, 1)).stored)
    snapshot.write_records(path, [dict(record, created_at=value)])  # json.dumps writes NaN, or all 401 digits
    with pytest.raises(CorruptSnapshot, match="created_at"):
        Registry().load_snapshot(path)


# -- the columns -----------------------------------------------------------------


def assert_columns_consistent(reg):
    n = len(reg._ids)
    assert len(reg._lat) == len(reg._x) == len(reg._y) == len(reg._z) == len(reg._row_lines) == n
    assert len(reg._ext) == 4 * n
    assert list(reg._lat) == sorted(reg._lat)
    assert len(set(reg._ids)) == n and set(reg._ids) == set(reg._lines)
    assert reg._row_lines == [reg._lines[box_id] for box_id in reg._ids]
    for row, line in enumerate(reg._row_lines):
        min_lon, min_lat, max_lon, max_lat = reg._ext[4 * row : 4 * row + 4]
        assert reg._lat[row] == (min_lat + max_lat) / 2.0
        assert (reg._x[row], reg._y[row], reg._z[row]) == geo.unit_vector(reg._lat[row], (min_lon + max_lon) / 2.0)
        record = json.loads(line)
        assert record["id"] == reg._ids[row]
        assert (record["min_lon"], record["min_lat"], record["max_lon"], record["max_lat"]) == (
            min_lon, min_lat, max_lon, max_lat,
        )


def test_columns_stay_sorted_aligned_and_in_step_with_the_lines():
    rng = random.Random(31)
    reg = Registry()
    assert_columns_consistent(reg)
    # equal-latitude twins, one absorbed alone and two bridged
    for i in range(6):
        add(reg, BoxExtent(i, 10.0, i + 0.5, 11.0))
        assert_columns_consistent(reg)
    assert len(add(reg, BoxExtent(2.1, 10.2, 2.2, 10.3)).replaced_ids) == 1
    assert_columns_consistent(reg)
    assert len(add(reg, BoxExtent(4.4, 10.4, 5.1, 10.6)).replaced_ids) == 2
    assert_columns_consistent(reg)
    absorbed = 0
    for _ in range(150):
        lon, lat = rng.uniform(0, 2), rng.uniform(0, 2)
        extent = BoxExtent(lon, lat, lon + rng.uniform(0, 0.1), lat + rng.uniform(0, 0.1))
        absorbed += len(add(reg, extent).replaced_ids)
        assert_columns_consistent(reg)
    reg.bulk_load(
        (
            BoxExtent(lon, lat, lon + 0.05, lat + 0.05)
            for lon, lat in ((rng.uniform(3, 6), rng.uniform(-1, 3)) for _ in range(200))
        ),
        added_by="gen",
        reason="",
        now=0,
    )
    assert_columns_consistent(reg)
    for _ in range(50):
        lon, lat = rng.uniform(1, 5), rng.uniform(0, 2)
        absorbed += len(add(reg, BoxExtent(lon, lat, lon + 0.2, lat + 0.2)).replaced_ids)
        assert_columns_consistent(reg)
    assert absorbed > 50


def test_query_results_encode_their_lines_after_a_merge_absorbs_one():
    reg = Registry()
    first = add(reg, BoxExtent(0, 0, 1, 1)).stored
    second = add(reg, BoxExtent(3, 0, 4, 1)).stored
    lines = reg.boxes_within_radius(GeoPoint(0.5, 2.0), 500_000.0)
    encoded = encode_boxes(lines)
    assert json.loads(encoded)["boxes"] == [box_record(first), box_record(second)]
    assert add(reg, BoxExtent(0.5, 0.5, 2, 2)).replaced_ids == (first.id,)
    assert first.id not in {b.id for b in stored_boxes(reg)}
    assert encode_boxes(lines) == encoded
