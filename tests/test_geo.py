"""Geodesy kernel tests: worked examples, independent oracles, property sweeps."""

import math
import random

import pytest

from geofence import geo
from geofence.geo import (
    EARTH_RADIUS_M,
    AntimeridianUnsupported,
    BoxExtent,
    GeoPoint,
    InvalidCoordinate,
)

# Independently coded great-circle reference: asin form instead of atan2,
# radians converted up front. Anchored on the analytic quarter circle below
# before it is trusted as an oracle anywhere else.


def reference_haversine(lat1, lon1, lat2, lon2):
    phi1, lam1, phi2, lam2 = map(math.radians, (lat1, lon1, lat2, lon2))
    h = math.sin((phi2 - phi1) / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(
        (lam2 - lam1) / 2.0
    ) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, h)))


def test_reference_oracle_matches_analytic_quarter_circle():
    assert reference_haversine(0, 0, 0, 90) == pytest.approx(EARTH_RADIUS_M * math.pi / 2, rel=1e-12)
    assert reference_haversine(0, 0, 90, 0) == pytest.approx(EARTH_RADIUS_M * math.pi / 2, rel=1e-12)


def random_point(rng):
    return GeoPoint(lat=rng.uniform(-90, 90), lon=rng.uniform(-180, 180))


def random_box(rng, max_extent_deg=2.0):
    lat = rng.uniform(-80, 80)
    lon = rng.uniform(-170, 170)
    return BoxExtent(
        min_lon=lon,
        min_lat=lat,
        max_lon=lon + rng.uniform(0, max_extent_deg),
        max_lat=lat + rng.uniform(0, max_extent_deg),
    )


# -- coordinate validation ---------------------------------------------------


@pytest.mark.parametrize("lat,lon", [(91, 0), (-90.0001, 0), (0, 180.5), (0, -181)])
def test_point_out_of_range_rejected(lat, lon):
    with pytest.raises(InvalidCoordinate):
        GeoPoint(lat=lat, lon=lon)


@pytest.mark.parametrize("lat,lon", [(float("nan"), 0), (0, float("inf")), (float("-inf"), 0)])
def test_point_non_finite_rejected(lat, lon):
    with pytest.raises(InvalidCoordinate):
        GeoPoint(lat=lat, lon=lon)


@pytest.mark.parametrize("lat,lon", [(True, 0.0), (0.0, False)])
def test_point_bool_coordinate_rejected(lat, lon):
    with pytest.raises(InvalidCoordinate):
        GeoPoint(lat=lat, lon=lon)


def test_box_corner_order_enforced():
    with pytest.raises(InvalidCoordinate):
        BoxExtent(min_lon=1, min_lat=0, max_lon=0, max_lat=1)
    with pytest.raises(InvalidCoordinate):
        BoxExtent(min_lon=0, min_lat=1, max_lon=1, max_lat=0)


@pytest.mark.parametrize(
    "corners,message",
    [
        ((0, -91, 1, 1), "min_lat must be a finite value in [-90.0, 90.0], got -91"),
        ((0, 0, 180.5, 1), "max_lon must be a finite value in [-180.0, 180.0], got 180.5"),
        ((0, 0, 1, float("nan")), "max_lat must be a finite value in [-90.0, 90.0], got nan"),
        ((True, 0, 1, 1), "min_lon must be a finite value in [-180.0, 180.0], got True"),
        ((1, 0, 0, 1), "box corners out of order: [1, 0, 0, 1]"),
    ],
)
def test_box_rejects_out_of_range_bool_and_out_of_order_corners_by_name(corners, message):
    names = ("min_lon", "min_lat", "max_lon", "max_lat")
    for build in (lambda: BoxExtent(*corners), lambda: BoxExtent(**dict(zip(names, corners)))):
        with pytest.raises(InvalidCoordinate) as excinfo:
            build()
        assert str(excinfo.value) == message


def test_poles_and_meridian_edges_are_legal():
    GeoPoint(lat=90, lon=180)
    GeoPoint(lat=-90, lon=-180)
    BoxExtent(min_lon=-180, min_lat=-90, max_lon=180, max_lat=90)


# -- normalize_box -----------------------------------------------------------


def test_normalize_already_ordered():
    box = geo.normalize_box(GeoPoint(40, -74), GeoPoint(41, -73))
    assert box == BoxExtent(-74, 40, -73, 41)


def test_normalize_corner_swap():
    box = geo.normalize_box(GeoPoint(41, -73), GeoPoint(40, -74))
    assert box == BoxExtent(-74, 40, -73, 41)


def test_normalize_degenerate_point_box():
    box = geo.normalize_box(GeoPoint(10, 5), GeoPoint(10, 5))
    assert box == BoxExtent(5, 10, 5, 10)


def test_normalize_rejects_antimeridian_span():
    with pytest.raises(AntimeridianUnsupported):
        geo.normalize_box(GeoPoint(0, 179), GeoPoint(1, -179))
    with pytest.raises(AntimeridianUnsupported):
        geo.normalize_box(GeoPoint(0, -100), GeoPoint(0, 90))
    # a wide box on one side of the meridian is fine
    assert geo.normalize_box(GeoPoint(0, 10), GeoPoint(1, 170)).max_lon == 170


def test_normalize_corner_order_invariance_property():
    rng = random.Random(0xBEEF)
    for _ in range(1000):
        p1, p2 = random_point(rng), random_point(rng)
        if abs(p1.lon - p2.lon) > 180:
            continue
        assert geo.normalize_box(p1, p2) == geo.normalize_box(p2, p1)


# -- centroid ----------------------------------------------------------------


def test_centroid_examples():
    assert geo.centroid(BoxExtent(10, 30, 20, 40)) == GeoPoint(lat=35.0, lon=15.0)
    assert geo.centroid(BoxExtent(5, 10, 5, 10)) == GeoPoint(lat=10.0, lon=5.0)
    assert geo.centroid(BoxExtent(-1, -1, 1, 1)) == GeoPoint(lat=0.0, lon=0.0)


def test_centroid_always_contained():
    rng = random.Random(3)
    for _ in range(1000):
        box = random_box(rng)
        assert geo.contains(box, geo.centroid(box))


# -- haversine ---------------------------------------------------------------


def test_haversine_identical_points_is_zero():
    p = GeoPoint(12.5, -33.25)
    assert geo.haversine_distance(p, p) == 0.0


def test_haversine_quarter_circle_anchor():
    d = geo.haversine_distance(GeoPoint(0, 0), GeoPoint(0, 90))
    assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 2, rel=1e-6)


def test_haversine_one_equatorial_degree_anchor():
    d = geo.haversine_distance(GeoPoint(0, 0), GeoPoint(0, 1))
    assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180, rel=1e-6)


def test_haversine_jfk_to_lhr_matches_reference():
    # frozen from reference_haversine; both must agree to 1e-9 relative
    expected = 5540011.317976542
    d = geo.haversine_distance(GeoPoint(40.6413, -73.7781), GeoPoint(51.4700, -0.4543))
    assert d == pytest.approx(expected, rel=1e-9)
    assert reference_haversine(40.6413, -73.7781, 51.4700, -0.4543) == pytest.approx(
        expected, rel=1e-9
    )


def test_haversine_matches_reference_on_random_pairs():
    rng = random.Random(7)
    for _ in range(1000):
        a, b = random_point(rng), random_point(rng)
        expected = reference_haversine(a.lat, a.lon, b.lat, b.lon)
        assert geo.haversine_distance(a, b) == pytest.approx(expected, rel=1e-9, abs=1e-6)


def test_haversine_symmetry_zero_and_bound_properties():
    rng = random.Random(11)
    for _ in range(1000):
        a, b = random_point(rng), random_point(rng)
        d = geo.haversine_distance(a, b)
        assert d == geo.haversine_distance(b, a)
        assert 0.0 <= d <= math.pi * EARTH_RADIUS_M
        assert geo.haversine_distance(a, a) == 0.0


def test_haversine_triangle_inequality_property():
    rng = random.Random(13)
    slack = 1e-6 * EARTH_RADIUS_M
    for _ in range(1000):
        a, b, c = random_point(rng), random_point(rng), random_point(rng)
        assert geo.haversine_distance(a, c) <= (
            geo.haversine_distance(a, b) + geo.haversine_distance(b, c) + slack
        )


# -- contains ----------------------------------------------------------------


def test_contains_examples():
    box = BoxExtent(0, 0, 2, 2)
    assert geo.contains(box, GeoPoint(1, 1))
    assert geo.contains(box, GeoPoint(2, 2))  # boundary counts as inside
    assert not geo.contains(box, GeoPoint(1, 3))


def test_degenerate_box_contains_only_itself():
    box = BoxExtent(5, 10, 5, 10)
    assert geo.contains(box, GeoPoint(10, 5))
    assert not geo.contains(box, GeoPoint(10.000001, 5))


# -- distance_to_box ---------------------------------------------------------


def boundary_scan_distance(p, box, steps=200):
    """Brute-force minimum over points sampled along the box boundary."""
    best = float("inf")
    for i in range(steps + 1):
        f = i / steps
        lon = box.min_lon + f * (box.max_lon - box.min_lon)
        lat = box.min_lat + f * (box.max_lat - box.min_lat)
        for q in (
            GeoPoint(box.min_lat, lon),
            GeoPoint(box.max_lat, lon),
            GeoPoint(lat, box.min_lon),
            GeoPoint(lat, box.max_lon),
        ):
            best = min(best, reference_haversine(p.lat, p.lon, q.lat, q.lon))
    return best


def test_distance_to_box_inside_is_zero():
    assert geo.distance_to_box(GeoPoint(0.5, 0.5), BoxExtent(0, 0, 1, 1)) == 0.0


def test_distance_to_box_one_equatorial_degree():
    d = geo.distance_to_box(GeoPoint(0, 2), BoxExtent(0, 0, 1, 1))
    assert d == pytest.approx(EARTH_RADIUS_M * math.pi / 180, rel=1e-9)


def test_distance_to_box_matches_boundary_scan_oracle():
    rng = random.Random(17)
    checked = 0
    while checked < 100:
        box = random_box(rng, max_extent_deg=0.5)
        p = GeoPoint(
            lat=min(90, max(-90, geo.centroid(box).lat + rng.uniform(-2, 2))),
            lon=geo.centroid(box).lon + rng.uniform(-2, 2),
        )
        if geo.contains(box, p):
            continue
        expected = boundary_scan_distance(p, box)
        assert geo.distance_to_box(p, box) == pytest.approx(expected, rel=5e-3)
        checked += 1


def test_distance_zero_iff_contained_property():
    rng = random.Random(19)
    for _ in range(1000):
        box = random_box(rng)
        # half the samples near/inside the box, half anywhere
        if rng.random() < 0.5:
            p = GeoPoint(
                lat=rng.uniform(box.min_lat, box.max_lat),
                lon=rng.uniform(box.min_lon, box.max_lon),
            )
        else:
            p = random_point(rng)
        if geo.contains(box, p):
            assert geo.distance_to_box(p, box) == 0.0
        else:
            assert geo.distance_to_box(p, box) > 0.0


# -- boxes_overlap -----------------------------------------------------------


def test_disjoint_boxes_do_not_overlap():
    assert not geo.boxes_overlap(BoxExtent(0, 0, 1, 1), BoxExtent(2, 2, 3, 3))


def test_intersecting_boxes_overlap():
    assert geo.boxes_overlap(BoxExtent(0, 0, 1, 1), BoxExtent(0.5, 0.5, 2.5, 2.5))


def test_corner_touch_counts_as_overlap():
    assert geo.boxes_overlap(BoxExtent(0, 0, 1, 1), BoxExtent(1, 1, 2, 2))


def test_overlap_symmetric_and_reflexive_property():
    rng = random.Random(23)
    for _ in range(1000):
        a, b = random_box(rng), random_box(rng)
        assert geo.boxes_overlap(a, b) == geo.boxes_overlap(b, a)
        assert geo.boxes_overlap(a, a)


# -- destination helper --------------------------------------------------------


def test_destination_round_trips_through_haversine():
    rng = random.Random(29)
    for _ in range(200):
        origin = GeoPoint(lat=rng.uniform(-70, 70), lon=rng.uniform(-170, 170))
        dist = rng.uniform(1.0, 200_000.0)
        p = geo.destination(origin, rng.uniform(0, 360), dist)
        assert geo.haversine_distance(origin, p) == pytest.approx(dist, rel=1e-9, abs=1e-6)


# -- latitude reach --------------------------------------------------------------


def test_lat_reach_holds_every_point_at_that_distance():
    rng = random.Random(31)
    for _ in range(2000):
        origin = GeoPoint(lat=rng.uniform(-85, 85), lon=rng.uniform(-170, 170))
        # due north or south is the worst case; the rest show it is a bound
        bearing = rng.choice([0.0, 180.0, rng.uniform(0, 360)])
        p = geo.destination(origin, bearing, rng.uniform(0.0, 100_000.0))
        assert abs(p.lat - origin.lat) <= geo.lat_reach(geo.haversine_distance(origin, p))


# -- columns ---------------------------------------------------------------------


def test_unit_vectors_and_midpoints_are_the_scalar_formulas_bit_for_bit():
    rng = random.Random(37)
    edges = [(90.0, 180.0), (-90.0, -180.0), (0.0, -0.0), (-0.0, 0.0), (45.0, 180.0), (1e-300, -1e-300)]
    points = edges + [(rng.uniform(-90, 90), rng.uniform(-180, 180)) for _ in range(2000)]
    lats, lons = [p[0] for p in points], [p[1] for p in points]
    x, y, z = geo.unit_vectors(lats, iter(lons))
    for (lat, lon), got in zip(points, zip(x, y, z)):
        phi, lam = math.radians(lat), math.radians(lon)
        expected = (math.cos(phi) * math.cos(lam), math.cos(phi) * math.sin(lam), math.sin(phi))
        # repr tells -0.0 from 0.0, which == does not
        assert repr(got) == repr(expected) == repr(geo.unit_vector(lat, lon))
    boxes = [random_box(rng) for _ in range(2000)]
    lat_mid = list(geo.midpoints([b.min_lat for b in boxes], [b.max_lat for b in boxes]))
    lon_mid = list(geo.midpoints((b.min_lon for b in boxes), (b.max_lon for b in boxes)))
    assert repr(list(zip(lat_mid, lon_mid))) == repr([(c.lat, c.lon) for c in map(geo.centroid, boxes)])
