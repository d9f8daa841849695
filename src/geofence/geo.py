"""Geodesy and box geometry shared by the registry service and the device.

Positions are latitude/longitude pairs in degrees; distances are
great-circle meters on a sphere of mean radius. Everything here is a pure
function on immutable values, safe to call from any thread.
"""

from __future__ import annotations

import math
from array import array
from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from operator import add, mul, truediv
from typing import Iterable, Iterator, Sequence

EARTH_RADIUS_M = 6_371_000.0  # mean earth radius
MILE_M = 1_609.344
METERS_PER_DEG = EARTH_RADIUS_M * math.pi / 180.0  # meridian arc per degree


class InvalidCoordinate(ValueError):
    """Latitude or longitude outside its legal range, or not finite."""


class AntimeridianUnsupported(ValueError):
    """Corner pair spans the +/-180 degree meridian; such boxes are rejected."""


def _check_range(name: str, value: float, lo: float, hi: float) -> None:
    # the bounds are finite and NaN fails every comparison, so this rejects non-finite values too
    if type(value) is bool or not lo <= value <= hi:
        raise InvalidCoordinate(f"{name} must be a finite value in [{lo}, {hi}], got {value!r}")


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A position: latitude in [-90, 90], longitude in [-180, 180], degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        _check_range("lat", self.lat, -90.0, 90.0)
        _check_range("lon", self.lon, -180.0, 180.0)


class BoxExtent(namedtuple("BoxExtent", "min_lon min_lat max_lon max_lat")):
    """A normalized axis-aligned box: [min_lon, min_lat, max_lon, max_lat].

    Zero-area (degenerate) boxes are legal; a point site is a valid box.
    Boxes never cross the antimeridian: min_lon <= max_lon always holds in
    plain coordinate space. Construction checks the corners; ``_make`` and
    ``_replace``, like ``trusted_extent``, do not.
    """

    __slots__ = ()

    def __new__(cls, min_lon: float, min_lat: float, max_lon: float, max_lat: float) -> BoxExtent:
        check_extent(min_lon, min_lat, max_lon, max_lat)
        return tuple.__new__(cls, (min_lon, min_lat, max_lon, max_lat))


# a BoxExtent from four corners check_extent has already passed, built in C;
# BoxExtent's own __new__ is Python code, several times slower over a 25k-row cache
trusted_extent = partial(tuple.__new__, BoxExtent)


def check_extent(min_lon: float, min_lat: float, max_lon: float, max_lat: float) -> None:
    """Raise InvalidCoordinate unless the corners make a BoxExtent; a check without the object."""
    _check_range("min_lon", min_lon, -180.0, 180.0)
    _check_range("max_lon", max_lon, -180.0, 180.0)
    _check_range("min_lat", min_lat, -90.0, 90.0)
    _check_range("max_lat", max_lat, -90.0, 90.0)
    if min_lon > max_lon or min_lat > max_lat:
        raise InvalidCoordinate(f"box corners out of order: [{min_lon}, {min_lat}, {max_lon}, {max_lat}]")


def normalize_box(p1: GeoPoint, p2: GeoPoint) -> BoxExtent:
    """Build the axis-aligned box spanned by two opposite corners.

    Corner order is irrelevant: min/max over each axis. Corner pairs whose
    shorter longitude arc crosses the +/-180 meridian are rejected, because
    min/max ordering would silently yield the complementary box.
    """
    if abs(p1.lon - p2.lon) > 180.0:
        raise AntimeridianUnsupported(
            f"corners {p1.lon} and {p2.lon} span the antimeridian; "
            "split the area into boxes on either side instead"
        )
    return BoxExtent(
        min_lon=min(p1.lon, p2.lon),
        min_lat=min(p1.lat, p2.lat),
        max_lon=max(p1.lon, p2.lon),
        max_lat=max(p1.lat, p2.lat),
    )


def centroid(box: BoxExtent) -> GeoPoint:
    """Intersection of the box diagonals: the componentwise midpoint."""
    return GeoPoint(
        lat=(box.min_lat + box.max_lat) / 2.0,
        lon=(box.min_lon + box.max_lon) / 2.0,
    )


def midpoints(lo: Iterable[float], hi: Iterable[float]) -> Iterator[float]:
    """centroid's arithmetic over two columns, (lo + hi) / 2.0 a pair at a time, in C."""
    return map(truediv, map(add, lo, hi), repeat(2.0))


def lat_reach(distance_m: float) -> float:
    """Half-height, in degrees, of a latitude band holding all within distance_m of its middle.

    No path changes latitude faster than a meridian arc; the slack absorbs rounding.
    """
    return distance_m / METERS_PER_DEG * 1.000001 + 1e-9


def lon_reach(distance_m: float, lat: float) -> float:
    """Half-width, in degrees, of a longitude window holding all within distance_m of a point at lat.

    By the haversine formula, sin(gap / 2) <= sin(d / 2R) / cos(lat') for a
    point at latitude lat' and distance d, and lat' lies in the point's
    lat_reach band. 180 when that band reaches a pole's cap; the slack
    absorbs rounding, as in lat_reach.
    """
    cos_lim = math.cos(math.radians(min(90.0, abs(lat) + lat_reach(distance_m))))
    sin_half = math.sin(min(math.pi, distance_m / EARTH_RADIUS_M) / 2.0)
    if cos_lim <= sin_half:
        return 180.0
    return math.degrees(2.0 * math.asin(sin_half / cos_lim)) * 1.000001 + 1e-9


def unit_vector(lat: float, lon: float) -> tuple[float, float, float]:
    """The direction of a position from the Earth's centre, (x, y, z) on the unit sphere; z points north."""
    (x,), (y,), (z,) = unit_vectors((lat,), (lon,))
    return x, y, z


def unit_vectors(lats: Sequence[float], lons: Iterable[float]) -> tuple[array, array, array]:
    """unit_vector of each (lat, lon) pair, as x, y and z columns; one formula, so the same floats.

    x = cos(phi) cos(lam), y = cos(phi) sin(lam), z = sin(phi), in radians,
    a column at a time in C; each column goes through one list of floats.
    """
    cos_phi = array("d", list(map(math.cos, map(math.radians, lats))))
    lam = array("d", list(map(math.radians, lons)))
    x = array("d", list(map(mul, cos_phi, map(math.cos, lam))))
    y = array("d", list(map(mul, cos_phi, map(math.sin, lam))))
    z = array("d", list(map(math.sin, map(math.radians, lats))))
    return x, y, z


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in meters.

    Haversine formula on a sphere of radius EARTH_RADIUS_M. Symmetric,
    zero only for coincident points, never exceeds EARTH_RADIUS_M * pi.
    """
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlam = math.radians(b.lon - a.lon)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    h = min(1.0, h)  # rounding can push just past 1 for near-antipodal pairs
    c = 2.0 * math.atan2(math.sqrt(h), math.sqrt(1.0 - h))
    return EARTH_RADIUS_M * c


def contains(box: BoxExtent, p: GeoPoint) -> bool:
    """True when the point lies in the box; the boundary counts as inside."""
    return (
        box.min_lon <= p.lon <= box.max_lon
        and box.min_lat <= p.lat <= box.max_lat
    )


def distance_to_box(p: GeoPoint, box: BoxExtent) -> float:
    """Meters from a point to the nearest point of a box; 0 when inside.

    The nearest point is found by clamping the coordinates into the box's
    ranges, then measuring great-circle distance. At the box sizes this
    system manages (well under 100 km across) the approximation stays
    within a fraction of a percent of the true geodesic minimum.
    """
    if contains(box, p):
        return 0.0
    nearest = GeoPoint(
        lat=min(max(p.lat, box.min_lat), box.max_lat),
        lon=min(max(p.lon, box.min_lon), box.max_lon),
    )
    return haversine_distance(p, nearest)


def boxes_overlap(a: BoxExtent, b: BoxExtent) -> bool:
    """True when the boxes share any point; touching edges or corners count."""
    return (
        a.min_lon <= b.max_lon
        and b.min_lon <= a.max_lon
        and a.min_lat <= b.max_lat
        and b.min_lat <= a.max_lat
    )


def destination(origin: GeoPoint, bearing_deg: float, distance_m: float) -> GeoPoint:
    """Point reached by traveling distance_m from origin on an initial bearing."""
    delta = distance_m / EARTH_RADIUS_M
    theta = math.radians(bearing_deg)
    phi1 = math.radians(origin.lat)
    lam1 = math.radians(origin.lon)
    phi2 = math.asin(
        math.sin(phi1) * math.cos(delta) + math.cos(phi1) * math.sin(delta) * math.cos(theta)
    )
    lam2 = lam1 + math.atan2(
        math.sin(theta) * math.sin(delta) * math.cos(phi1),
        math.cos(delta) - math.sin(phi1) * math.sin(phi2),
    )
    lon = math.degrees(lam2)
    if lon > 180.0 or lon < -180.0:
        lon = (lon + 540.0) % 360.0 - 180.0
    return GeoPoint(lat=math.degrees(phi2), lon=lon)
