"""Synthetic restricted-box datasets for load tests and benchmarks.

Centroids are uniform over a great-circle disc; edge lengths are uniform
between 50 m and 2 km. Output files are byte-for-byte reproducible for a
given seed: coordinates are rounded to 6 decimal places (about 11 cm), which
also keeps stored records compact.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from . import geo, snapshot
from .geo import BoxExtent, GeoPoint

EDGE_RANGE_M = (50.0, 2000.0)
COORD_DECIMALS = 6


def generate_extents(
    n: int,
    center: GeoPoint,
    radius_m: float,
    rng: random.Random,
) -> list[BoxExtent]:
    """Draw n boxes with centroids uniform in the disc around center."""
    if n <= 0:
        raise ValueError("n must be positive")
    if radius_m <= 0:
        raise ValueError("radius_m must be positive")
    lo, hi = EDGE_RANGE_M
    extents = []
    for _ in range(n):
        # sqrt keeps the area density uniform across the disc
        r = radius_m * math.sqrt(rng.random())
        c = geo.destination(center, rng.uniform(0.0, 360.0), r)
        width = rng.uniform(lo, hi)
        height = rng.uniform(lo, hi)
        half_h = (height / 2.0) / geo.METERS_PER_DEG
        half_w = (width / 2.0) / (geo.METERS_PER_DEG * math.cos(math.radians(c.lat)))
        extents.append(
            BoxExtent(
                min_lon=round(c.lon - half_w, COORD_DECIMALS),
                min_lat=round(c.lat - half_h, COORD_DECIMALS),
                max_lon=round(c.lon + half_w, COORD_DECIMALS),
                max_lat=round(c.lat + half_h, COORD_DECIMALS),
            )
        )
    return extents


def write_dataset(path: str, extents: Iterable[BoxExtent]) -> int:
    """Write extents to a checksummed dataset file; returns the count."""
    records = [
        {
            "min_lon": e.min_lon,
            "min_lat": e.min_lat,
            "max_lon": e.max_lon,
            "max_lat": e.max_lat,
        }
        for e in extents
    ]
    snapshot.write_records(path, records)
    return len(records)


def read_dataset(path: str) -> list[BoxExtent]:
    """Load a dataset file; every extent is re-validated on the way in."""
    extents = []
    for i, line in enumerate(snapshot.read_snapshot(path)):
        record = snapshot.parse_line(path, i, line)
        try:
            extents.append(
                BoxExtent(
                    min_lon=record["min_lon"],
                    min_lat=record["min_lat"],
                    max_lon=record["max_lon"],
                    max_lat=record["max_lat"],
                )
            )
        except (KeyError, TypeError, geo.InvalidCoordinate) as exc:
            raise snapshot.CorruptSnapshot(f"{path}: bad dataset record: {exc}") from exc
    return extents
