"""Server-side store of restricted bounding boxes.

Adding a box that overlaps existing ones replaces the whole overlapping
group with a single encompassing box, applied transitively until no overlap
remains, so the stored set is always pairwise disjoint. Vicinity queries
return every box whose centroid lies within a great-circle radius of a
point. The store is a set of parallel columns, one row per box, sorted by
centroid latitude: a query or an overlap search bisects a latitude band of
them and rejects by longitude before the exact test, so it prunes
candidates but never changes results. When bound to a snapshot path, every
add is persisted atomically before it returns, and boxes absorbed by merges
are preserved in an append-only audit log.
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import sys
import threading
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter, sub
from typing import Container, Iterable, Iterator, NamedTuple

from . import geo, snapshot
from .geo import BoxExtent, GeoPoint
from .snapshot import CorruptSnapshot, StorageFailure, UnsyncedRename


class RestrictedBox(NamedTuple):
    """A persisted restriction: extent plus identity and audit fields."""

    id: str
    extent: BoxExtent
    added_by: str
    reason: str
    created_at: float  # UTC seconds


@dataclass(frozen=True, slots=True)
class AddOutcome:
    """Result of an add: the box as stored and any boxes it absorbed."""

    stored: RestrictedBox
    replaced_ids: tuple[str, ...]


def box_record(box: RestrictedBox) -> dict:
    """Canonical dict form of a box, used on the wire and in snapshots; the centroid is derived."""
    centroid = geo.centroid(box.extent)
    return {
        "id": box.id,
        "min_lon": float(box.extent.min_lon),
        "min_lat": float(box.extent.min_lat),
        "max_lon": float(box.extent.max_lon),
        "max_lat": float(box.extent.max_lat),
        "centroid_lon": centroid.lon,
        "centroid_lat": centroid.lat,
        "added_by": box.added_by,
        "reason": box.reason,
        "created_at": float(box.created_at),
    }


def encode_boxes(lines: Iterable[bytes]) -> bytes:
    """JSON array of canonical record lines, such as a query returns: the lines joined.

    Disk and wire share one encoding. A query's lines are taken as of the
    query, so a box a concurrent merge removed is served as queried.
    """
    return b"[" + b",".join(lines) + b"]"


# box_record's keys in sorted order, and the type of each value
_RECORD_KEYS = (
    "added_by", "centroid_lat", "centroid_lon", "created_at", "id",
    "max_lat", "max_lon", "min_lat", "min_lon", "reason",
)
_RECORD_TYPES = (str, float, float, float, str, float, float, float, float, str)
_fields = itemgetter(*_RECORD_KEYS)


def _is_canonical(line: bytes, record: dict) -> bool:
    """Whether a snapshot line can be served as is for the box it parsed to.

    The keys, their order and the value types make the record equal to
    ``box_record`` of the box built from it, so the line parses equal to
    its canonical encoding; the last two checks reject stray whitespace
    and a missing final newline, which the snapshot join relies on.
    """
    return (
        tuple(record) == _RECORD_KEYS
        and tuple(map(type, record.values())) == _RECORD_TYPES
        and line.endswith(b"}\n")
        and line.count(b" ")
        == record["id"].count(" ") + record["added_by"].count(" ") + record["reason"].count(" ")
    )


def row_from_record(record: dict) -> tuple:
    """Check one canonical record and return its row; the one parser of every read path.

    Checks the geometry, the centroid and the types, and returns ``(id,
    min_lon, min_lat, max_lon, max_lat, centroid_lat, added_by, reason,
    created_at)`` with the values as the record holds them.
    """
    try:
        added_by, mid_lat, mid_lon, created_at, box_id, max_lat, max_lon, min_lat, min_lon, reason = _fields(record)
        geo.check_extent(min_lon, min_lat, max_lon, max_lat)
    except KeyError as exc:
        raise ValueError(f"box record missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"box record has a non-numeric field: {exc}") from exc
    if type(mid_lat) not in (int, float) or mid_lat != (min_lat + max_lat) / 2.0:
        raise ValueError(f"box record centroid_lat is not the midpoint of its extent: {mid_lat!r}")
    if type(mid_lon) not in (int, float) or mid_lon != (min_lon + max_lon) / 2.0:
        raise ValueError(f"box record centroid_lon is not the midpoint of its extent: {mid_lon!r}")
    # float() would take "12" or True; NaN, an infinity and an int too large for a float fail the bound
    if type(created_at) not in (int, float) or not abs(created_at) <= sys.float_info.max:
        raise ValueError(f"box record has a non-numeric or non-finite created_at: {created_at!r}")
    if type(box_id) is not str or type(added_by) is not str or type(reason) is not str:
        key = "id" if type(box_id) is not str else "added_by" if type(added_by) is not str else "reason"
        raise ValueError(f"box record field {key!r} is not a string: {record[key]!r}")
    return box_id, min_lon, min_lat, max_lon, max_lat, mid_lat, added_by, reason, created_at


@contextmanager
def collector_paused() -> Iterator[None]:
    """Pause cyclic GC, process-wide, for a decode, whose objects all stay alive; re-enable only if it was on."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class _Point:
    """A centroid read back from the columns, for the haversine filter.

    A query keeps one and moves it to each candidate in turn. The centroids
    were validated when stored, so it skips ``GeoPoint``'s range checks,
    which made a 25-mile query over 100k boxes about 50% slower.
    """

    __slots__ = ("lat", "lon")


def _midpoints(lo: Iterable[float], hi: Iterable[float]) -> array:
    """A centroid column from two extent columns: geo.centroid's arithmetic."""
    return array("d", [(a + b) / 2.0 for a, b in zip(lo, hi)])


def max_half_extent(ext: array, axis: int) -> float:
    """The largest half-width (axis 0) or half-height (axis 1), in degrees, over packed extents; 0 when none."""
    return max(map(sub, ext[axis + 2 :: 4], ext[axis::4]), default=0.0) / 2.0


class Registry:
    """The restricted-box store.

    The state is ``_lines`` (box id -> canonical snapshot line, in snapshot
    order) and one row per box in five parallel columns sorted by centroid
    latitude: the centroid latitudes and longitudes, the extents packed
    four floats a row (min_lon, min_lat, max_lon, max_lat), the ids, and
    the lines again. No box object is kept: ``add_box`` builds one for its
    outcome, and a query answers with the lines.
    The centroid columns hold the extents' midpoints; no box carries one.

    Thread-safe behind two locks. A writer mutex serialises every mutator
    (``add_box``, ``bulk_load``, ``load_snapshot``); the writer does its
    slow work under it alone: overlap search, encode, audit append and the
    snapshot write and fsync. A short state lock guards the in-memory set:
    readers hold it to slice their latitude band from the columns, and a
    writer takes it only to swap in a committed change. Only writer-mutex
    holders change the state, so a writer reads it without the state lock.
    Readers therefore see committed state only and never wait on snapshot
    I/O.

    With ``snapshot_path`` set, mutations are durable before they return and
    nothing is applied when persisting fails before the snapshot's rename,
    which commits; with ``audit_log_path`` set, merge-absorbed boxes are
    appended there instead of vanishing.
    """

    def __init__(
        self,
        snapshot_path: str | None = None,
        audit_log_path: str | None = None,
        id_rng: random.Random | None = None,
    ) -> None:
        self.snapshot_path = snapshot_path
        self.audit_log_path = audit_log_path
        self._write_lock = threading.Lock()  # serialises mutators
        self._lock = threading.Lock()  # guards the state readers see
        self._lines: dict[str, bytes] = {}  # id -> snapshot line, in snapshot order
        # the rows, in centroid-latitude order
        self._lat = array("d")
        self._lon = array("d")
        self._ext = array("d")  # 4 per row, in BoxExtent's field order
        self._ids: list[str] = []
        self._row_lines: list[bytes] = []
        self._id_rng = id_rng if id_rng is not None else random.Random()
        # conservative bound on stored box half-extents, in degrees; only
        # grows, which keeps the overlap candidate search a true superset
        self._max_half_w = 0.0
        self._max_half_h = 0.0

    # -- identity ---------------------------------------------------------

    def _new_id(self, pending: Container[str] = ()) -> str:
        while True:
            box_id = f"{self._id_rng.getrandbits(128):032x}"
            if box_id not in self._lines and box_id not in pending:
                return box_id

    # -- queries ----------------------------------------------------------

    def count(self) -> int:
        with self._lock:
            return len(self._lines)

    def boxes_within_radius(self, center: GeoPoint, radius_m: float) -> list[bytes]:
        """The canonical line of every box whose centroid is within radius_m of center (inclusive)."""
        if not (math.isfinite(radius_m) and radius_m > 0):
            raise ValueError("radius_m must be positive")
        # meridian-arc bound: no centroid within radius_m lies outside the band
        lat_pad = geo.lat_reach(radius_m)
        lat_lo, lat_hi = center.lat - lat_pad, center.lat + lat_pad
        # widest possible longitude gap at distance radius_m, reached at the
        # narrowest parallel of the band: sin(gap/2) = sin(r/2R) / cos(lat)
        cos_lim = math.cos(math.radians(min(90.0, max(abs(lat_lo), abs(lat_hi)))))
        sin_half = math.sin(min(math.pi, radius_m / geo.EARTH_RADIUS_M) / 2.0)
        if cos_lim <= sin_half:
            lon_pad = 180.0
        else:
            lon_pad = math.degrees(2.0 * math.asin(sin_half / cos_lim)) * 1.000001 + 1e-9
        with self._lock:
            lats = self._lat
            lo, hi = bisect_left(lats, lat_lo), bisect_right(lats, lat_hi)
            band = zip(self._row_lines[lo:hi], lats[lo:hi], self._lon[lo:hi])
        lon = center.lon
        point = _Point()  # the distance call keeps no reference to it
        lines = []
        for line, point.lat, point.lon in band:
            if (
                abs((point.lon - lon + 180.0) % 360.0 - 180.0) <= lon_pad
                and geo.haversine_distance(center, point) <= radius_m
            ):
                lines.append(line)
        return lines

    # -- adds -------------------------------------------------------------

    def _overlapping_group(self, extent: BoxExtent) -> tuple[BoxExtent, dict[int, str]]:
        """Grow extent over every transitively overlapping stored box.

        Returns the union and the absorbed rows (row -> id), in the order found.
        """
        union = extent
        absorbed: dict[int, str] = {}
        lats, lons, ext = self._lat, self._lon, self._ext
        pad_w = self._max_half_w + 1e-9
        pad_h = self._max_half_h + 1e-9
        while True:
            # a box overlapping union has its centroid within its half-extent of it
            lon_lo, lon_hi = union.min_lon - pad_w, union.max_lon + pad_w
            hits: list[BoxExtent] = []
            for row in range(bisect_left(lats, union.min_lat - pad_h), bisect_right(lats, union.max_lat + pad_h)):
                if lon_lo <= lons[row] <= lon_hi and row not in absorbed:
                    box = geo.trusted_extent(ext[4 * row : 4 * row + 4])
                    if geo.boxes_overlap(box, union):
                        absorbed[row] = self._ids[row]
                        hits.append(box)
            if not hits:
                return union, absorbed
            union = BoxExtent(
                min_lon=min(union.min_lon, min(b.min_lon for b in hits)),
                min_lat=min(union.min_lat, min(b.min_lat for b in hits)),
                max_lon=max(union.max_lon, max(b.max_lon for b in hits)),
                max_lat=max(union.max_lat, max(b.max_lat for b in hits)),
            )

    def add_box(self, extent: BoxExtent, added_by: str, reason: str, now: float) -> AddOutcome:
        """Insert a box, merging away any overlap; durable before return.

        If persistence fails nothing is applied: the in-memory set, the
        snapshot on disk and the audit log all keep their previous contents.
        The snapshot's rename is the commit point: once it has happened the
        add is applied, and a failure after it still raises StorageFailure.
        """
        if not added_by:
            raise ValueError("added_by must be non-empty")
        with self._write_lock:
            union, absorbed = self._overlapping_group(extent)
            stored = RestrictedBox(self._new_id(), union, added_by, reason, float(now))
            stored_line = snapshot.encode_record(box_record(stored))
            audit_size = None
            if absorbed and self.audit_log_path:
                audit_size = self._append_audit(stored.id, [self._row_lines[row] for row in absorbed], now)
            if self.snapshot_path:
                gone = set(absorbed.values())
                lines = [line for box_id, line in self._lines.items() if box_id not in gone]
                lines.append(stored_line)
                try:
                    snapshot.write_snapshot(self.snapshot_path, lines)
                except UnsyncedRename:
                    # the file holds the merge: memory and the audit log follow it
                    self._swap_rows(absorbed, stored.id, stored_line, union)
                    raise
                except BaseException:
                    # the merge did not commit, so the audit log must not claim it
                    if audit_size is not None:
                        self._truncate_audit(audit_size)
                    raise
            self._swap_rows(absorbed, stored.id, stored_line, union)
            return AddOutcome(stored=stored, replaced_ids=tuple(sorted(absorbed.values())))

    def _swap_rows(self, absorbed: Iterable[int], box_id: str, line: bytes, extent: BoxExtent) -> None:
        """Delete the absorbed rows and insert the stored box's, under the state lock."""
        corners = array("d", extent)
        half_w = max(self._max_half_w, max_half_extent(corners, 0))
        half_h = max(self._max_half_h, max_half_extent(corners, 1))
        centroid = geo.centroid(extent)
        with self._lock:
            # descending, so each deletion leaves the rows still to go in place
            for row in sorted(absorbed, reverse=True):
                del self._lines[self._ids[row]]
                del self._lat[row], self._lon[row], self._ext[4 * row : 4 * row + 4]
                del self._ids[row], self._row_lines[row]
            self._lines[box_id] = line
            row = bisect_right(self._lat, centroid.lat)
            self._lat.insert(row, centroid.lat)
            self._lon.insert(row, centroid.lon)
            self._ext[4 * row : 4 * row] = corners
            self._ids.insert(row, box_id)
            self._row_lines.insert(row, line)
            self._max_half_w, self._max_half_h = half_w, half_h

    def bulk_load(
        self,
        extents: Iterable[BoxExtent],
        added_by: str,
        reason: str,
        now: float,
    ) -> int:
        """Load a prepared dataset without overlap adjustment.

        Fast path for benchmarks and synthetic corpora, where box counts
        must stay exact; merge semantics apply only to add_box. Snapshots
        once at the end when bound to a path, before anything is applied;
        as in add_box, the rename commits.
        """
        if not added_by:
            raise ValueError("added_by must be non-empty")
        with self._write_lock:
            ext = self._ext[:]
            new: dict[str, bytes] = {}
            for extent in extents:
                box = RestrictedBox(self._new_id(new), extent, added_by, reason, float(now))
                new[box.id] = snapshot.encode_record(box_record(box))
                ext.extend(extent)
            ids, lines = self._ids + list(new), {**self._lines, **new}
            try:
                if self.snapshot_path:
                    snapshot.write_snapshot(self.snapshot_path, list(lines.values()))
            except UnsyncedRename:
                self._publish(lines, ids, ext)  # the file holds the load: memory follows it
                raise
            self._publish(lines, ids, ext)
            return len(new)

    # -- persistence ------------------------------------------------------

    def load_snapshot(self, path: str | None = None) -> int:
        """Replace the registry contents with a snapshot's, returning the count."""
        source = path or self.snapshot_path
        if not source:
            raise ValueError("no snapshot path given or bound")
        with self._write_lock:
            lines: dict[str, bytes] = {}
            ext = array("d")
            # one record at a time: only the lines and the packed extents stay alive
            for i, line in enumerate(snapshot.read_snapshot(source)):
                record = snapshot.parse_line(source, i, line)
                try:
                    row = row_from_record(record)
                except (ValueError, geo.InvalidCoordinate) as exc:
                    raise CorruptSnapshot(f"{source}: bad box record: {exc}") from exc
                box_id = row[0]
                if box_id in lines:
                    raise CorruptSnapshot(f"{source}: duplicate box id {box_id}")
                if _is_canonical(line, record):
                    lines[box_id] = line
                else:
                    box = RestrictedBox(box_id, BoxExtent(*row[1:5]), *row[6:])
                    lines[box_id] = snapshot.encode_record(box_record(box))
                ext.extend(row[1:5])
            self._publish(lines, list(lines), ext)
            return len(lines)

    def _publish(self, lines: dict[str, bytes], ids: list[str], ext: array) -> None:
        """Swap in a whole new state: the id -> line map and its rows, in any order.

        ``ids`` and the packed extents ``ext`` give the rows; the centroid
        columns are their extents' midpoints, as ``geo.centroid`` computes
        them. A merged box contains every box it absorbed, so the
        half-extent bound over the stored boxes alone is the running maximum.
        """
        lat = _midpoints(ext[1::4], ext[3::4])
        order = sorted(range(len(ids)), key=lat.__getitem__)  # stable; an old store is one sorted run
        ext = array("d", chain.from_iterable(ext[4 * row : 4 * row + 4] for row in order))
        ids = [ids[row] for row in order]
        row_lines = [lines[box_id] for box_id in ids]
        lat, lon = _midpoints(ext[1::4], ext[3::4]), _midpoints(ext[0::4], ext[2::4])
        half_w, half_h = max_half_extent(ext, 0), max_half_extent(ext, 1)
        with self._lock:
            self._lines, self._ids, self._row_lines = lines, ids, row_lines
            self._lat, self._lon, self._ext = lat, lon, ext
            self._max_half_w, self._max_half_h = half_w, half_h

    def _append_audit(self, merged_into: str, absorbed: Iterable[bytes], now: float) -> int:
        """Append one entry per absorbed box's line, durably; return the prior file size."""
        try:
            with open(self.audit_log_path, "ab") as f:
                size = f.seek(0, os.SEEK_END)
                for line in absorbed:
                    # a stored line is canonical: it parses equal to box_record of its box
                    entry = {"event": "absorbed", "at": now, "merged_into": merged_into, "box": json.loads(line)}
                    f.write(snapshot.encode_record(entry))
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            raise StorageFailure(f"cannot append audit log {self.audit_log_path}: {exc}") from exc
        return size

    def _truncate_audit(self, size: int) -> None:
        """Cut the audit log back to size, durably, dropping uncommitted entries."""
        try:
            with open(self.audit_log_path, "r+b") as f:
                f.truncate(size)
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            raise StorageFailure(f"cannot roll back audit log {self.audit_log_path}: {exc}") from exc
