"""Server-side store of restricted bounding boxes.

Adding a box that overlaps existing ones replaces the whole overlapping
group with a single encompassing box, applied transitively until no overlap
remains, so the stored set is always pairwise disjoint. Vicinity queries
return every box whose centroid lies within a great-circle radius of a
point; a uniform lat/lon grid over centroids prunes candidates but never
changes results. When bound to a snapshot path, every add is persisted
atomically before it returns, and boxes absorbed by merges are preserved in
an append-only audit log.
"""

from __future__ import annotations

import math
import os
import random
import threading
from dataclasses import dataclass
from typing import Container, Iterable, Iterator

from . import geo, snapshot
from .geo import BoxExtent, GeoPoint
from .snapshot import CorruptSnapshot, StorageFailure

CELL_SIZE_DEG = 0.25  # grid cell edge of the centroid index


@dataclass(frozen=True, slots=True)
class RestrictedBox:
    """A persisted restriction: extent plus identity and audit fields."""

    id: str
    extent: BoxExtent
    centroid: GeoPoint
    added_by: str
    reason: str
    created_at: float  # UTC seconds


@dataclass(frozen=True, slots=True)
class AddOutcome:
    """Result of an add: the box as stored and any boxes it absorbed."""

    stored: RestrictedBox
    replaced_ids: tuple[str, ...]


def box_record(box: RestrictedBox) -> dict:
    """Canonical dict form of a box, used on the wire and in snapshots."""
    return {
        "id": box.id,
        "min_lon": box.extent.min_lon,
        "min_lat": box.extent.min_lat,
        "max_lon": box.extent.max_lon,
        "max_lat": box.extent.max_lat,
        "centroid_lon": box.centroid.lon,
        "centroid_lat": box.centroid.lat,
        "added_by": box.added_by,
        "reason": box.reason,
        "created_at": box.created_at,
    }


# box_record's keys in sorted order, and the type of each value
_RECORD_KEYS = (
    "added_by", "centroid_lat", "centroid_lon", "created_at", "id",
    "max_lat", "max_lon", "min_lat", "min_lon", "reason",
)
_RECORD_TYPES = (str, float, float, float, str, float, float, float, float, str)


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


def box_from_record(record: dict) -> RestrictedBox:
    """Parse the canonical dict form back into a box, validating geometry."""
    try:
        return RestrictedBox(
            id=str(record["id"]),
            extent=BoxExtent(
                min_lon=record["min_lon"],
                min_lat=record["min_lat"],
                max_lon=record["max_lon"],
                max_lat=record["max_lat"],
            ),
            centroid=GeoPoint(lat=record["centroid_lat"], lon=record["centroid_lon"]),
            added_by=str(record["added_by"]),
            reason=str(record["reason"]),
            created_at=float(record["created_at"]),
        )
    except KeyError as exc:
        raise ValueError(f"box record missing field {exc.args[0]!r}") from exc
    except TypeError as exc:
        raise ValueError(f"box record has a non-numeric field: {exc}") from exc


class _GridIndex:
    """Uniform lat/lon grid over box centroids.

    Purely a candidate prefilter: callers always re-check candidates with
    exact geometry, so correctness never depends on cell size.
    """

    def __init__(self) -> None:
        self._cells: dict[tuple[int, int], set[str]] = {}

    def _cell_of(self, p: GeoPoint) -> tuple[int, int]:
        return (math.floor(p.lat / CELL_SIZE_DEG), math.floor(p.lon / CELL_SIZE_DEG))

    def add(self, box_id: str, c: GeoPoint) -> None:
        self._cells.setdefault(self._cell_of(c), set()).add(box_id)

    def discard(self, box_id: str, c: GeoPoint) -> None:
        cell = self._cell_of(c)
        ids = self._cells.get(cell)
        if ids is not None:
            ids.discard(box_id)
            if not ids:
                del self._cells[cell]

    def merge(self, other: "_GridIndex") -> None:
        """Add every entry of another index."""
        for cell, ids in other._cells.items():
            self._cells.setdefault(cell, set()).update(ids)

    def _ids_in_cell_rect(self, i0: int, i1: int, j0: int, j1: int) -> Iterator[str]:
        if (i1 - i0 + 1) * (j1 - j0 + 1) > len(self._cells):
            # sparse store: walking populated cells is cheaper than the rect
            for (ci, cj), ids in self._cells.items():
                if i0 <= ci <= i1 and j0 <= cj <= j1:
                    yield from ids
            return
        for ci in range(i0, i1 + 1):
            for cj in range(j0, j1 + 1):
                ids = self._cells.get((ci, cj))
                if ids:
                    yield from ids

    def ids_in_rect(self, min_lon: float, min_lat: float, max_lon: float, max_lat: float) -> Iterator[str]:
        """Candidate ids whose centroid cell intersects the coordinate rect."""
        i0 = math.floor(min_lat / CELL_SIZE_DEG)
        i1 = math.floor(max_lat / CELL_SIZE_DEG)
        j0 = math.floor(min_lon / CELL_SIZE_DEG)
        j1 = math.floor(max_lon / CELL_SIZE_DEG)
        yield from self._ids_in_cell_rect(i0, i1, j0, j1)

    def ids_near_disc(self, center: GeoPoint, radius_m: float) -> Iterator[str]:
        """Candidate ids whose centroid could lie within radius_m of center."""
        lat_pad = radius_m / geo.METERS_PER_DEG * 1.000001 + 1e-9
        lat_lo = max(-90.0, center.lat - lat_pad)
        lat_hi = min(90.0, center.lat + lat_pad)
        # widest possible longitude gap at distance radius_m, reached at the
        # narrowest parallel of the band: sin(gap/2) = sin(r/2R) / cos(lat)
        cos_lim = math.cos(math.radians(min(90.0, max(abs(lat_lo), abs(lat_hi)))))
        sin_half = math.sin(min(math.pi, radius_m / geo.EARTH_RADIUS_M) / 2.0)
        if cos_lim <= sin_half:
            lon_pad = 180.0
        else:
            lon_pad = math.degrees(2.0 * math.asin(sin_half / cos_lim)) * 1.000001 + 1e-9
        lon_lo = center.lon - lon_pad
        lon_hi = center.lon + lon_pad
        i0 = math.floor(lat_lo / CELL_SIZE_DEG)
        i1 = math.floor(lat_hi / CELL_SIZE_DEG)
        if lon_hi - lon_lo >= 360.0:
            yield from self._ids_in_cell_rect(
                i0, i1, math.floor(-180.0 / CELL_SIZE_DEG), math.floor(180.0 / CELL_SIZE_DEG)
            )
            return
        # a disc near the +/-180 meridian wraps: split into two rects
        if lon_lo < -180.0:
            yield from self._ids_in_cell_rect(
                i0, i1, math.floor((lon_lo + 360.0) / CELL_SIZE_DEG), math.floor(180.0 / CELL_SIZE_DEG)
            )
            lon_lo = -180.0
        if lon_hi > 180.0:
            yield from self._ids_in_cell_rect(
                i0, i1, math.floor(-180.0 / CELL_SIZE_DEG), math.floor((lon_hi - 360.0) / CELL_SIZE_DEG)
            )
            lon_hi = 180.0
        yield from self._ids_in_cell_rect(
            i0, i1, math.floor(lon_lo / CELL_SIZE_DEG), math.floor(lon_hi / CELL_SIZE_DEG)
        )


class Registry:
    """The restricted-box store.

    Thread-safe behind two locks. A writer mutex serialises every mutator
    (``add_box``, ``bulk_load``, ``load_snapshot``); the writer does its
    slow work under it alone: overlap search, encode, audit append and the
    snapshot write and fsync. A short state lock guards the
    in-memory set: readers hold it for their query, and a writer takes it
    only to swap in a committed change. Only writer-mutex holders change the
    state, so a writer reads it without the state lock. Readers therefore
    see committed state only and never wait on snapshot I/O.

    With ``snapshot_path`` set, mutations are durable before they return and
    nothing is applied when persisting fails; with ``audit_log_path`` set,
    merge-absorbed boxes are appended there instead of vanishing.
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
        self._boxes: dict[str, RestrictedBox] = {}
        self._lines: dict[str, bytes] = {}  # cached snapshot line per box
        self._index = _GridIndex()
        self._id_rng = id_rng if id_rng is not None else random.Random()
        # conservative bound on stored box half-extents, in degrees; only
        # grows, which keeps the overlap candidate search a true superset
        self._max_half_w = 0.0
        self._max_half_h = 0.0

    # -- identity ---------------------------------------------------------

    def _new_id(self, pending: Container[str] = ()) -> str:
        while True:
            box_id = f"{self._id_rng.getrandbits(128):032x}"
            if box_id not in self._boxes and box_id not in pending:
                return box_id

    # -- queries ----------------------------------------------------------

    def count(self) -> int:
        with self._lock:
            return len(self._boxes)

    def all_boxes(self) -> list[RestrictedBox]:
        with self._lock:
            return list(self._boxes.values())

    def boxes_within_radius(self, center: GeoPoint, radius_m: float) -> list[RestrictedBox]:
        """Every box whose centroid is within radius_m of center (inclusive)."""
        if not (math.isfinite(radius_m) and radius_m > 0):
            raise ValueError("radius_m must be positive")
        with self._lock:
            hits = []
            boxes = self._boxes
            # meridian-arc lower bound: cheap exact reject before haversine
            lat_cut = radius_m / geo.METERS_PER_DEG * 1.000001 + 1e-9
            for box_id in self._index.ids_near_disc(center, radius_m):
                box = boxes[box_id]
                if abs(box.centroid.lat - center.lat) > lat_cut:
                    continue
                if geo.haversine_distance(center, box.centroid) <= radius_m:
                    hits.append(box)
            return hits

    def encode_boxes(self, boxes: Iterable[RestrictedBox]) -> bytes:
        """JSON array of the boxes' canonical records: their snapshot lines joined.

        Disk and wire share one encoding. A box a concurrent merge removed
        after it was queried is encoded afresh, so it is served as queried.
        """
        with self._lock:
            current, lines = self._boxes, self._lines
            parts = [
                lines[box.id] if current.get(box.id) is box else snapshot.encode_record(box_record(box))
                for box in boxes
            ]
        return b"[" + b",".join(parts) + b"]"

    # -- adds -------------------------------------------------------------

    def _overlapping_group(self, extent: BoxExtent) -> tuple[BoxExtent, dict[str, RestrictedBox]]:
        """Grow extent over every transitively overlapping stored box."""
        union = extent
        absorbed: dict[str, RestrictedBox] = {}
        while True:
            pad_w = self._max_half_w + 1e-9
            pad_h = self._max_half_h + 1e-9
            candidates = self._index.ids_in_rect(
                max(-180.0, union.min_lon - pad_w),
                max(-90.0, union.min_lat - pad_h),
                min(180.0, union.max_lon + pad_w),
                min(90.0, union.max_lat + pad_h),
            )
            hits = [
                self._boxes[box_id]
                for box_id in candidates
                if box_id not in absorbed and geo.boxes_overlap(self._boxes[box_id].extent, union)
            ]
            if not hits:
                return union, absorbed
            for box in hits:
                absorbed[box.id] = box
            union = BoxExtent(
                min_lon=min(union.min_lon, min(b.extent.min_lon for b in hits)),
                min_lat=min(union.min_lat, min(b.extent.min_lat for b in hits)),
                max_lon=max(union.max_lon, max(b.extent.max_lon for b in hits)),
                max_lat=max(union.max_lat, max(b.extent.max_lat for b in hits)),
            )

    def add_box(self, extent: BoxExtent, added_by: str, reason: str, now: float) -> AddOutcome:
        """Insert a box, merging away any overlap; durable before return.

        If persistence fails nothing is applied: the in-memory set, the
        snapshot on disk and the audit log all keep their previous contents.
        """
        if not added_by:
            raise ValueError("added_by must be non-empty")
        with self._write_lock:
            union, absorbed = self._overlapping_group(extent)
            stored = RestrictedBox(
                id=self._new_id(),
                extent=union,
                centroid=geo.centroid(union),
                added_by=added_by,
                reason=reason,
                created_at=now,
            )
            stored_line = snapshot.encode_record(box_record(stored))
            audit_size = None
            if absorbed and self.audit_log_path:
                audit_size = self._append_audit(stored.id, absorbed.values(), now)
            if self.snapshot_path:
                lines = [
                    line for box_id, line in self._lines.items() if box_id not in absorbed
                ]
                lines.append(stored_line)
                try:
                    snapshot.write_snapshot(self.snapshot_path, lines)
                except BaseException:
                    # the merge did not commit, so the audit log must not claim it
                    if audit_size is not None:
                        self._truncate_audit(audit_size)
                    raise
            half_w, half_h = _half_extent_bound([union], self._max_half_w, self._max_half_h)
            with self._lock:
                for box in absorbed.values():
                    del self._boxes[box.id]
                    del self._lines[box.id]
                    self._index.discard(box.id, box.centroid)
                self._boxes[stored.id] = stored
                self._lines[stored.id] = stored_line
                self._index.add(stored.id, stored.centroid)
                self._max_half_w, self._max_half_h = half_w, half_h
            return AddOutcome(stored=stored, replaced_ids=tuple(sorted(absorbed)))

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
        once at the end when bound to a path, before anything is applied.
        """
        if not added_by:
            raise ValueError("added_by must be non-empty")
        with self._write_lock:
            boxes: dict[str, RestrictedBox] = {}
            lines: dict[str, bytes] = {}
            index = _GridIndex()
            for extent in extents:
                box = RestrictedBox(
                    id=self._new_id(boxes),
                    extent=extent,
                    centroid=geo.centroid(extent),
                    added_by=added_by,
                    reason=reason,
                    created_at=now,
                )
                boxes[box.id] = box
                lines[box.id] = snapshot.encode_record(box_record(box))
                index.add(box.id, box.centroid)
            if self.snapshot_path:
                snapshot.write_snapshot(self.snapshot_path, [*self._lines.values(), *lines.values()])
            half_w, half_h = _half_extent_bound(
                (box.extent for box in boxes.values()), self._max_half_w, self._max_half_h
            )
            with self._lock:
                self._boxes.update(boxes)
                self._lines.update(lines)
                self._index.merge(index)
                self._max_half_w, self._max_half_h = half_w, half_h
            return len(boxes)

    # -- persistence ------------------------------------------------------

    def load_snapshot(self, path: str | None = None) -> int:
        """Replace the registry contents with a snapshot's, returning the count."""
        source = path or self.snapshot_path
        if not source:
            raise ValueError("no snapshot path given or bound")
        with self._write_lock:
            boxes: dict[str, RestrictedBox] = {}
            lines: dict[str, bytes] = {}
            index = _GridIndex()
            # one record at a time: only the lines and the boxes stay alive
            for i, line in enumerate(snapshot.read_snapshot(source)):
                record = snapshot.parse_line(source, i, line)
                try:
                    box = box_from_record(record)
                except (ValueError, geo.InvalidCoordinate) as exc:
                    raise CorruptSnapshot(f"{source}: bad box record: {exc}") from exc
                if box.id in boxes:
                    raise CorruptSnapshot(f"{source}: duplicate box id {box.id}")
                extent, stored = box.extent, box.centroid
                if (
                    stored.lat != (extent.min_lat + extent.max_lat) / 2.0
                    or stored.lon != (extent.min_lon + extent.max_lon) / 2.0
                ):
                    raise CorruptSnapshot(f"{source}: box {box.id} centroid is not the midpoint of its extent")
                boxes[box.id] = box
                lines[box.id] = line if _is_canonical(line, record) else snapshot.encode_record(box_record(box))
                index.add(box.id, box.centroid)
            half_w, half_h = _half_extent_bound(box.extent for box in boxes.values())
            with self._lock:
                self._boxes, self._lines, self._index = boxes, lines, index
                self._max_half_w, self._max_half_h = half_w, half_h
            return len(boxes)

    def _append_audit(self, merged_into: str, absorbed: Iterable[RestrictedBox], now: float) -> int:
        """Append one entry per absorbed box, durably; return the prior file size."""
        try:
            with open(self.audit_log_path, "ab") as f:
                size = f.seek(0, os.SEEK_END)
                for box in absorbed:
                    entry = {
                        "event": "absorbed",
                        "at": now,
                        "merged_into": merged_into,
                        "box": box_record(box),
                    }
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


def _half_extent_bound(
    extents: Iterable[BoxExtent], half_w: float = 0.0, half_h: float = 0.0
) -> tuple[float, float]:
    """Largest half-width and half-height, in degrees, over extents and the floors given."""
    for extent in extents:
        half_w = max(half_w, (extent.max_lon - extent.min_lon) / 2.0)
        half_h = max(half_h, (extent.max_lat - extent.min_lat) / 2.0)
    return half_w, half_h
