"""Server-side store of restricted bounding boxes.

Adding a box that overlaps existing ones replaces the whole overlapping
group with a single encompassing box, applied transitively until no overlap
remains, so the stored set is always pairwise disjoint. Vicinity queries
return every box whose centroid lies within a great-circle radius of a
point. The index is one list of the boxes sorted by centroid latitude: a
query or an overlap search bisects a latitude band of it and rejects by
longitude before the exact test, so it prunes candidates but never changes
results. When bound to a snapshot path, every add is persisted atomically
before it returns, and boxes absorbed by merges are preserved in an
append-only audit log.
"""

from __future__ import annotations

import math
import os
import random
import threading
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Container, Iterable

from . import geo, snapshot
from .geo import BoxExtent, GeoPoint
from .snapshot import CorruptSnapshot, StorageFailure


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
        box = RestrictedBox(
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
    if type(record["created_at"]) not in (int, float):  # float() would take "12" or True
        raise ValueError(f"box record has a non-numeric created_at: {record['created_at']!r}")
    return box


_centroid_lat = attrgetter("centroid.lat")  # sort key of Registry._by_lat


class Registry:
    """The restricted-box store.

    Thread-safe behind two locks. A writer mutex serialises every mutator
    (``add_box``, ``bulk_load``, ``load_snapshot``); the writer does its
    slow work under it alone: overlap search, encode, audit append and the
    snapshot write and fsync. A short state lock guards the in-memory set:
    readers hold it to take their latitude band, and a writer takes it only
    to swap in a committed change. Only writer-mutex holders change the
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
        self._lines: dict[str, bytes] = {}  # id -> snapshot line, in snapshot order
        self._by_lat: list[RestrictedBox] = []  # the boxes, by centroid latitude
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

    def all_boxes(self) -> list[RestrictedBox]:
        """Every stored box, in centroid-latitude order; callers need no order."""
        with self._lock:
            return list(self._by_lat)

    def boxes_within_radius(self, center: GeoPoint, radius_m: float) -> list[RestrictedBox]:
        """Every box whose centroid is within radius_m of center (inclusive)."""
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
            by_lat = self._by_lat
            band = by_lat[
                bisect_left(by_lat, lat_lo, key=_centroid_lat) : bisect_right(by_lat, lat_hi, key=_centroid_lat)
            ]
        lon = center.lon
        return [
            box
            for box in band
            if abs((box.centroid.lon - lon + 180.0) % 360.0 - 180.0) <= lon_pad
            and geo.haversine_distance(center, box.centroid) <= radius_m
        ]

    def encode_boxes(self, boxes: Iterable[RestrictedBox]) -> bytes:
        """JSON array of the boxes' canonical records: their snapshot lines joined.

        Disk and wire share one encoding, and no id is ever given to two
        boxes. A box a concurrent merge removed after it was queried has no
        line left, so it is encoded afresh and served as queried.
        """
        with self._lock:
            lines = self._lines
            parts = [lines.get(box.id) or snapshot.encode_record(box_record(box)) for box in boxes]
        return b"[" + b",".join(parts) + b"]"

    # -- adds -------------------------------------------------------------

    def _overlapping_group(self, extent: BoxExtent) -> tuple[BoxExtent, dict[str, RestrictedBox]]:
        """Grow extent over every transitively overlapping stored box."""
        union = extent
        absorbed: dict[str, RestrictedBox] = {}
        by_lat = self._by_lat
        pad_w = self._max_half_w + 1e-9
        pad_h = self._max_half_h + 1e-9
        while True:
            # a box overlapping union has its centroid within its half-extent of it
            lon_lo, lon_hi = union.min_lon - pad_w, union.max_lon + pad_w
            band = by_lat[
                bisect_left(by_lat, union.min_lat - pad_h, key=_centroid_lat) :
                bisect_right(by_lat, union.max_lat + pad_h, key=_centroid_lat)
            ]
            hits = [
                box
                for box in band
                if lon_lo <= box.centroid.lon <= lon_hi
                and box.id not in absorbed
                and geo.boxes_overlap(box.extent, union)
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
            by_lat = self._by_lat
            with self._lock:
                for box in absorbed.values():
                    del self._lines[box.id]
                    # equal latitudes are common: match the box by identity
                    i = bisect_left(by_lat, box.centroid.lat, key=_centroid_lat)
                    while by_lat[i] is not box:
                        i += 1
                    del by_lat[i]
                self._lines[stored.id] = stored_line
                insort(by_lat, stored, key=_centroid_lat)
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
            boxes = self._by_lat.copy()
            lines: dict[str, bytes] = {}
            for extent in extents:
                box = RestrictedBox(
                    id=self._new_id(lines),
                    extent=extent,
                    centroid=geo.centroid(extent),
                    added_by=added_by,
                    reason=reason,
                    created_at=now,
                )
                boxes.append(box)
                lines[box.id] = snapshot.encode_record(box_record(box))
            if self.snapshot_path:
                snapshot.write_snapshot(self.snapshot_path, [*self._lines.values(), *lines.values()])
            self._publish({**self._lines, **lines}, boxes)
            return len(lines)

    # -- persistence ------------------------------------------------------

    def load_snapshot(self, path: str | None = None) -> int:
        """Replace the registry contents with a snapshot's, returning the count."""
        source = path or self.snapshot_path
        if not source:
            raise ValueError("no snapshot path given or bound")
        with self._write_lock:
            boxes: list[RestrictedBox] = []
            lines: dict[str, bytes] = {}
            shared: dict[str, str] = {}  # first seen of each added_by and reason value
            # one record at a time: only the lines and the boxes stay alive
            for i, line in enumerate(snapshot.read_snapshot(source)):
                record = snapshot.parse_line(source, i, line)
                for key in ("added_by", "reason"):
                    if type(value := record.get(key)) is str:
                        record[key] = shared.setdefault(value, value)
                try:
                    box = box_from_record(record)
                except (ValueError, geo.InvalidCoordinate) as exc:
                    raise CorruptSnapshot(f"{source}: bad box record: {exc}") from exc
                if box.id in lines:
                    raise CorruptSnapshot(f"{source}: duplicate box id {box.id}")
                extent, stored = box.extent, box.centroid
                if (
                    stored.lat != (extent.min_lat + extent.max_lat) / 2.0
                    or stored.lon != (extent.min_lon + extent.max_lon) / 2.0
                ):
                    raise CorruptSnapshot(f"{source}: box {box.id} centroid is not the midpoint of its extent")
                boxes.append(box)
                lines[box.id] = line if _is_canonical(line, record) else snapshot.encode_record(box_record(box))
            self._publish(lines, boxes)
            return len(boxes)

    def _publish(self, lines: dict[str, bytes], boxes: list[RestrictedBox]) -> None:
        """Swap in a whole new state: the id -> line map and its boxes, in any order.

        A merged box contains every box it absorbed, so the half-extent bound
        over the stored boxes alone is the running maximum.
        """
        half_w, half_h = _half_extent_bound(box.extent for box in boxes)
        boxes.sort(key=_centroid_lat)  # one sort; an old list is one sorted run already
        with self._lock:
            self._lines, self._by_lat = lines, boxes
            self._max_half_w, self._max_half_h = half_w, half_h

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
