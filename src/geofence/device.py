"""Device-side cache, refresh triggers, and the capture gate.

The state machine is deliberately pure: the host injects the clock and GPS
fixes, so day- and month-scale behaviors run in tests without waiting. Only
one location fix is ever kept; no trail accumulates on the device. The I/O
helpers are ``fetch_boxes`` (HTTP GET against the registry service) and the
cache save/load pair. ``http_request`` is the project's one HTTP client: the
device, the CLI and the loopback bench all reach the service through it.

Gate semantics fail closed. Without a successful refresh there is no
coverage and captures are denied; past the lockout age the camera stays
inoperable until a refresh lands; and being within the configured
permissible distance of a cached box denies capture even from outside it,
which defeats standing back and using a telephoto lens.
"""

from __future__ import annotations

import enum
import http.client
import json
import math
import urllib.error
import urllib.request
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator
from urllib.parse import urlencode

from . import geo, snapshot
from .geo import GeoPoint, MILE_M, trusted_extent
from .registry import RestrictedBox, box_record, collector_paused, max_half_height, row_from_record
from .snapshot import CorruptSnapshot

_STATE_KIND = "device_state"


class FetchFailed(Exception):
    """Transport or decode failure; device state is left untouched."""


class ServerRejected(Exception):
    """The service answered with a non-2xx status."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(f"server rejected request with status {status}: {message}")
        self.status = status


class RefreshReason(enum.Enum):
    """Why a cache refresh should be attempted now."""

    FIRST_RUN = "first_run"
    MOVED = "moved"
    STALE_24H = "stale_24h"
    LEFT_COVERAGE = "left_coverage"


class Verdict(enum.Enum):
    ALLOWED = "allowed"
    DENIED_RESTRICTED_AREA = "denied_restricted_area"
    DENIED_STALE_CACHE = "denied_stale_cache"
    DENIED_NO_COVERAGE = "denied_no_coverage"


@dataclass(frozen=True)
class CaptureDecision:
    """The gate's verdict; denial by restriction names the box and distance."""

    verdict: Verdict
    box_id: str | None = None
    distance_m: float | None = None


@dataclass
class DevicePolicy:
    """Tunables for the refresh and gate logic. All durations seconds, distances meters."""

    poll_interval: float = 600.0
    movement_threshold: float = MILE_M
    fetch_radius: float = 25.0 * MILE_M
    stale_after: float = 86_400.0
    lockout_after: float = 2_592_000.0
    permissible_distance: float = 500.0

    def __post_init__(self) -> None:
        for name in (
            "poll_interval",
            "movement_threshold",
            "fetch_radius",
            "stale_after",
            "lockout_after",
            "permissible_distance",
        ):
            if not 0 < getattr(self, name) < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be finite and positive")
        if self.lockout_after <= self.stale_after:
            raise ValueError("lockout_after must exceed stale_after")
        if self.fetch_radius <= self.movement_threshold:
            raise ValueError("fetch_radius must exceed movement_threshold")


class BoxRows:
    """The cached boxes as columns, one row per box, sorted by centroid latitude.

    ``centroid_lat`` and ``ext`` (four floats a row: min_lon, min_lat,
    max_lon, max_lat) are ``array('d')`` columns, as are the ``created_at``
    times; ``ids``, ``added_by`` and ``reason`` are lists, and ``half_h``
    is the largest half-height, in degrees. Every record is checked by
    ``registry.row_from_record``, and the rows sort themselves whatever
    order the records came in. No object is kept per box, so a refresh
    leaves the cyclic collector nothing to walk; iterating builds one
    ``RestrictedBox`` per row, in C, from whole columns.
    """

    __slots__ = ("centroid_lat", "ext", "ids", "added_by", "reason", "created_at", "half_h")

    def __init__(self, records: Iterable[dict] = ()) -> None:
        with collector_paused():  # the checked rows are all alive until the columns are built
            # stable, and one linear timsort run when the records come in centroid-latitude order
            rows = sorted(map(row_from_record, records), key=itemgetter(5))
            ids, *corners, mid_lat, added_by, reason, created_at = zip(*rows) if rows else [()] * 9
            del rows
        self.ids, self.added_by, self.reason = list(ids), list(added_by), list(reason)
        self.centroid_lat, self.created_at = array("d", mid_lat), array("d", created_at)
        self.ext = ext = array("d", [0.0]) * (4 * len(ids))
        for k, corner in enumerate(corners):  # min_lon, min_lat, max_lon, max_lat
            ext[k::4] = array("d", corner)
        self.half_h = max_half_height(ext)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[RestrictedBox]:
        corners = iter(self.ext)
        extents = map(trusted_extent, zip(corners, corners, corners, corners))
        # tuple.__new__ builds each row in C; a named tuple's own __new__ is Python code
        rows = zip(self.ids, extents, self.added_by, self.reason, self.created_at)
        return map(partial(tuple.__new__, RestrictedBox), rows)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BoxRows) and all(getattr(self, k) == getattr(other, k) for k in self.__slots__)


@dataclass
class DeviceState:
    """Everything the device remembers between events.

    ``cache`` holds the boxes of the most recent successful fetch as
    ``BoxRows``; ``coverage_center``/``coverage_radius_m`` describe exactly
    that fetch's disc. ``last_location`` is the single most recent fix and
    is overwritten, never appended to.
    """

    cache: BoxRows = field(default_factory=BoxRows)
    last_location: GeoPoint | None = None
    last_location_at: float | None = None
    last_refresh_at: float | None = None
    coverage_center: GeoPoint | None = None
    coverage_radius_m: float = 0.0


def tick(state: DeviceState, policy: DevicePolicy, now: float, fix: GeoPoint) -> RefreshReason | None:
    """Record a location fix and report which refresh trigger fired, if any.

    At most one reason is returned; when several hold simultaneously the
    priority is FIRST_RUN, LEFT_COVERAGE, STALE_24H, MOVED. Movement is
    measured from the last refresh point, not the previous fix, so dense
    fixes cannot creep past the threshold one short hop at a time. Movement
    and staleness comparisons are strict: exactly at the threshold does not
    trigger. A negative cache age (the clock stepped back, or a stamp from
    the future) is stale.
    """
    state.last_location = fix
    state.last_location_at = now
    if state.last_refresh_at is None:
        return RefreshReason.FIRST_RUN
    moved_m = None if state.coverage_center is None else geo.haversine_distance(fix, state.coverage_center)
    if moved_m is not None and moved_m > state.coverage_radius_m:
        return RefreshReason.LEFT_COVERAGE
    if not 0 <= now - state.last_refresh_at <= policy.stale_after:  # NaN fails too
        return RefreshReason.STALE_24H
    if moved_m is not None and moved_m > policy.movement_threshold:
        return RefreshReason.MOVED
    return None


def apply_refresh(state: DeviceState, rows: BoxRows, center: GeoPoint, radius_m: float, now: float) -> None:
    """Install a successful fetch's rows as they are: the cache is replaced, never merged."""
    state.cache = rows
    state.coverage_center = center
    state.coverage_radius_m = radius_m
    state.last_refresh_at = now


def capture_request(state: DeviceState, policy: DevicePolicy, now: float, fix: GeoPoint) -> CaptureDecision:
    """Decide whether a picture may be taken at the given fix right now.

    Checks run in a fixed order: cache-age lockout, coverage, then
    proximity to cached boxes. A cache age outside [0, lockout_after] locks
    out; a negative one means the clock stepped back or the stamp is from
    the future. When several cached boxes are within the
    permissible distance the nearest one (ties broken by id) is reported.
    """
    if state.last_refresh_at is not None and not 0 <= now - state.last_refresh_at <= policy.lockout_after:
        return CaptureDecision(Verdict.DENIED_STALE_CACHE)
    if (
        state.last_refresh_at is None
        or state.coverage_center is None
        or geo.haversine_distance(fix, state.coverage_center) > state.coverage_radius_m
    ):
        return CaptureDecision(Verdict.DENIED_NO_COVERAGE)
    # a box wholly outside this latitude band, or whose longitude range lies
    # wholly outside this window (wrapping at +/-180), is farther than
    # permissible_distance
    lat_cut = geo.lat_reach(policy.permissible_distance)
    lat_lo, lat_hi = fix.lat - lat_cut, fix.lat + lat_cut
    lon, lon_cut = fix.lon, geo.lon_reach(policy.permissible_distance, fix.lat)
    # a box that reaches the band has its centroid within its half-height of it
    rows = state.cache
    pad = rows.half_h + 1e-9
    lo = bisect_left(rows.centroid_lat, lat_lo - pad)
    hi = bisect_right(rows.centroid_lat, lat_hi + pad)
    corners = iter(rows.ext[4 * lo : 4 * hi])
    nearest_id: str | None = None
    nearest_d = 0.0
    for min_lon, min_lat, max_lon, max_lat, box_id in zip(corners, corners, corners, corners, rows.ids[lo:hi]):
        if min_lat > lat_hi or max_lat < lat_lo:
            continue
        # off the range, the nearest longitude of the box is one of its edges
        if (
            not min_lon <= lon <= max_lon
            and abs((min_lon - lon + 180.0) % 360.0 - 180.0) > lon_cut
            and abs((max_lon - lon + 180.0) % 360.0 - 180.0) > lon_cut
        ):
            continue
        d = geo.distance_to_box(fix, trusted_extent((min_lon, min_lat, max_lon, max_lat)))
        if d <= policy.permissible_distance and (
            nearest_id is None or (d, box_id) < (nearest_d, nearest_id)
        ):
            nearest_id, nearest_d = box_id, d
    if nearest_id is not None:
        return CaptureDecision(Verdict.DENIED_RESTRICTED_AREA, box_id=nearest_id, distance_m=nearest_d)
    return CaptureDecision(Verdict.ALLOWED)


def http_request(
    method: str, url: str, payload: dict | None = None, timeout: float = 30.0
) -> tuple[int, bytes]:
    """Send one request to the registry service; return (status, raw body).

    A 4xx or 5xx reply is returned like any other. FetchFailed means no
    reply arrived; a URL urllib cannot open raises ValueError. The payload,
    when given, goes out as a JSON body.
    """
    data = None
    headers = {}
    if payload is not None:
        data = json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    req = urllib.request.Request(url, data=data, headers=headers, method=method)
    try:
        try:
            resp = urllib.request.urlopen(req, timeout=timeout)
        except urllib.error.HTTPError as exc:
            resp = exc  # an error reply still carries its status and body
        with resp:
            return resp.status, resp.read()
    except (http.client.HTTPException, OSError) as exc:
        raise FetchFailed(str(exc)) from exc


def fetch_boxes(
    server_url: str,
    center: GeoPoint,
    radius_m: float,
    timeout: float = 10.0,
) -> BoxRows:
    """Fetch the restricted boxes around a point from the registry service, as rows.

    Raises ServerRejected on a non-2xx status and FetchFailed when the
    request cannot complete or the response does not decode; callers keep
    their state and simply retry on the next trigger.
    """
    query = urlencode({"lat": center.lat, "lon": center.lon, "radius_m": radius_m})
    url = server_url.rstrip("/") + "/v1/boxes?" + query
    try:
        status, body = http_request("GET", url, timeout=timeout)
    except ValueError as exc:
        raise FetchFailed(str(exc)) from exc
    if not 200 <= status < 300:
        raise ServerRejected(status, body.decode("utf-8", errors="replace"))
    try:
        with collector_paused():
            return BoxRows(json.loads(body)["boxes"])
    except (KeyError, TypeError, ValueError, geo.InvalidCoordinate) as exc:
        raise FetchFailed(f"cannot decode response: {exc}") from exc


# -- cache persistence -----------------------------------------------------


def cache_save(state: DeviceState, path: str) -> None:
    """Persist the device state atomically.

    The file holds one header record with the (single) fix, timestamps and
    coverage disc, then one record per cached box.
    """
    head: dict = {"kind": _STATE_KIND, "coverage_radius_m": state.coverage_radius_m}
    head["last_location_lat"] = state.last_location.lat if state.last_location else None
    head["last_location_lon"] = state.last_location.lon if state.last_location else None
    head["last_location_at"] = state.last_location_at
    head["last_refresh_at"] = state.last_refresh_at
    head["coverage_center_lat"] = state.coverage_center.lat if state.coverage_center else None
    head["coverage_center_lon"] = state.coverage_center.lon if state.coverage_center else None
    records = [head]
    records.extend(box_record(b) for b in state.cache)
    snapshot.write_records(path, records)


def _optional_point(lat, lon, what: str) -> GeoPoint | None:
    if lat is None and lon is None:
        return None
    if lat is None or lon is None:
        raise CorruptSnapshot(f"device cache {what} is half-missing")
    return GeoPoint(lat=lat, lon=lon)


def _header_number(head: dict, key: str, default: float | None = None) -> float | None:
    """head[key] (default when absent), which must be None or a finite int or float."""
    value = head.get(key, default)
    if value is not None and (type(value) not in (int, float) or not math.isfinite(value)):
        raise CorruptSnapshot(f"device cache {key} is not a finite number: {value!r}")
    return value


def cache_load(path: str) -> DeviceState:
    """Load a device cache file written by cache_save."""
    records = [snapshot.parse_line(path, i, line) for i, line in enumerate(snapshot.read_snapshot(path))]
    if not records or records[0].get("kind") != _STATE_KIND:
        raise CorruptSnapshot(f"{path}: missing device state header record")
    head = records[0]
    try:
        radius = _header_number(head, "coverage_radius_m", 0.0)
        if radius is None or radius < 0:
            raise CorruptSnapshot(f"device cache coverage_radius_m is {radius!r}, not a distance")
        state = DeviceState(
            last_location=_optional_point(
                head.get("last_location_lat"), head.get("last_location_lon"), "last_location"
            ),
            last_location_at=_header_number(head, "last_location_at"),
            last_refresh_at=_header_number(head, "last_refresh_at"),
            coverage_center=_optional_point(
                head.get("coverage_center_lat"), head.get("coverage_center_lon"), "coverage_center"
            ),
            coverage_radius_m=float(radius),
        )
        state.cache = BoxRows(records[1:])
    except (TypeError, ValueError, geo.InvalidCoordinate) as exc:
        raise CorruptSnapshot(f"{path}: bad device cache record: {exc}") from exc
    return state
