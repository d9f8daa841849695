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
from dataclasses import dataclass, field
from urllib.parse import urlencode

from . import geo, snapshot
from .geo import GeoPoint, MILE_M
from .registry import RestrictedBox, box_from_record, box_record, collector_paused
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

    @property
    def allowed(self) -> bool:
        return self.verdict is Verdict.ALLOWED


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


@dataclass
class DeviceState:
    """Everything the device remembers between events.

    ``coverage_center``/``coverage_radius_m`` describe exactly the disc of
    the most recent successful fetch; ``last_location`` is the single most
    recent fix and is overwritten, never appended to.
    """

    cache: list[RestrictedBox] = field(default_factory=list)
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
    trigger.
    """
    state.last_location = fix
    state.last_location_at = now
    if state.last_refresh_at is None:
        return RefreshReason.FIRST_RUN
    moved_m = None if state.coverage_center is None else geo.haversine_distance(fix, state.coverage_center)
    if moved_m is not None and moved_m > state.coverage_radius_m:
        return RefreshReason.LEFT_COVERAGE
    if now - state.last_refresh_at > policy.stale_after:
        return RefreshReason.STALE_24H
    if moved_m is not None and moved_m > policy.movement_threshold:
        return RefreshReason.MOVED
    return None


def apply_refresh(
    state: DeviceState,
    boxes: list[RestrictedBox],
    center: GeoPoint,
    radius_m: float,
    now: float,
) -> None:
    """Install a successful fetch: the cache is replaced, never merged."""
    state.cache = list(boxes)
    state.coverage_center = center
    state.coverage_radius_m = radius_m
    state.last_refresh_at = now


def capture_request(state: DeviceState, policy: DevicePolicy, now: float, fix: GeoPoint) -> CaptureDecision:
    """Decide whether a picture may be taken at the given fix right now.

    Checks run in a fixed order: cache-age lockout, coverage, then
    proximity to cached boxes. When several cached boxes are within the
    permissible distance the nearest one (ties broken by id) is reported.
    """
    if state.last_refresh_at is not None and now - state.last_refresh_at > policy.lockout_after:
        return CaptureDecision(Verdict.DENIED_STALE_CACHE)
    if (
        state.coverage_center is None
        or geo.haversine_distance(fix, state.coverage_center) > state.coverage_radius_m
    ):
        return CaptureDecision(Verdict.DENIED_NO_COVERAGE)
    # as in Registry.boxes_within_radius: a box wholly outside this
    # latitude band is farther than permissible_distance
    lat_cut = geo.lat_reach(policy.permissible_distance)
    lat_lo, lat_hi = fix.lat - lat_cut, fix.lat + lat_cut
    nearest_id: str | None = None
    nearest_d = 0.0
    for box in state.cache:
        extent = box.extent
        if extent.min_lat > lat_hi or extent.max_lat < lat_lo:
            continue
        d = geo.distance_to_box(fix, extent)
        if d <= policy.permissible_distance and (
            nearest_id is None or (d, box.id) < (nearest_d, nearest_id)
        ):
            nearest_id, nearest_d = box.id, d
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
) -> list[RestrictedBox]:
    """Fetch the restricted boxes around a point from the registry service.

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
            return [box_from_record(r) for r in json.loads(body)["boxes"]]
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
        with collector_paused():
            state.cache = [box_from_record(r) for r in records[1:]]
    except (TypeError, ValueError, geo.InvalidCoordinate) as exc:
        raise CorruptSnapshot(f"{path}: bad device cache record: {exc}") from exc
    return state
