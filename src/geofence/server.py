"""HTTP facade over the restricted-box registry.

Two JSON endpoints:

    POST /v1/boxes                          add a box given two corners
    GET  /v1/boxes?lat=&lon=&radius_m=      boxes with centroid in a radius

The layer adds no semantics of its own: decode, call the registry, encode.
Built on the stdlib threading HTTP server, so running the service needs
nothing beyond the standard library.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlsplit

from . import geo
from .registry import Registry, box_record, encode_boxes
from .snapshot import StorageFailure

log = logging.getLogger("geofence.server")

DEFAULT_PORT = 8764
DEFAULT_MAX_BODY_BYTES = 16 * 1024
DEFAULT_MAX_RADIUS_M = 200_000.0


@dataclass
class ApiConfig:
    """Service settings; see also the BIND_ADDR/SNAPSHOT_PATH/MAX_RADIUS_M env vars."""

    host: str = "127.0.0.1"
    port: int = DEFAULT_PORT
    snapshot_path: str | None = None
    audit_log_path: str | None = None  # defaults to <snapshot_path>.audit
    max_body_bytes: int = DEFAULT_MAX_BODY_BYTES
    max_radius_m: float = DEFAULT_MAX_RADIUS_M

    def __post_init__(self) -> None:
        if not (0 <= self.port <= 65535):
            raise ValueError(f"invalid port {self.port}")
        if not (0 < self.max_body_bytes < math.inf and 0 < self.max_radius_m < math.inf):  # NaN fails too
            raise ValueError("size and radius limits must be finite and positive")
        if self.snapshot_path and not self.audit_log_path:
            self.audit_log_path = self.snapshot_path + ".audit"


class _ApiError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


def _require_number(body: dict, key: str) -> float:
    value = body.get(key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _ApiError(400, "malformed_request", f"field {key!r} must be a number")
    return float(value)


def _require_string(body: dict, key: str) -> str:
    value = body.get(key)
    if not isinstance(value, str):
        raise _ApiError(400, "malformed_request", f"field {key!r} must be a string")
    return value


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "geofence"
    timeout = 60.0  # a stalled client must not pin a handler thread forever

    # -- plumbing ---------------------------------------------------------

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - stdlib signature
        if log.isEnabledFor(logging.DEBUG):  # runs on every request: format only a line DEBUG keeps
            log.debug("%s - %s", self.address_string(), format % args)

    def _send_json(self, status: int, payload: dict, close: bool = False) -> None:
        self._send_body(status, json.dumps(payload).encode("utf-8"), close)

    def _send_body(self, status: int, data: bytes, close: bool = False) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if close:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        # the request body may not have been drained; do not reuse the connection
        self._send_json(status, {"error": code, "message": message}, close=True)

    # -- endpoints --------------------------------------------------------

    def do_POST(self) -> None:
        if urlsplit(self.path).path != "/v1/boxes":
            self._send_error_json(404, "not_found", f"no such endpoint: {self.path}")
            return
        try:
            outcome = self._handle_add(self._read_body())
        except _ApiError as exc:
            self._send_error_json(exc.status, exc.code, exc.message)
        except Exception:
            log.exception("unhandled error in POST /v1/boxes")
            self._send_error_json(500, "internal_error", "unexpected server error")
        else:
            self._send_json(
                201,
                {
                    "stored": box_record(outcome.stored),
                    "replaced_ids": list(outcome.replaced_ids),
                },
            )

    def do_GET(self) -> None:
        url = urlsplit(self.path)
        if url.path != "/v1/boxes":
            self._send_error_json(404, "not_found", f"no such endpoint: {url.path}")
            return
        try:
            lines = self._handle_query(parse_qs(url.query))
        except _ApiError as exc:
            self._send_error_json(exc.status, exc.code, exc.message)
        except Exception:
            log.exception("unhandled error in GET /v1/boxes")
            self._send_error_json(500, "internal_error", "unexpected server error")
        else:
            self._send_body(200, encode_boxes(lines))

    # -- request handling -------------------------------------------------

    def _read_body(self) -> dict:
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise _ApiError(411, "length_required", "Content-Length header is required")
        try:
            length = int(length_header)
        except ValueError:
            raise _ApiError(400, "malformed_request", "invalid Content-Length") from None
        if length < 0:
            # rfile.read(-1) would read to EOF, past the size limit below
            raise _ApiError(400, "malformed_request", "invalid Content-Length")
        if length > self.server.config.max_body_bytes:
            raise _ApiError(413, "body_too_large", f"request body exceeds {self.server.config.max_body_bytes} bytes")
        try:
            body = json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise _ApiError(400, "malformed_json", "request body is not valid JSON") from None
        if not isinstance(body, dict):
            raise _ApiError(400, "malformed_request", "request body must be a JSON object")
        return body

    def _handle_add(self, body: dict):
        lon1 = _require_number(body, "lon1")
        lat1 = _require_number(body, "lat1")
        lon2 = _require_number(body, "lon2")
        lat2 = _require_number(body, "lat2")
        added_by = _require_string(body, "added_by")
        reason = _require_string(body, "reason")
        if not added_by:
            raise _ApiError(400, "malformed_request", "added_by must be non-empty")
        try:
            extent = geo.normalize_box(geo.GeoPoint(lat1, lon1), geo.GeoPoint(lat2, lon2))
        except geo.AntimeridianUnsupported as exc:
            raise _ApiError(422, "antimeridian_unsupported", str(exc)) from None
        except geo.InvalidCoordinate as exc:
            raise _ApiError(400, "invalid_coordinate", str(exc)) from None
        try:
            return self.server.registry.add_box(extent, added_by, reason, now=self.server.clock())
        except StorageFailure as exc:
            raise _ApiError(500, "storage_failure", str(exc)) from None

    def _handle_query(self, query: dict):
        values = {}
        for key in ("lat", "lon", "radius_m"):
            raw = query.get(key)
            if not raw or len(raw) != 1:
                raise _ApiError(400, "invalid_parameter", f"query parameter {key!r} is required once")
            try:
                values[key] = float(raw[0])
            except ValueError:
                raise _ApiError(400, "invalid_parameter", f"query parameter {key!r} must be a number") from None
        radius_m = values["radius_m"]
        if not math.isfinite(radius_m) or radius_m <= 0:
            raise _ApiError(400, "invalid_parameter", "radius_m must be positive")
        if radius_m > self.server.config.max_radius_m:
            raise _ApiError(400, "radius_too_large", f"radius_m exceeds the maximum {self.server.config.max_radius_m}")
        try:
            center = geo.GeoPoint(lat=values["lat"], lon=values["lon"])
        except geo.InvalidCoordinate as exc:
            raise _ApiError(400, "invalid_coordinate", str(exc)) from None
        return self.server.registry.boxes_within_radius(center, radius_m)


class GeofenceServer(ThreadingHTTPServer):
    """Threading HTTP server carrying the registry and service config."""

    daemon_threads = True

    def __init__(
        self,
        config: ApiConfig,
        registry: Registry,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.config = config
        self.registry = registry
        self.clock = clock
        super().__init__((config.host, config.port), _Handler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def create_server(
    config: ApiConfig,
    registry: Registry | None = None,
    clock: Callable[[], float] = time.time,
) -> GeofenceServer:
    """Build the service; loads the snapshot if the configured file exists."""
    if registry is None:
        registry = Registry(
            snapshot_path=config.snapshot_path,
            audit_log_path=config.audit_log_path,
        )
        if config.snapshot_path:
            if os.path.exists(config.snapshot_path):
                count = registry.load_snapshot()
                log.info("loaded %d boxes from %s", count, config.snapshot_path)
    return GeofenceServer(config, registry, clock)
