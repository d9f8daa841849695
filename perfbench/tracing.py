"""In-memory span tracer for the traced benchmark run.

The tracer wraps the public functions of the geofence layers from the
outside; the program itself is not changed. A span records its name, start
and end (``time.perf_counter``) and the span it runs inside, so a span's
self time is its time minus that of its children. Hot kernels (the ``geo``
functions) get no span of their own: they add to a counter on the innermost
open span, so ratios are measured where the work happens. Spans stay in
memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
import types


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "counts")

    def __init__(self, span_id: int, parent: int | None, name: str) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "counts": self.counts,
        }


class Tracer:
    """Collects spans from any number of threads of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(next(self._ids), parent.id if parent else None, name)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, on_result=None):
        """Run fn inside a span; on_result(span, args, result) may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, result)
                return result
            finally:
                self.close(span)

        return traced

    def counting(self, key: str, fn):
        """Count calls to fn on the innermost open span."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            span = self.current()
            if span is not None:
                span.add(key)
            return fn(*args, **kwargs)

        return counted

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span.to_dict()) + "\n")


def load_spans(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def instrument_server(tracer: Tracer) -> None:
    """Wrap the service side: HTTP handler, registry, snapshot and geo kernels."""
    from geofence import geo, registry, server, snapshot

    handler = server._Handler
    handler.do_GET = tracer.wrap("server.get", handler.do_GET)
    handler.do_POST = tracer.wrap("server.post", handler.do_POST)
    send_header = handler.send_header

    def send_header_counting(self, keyword, value):
        if keyword == "Content-Length":
            span = tracer.current()
            if span is not None:
                span.add("response_bytes", int(value))
        return send_header(self, keyword, value)

    handler.send_header = send_header_counting

    def query_results(span, args, result):
        span.add("results", len(result))

    reg = registry.Registry
    reg.boxes_within_radius = tracer.wrap("registry.query", reg.boxes_within_radius, query_results)
    reg.add_box = tracer.wrap("registry.add", reg.add_box)
    reg.load_snapshot = tracer.wrap("registry.load_snapshot", reg.load_snapshot)

    def bytes_written(span, args, result):
        span.add("bytes", os.path.getsize(args[0]))

    snapshot.write_snapshot = tracer.wrap("snapshot.write", snapshot.write_snapshot, bytes_written)
    snapshot.read_snapshot = tracer.wrap("snapshot.read", snapshot.read_snapshot)
    geo.haversine_distance = tracer.counting("haversine", geo.haversine_distance)
    geo.boxes_overlap = tracer.counting("boxes_overlap", geo.boxes_overlap)


def instrument_device(tracer: Tracer):
    """Wrap the device side: fetch (with its decode), apply, capture gate.

    Returns distance_calls(state, policy, now, fix): the number of
    geo.distance_to_box calls one capture_request makes, found by running
    the pure gate once more with a counter. Callers run it outside the
    timed captures, so the counter does not inflate the capture spans.
    """
    from geofence import device, geo

    device.fetch_boxes = tracer.wrap("device.fetch", device.fetch_boxes)
    device.apply_refresh = tracer.wrap("device.apply", device.apply_refresh)

    def cache_size(span, args, result):
        span.add("cache_boxes", len(args[0].cache))

    capture_request = device.capture_request
    device.capture_request = tracer.wrap("device.capture", capture_request, cache_size)
    # fetch_boxes ends by parsing the body and building one box per record:
    # its decode time runs from the JSON parse to the end of the fetch span
    def loads_marking_decode(*args, **kwargs):
        span = tracer.current()
        if span is not None:
            span.counts["decode_start"] = time.perf_counter()
        return json.loads(*args, **kwargs)

    device.json = types.SimpleNamespace(loads=loads_marking_decode)
    distance_to_box = geo.distance_to_box

    def distance_calls(state, policy, now, fix) -> int:
        calls = 0

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return distance_to_box(*args, **kwargs)

        geo.distance_to_box = counted
        try:
            capture_request(state, policy, now, fix)
        finally:
            geo.distance_to_box = distance_to_box
        return calls

    return distance_calls
