"""Loopback benchmark: storage footprint and latency shape per store size.

For each requested store size N the harness loads a synthetic dataset into
a disk-backed registry, measures add and vicinity-fetch latency over real
HTTP on the loopback interface, and measures the device-side startup check
(a capture-gate pass over an N-box cache) in-process. The two kinds of
numbers are reported separately because they answer different questions:
one includes the network stack, the other is pure compute.

Adds during measurement are placed in a ring outside the dataset disc so
the store size stays pinned at N; a mid-disc add against a dense synthetic
corpus would cascade into one giant merged box and invalidate every later
sample. Fetches use a deliberately tight vicinity radius so the numbers
track query cost rather than payload streaming.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import threading
import time

from . import datasets, device, geo
from .geo import GeoPoint, MILE_M
from .registry import Registry, RestrictedBox, box_record
from .server import ApiConfig, create_server

DEFAULT_CENTER = GeoPoint(lat=40.0, lon=-74.5)
DEFAULT_DISC_RADIUS_M = 50.0 * MILE_M
DEFAULT_FETCH_RADIUS_M = 5_000.0
DEFAULT_OPS = 100
DEFAULT_STARTUP_REPS = 20
# generous per-box disk estimate used by the preflight space check
_BYTES_PER_BOX_ESTIMATE = 400


class BenchError(RuntimeError):
    """The benchmark cannot run as requested, or its server answered non-2xx.

    ``status`` holds that reply's HTTP status, and is None otherwise.
    """

    def __init__(self, message: str, status: int | None = None) -> None:
        super().__init__(message)
        self.status = status


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    if not values:
        raise ValueError("no values")
    ordered = sorted(values)
    k = (len(ordered) - 1) * (q / 100.0)
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    if lo == hi:
        return ordered[lo]
    return ordered[lo] * (hi - k) + ordered[hi] * (k - lo)


def _stats(samples_ms: list[float]) -> dict:
    return {"median": statistics.median(samples_ms), "p95": percentile(samples_ms, 95.0)}


def format_table(report: dict) -> str:
    """A run_bench report as a fixed-width table, one line per store size."""
    header = (
        f"{'N':>9}  {'B/box':>7}  {'add med':>9}  {'add p95':>9}  "
        f"{'fetch med':>9}  {'fetch p95':>9}  {'start med':>9}  {'start p95':>9}"
    )
    lines = [header, "-" * len(header)]
    for r in report["rows"]:
        cells = [r[kind][stat] for kind in ("add_ms", "fetch_ms", "startup_ms") for stat in ("median", "p95")]
        lines.append(f"{r['n']:>9}  {r['bytes_per_box']:>7.1f}" + "".join(f"  {c:>9.2f}" for c in cells))
    lines.append("(latencies in ms; add/fetch over loopback HTTP, startup in-process)")
    return "\n".join(lines)


def _request(method: str, url: str, payload: dict | None = None) -> None:
    status, _ = device.http_request(method, url, payload)
    if not 200 <= status < 300:
        raise BenchError(f"{method} {url} answered status {status}", status)


def _measure_fetches(base_url: str, rng: random.Random, ops: int) -> list[float]:
    samples = []
    for _ in range(ops):
        r = DEFAULT_DISC_RADIUS_M * (rng.random() ** 0.5)
        p = geo.destination(DEFAULT_CENTER, rng.uniform(0.0, 360.0), r)
        url = f"{base_url}/v1/boxes?lat={p.lat}&lon={p.lon}&radius_m={DEFAULT_FETCH_RADIUS_M}"
        t0 = time.perf_counter()
        _request("GET", url)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return samples


def _measure_adds(base_url: str, rng: random.Random, ops: int) -> list[float]:
    samples = []
    for _ in range(ops):
        # ring outside the dataset disc: keeps N stable during sampling
        r = rng.uniform(DEFAULT_DISC_RADIUS_M * 1.05, DEFAULT_DISC_RADIUS_M * 1.45)
        c = geo.destination(DEFAULT_CENTER, rng.uniform(0.0, 360.0), r)
        half = rng.uniform(50.0, 250.0) / geo.METERS_PER_DEG
        payload = {
            "lon1": c.lon - half,
            "lat1": c.lat - half,
            "lon2": c.lon + half,
            "lat2": c.lat + half,
            "added_by": "bench",
            "reason": "latency sample",
        }
        t0 = time.perf_counter()
        _request("POST", f"{base_url}/v1/boxes", payload)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return samples


def _measure_startup(rows: device.BoxRows, rng: random.Random, reps: int) -> list[float]:
    policy = device.DevicePolicy()
    state = device.DeviceState(
        cache=rows,
        last_refresh_at=0.0,
        coverage_center=DEFAULT_CENTER,
        coverage_radius_m=DEFAULT_DISC_RADIUS_M * 2.0,
    )
    samples = []
    for _ in range(reps):
        r = DEFAULT_DISC_RADIUS_M * (rng.random() ** 0.5)
        fix = geo.destination(DEFAULT_CENTER, rng.uniform(0.0, 360.0), r)
        t0 = time.perf_counter()
        device.capture_request(state, policy, now=1.0, fix=fix)
        samples.append((time.perf_counter() - t0) * 1000.0)
    return samples


def run_bench(
    sizes: list[int],
    seed: int,
    workdir: str,
    ops: int = DEFAULT_OPS,
    startup_reps: int = DEFAULT_STARTUP_REPS,
) -> dict:
    """Run the full measurement matrix and return the report, as the CLI prints it.

    The report holds the arguments (``sizes``, ``seed``, ``ops``,
    ``startup_reps``) and one row per size: ``n``, ``bytes_per_box`` and
    ``add_ms``, ``fetch_ms`` and ``startup_ms``, each a ``median`` and a
    ``p95`` in milliseconds.
    """
    if not sizes or any(n <= 0 for n in sizes):
        raise BenchError("sizes must be positive integers")
    if list(sizes) != sorted(sizes):
        raise BenchError("sizes must be ascending")
    if ops <= 0 or startup_reps <= 0:
        raise BenchError("ops and startup_reps must be positive")
    os.makedirs(workdir, exist_ok=True)
    need = max(sizes) * _BYTES_PER_BOX_ESTIMATE + 64 * 1024 * 1024
    free = shutil.disk_usage(workdir).free
    if free < need:
        raise BenchError(
            f"insufficient disk space in {workdir}: need about {need} bytes, have {free}"
        )

    rows = []
    for n in sizes:
        rng = random.Random(f"{seed}:{n}")
        snapshot_path = os.path.join(workdir, f"bench_{n}.snap")
        audit_path = snapshot_path + ".audit"
        registry = Registry(snapshot_path=snapshot_path, audit_log_path=audit_path)
        extents = datasets.generate_extents(n, DEFAULT_CENTER, DEFAULT_DISC_RADIUS_M, rng)
        registry.bulk_load(extents, added_by="bench", reason="", now=0)
        bytes_per_box = os.path.getsize(snapshot_path) / n
        # the gate's cache holds the loaded extents; its ids need only be distinct
        cache_at_n = device.BoxRows(
            box_record(RestrictedBox(str(i), extent, "bench", "", 0.0)) for i, extent in enumerate(extents)
        )

        config = ApiConfig(host="127.0.0.1", port=0, snapshot_path=snapshot_path)
        server = create_server(config, registry=registry)
        thread = threading.Thread(
            target=lambda: server.serve_forever(poll_interval=0.05), daemon=True
        )
        thread.start()
        try:
            warmup = f"{server.url}/v1/boxes?lat={DEFAULT_CENTER.lat}&lon={DEFAULT_CENTER.lon}&radius_m=1000"
            _request("GET", warmup)
            fetch_ms = _measure_fetches(server.url, rng, ops)
            add_ms = _measure_adds(server.url, rng, ops)
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=10.0)
        startup_ms = _measure_startup(cache_at_n, rng, startup_reps)
        for path in (snapshot_path, audit_path):
            if os.path.exists(path):
                os.remove(path)
        rows.append({
            "n": n,
            "bytes_per_box": bytes_per_box,
            "add_ms": _stats(add_ms),
            "fetch_ms": _stats(fetch_ms),
            "startup_ms": _stats(startup_ms),
        })
    return {"sizes": list(sizes), "seed": seed, "ops": ops, "startup_reps": startup_reps, "rows": rows}
