"""Benchmark of the geofence service and device against a served 100k-box store.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run builds a seeded store of 100,000 boxes (``datasets.generate_extents``
over the 50-mile disc around 40.0, -74.5), writes it as a snapshot with
``Registry.bulk_load``, and serves it with ``geofence serve --snapshot`` as a
separate process bound to port 0. This process is the only load generator.
Every client is a closed loop, because every device and operator waits for
its reply; with one GIL-bound server an open loop would mostly measure the
backlog. Inputs are fixed, seeded op lists, so every run with a seed replays
the same inputs; a client stops early only if it runs out of ops.

Workloads:

    device-cycle  1 device client. One op is the README device sequence:
                  tick, a 25-mile fetch_boxes over HTTP, apply_refresh, then
                  one capture_request at a fix within a mile.
    read-5km      1 client doing 5 km GET /v1/boxes at seeded points.
    write-mix     1 operator doing back-to-back POST /v1/boxes in a ring
                  outside the store disc, beside 1 client doing the
                  read-5km reads. Every MERGE_EVERY-th add overlaps exactly
                  the add before it, so the merge and audit path runs.

With ``--trace 0`` the run times setup (several spawns, median) and the
workload untraced and prints the end-to-end metrics. With ``--trace 1`` it
runs the workload untraced for half the time, then against a traced server
(``traced_serve.py``) with the device calls wrapped for the other half, and
prints the per-layer metrics plus an indicative tracing overhead. Every op's
output is checked after the timed window against a reference computed (with
numpy) from the benchmark's own copy of the extents; the last stdout line is
the JSON result, the line before it a report with the per-op-kind latencies
and the error rate.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("device-cycle", "read-5km", "write-mix")

N_BOXES = 100_000
CENTER_LAT, CENTER_LON = 40.0, -74.5
MILE_M = 1_609.344
STORE_DISC_M = 50 * MILE_M
# refresh points stay 20 miles from the centre, so every 25-mile fetch disc
# lies inside the store and returns about a quarter of it
REFRESH_DISC_M = 20 * MILE_M
# one capture per tick, as in the README device sequence (tick, fetch,
# apply_refresh, capture_request) and the refresh cycle of ROADMAP item 1
# (fetch, decode, apply_refresh, one gate pass)
CAPTURES_PER_CYCLE = 1
CAPTURE_DISC_M = MILE_M
# 5 km reads stay inside the store disc, so every read returns a similar count
READ_RADIUS_M = 5_000.0
READ_DISC_M = 45 * MILE_M
# ring slots outside the store disc, 1.5 km apart: a plain add (half-size
# at most 250 m) overlaps nothing, and a merge add (centred inside the add
# before it) overlaps exactly that one box
RING_INNER_M = 86_000.0
RING_LANES = 41
RING_PITCH_M = 1_500.0
ADD_HALF_RANGE_M = (50.0, 250.0)
MERGE_EVERY = 8
SETUP_SPAWNS = 5
WARMUP = {"cycle": 1, "read": 10, "add": 3}
# op-list sizes per measured second, far above any rate the service reaches
OPS_PER_SECOND = {"cycle": 50, "read": 2_000, "add": 1_000}
HTTP_TIMEOUT_S = 30.0
MAX_CONSECUTIVE_FAILURES = 5

END_TO_END = {
    "setup_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "ops_per_s": "1/s",
    "server_rss_mb": "MB",
    "store_bytes_per_box": "B",
}
PER_LAYER = {
    "server.get.self_ms": "ms",
    "server.get.response_bytes": "B",
    "server.post.self_ms": "ms",
    "registry.query_ms": "ms",
    "registry.query.results": "count",
    "registry.query.haversine_per_result": "ratio",
    "registry.add_ms": "ms",
    "registry.add.overlap_checks": "count",
    "snapshot.write_ms": "ms",
    "snapshot.bytes_written_per_add": "B",
    "registry.load_snapshot_ms": "ms",
    "snapshot.read_ms": "ms",
    "device.fetch_ms": "ms",
    "device.decode_ms": "ms",
    "device.apply_ms": "ms",
    "device.capture_ms": "ms",
    "device.cache_boxes": "count",
    "geo.distance_to_box_per_capture": "ratio",
    "trace.overhead_ms": "ms",
}


class BenchFailure(Exception):
    """The benchmark could not run; no result is printed."""


# -- inputs -----------------------------------------------------------------


@dataclass(frozen=True)
class Cycle:
    point: object  # GeoPoint
    fixes: tuple


@dataclass(frozen=True)
class Add:
    extent: tuple  # (min_lon, min_lat, max_lon, max_lat)
    replaces: int
    expected: tuple  # the stored extent the service must answer with


def _point_in_disc(geo, center, radius_m, rng):
    return geo.destination(center, rng.uniform(0.0, 360.0), radius_m * math.sqrt(rng.random()))


def _square(geo, c, half_m):
    half_lat = half_m / geo.METERS_PER_DEG
    half_lon = half_m / (geo.METERS_PER_DEG * math.cos(math.radians(c.lat)))
    return (c.lon - half_lon, c.lat - half_lat, c.lon + half_lon, c.lat + half_lat)


def make_cycles(geo, center, count, rng):
    cycles = []
    previous = None
    while len(cycles) < count:
        point = _point_in_disc(geo, center, REFRESH_DISC_M, rng)
        # more than the 1-mile movement threshold, so tick always fires
        if previous is not None and geo.haversine_distance(previous, point) <= 1.5 * MILE_M:
            continue
        fixes = tuple(_point_in_disc(geo, point, CAPTURE_DISC_M, rng) for _ in range(CAPTURES_PER_CYCLE))
        cycles.append(Cycle(point, fixes))
        previous = point
    return cycles


def make_reads(geo, center, count, rng):
    return [_point_in_disc(geo, center, READ_DISC_M, rng) for _ in range(count)]


def make_adds(geo, center, count, rng):
    slots = []
    for lane in range(RING_LANES):
        r = RING_INNER_M + lane * RING_PITCH_M
        n = int(2.0 * math.pi * r // RING_PITCH_M)
        slots.extend((r, k * 360.0 / n) for k in range(n))
    rng.shuffle(slots)
    adds = []
    for i in range(count):
        if not slots:
            break
        half = rng.uniform(*ADD_HALF_RANGE_M)
        if i % MERGE_EVERY == MERGE_EVERY - 1:
            target = adds[-1].extent
            cx = target[0] + (target[2] - target[0]) * rng.random()
            cy = target[1] + (target[3] - target[1]) * rng.random()
            extent = _square(geo, geo.GeoPoint(lat=cy, lon=cx), half)
            union = (
                min(extent[0], target[0]),
                min(extent[1], target[1]),
                max(extent[2], target[2]),
                max(extent[3], target[3]),
            )
            adds.append(Add(extent, 1, union))
        else:
            r, bearing = slots.pop()
            extent = _square(geo, geo.destination(center, bearing, r), half)
            adds.append(Add(extent, 0, extent))
    return adds


# -- reference --------------------------------------------------------------


# decisions this close to the limit are left to the exact geo kernels; float
# differences between the vectorised and scalar formulas are far below it
EDGE_M = 1e-3


def _haversine_np(np, geo, lat, lon, lats, lons):
    phi1 = np.radians(lat)
    phi2 = np.radians(lats)
    h = np.sin(np.radians(lats - lat) / 2.0) ** 2 + np.cos(phi1) * np.cos(phi2) * np.sin(
        np.radians(lons - lon) / 2.0) ** 2
    h = np.minimum(1.0, h)
    return geo.EARTH_RADIUS_M * 2.0 * np.arctan2(np.sqrt(h), np.sqrt(1.0 - h))


class Reference:
    """Linear scans over the benchmark's own copy of the store's extents.

    A vectorised pass over every box rejects those whose centroid is off by
    more than the radius in latitude or longitude, then computes the
    distance of the rest; boxes within EDGE_M of the radius are decided by
    the scalar geo kernel the service uses.
    """

    def __init__(self, np, extents) -> None:
        self.np = np
        self.ext = np.array([(e.min_lon, e.min_lat, e.max_lon, e.max_lat) for e in extents])
        self.clon = (self.ext[:, 0] + self.ext[:, 2]) / 2.0
        self.clat = (self.ext[:, 1] + self.ext[:, 3]) / 2.0

    def within(self, geo, center, radius_m) -> set:
        """Extents of every box whose centroid is within radius_m of center."""
        np = self.np
        lat_cut = radius_m / geo.METERS_PER_DEG * 1.000001 + 1e-9
        cos_lim = math.cos(math.radians(min(90.0, abs(center.lat) + lat_cut)))
        sin_half = math.sin(radius_m / geo.EARTH_RADIUS_M / 2.0)
        lon_cut = math.degrees(2.0 * math.asin(sin_half / cos_lim)) * 1.000001 + 1e-9
        (idx,) = np.nonzero(
            (np.abs(self.clat - center.lat) <= lat_cut) & (np.abs(self.clon - center.lon) <= lon_cut)
        )
        d = _haversine_np(np, geo, center.lat, center.lon, self.clat[idx], self.clon[idx])
        hits = set(map(tuple, self.ext[idx[d <= radius_m - EDGE_M]].tolist()))
        for i in idx[np.abs(d - radius_m) <= EDGE_M].tolist():
            c = geo.GeoPoint(lat=float(self.clat[i]), lon=float(self.clon[i]))
            if geo.haversine_distance(center, c) <= radius_m:
                hits.add(tuple(self.ext[i].tolist()))
        return hits


def nearest_within(geo, np, cache, ext, fix, limit_m):
    """The nearest (distance, id) within limit_m of fix, or None.

    Brute force over every cached (min_lon, min_lat, max_lon, max_lat, id)
    box; ext holds the same extents as an array.
    """
    if not cache:
        return None
    lat = np.minimum(np.maximum(fix.lat, ext[:, 1]), ext[:, 3])
    lon = np.minimum(np.maximum(fix.lon, ext[:, 0]), ext[:, 2])
    d = _haversine_np(np, geo, fix.lat, fix.lon, lat, lon)
    best = None
    for i in np.nonzero(d <= limit_m + EDGE_M)[0].tolist():
        box = cache[i]
        d_exact = geo.distance_to_box(fix, geo.BoxExtent(*box[:4]))
        if d_exact <= limit_m and (best is None or (d_exact, box[4]) < best):
            best = (d_exact, box[4])
    return best


# -- the service ------------------------------------------------------------


class Service:
    """One ``geofence serve`` process on port 0, stopped by ``stop``."""

    def __init__(self, snapshot_path: str, spans_path: str | None = None) -> None:
        if spans_path is None:
            self.cmd = [sys.executable, "-m", "geofence.cli"]
        else:
            self.cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path]
        self.cmd += ["serve", "--bind", "127.0.0.1:0", "--snapshot", snapshot_path]
        self.proc = None
        self.url = None
        self.setup_s = None
        self._stderr: list[str] = []
        self._listening = threading.Event()

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)
            if self.url is None and line.startswith("listening on "):
                self.url = line.split()[2]
                self._listening.set()
        self._listening.set()

    def start(self) -> "Service":
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        self._listening.wait(timeout=60.0)
        if self.url is None:
            raise BenchFailure("service did not start: " + "".join(self._stderr[-20:]))
        probe = f"{self.url}/v1/boxes?lat={CENTER_LAT}&lon={CENTER_LON}&radius_m=1"
        while True:
            try:
                with urllib.request.urlopen(probe, timeout=HTTP_TIMEOUT_S) as resp:
                    resp.read()
                    if resp.status == 200:
                        break
            except (urllib.error.URLError, OSError):
                if self.proc.poll() is not None or time.perf_counter() - t0 > 60.0:
                    raise BenchFailure("service never answered: " + "".join(self._stderr[-20:]))
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - t0
        return self

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", "r", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchFailure("no VmHWM for the service process")

    def stop(self) -> None:
        if self.proc is None or self.proc.poll() is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10.0)


# -- clients ----------------------------------------------------------------


def http_json(url: str, body: dict | None = None):
    """One request on a fresh connection; returns (status, decoded body)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        url, data=data, method="GET" if data is None else "POST",
        headers={} if data is None else {"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=HTTP_TIMEOUT_S) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        exc.read()
        return exc.code, None


@dataclass
class ClientLog:
    """What one closed-loop client did: op latencies and records to check."""

    op_ms: list = field(default_factory=list)
    records: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    attempted: int = 0
    first_timed: int = 0  # records before this index are warm-up


def closed_loop(items, do_op, deadline: float | None, log: ClientLog) -> None:
    """Run do_op over items, one at a time, until the deadline passes.

    do_op(item) is the timed part; it returns a function that, called after
    the clock stops, gives the record to check. With deadline None the ops
    are warm-up: checked but not timed.
    """
    consecutive = 0
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            return
        log.attempted += 1
        try:
            t0 = time.perf_counter()
            finish = do_op(item)
            elapsed_ms = (time.perf_counter() - t0) * 1000.0
            record = finish()
        except Exception as exc:  # a failed op is counted, the loop goes on
            log.failures.append(f"{type(exc).__name__}: {exc}")
            consecutive += 1
            if consecutive >= MAX_CONSECUTIVE_FAILURES:
                return
            continue
        consecutive = 0
        if deadline is not None:
            log.op_ms.append(elapsed_ms)
        log.records.append(record)


class DeviceClient:
    """The device loop; distance_calls(state, policy, now, fix), if given,
    counts the gate's geo.distance_to_box calls after the clock stops."""

    def __init__(self, gf, url: str, distance_calls=None) -> None:
        self.gf = gf
        self.url = url
        self.policy = gf.device.DevicePolicy()
        self.state = gf.device.DeviceState()
        self.now = 0.0
        self.distance_calls = distance_calls

    def __call__(self, cycle: Cycle):
        device = self.gf.device
        self.now += 60.0
        t0 = time.perf_counter()
        reason = device.tick(self.state, self.policy, self.now, cycle.point)
        if reason is not None:
            boxes = device.fetch_boxes(self.url, cycle.point, self.policy.fetch_radius)
            device.apply_refresh(self.state, boxes, cycle.point, self.policy.fetch_radius, self.now)
        t1 = time.perf_counter()
        decisions = []
        capture_ms = []
        for fix in cycle.fixes:
            c0 = time.perf_counter()
            decisions.append(device.capture_request(self.state, self.policy, self.now, fix))
            capture_ms.append((time.perf_counter() - c0) * 1000.0)
        state, now = self.state, self.now

        def finish():
            count = self.distance_calls
            return {
                "cycle": cycle, "reason": reason,
                "cache": [(b.extent.min_lon, b.extent.min_lat, b.extent.max_lon, b.extent.max_lat, b.id)
                          for b in state.cache],
                "decisions": [(d.verdict.value, d.box_id) for d in decisions],
                "refresh_ms": (t1 - t0) * 1000.0, "capture_ms": capture_ms,
                "distance_calls": [count(state, self.policy, now, fix) for fix in cycle.fixes] if count else [],
            }

        return finish


def read_op(url: str):
    def do(point):
        status, body = http_json(f"{url}/v1/boxes?lat={point.lat}&lon={point.lon}&radius_m={READ_RADIUS_M}")
        boxes = body["boxes"] if status == 200 else []
        return lambda: {
            "point": point, "status": status, "count": body["count"] if status == 200 else None,
            "boxes": [(b["min_lon"], b["min_lat"], b["max_lon"], b["max_lat"]) for b in boxes],
        }

    return do


def add_op(url: str):
    def do(add: Add):
        lon1, lat1, lon2, lat2 = add.extent
        status, body = http_json(f"{url}/v1/boxes", {
            "lon1": lon1, "lat1": lat1, "lon2": lon2, "lat2": lat2,
            "added_by": "perfbench", "reason": "ring add",
        })
        stored = body["stored"] if status == 201 else None
        return lambda: {
            "add": add, "status": status,
            "replaced": len(body["replaced_ids"]) if status == 201 else None,
            "stored": (stored["min_lon"], stored["min_lat"], stored["max_lon"], stored["max_lat"])
            if stored else None,
        }

    return do


# -- checks -----------------------------------------------------------------


def check_records(gf, ref: Reference, kind: str, records) -> list[str]:
    """Compare every op's output with the reference; returns the mismatches."""
    geo = gf.geo
    policy = gf.device.DevicePolicy()
    bad = []
    for rec in records:
        if kind == "read":
            expected = ref.within(geo, rec["point"], READ_RADIUS_M)
            got = rec["boxes"]
            if rec["status"] != 200 or rec["count"] != len(got) or len(set(got)) != len(got) \
                    or set(got) != expected:
                bad.append(f"read at {rec['point']}: status {rec['status']}, {len(got)} boxes, "
                           f"expected {len(expected)}")
        elif kind == "add":
            add = rec["add"]
            if rec["status"] != 201 or rec["replaced"] != add.replaces or rec["stored"] != add.expected:
                bad.append(f"add {add.extent}: status {rec['status']}, replaced {rec['replaced']}")
        else:
            cycle = rec["cycle"]
            expected = ref.within(geo, cycle.point, policy.fetch_radius)
            got = [box[:4] for box in rec["cache"]]
            if rec["reason"] is None or len(set(got)) != len(got) or set(got) != expected:
                bad.append(f"refresh at {cycle.point}: {len(got)} boxes, expected {len(expected)}")
                continue
            ext = ref.np.array(got)
            for fix, (verdict, box_id) in zip(cycle.fixes, rec["decisions"]):
                nearest = nearest_within(geo, ref.np, rec["cache"], ext, fix, policy.permissible_distance)
                want = ("allowed", None) if nearest is None else ("denied_restricted_area", nearest[1])
                if (verdict, box_id) != want:
                    bad.append(f"capture at {fix}: {verdict} {box_id}, expected {want}")
                    break
    return bad


def store_count(path: str) -> int:
    with open(path, "rb") as f:
        return int(f.readline().split()[2])


# -- metrics ----------------------------------------------------------------


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def per_layer_metrics(server_spans, client_spans, w0, w1, distance_calls) -> dict:
    """Per-layer figures from the spans of the service and of this process.

    Both processes stamp spans with time.perf_counter, which on Linux is the
    system-wide monotonic clock, so the client's timed window [w0, w1] also
    selects the service's spans (and leaves out start-up and warm-up).
    distance_calls holds the gate's geo.distance_to_box calls per timed
    capture, counted outside the capture spans.
    """
    spans = server_spans + client_spans
    # span ids are per process; only service spans have children measured here
    children: dict[int, float] = {}
    for s in server_spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + (s["end"] - s["start"])

    def named(name, windowed=True):
        return [s for s in spans if s["name"] == name and (not windowed or w0 <= s["start"] <= w1)]

    def ms(group):
        return [(s["end"] - s["start"]) * 1000.0 for s in group]

    def self_ms(group):
        return [(s["end"] - s["start"] - children.get(s["id"], 0.0)) * 1000.0 for s in group]

    def total(group, key):
        return sum(s["counts"].get(key, 0) for s in group)

    def per(group, key, base):
        return total(group, key) / base if base else 0.0

    gets, posts = named("server.get"), named("server.post")
    queries, adds = named("registry.query"), named("registry.add")
    fetches, captures = named("device.fetch"), named("device.capture")
    return {
        "server.get.self_ms": p50(self_ms(gets)),
        "server.get.response_bytes": p50([s["counts"].get("response_bytes", 0) for s in gets]),
        "server.post.self_ms": p50(self_ms(posts)),
        "registry.query_ms": p50(ms(queries)),
        "registry.query.results": p50([s["counts"].get("results", 0) for s in queries]),
        "registry.query.haversine_per_result": per(queries, "haversine", total(queries, "results")),
        "registry.add_ms": p50(ms(adds)),
        "registry.add.overlap_checks": per(adds, "boxes_overlap", len(adds)),
        "snapshot.write_ms": p50(ms(named("snapshot.write"))),
        "snapshot.bytes_written_per_add": per(named("snapshot.write"), "bytes", len(adds)),
        "registry.load_snapshot_ms": p50(ms(named("registry.load_snapshot", windowed=False))),
        "snapshot.read_ms": p50(ms(named("snapshot.read", windowed=False))),
        "device.fetch_ms": p50(ms(fetches)),
        "device.decode_ms": p50([(s["end"] - s["counts"]["decode_start"]) * 1000.0
                                 for s in fetches if "decode_start" in s["counts"]]),
        "device.apply_ms": p50(ms(named("device.apply"))),
        "device.capture_ms": p50(ms(captures)),
        "device.cache_boxes": p50([s["counts"].get("cache_boxes", 0) for s in captures]),
        "geo.distance_to_box_per_capture": sum(distance_calls) / len(distance_calls) if distance_calls else 0.0,
    }


# -- a run ------------------------------------------------------------------


class Run:
    def __init__(self, gf, np, workload: str, seed: int, seconds: float, n_boxes: int, workdir: str):
        self.gf = gf
        self.workload = workload
        self.seconds = seconds
        self.workdir = workdir
        self.n_boxes = n_boxes
        geo = gf.geo
        center = geo.GeoPoint(lat=CENTER_LAT, lon=CENTER_LON)
        extents = gf.datasets.generate_extents(n_boxes, center, STORE_DISC_M, random.Random(seed))
        self.pristine = os.path.join(workdir, "pristine.snap")
        gf.registry.Registry(snapshot_path=self.pristine, id_rng=random.Random(seed)).bulk_load(
            extents, added_by="perfbench", reason="seeded store", now=0.0
        )
        self.store_bytes_per_box = os.path.getsize(self.pristine) / n_boxes
        self.ref = Reference(np, extents)
        del extents
        self.live = os.path.join(workdir, "store.snap")
        ops_rng = random.Random(f"{seed}:ops")
        n = math.ceil(seconds)
        self.cycles = make_cycles(geo, center, OPS_PER_SECOND["cycle"] * n + WARMUP["cycle"], ops_rng) \
            if workload == "device-cycle" else []
        self.reads = make_reads(geo, center, OPS_PER_SECOND["read"] * n + WARMUP["read"], ops_rng) \
            if workload != "device-cycle" else []
        self.adds = make_adds(geo, center, OPS_PER_SECOND["add"] * n + WARMUP["add"], ops_rng) \
            if workload == "write-mix" else []
        self.failures: list[str] = []
        self.attempted = 0
        self.services: list[Service] = []

    def fresh_store(self) -> None:
        shutil.copyfile(self.pristine, self.live)
        audit = self.live + ".audit"
        if os.path.exists(audit):
            os.remove(audit)

    def spawn(self, spans_path: str | None = None) -> Service:
        service = Service(self.live, spans_path)
        self.services.append(service)
        return service.start()

    def stop_all(self) -> None:
        for service in self.services:
            service.stop()

    def drive(self, url: str, seconds: float, distance_calls=None):
        """Warm up, then run the workload's clients; returns (window, logs)."""
        clients = []
        if self.workload == "device-cycle":
            clients.append(("cycle", self.cycles, DeviceClient(self.gf, url, distance_calls)))
        if self.workload == "write-mix":
            clients.append(("add", self.adds, add_op(url)))
        if self.workload != "device-cycle":
            clients.append(("read", self.reads, read_op(url)))
        logs = {kind: ClientLog() for kind, _, _ in clients}
        for kind, items, do_op in clients:
            closed_loop(items[:WARMUP[kind]], do_op, None, logs[kind])
            logs[kind].first_timed = len(logs[kind].records)
        gc.collect()
        w0 = time.perf_counter()
        deadline = w0 + seconds
        threads = [
            threading.Thread(
                target=closed_loop, args=(items[WARMUP[kind]:], do_op, deadline, logs[kind]), daemon=True
            )
            for kind, items, do_op in clients
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=seconds + 2 * HTTP_TIMEOUT_S)
            if t.is_alive():
                raise BenchFailure("a client did not finish")
        w1 = time.perf_counter()
        self.check(logs)
        return (w0, w1), logs

    def check(self, logs: dict) -> None:
        for kind, log in logs.items():
            self.attempted += log.attempted
            self.failures += log.failures
            self.failures += check_records(self.gf, self.ref, kind, log.records)
        if "add" in logs:
            records = logs["add"].records
            plain = sum(1 for r in records if r["add"].replaces == 0)
            merged = len(records) - plain
            count = store_count(self.live)
            if count != self.n_boxes + plain:
                self.failures.append(f"store holds {count} boxes, expected {self.n_boxes + plain}")
            audit = self.live + ".audit"
            audited = sum(1 for _ in open(audit, "rb")) if os.path.exists(audit) else 0
            if audited != merged:
                self.failures.append(f"audit log has {audited} entries, expected {merged}")

    def op_samples(self, logs: dict) -> list:
        return logs["cycle" if self.workload == "device-cycle" else "read"].op_ms

    def untraced(self) -> tuple[dict, dict]:
        # set-up samples are spread before and after the workload, so that
        # one slow stretch of the machine does not decide their median
        setups = []
        for i in range(SETUP_SPAWNS):
            self.fresh_store()
            service = self.spawn()
            setups.append(service.setup_s)
            if i == SETUP_SPAWNS // 2:
                (w0, w1), logs = self.drive_and_stop(service, self.seconds)
            else:
                service.stop()
        op_ms = self.op_samples(logs)
        ops = sum(len(log.op_ms) for log in logs.values())
        metrics = {
            "setup_s": statistics.median(setups),
            "op_ms.p50": p50(op_ms),
            "op_ms.p90": p90(op_ms),
            "ops_per_s": ops / (w1 - w0),
            "server_rss_mb": self.rss_mb,
            "store_bytes_per_box": self.store_bytes_per_box,
        }
        report = {"setup_s": setups, "samples": {k: len(v.op_ms) for k, v in logs.items()}}
        cycles = logs.get("cycle")
        if cycles:
            timed = cycles.records[cycles.first_timed:]
            refresh = [r["refresh_ms"] for r in timed]
            capture = [ms for r in timed for ms in r["capture_ms"]]
            report.update({"refresh_ms": [p50(refresh), p90(refresh)],
                           "capture_ms": [p50(capture), p90(capture)]})
        for kind in ("read", "add"):
            if kind in logs:
                report[f"{kind}_ms"] = [p50(logs[kind].op_ms), p90(logs[kind].op_ms)]
        return metrics, report

    def drive_and_stop(self, service: Service, seconds: float, distance_calls=None):
        try:
            window, logs = self.drive(service.url, seconds, distance_calls)
            self.rss_mb = service.peak_rss_mb()
        finally:
            service.stop()
        return window, logs

    def traced(self) -> tuple[dict, dict]:
        from tracing import Tracer, instrument_device, load_spans

        self.fresh_store()
        _, plain_logs = self.drive_and_stop(self.spawn(), self.seconds / 2.0)
        self.fresh_store()
        spans_path = os.path.join(self.workdir, "server-spans.jsonl")
        service = self.spawn(spans_path)
        tracer = Tracer()
        distance_calls = instrument_device(tracer)
        (w0, w1), logs = self.drive_and_stop(service, self.seconds / 2.0, distance_calls)
        server_spans = load_spans(spans_path)
        cycles = logs.get("cycle")
        calls = [n for r in cycles.records[cycles.first_timed:] for n in r["distance_calls"]] if cycles else []
        metrics = per_layer_metrics(server_spans, [s.to_dict() for s in tracer.spans], w0, w1, calls)
        # indicative only: two half windows on two spawns, so the machine's
        # speed changes between them can be as large as the overhead itself
        traced_p50 = p50(self.op_samples(logs))
        plain_p50 = p50(self.op_samples(plain_logs))
        metrics["trace.overhead_ms"] = traced_p50 - plain_p50
        report = {"op_ms.p50": {"untraced": plain_p50, "traced": traced_p50},
                  "spans": {"server": len(server_spans), "client": len(tracer.spans)}}
        return metrics, report


def import_program():
    if not os.path.isfile(os.path.join(SRC, "geofence", "__init__.py")):
        raise BenchFailure(f"no geofence package under {SRC}")
    sys.path.insert(0, SRC)
    import types

    from geofence import datasets, device, geo, registry

    return types.SimpleNamespace(datasets=datasets, device=device, geo=geo, registry=registry)


def import_numpy():
    """numpy runs the reference check; the program itself does not need it."""
    try:
        import numpy
    except ImportError as exc:
        raise BenchFailure(f"the reference check needs numpy: {exc}") from exc
    return numpy


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--boxes", type=int, default=N_BOXES, help="store size (smaller for smoke checks)")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.boxes <= 0:
        parser.error("--seconds and --boxes must be positive")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        gf = import_program()
        np = import_numpy()
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    run = None
    try:
        run = Run(gf, np, args.workload, args.seed, args.seconds, args.boxes, workdir)
        gc.collect()
        gc.freeze()
        metrics, report = run.traced() if args.trace else run.untraced()
    except BenchFailure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        if run is not None:
            run.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    units = PER_LAYER if args.trace else END_TO_END
    failed = len(run.failures)
    report.update({
        "workload": args.workload, "seed": args.seed, "boxes": args.boxes, "trace": args.trace,
        "error_rate": failed / max(1, run.attempted), "failures": run.failures[:10],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
