"""The benchmark's device client, reference check and tracer, run unchanged against this code.

perfbench reads the device cache as it is: ``len(state.cache)``, each cached
box's ``.id`` and ``.extent`` corners, and the names its tracer wraps. A
change that breaks one of them fails here, in-process and in a few seconds,
rather than in a benchmark run.
"""

import importlib.util
import os
import random
import sys
import time
import types

import pytest

from geofence import datasets, device, geo, registry, server, snapshot
from geofence.registry import Registry

np = pytest.importorskip("numpy")

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def load_perfbench(monkeypatch, name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up by name
    spec.loader.exec_module(module)
    return module


# every attribute instrument_server and instrument_device replace
WRAPPED = [
    (server._Handler, ("do_GET", "do_POST", "send_header")),
    (registry.Registry, ("boxes_within_radius", "add_box", "load_snapshot")),
    (snapshot, ("write_snapshot", "read_snapshot")),
    (geo, ("haversine_distance", "boxes_overlap", "distance_to_box")),
    (device, ("fetch_boxes", "apply_refresh", "capture_request", "json")),
]


def test_perfbench_device_cycles_check_clean_and_trace_every_layer(tmp_path, live_server_factory, monkeypatch):
    run, tracing = load_perfbench(monkeypatch, "run"), load_perfbench(monkeypatch, "tracing")
    gf = types.SimpleNamespace(datasets=datasets, device=device, geo=geo, registry=registry)
    center = geo.GeoPoint(lat=run.CENTER_LAT, lon=run.CENTER_LON)
    extents = datasets.generate_extents(3_000, center, run.STORE_DISC_M, random.Random(16))
    path = str(tmp_path / "store.snap")
    Registry(snapshot_path=path, id_rng=random.Random(16)).bulk_load(
        extents, added_by="perfbench", reason="seeded store", now=0.0
    )
    for target, names in WRAPPED:  # recorded, so each is put back after the test
        for name in names:
            monkeypatch.setattr(target, name, getattr(target, name))
    tracer = tracing.Tracer()
    tracing.instrument_server(tracer)
    distance_calls = tracing.instrument_device(tracer)

    store = Registry(snapshot_path=path)
    assert store.load_snapshot() == len(extents)
    url = live_server_factory(registry=store).url
    log = run.ClientLog()
    w0 = time.perf_counter()
    run.closed_loop(run.make_cycles(geo, center, 6, random.Random(17)), run.DeviceClient(gf, url, distance_calls),
                    None, log)
    w1 = time.perf_counter()

    assert log.failures == [] and len(log.records) == 6
    assert all(rec["reason"] is not None and rec["cache"] for rec in log.records)
    assert run.check_records(gf, run.Reference(np, extents), "cycle", log.records) == []
    calls = [n for rec in log.records for n in rec["distance_calls"]]
    metrics = run.per_layer_metrics([s.to_dict() for s in tracer.spans], [], w0, w1, calls)
    for name in ("registry.load_snapshot_ms", "registry.query_ms", "device.fetch_ms", "device.decode_ms",
                 "device.apply_ms", "device.capture_ms", "device.cache_boxes",
                 "geo.distance_to_box_per_capture"):
        assert metrics[name] > 0, name
    assert metrics["device.cache_boxes"] == np.median([len(rec["cache"]) for rec in log.records])
