"""Shared fixtures: loopback service instances bound to ephemeral ports, and a reader of a registry's boxes."""

import gc
import json
import math
import random
import threading

import pytest

from geofence.geo import EARTH_RADIUS_M, BoxExtent, GeoPoint
from geofence.registry import Registry, RestrictedBox, row_from_record
from geofence.server import ApiConfig, create_server

# farther than any two points on Earth are apart (half the circumference is about 20,015 km)
WORLD_RADIUS_M = 1.01 * math.pi * EARTH_RADIUS_M


def box_from_row(row):
    """The RestrictedBox a row of registry.row_from_record describes."""
    return RestrictedBox(row[0], BoxExtent(*row[1:5]), *row[6:])


def stored_boxes(reg):
    """Every box in reg, parsed from the lines of a query whose radius reaches all of the Earth."""
    lines = reg.boxes_within_radius(GeoPoint(0, 0), WORLD_RADIUS_M)
    return [box_from_row(row_from_record(json.loads(line))) for line in lines]


class LiveServer:
    def __init__(self, registry=None, clock=None, **config_kwargs):
        config = ApiConfig(host="127.0.0.1", port=0, **config_kwargs)
        kwargs = {"registry": registry}
        if clock is not None:
            kwargs["clock"] = clock
        self.server = create_server(config, **kwargs)
        self.registry = self.server.registry
        self.url = self.server.url
        self._thread = threading.Thread(
            target=lambda: self.server.serve_forever(poll_interval=0.02), daemon=True
        )
        self._thread.start()

    def stop(self):
        self.server.shutdown()
        self.server.server_close()
        self._thread.join(timeout=10.0)


@pytest.fixture
def live_server_factory():
    """Start loopback service instances; all are torn down after the test."""
    servers = []

    def factory(registry=None, clock=None, **config_kwargs):
        if registry is None:
            registry = Registry(id_rng=random.Random(0xFACE))
        server = LiveServer(registry=registry, clock=clock, **config_kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.stop()


@pytest.fixture
def live_server(live_server_factory):
    return live_server_factory()


@pytest.fixture
def gc_starts():
    """The generation of each cyclic collection started during the test, in order.

    The collector's on/off state is restored afterwards, so a test may set it.
    """
    enabled = gc.isenabled()
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(count)
    yield starts
    gc.callbacks.remove(count)
    if enabled:
        gc.enable()
    else:
        gc.disable()
