"""Shared fixtures: loopback service instances bound to ephemeral ports."""

import gc
import random
import threading

import pytest

from geofence.registry import Registry
from geofence.server import ApiConfig, create_server


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
