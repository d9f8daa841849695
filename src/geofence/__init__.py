"""Geofenced photography restrictions.

A registry service keeps restricted geographic bounding boxes and serves
them over HTTP; a device-side state machine caches the boxes near the
device and gates every capture attempt on proximity, coverage, and cache
freshness. The CLI (``geofence``) runs the service, drives it, replays GPS
trajectories, and benchmarks storage and latency.
"""

__version__ = "0.1.0"
