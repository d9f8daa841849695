"""Deterministic trajectory replay through the device state machine.

A trajectory is a JSON-lines file of timestamped events: GPS fixes, capture
attempts, and simulated network up/down toggles. Replay advances a virtual
clock from the event offsets, so a 24-hour gap is a single event rather
than a wait. The network starts down; a ``net_up`` event enables fetching.
Given the same trajectory and the same server state, the emitted log is
byte-identical run to run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

from . import device
from .device import DevicePolicy, DeviceState, FetchFailed, ServerRejected, Verdict
from .geo import GeoPoint, InvalidCoordinate

EVENT_KINDS = ("fix", "capture", "net_up", "net_down")


class TrajectoryError(ValueError):
    """A trajectory file failed validation; carries the offending line number."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class TrajectoryEvent:
    t: float
    kind: str
    lat: float | None = None
    lon: float | None = None


def parse_trajectory(lines: Iterable[str]) -> list[TrajectoryEvent]:
    """Parse and validate trajectory lines (blank lines are skipped)."""
    events: list[TrajectoryEvent] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            raw = json.loads(line)
        except ValueError:
            raise TrajectoryError(line_no, "not valid JSON") from None
        if not isinstance(raw, dict):
            raise TrajectoryError(line_no, "event must be a JSON object")
        kind = raw.get("kind")
        if kind not in EVENT_KINDS:
            raise TrajectoryError(line_no, f"unknown event kind {kind!r}")
        t = raw.get("t")
        if isinstance(t, bool) or not isinstance(t, (int, float)):
            raise TrajectoryError(line_no, "field 't' must be a number")
        if events and t < events[-1].t:
            raise TrajectoryError(line_no, "events must be sorted by t")
        lat = lon = None
        if kind == "fix":
            lat, lon = raw.get("lat"), raw.get("lon")
            if not isinstance(lat, (int, float)) or not isinstance(lon, (int, float)):
                raise TrajectoryError(line_no, "fix events need numeric 'lat' and 'lon'")
            try:
                GeoPoint(lat=lat, lon=lon)
            except InvalidCoordinate as exc:
                raise TrajectoryError(line_no, str(exc)) from None
        elif not events:
            raise TrajectoryError(line_no, "the first event must be a fix")
        events.append(TrajectoryEvent(t=float(t), kind=kind, lat=lat, lon=lon))
    return events


def load_trajectory(path: str) -> list[TrajectoryEvent]:
    with open(path, "r", encoding="utf-8") as f:
        return parse_trajectory(f)


def run_replay(
    events: list[TrajectoryEvent],
    policy: DevicePolicy,
    server_url: str,
    epoch: float = 0.0,
    on_event: Callable[[int, TrajectoryEvent, DeviceState], None] | None = None,
    state: DeviceState | None = None,
) -> list[str]:
    """Feed events through the device state machine; returns the event log.

    ``on_event`` runs before each event is processed, which lets harnesses
    mutate server state mid-journey at a deterministic point.
    """
    if state is None:
        state = DeviceState()
    net_up = False
    log: list[str] = []
    for i, event in enumerate(events):
        if on_event is not None:
            on_event(i, event, state)
        now = epoch + event.t
        if event.kind == "fix":
            fix = GeoPoint(lat=event.lat, lon=event.lon)
            prefix = f"t={event.t:g} fix lat={event.lat:.6f} lon={event.lon:.6f}"
            reason = device.tick(state, policy, now, fix)
            if reason is None:
                log.append(f"{prefix} trigger=none")
            elif not net_up:
                log.append(f"{prefix} trigger={reason.value} refresh=offline")
            else:
                try:
                    boxes = device.fetch_boxes(server_url, fix, policy.fetch_radius)
                except ServerRejected as exc:
                    log.append(f"{prefix} trigger={reason.value} refresh=rejected status={exc.status}")
                except FetchFailed:
                    log.append(f"{prefix} trigger={reason.value} refresh=failed")
                else:
                    device.apply_refresh(state, boxes, fix, policy.fetch_radius, now)
                    ids = ",".join(sorted(boxes.ids)) if boxes else "-"
                    log.append(
                        f"{prefix} trigger={reason.value} refresh=ok count={len(boxes)} ids={ids}"
                    )
        elif event.kind == "capture":
            decision = device.capture_request(state, policy, now, state.last_location)
            if decision.verdict is Verdict.DENIED_RESTRICTED_AREA:
                log.append(
                    f"t={event.t:g} capture verdict={decision.verdict.value} "
                    f"box={decision.box_id} distance_m={decision.distance_m:.3f}"
                )
            else:
                log.append(f"t={event.t:g} capture verdict={decision.verdict.value}")
        elif event.kind == "net_up":
            net_up = True
            log.append(f"t={event.t:g} net_up")
        else:
            net_up = False
            log.append(f"t={event.t:g} net_down")
    return log
