"""HTTP endpoints: wire format, status codes, and registry equivalence."""

import json
import logging
import random
import socket
import urllib.error
import urllib.request

import pytest

from geofence import geo
from geofence.geo import BoxExtent, GeoPoint
from geofence.registry import Registry, box_record
from geofence.server import _Handler

from conftest import LiveServer, stored_boxes

WIRE_FIELDS = {
    "id", "min_lon", "min_lat", "max_lon", "max_lat",
    "centroid_lon", "centroid_lat", "added_by", "reason", "created_at",
}


def post_box(url, payload, raw=None):
    data = raw if raw is not None else json.dumps(payload).encode("utf-8")
    req = urllib.request.Request(
        url + "/v1/boxes", data=data, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def get_boxes(url, query):
    try:
        with urllib.request.urlopen(url + "/v1/boxes?" + query, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))


def corners(extent):
    return {
        "lon1": extent.min_lon, "lat1": extent.min_lat,
        "lon2": extent.max_lon, "lat2": extent.max_lat,
    }


def body_for(extent, added_by="api-test", reason="r"):
    payload = corners(extent)
    payload.update({"added_by": added_by, "reason": reason})
    return payload


# -- POST /v1/boxes ----------------------------------------------------------


def test_post_valid_box_created(live_server):
    status, body = post_box(live_server.url, body_for(BoxExtent(-74, 40, -73, 41)))
    assert status == 201
    stored = body["stored"]
    assert set(stored) == WIRE_FIELDS
    assert [stored["min_lon"], stored["min_lat"], stored["max_lon"], stored["max_lat"]] == [-74, 40, -73, 41]
    assert body["replaced_ids"] == []
    assert live_server.registry.count() == 1


def test_post_corners_in_any_order(live_server):
    payload = {"lon1": -73, "lat1": 41, "lon2": -74, "lat2": 40,
               "added_by": "api-test", "reason": ""}
    status, body = post_box(live_server.url, payload)
    assert status == 201
    s = body["stored"]
    assert (s["min_lon"], s["min_lat"], s["max_lon"], s["max_lat"]) == (-74, 40, -73, 41)


def test_post_overlapping_box_reports_replacements(live_server):
    post_box(live_server.url, body_for(BoxExtent(0, 0, 1, 1)))
    post_box(live_server.url, body_for(BoxExtent(2, 2, 3, 3)))
    status, body = post_box(live_server.url, body_for(BoxExtent(0.5, 0.5, 2.5, 2.5)))
    assert status == 201
    assert len(body["replaced_ids"]) == 2
    s = body["stored"]
    assert (s["min_lon"], s["min_lat"], s["max_lon"], s["max_lat"]) == (0, 0, 3, 3)


def test_post_out_of_range_coordinate_is_400(live_server):
    payload = body_for(BoxExtent(0, 0, 1, 1))
    payload["lat1"] = 95
    status, body = post_box(live_server.url, payload)
    assert status == 400
    assert body["error"] == "invalid_coordinate"


def test_post_antimeridian_span_is_422(live_server):
    payload = {"lon1": 179, "lat1": 0, "lon2": -179, "lat2": 1,
               "added_by": "api-test", "reason": ""}
    status, body = post_box(live_server.url, payload)
    assert status == 422
    assert body["error"] == "antimeridian_unsupported"


def test_post_malformed_json_is_400(live_server):
    status, body = post_box(live_server.url, None, raw=b"{not json")
    assert status == 400
    assert body["error"] == "malformed_json"


@pytest.mark.parametrize("mutate", [
    lambda p: p.pop("lon1"),
    lambda p: p.update(lat2="41"),
    lambda p: p.update(lat1=True),
    lambda p: p.update(added_by=7),
    lambda p: p.pop("reason"),
    lambda p: p.update(added_by=""),
])
def test_post_bad_fields_are_400(live_server, mutate):
    payload = body_for(BoxExtent(0, 0, 1, 1))
    mutate(payload)
    status, body = post_box(live_server.url, payload)
    assert status == 400
    assert body["error"] == "malformed_request"


def test_post_oversize_body_is_413(live_server_factory):
    server = live_server_factory(max_body_bytes=256)
    payload = body_for(BoxExtent(0, 0, 1, 1), reason="x" * 1000)
    status, body = post_box(server.url, payload)
    assert status == 413
    assert body["error"] == "body_too_large"


def test_post_negative_content_length_is_400(live_server_factory):
    server = live_server_factory(max_body_bytes=64)
    host, port = server.url.removeprefix("http://").split(":")
    with socket.create_connection((host, int(port)), timeout=2.0) as sock:
        sock.sendall(
            b"POST /v1/boxes HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n" + b"x" * 4096
        )
        # without the check the handler reads to EOF and never replies
        reply = b""
        while chunk := sock.recv(4096):
            reply += chunk
    assert reply.startswith(b"HTTP/1.1 400 ")
    assert b'"malformed_request"' in reply


def test_post_storage_failure_is_500_and_applies_nothing(tmp_path, live_server_factory):
    registry = Registry(snapshot_path=str(tmp_path / "no-dir" / "reg.snap"))
    server = live_server_factory(registry=registry)
    status, body = post_box(server.url, body_for(BoxExtent(0, 0, 1, 1)))
    assert status == 500
    assert body["error"] == "storage_failure"
    assert registry.count() == 0


def test_unknown_path_is_404(live_server):
    status, body = post_box(live_server.url + "/nope", body_for(BoxExtent(0, 0, 1, 1)))
    assert status == 404


# -- GET /v1/boxes -----------------------------------------------------------


def test_get_empty_registry(live_server):
    status, body = get_boxes(live_server.url, "lat=40&lon=-74&radius_m=10000")
    assert status == 200
    assert body == {"boxes": [], "count": 0}


def test_get_returns_box_in_vicinity(live_server):
    center = GeoPoint(40.0, -74.0)
    near = geo.destination(center, 90.0, 10 * geo.MILE_M)
    post_box(live_server.url, body_for(BoxExtent(near.lon - 0.01, near.lat - 0.01,
                                                 near.lon + 0.01, near.lat + 0.01)))
    status, body = get_boxes(live_server.url, f"lat={center.lat}&lon={center.lon}&radius_m=40233.6")
    assert status == 200
    assert body["count"] == 1 and len(body["boxes"]) == 1
    assert set(body["boxes"][0]) == WIRE_FIELDS


def get_raw(url, query):
    with urllib.request.urlopen(url + "/v1/boxes?" + query, timeout=10) as resp:
        return resp.status, resp.read()


def test_get_body_equals_the_canonical_records(live_server):
    reg = live_server.registry
    awkward = ['say "no"', "back\\slash", "two\nlines", "Zone d\u2019exclusion \u65e5\u672c", ""]
    for i, text in enumerate(awkward):
        lon = -74.0 + 0.05 * i
        reg.add_box(BoxExtent(lon, 40.0, lon + 0.01, 40.01), added_by=text or "op", reason=text, now=7.5)
    center = GeoPoint(40.0, -74.0)
    status, raw = get_raw(live_server.url, f"lat={center.lat}&lon={center.lon}&radius_m=40233.6")
    assert status == 200
    expected = [json.loads(line) for line in reg.boxes_within_radius(center, 40233.6)]
    assert json.loads(raw) == {"boxes": expected, "count": len(awkward)}
    # compact key-sorted records: the same bytes as the snapshot lines
    for record in expected:
        assert json.dumps(record, sort_keys=True, separators=(",", ":")).encode() in raw


def test_get_serves_a_box_merged_away_after_the_query(live_server):
    reg = live_server.registry
    queried = reg.add_box(BoxExtent(-74.0, 40.0, -73.99, 40.01), "op", "old", now=1.0).stored
    query = reg.boxes_within_radius

    def query_then_merge(center, radius_m):
        lines = query(center, radius_m)
        reg.add_box(BoxExtent(-73.995, 40.005, -73.98, 40.02), "op", "merge", now=2.0)
        return lines

    reg.boxes_within_radius = query_then_merge
    status, body = get_boxes(live_server.url, "lat=40&lon=-74&radius_m=10000")
    assert status == 200
    assert body == {"boxes": [box_record(queried)], "count": 1}
    assert queried.id not in {b.id for b in stored_boxes(reg)}


def test_each_get_queries_the_registry_exactly_once(live_server, monkeypatch):
    # the benchmark's tracer times GET queries by wrapping this method
    calls = []
    query = Registry.boxes_within_radius

    def counting(self, center, radius_m):
        calls.append((center, radius_m))
        return query(self, center, radius_m)

    monkeypatch.setattr(Registry, "boxes_within_radius", counting)
    live_server.registry.add_box(BoxExtent(-74.0, 40.0, -73.99, 40.01), "op", "", now=1.0)
    for query_string in ("lat=40&lon=-74&radius_m=10000", "lat=-40&lon=-74&radius_m=10000"):
        calls.clear()
        status, _ = get_boxes(live_server.url, query_string)
        assert status == 200
        assert len(calls) == 1


@pytest.mark.parametrize("query,code", [
    ("lat=40&lon=-74&radius_m=0", "invalid_parameter"),
    ("lat=40&lon=-74&radius_m=-10", "invalid_parameter"),
    ("lat=40&lon=-74", "invalid_parameter"),
    ("lat=40&radius_m=10", "invalid_parameter"),
    ("lat=abc&lon=-74&radius_m=10", "invalid_parameter"),
    ("lat=95&lon=-74&radius_m=10", "invalid_coordinate"),
    ("lat=40&lon=-74&radius_m=nan", "invalid_parameter"),
])
def test_get_bad_parameters_are_400(live_server, query, code):
    status, body = get_boxes(live_server.url, query)
    assert status == 400
    assert body["error"] == code


def test_get_radius_above_limit_is_400(live_server_factory):
    server = live_server_factory(max_radius_m=50_000.0)
    status, body = get_boxes(server.url, "lat=40&lon=-74&radius_m=50001")
    assert status == 400
    assert body["error"] == "radius_too_large"
    status, _ = get_boxes(server.url, "lat=40&lon=-74&radius_m=50000")
    assert status == 200


# -- transparency ------------------------------------------------------------


def test_http_layer_adds_no_semantics(live_server_factory):
    """Random adds/queries through HTTP mirror direct registry calls exactly."""
    rng = random.Random(2024)
    clock = lambda: 1_700_000_000.0  # noqa: E731 - fixed time keeps records comparable
    server = live_server_factory(registry=Registry(id_rng=random.Random(5)), clock=clock)
    mirror = Registry(id_rng=random.Random(5))

    for i in range(40):
        lon = rng.uniform(-20, 19)
        lat = rng.uniform(-20, 19)
        ext = BoxExtent(lon, lat, lon + rng.uniform(0, 2), lat + rng.uniform(0, 2))
        status, body = post_box(server.url, body_for(ext, added_by=f"u{i}", reason=str(i)))
        expected = mirror.add_box(ext, added_by=f"u{i}", reason=str(i), now=clock())
        assert status == 201
        assert body["stored"]["id"] == expected.stored.id
        assert body["stored"]["min_lon"] == expected.stored.extent.min_lon
        assert sorted(body["replaced_ids"]) == sorted(expected.replaced_ids)

    for _ in range(40):
        center = GeoPoint(lat=rng.uniform(-25, 25), lon=rng.uniform(-25, 25))
        radius = rng.uniform(10_000, 200_000)
        status, body = get_boxes(
            server.url, f"lat={center.lat}&lon={center.lon}&radius_m={radius}"
        )
        assert status == 200
        assert body["count"] == len(body["boxes"])
        expected_ids = {json.loads(line)["id"] for line in mirror.boxes_within_radius(center, radius)}
        assert {b["id"] for b in body["boxes"]} == expected_ids


def test_keep_alive_reuse_and_error_path_close(live_server):
    import http.client

    host, port = live_server.url.removeprefix("http://").split(":")
    conn = http.client.HTTPConnection(host, int(port), timeout=5)
    try:
        for _ in range(2):  # persistent connection survives successful requests
            conn.request("GET", "/v1/boxes?lat=0&lon=0&radius_m=10")
            resp = conn.getresponse()
            assert resp.status == 200
            resp.read()
        # an error response may leave the body undrained: server must close
        conn.request("POST", "/v1/boxes", body=b'{"lon1": "bad"}')
        resp = conn.getresponse()
        assert resp.status == 400
        assert resp.getheader("Connection") == "close"
        resp.read()
    finally:
        conn.close()


def test_wire_coordinates_carry_full_double_precision(live_server):
    ext = BoxExtent(-73.97654321098765, 40.12345678901234, -73.9, 40.2)
    status, body = post_box(live_server.url, body_for(ext))
    assert status == 201
    assert body["stored"]["min_lon"] == -73.97654321098765
    assert body["stored"]["min_lat"] == 40.12345678901234


def test_a_library_server_with_a_snapshot_keeps_absorbed_boxes_in_its_audit_log(tmp_path):
    # only the CLI used to default the audit log, so a merge here lost the absorbed box
    path = str(tmp_path / "reg.snap")
    server = LiveServer(snapshot_path=path)
    try:
        status, first = post_box(server.url, body_for(BoxExtent(0, 0, 1, 1)))
        assert status == 201
        status, merged = post_box(server.url, body_for(BoxExtent(0.5, 0.5, 2, 2)))
        assert status == 201 and merged["replaced_ids"] == [first["stored"]["id"]]
    finally:
        server.stop()
    [entry] = [json.loads(line) for line in open(path + ".audit", encoding="utf-8")]
    assert entry["merged_into"] == merged["stored"]["id"] and entry["box"] == first["stored"]


def test_a_posted_box_lists_its_keys_in_the_order_of_every_fetched_record(live_server):
    status, body = post_box(live_server.url, body_for(BoxExtent(0, 0, 1, 1)))
    assert status == 201
    with urllib.request.urlopen(live_server.url + "/v1/boxes?lat=0.5&lon=0.5&radius_m=1000", timeout=10) as resp:
        [fetched] = json.loads(resp.read())["boxes"]
    assert list(body["stored"]) == list(fetched) == sorted(WIRE_FIELDS)


def test_the_request_log_formats_nothing_unless_debug_is_on(caplog):
    class Request:
        def address_string(self):
            calls.append("address")
            return "127.0.0.1"

    calls = []
    with caplog.at_level(logging.INFO, logger="geofence.server"):
        _Handler.log_message(Request(), '"%s" %s', "GET /v1/boxes", 200)
    assert calls == [] and not caplog.records
    with caplog.at_level(logging.DEBUG, logger="geofence.server"):
        _Handler.log_message(Request(), '"%s" %s', "GET /v1/boxes", 200)
    assert calls == ["address"] and caplog.records[-1].getMessage() == '127.0.0.1 - "GET /v1/boxes" 200'
