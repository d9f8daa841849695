"""The chunked snapshot load against a copy of the load that parses one line at a time."""

import json
import math
import random
from array import array
from itertools import chain

import pytest

from geofence import datasets, geo, registry, snapshot
from geofence.geo import MILE_M, BoxExtent, GeoPoint
from geofence.registry import Registry, RestrictedBox, box_record, record_columns, row_from_record
from geofence.snapshot import CorruptSnapshot

from test_registry import BASE_RECORD, random_record, rejection_cases

CHUNK = registry._CHUNK_LINES
STORE_LINES = 1000  # four chunks: 0-255, 256-511, 512-767 (left canonical) and 768-999
POSITIONS = (0, CHUNK - 1, CHUNK, STORE_LINES - 1)


def _oracle_is_canonical(line, record):
    keys = (
        "added_by", "centroid_lat", "centroid_lon", "created_at", "id",
        "max_lat", "max_lon", "min_lat", "min_lon", "reason",
    )
    types = (str, float, float, float, str, float, float, float, float, str)
    return (
        tuple(record) == keys
        and tuple(map(type, record.values())) == types
        and line.endswith(b"}\n")
        and line.count(b" ")
        == record["id"].count(" ") + record["added_by"].count(" ") + record["reason"].count(" ")
    )


def oracle_state(path):
    """The state the load published when it parsed and checked one line at a time, row by row."""
    lines, ext = {}, array("d")
    for i, line in enumerate(snapshot.read_snapshot(path)):
        record = snapshot.parse_line(path, i, line)
        try:
            row = row_from_record(record)
        except (ValueError, geo.InvalidCoordinate) as exc:
            raise CorruptSnapshot(f"{path}: bad box record: {exc}") from exc
        box_id = row[0]
        if box_id in lines:
            raise CorruptSnapshot(f"{path}: duplicate box id {box_id}")
        if _oracle_is_canonical(line, record):
            lines[box_id] = line
        else:
            box = RestrictedBox(box_id, BoxExtent(*row[1:5]), *row[6:])
            lines[box_id] = snapshot.encode_record(box_record(box))
        ext.extend(row[1:5])
    ids = list(lines)
    lat = array("d", [(a + b) / 2.0 for a, b in zip(ext[1::4], ext[3::4])])
    order = sorted(range(len(ids)), key=lat.__getitem__)
    ext = array("d", chain.from_iterable(ext[4 * row : 4 * row + 4] for row in order))
    ids = [ids[row] for row in order]
    lat = array("d", [(a + b) / 2.0 for a, b in zip(ext[1::4], ext[3::4])])
    lon = [(a + b) / 2.0 for a, b in zip(ext[0::4], ext[2::4])]
    phi, lam = [math.radians(v) for v in lat], [math.radians(v) for v in lon]
    return {
        "lines": list(lines.items()),
        "ids": ids,
        "row_lines": [lines[box_id] for box_id in ids],
        "ext": ext.tobytes(),
        "lat": lat.tobytes(),
        "x": array("d", [math.cos(p) * math.cos(q) for p, q in zip(phi, lam)]).tobytes(),
        "y": array("d", [math.cos(p) * math.sin(q) for p, q in zip(phi, lam)]).tobytes(),
        "z": array("d", [math.sin(p) for p in phi]).tobytes(),
        "half_h": max((b - a for a, b in zip(ext[1::4], ext[3::4])), default=0.0) / 2.0,
    }


def registry_state(path):
    reg = Registry()
    reg.load_snapshot(path)
    return {
        "lines": list(reg._lines.items()),
        "ids": reg._ids,
        "row_lines": reg._row_lines,
        "ext": reg._ext.tobytes(),
        "lat": reg._lat.tobytes(),
        "x": reg._x.tobytes(),
        "y": reg._y.tobytes(),
        "z": reg._z.tobytes(),
        "half_h": reg._max_half_h,
    }


def outcome(load, path):
    """What load(path) returns, or the class and message of what it raises and of its cause."""
    try:
        return load(path)
    except CorruptSnapshot as exc:
        cause = exc.__cause__
        return type(exc), str(exc), type(cause), str(cause) if cause is not None else None


@pytest.fixture(scope="module")
def canonical_lines(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("store") / "store.snap")
    extents = datasets.generate_extents(STORE_LINES, GeoPoint(40.0, -74.5), 50 * MILE_M, random.Random(20))
    Registry(snapshot_path=path, id_rng=random.Random(20)).bulk_load(
        extents, added_by="operator 7", reason="seeded store", now=1.7e9
    )
    lines = snapshot.read_snapshot(path)
    assert all(_oracle_is_canonical(line, json.loads(line)) for line in lines)
    return lines


def _int_corners(k):
    """A record of its own, with int corners: canonical but for the types."""
    lon = -170 + k % 340
    return {
        "added_by": "op", "centroid_lat": 10.5, "centroid_lon": lon + 0.5, "created_at": 0,
        "id": f"int-{k}", "max_lat": 11, "max_lon": lon + 1, "min_lat": 10, "min_lon": lon, "reason": "r",
    }


VARIANTS = {
    "int corners": lambda line, k: snapshot.encode_record(_int_corners(k)),
    "extra whitespace": lambda line, k: json.dumps(json.loads(line), sort_keys=True).encode() + b"\n",
    "one extra space": lambda line, k: line.replace(b'"added_by":', b'"added_by": '),
    "unsorted keys": lambda line, k: json.dumps(
        dict(sorted(json.loads(line).items(), reverse=True)), separators=(",", ":")
    ).encode() + b"\n",
    "an extra key": lambda line, k: snapshot.encode_record(dict(json.loads(line), note="x")),
    "escaped e": lambda line, k: line.replace(b'"reason":"seeded', b'"reason":"s\\u0065eded'),
    "escaped space": lambda line, k: line.replace(b'"reason":"seeded store"', b'"reason":"seeded\\u0020store"'),
    "no last newline": None,
}


def _store(tmp_path, lines, name="store.snap"):
    path = str(tmp_path / name)
    snapshot.write_snapshot(path, lines)
    return path


@pytest.mark.parametrize("kind", VARIANTS)
def test_chunked_load_publishes_the_state_of_the_line_at_a_time_load(tmp_path, canonical_lines, kind):
    lines = list(canonical_lines)
    if kind == "no last newline":
        lines[-1] = lines[-1].rstrip(b"\n")
    else:
        for k in POSITIONS:
            lines[k] = VARIANTS[kind](lines[k], k)
            assert lines[k] != canonical_lines[k]
    path = _store(tmp_path, lines)
    assert registry_state(path) == oracle_state(path)


def test_chunked_load_of_mixed_and_seeded_stores_matches_the_line_at_a_time_load(tmp_path, canonical_lines):
    path = _store(tmp_path, canonical_lines)
    assert registry_state(path) == oracle_state(path)
    kinds = [kind for kind in VARIANTS if kind != "no last newline"]
    for seed in range(6):
        rng = random.Random(seed)
        lines = list(canonical_lines)
        # one extra literal space beside an escaped one: the chunk's totals agree, its lines do not
        lines[300] = VARIANTS["escaped space"](lines[300], 300)
        lines[301] = VARIANTS["one extra space"](lines[301], 301)
        for k in rng.sample(range(STORE_LINES), 12) + list(POSITIONS):
            lines[k] = VARIANTS[rng.choice(kinds)](lines[k], k)
        if seed % 2:
            lines[-1] = lines[-1].rstrip(b"\n")
        path = _store(tmp_path, lines, f"mixed-{seed}.snap")
        assert registry_state(path) == oracle_state(path)


@pytest.mark.parametrize("position", POSITIONS, ids=[f"line {k}" for k in POSITIONS])
@pytest.mark.parametrize("record, cls, fragment", rejection_cases())
def test_chunked_load_rejects_a_bad_record_as_the_line_at_a_time_load(tmp_path, canonical_lines, record, cls, fragment, position):
    lines = list(canonical_lines)
    lines[position] = snapshot.encode_record(record)
    path = _store(tmp_path, lines)
    expected = outcome(oracle_state, path)
    assert expected[0] is CorruptSnapshot and expected[2] is cls
    assert outcome(registry_state, path) == expected
    reg = Registry()
    kept = reg.add_box(BoxExtent(0, 0, 1, 1), added_by="op", reason="", now=0.0).stored
    with pytest.raises(CorruptSnapshot):
        reg.load_snapshot(path)
    assert [json.loads(line)["id"] for line in reg._row_lines] == [kept.id]


@pytest.mark.parametrize("first, second", [(CHUNK - 1, CHUNK), (0, STORE_LINES - 1), (10, 20), (CHUNK, 2 * CHUNK + 1)])
def test_chunked_load_names_a_repeated_id_as_the_line_at_a_time_load(tmp_path, canonical_lines, first, second):
    lines = list(canonical_lines)
    box_id = json.loads(lines[first])["id"]
    lines[second] = snapshot.encode_record(dict(json.loads(lines[second]), id=box_id))
    path = _store(tmp_path, lines)
    expected = outcome(oracle_state, path)
    assert expected[:2] == (CorruptSnapshot, f"{path}: duplicate box id {box_id}")
    assert outcome(registry_state, path) == expected


def test_a_chunk_whose_totals_of_spaces_agree_but_not_its_lines_is_re_encoded(tmp_path, canonical_lines):
    lines = list(canonical_lines)
    # one line spells a space as an escape, the next has one extra: alone in
    # the third chunk, which is otherwise canonical
    lines[600] = VARIANTS["escaped space"](lines[600], 600)
    lines[601] = VARIANTS["one extra space"](lines[601], 601)
    assert lines[600].count(b" ") + lines[601].count(b" ") == canonical_lines[600].count(b" ") * 2
    path = _store(tmp_path, lines)
    state = registry_state(path)
    assert state == oracle_state(path)
    kept = dict(state["lines"])
    assert {kept[json.loads(canonical_lines[k])["id"]] for k in (600, 601)} == {canonical_lines[600], canonical_lines[601]}


def _split_across_two_lines(lines, at, tmp_path):
    """lines with lines[at] split over two lines and the line after them holding two records."""
    path = _store(tmp_path, lines)
    joined = b"[" + b",".join(lines[at : at + 3]) + b"]"
    assert len(json.loads(joined)) == 3  # the crafted lines do parse as three records together
    expected = outcome(oracle_state, path)
    assert expected[:2] == (CorruptSnapshot, f"{path}: invalid JSON on line {at + 2}")
    assert outcome(registry_state, path) == expected


@pytest.mark.parametrize("at", [0, CHUNK - 3, CHUNK, STORE_LINES - 3])
def test_a_canonical_record_across_two_lines_beside_two_records_on_one_fails_naming_its_line(tmp_path, canonical_lines, at):
    lines = list(canonical_lines)
    # records without a space, so that only the "}\n" ending tells the split
    # record, whose keys and types are canonical, from a record per line
    for k in range(at, at + 3):
        lines[k] = snapshot.encode_record(dict(json.loads(lines[k]), added_by="op", reason="r"))
    head, tail = lines[at].split(b',"max_lat"')
    lines[at], lines[at + 1] = head + b"\n", b'"max_lat"' + tail
    lines[at + 2] = lines[at + 2][:-1] + b"," + lines[at + 2]
    _split_across_two_lines(lines, at, tmp_path)


@pytest.mark.parametrize("at", [0, CHUNK - 3, CHUNK, STORE_LINES - 3])
def test_a_record_across_two_lines_beside_two_records_on_one_fails_naming_its_line(tmp_path, canonical_lines, at):
    lines = list(canonical_lines)
    # the record of line `at` runs on into the next line through an array of
    # two objects, and the line after holds two records: as many records as
    # lines, each line ending in "}\n", so only the canonical check stops a
    # parse of the chunk as a whole
    lines[at] = lines[at][:-2] + b',"zz":[{}\n'
    lines[at + 1] = b"{}]}\n"
    lines[at + 2] = lines[at + 2][:-1] + b"," + lines[at + 2]
    _split_across_two_lines(lines, at, tmp_path)


def _parse_line_calls(monkeypatch, path):
    """The state load_snapshot publishes for path and how many lines it parsed alone."""
    calls = []
    parse_line = snapshot.parse_line

    def counted(*args):
        calls.append(args[1])
        return parse_line(*args)

    with monkeypatch.context() as patch:
        patch.setattr(snapshot, "parse_line", counted)
        state = registry_state(path)
    return state, len(calls)


def test_a_store_of_no_canonical_line_is_still_parsed_a_chunk_at_a_time(tmp_path, monkeypatch, canonical_lines):
    kinds = [kind for kind in VARIANTS if kind not in ("no last newline", "escaped e")]
    lines = [VARIANTS[kinds[k % len(kinds)]](line, k) for k, line in enumerate(canonical_lines)]
    assert not any(map(_oracle_is_canonical, lines, map(json.loads, lines)))
    path = _store(tmp_path, lines)
    state, parsed_alone = _parse_line_calls(monkeypatch, path)
    assert parsed_alone == 0
    assert state == oracle_state(path)


@pytest.mark.parametrize("kind", ["an array", "an object", "no last newline"])
def test_only_a_chunk_the_joined_parse_cannot_vouch_for_is_parsed_a_line_at_a_time(tmp_path, monkeypatch, canonical_lines, kind):
    lines = list(canonical_lines)
    if kind == "no last newline":
        lines[-1] = lines[-1].rstrip(b"\n")
        expected_calls = STORE_LINES - 3 * CHUNK
    else:
        # a record with a nested value: the records still match the lines, but
        # the argument that they must no longer holds
        value = [1.5] if kind == "an array" else {"a": 1.5}
        lines[CHUNK + 3] = snapshot.encode_record(dict(json.loads(lines[CHUNK + 3]), note=value))
        expected_calls = CHUNK
    path = _store(tmp_path, lines)
    state, parsed_alone = _parse_line_calls(monkeypatch, path)
    assert parsed_alone == expected_calls
    assert state == oracle_state(path)


def test_a_chunk_that_parses_as_another_count_of_records_goes_a_line_at_a_time(tmp_path, canonical_lines):
    lines = list(canonical_lines)
    lines[5] = lines[5][:-1] + b"," + lines[6]  # two records on one line, the next line dropped
    del lines[6]
    path = _store(tmp_path, lines)
    assert outcome(registry_state, path) == outcome(oracle_state, path)
    assert outcome(oracle_state, path)[1] == f"{path}: invalid JSON on line 7"


def test_record_columns_match_row_from_record_on_seeded_records():
    rng = random.Random(2001)
    keys = ("id", "min_lon", "min_lat", "max_lon", "max_lat", "centroid_lat", "added_by", "reason", "created_at")
    for size in (0, 1, 2, 300):
        records = [random_record(rng) for _ in range(size)]
        # as a canonical line parses: box_record's values, keys sorted
        canonical = [
            json.loads(snapshot.encode_record(box_record(RestrictedBox(
                r["id"], BoxExtent(*(float(r[k]) for k in keys[1:5])), r["added_by"], r["reason"], float(r["created_at"])
            ))))
            for r in records
        ]
        for batch in (records, canonical):
            columns = record_columns(batch)
            expected = list(zip(*map(row_from_record, batch))) or [()] * 9
            # repr tells -0.0 from 0.0 and an int from a float, which == does not
            assert repr([tuple(c) for c in columns]) == repr(expected)
        if size:
            assert registry.canonical_columns(canonical) is not None


@pytest.mark.parametrize("record, cls, fragment", rejection_cases())
def test_record_columns_reject_a_bad_record_among_canonical_ones_as_row_from_record(record, cls, fragment):
    good = [json.loads(snapshot.encode_record(dict(BASE_RECORD, id=f"ok-{i}"))) for i in range(5)]
    assert registry.canonical_columns(good) is not None
    with pytest.raises(ValueError, match=fragment) as excinfo:
        record_columns(good[:3] + [record] + good[3:])
    assert type(excinfo.value) is cls


@pytest.mark.parametrize(
    "key, value",
    [("max_lon", 200.0), ("min_lon", -180.5), ("max_lat", 90.25), ("min_lat", -91.0), ("max_lon", math.inf)],
)
@pytest.mark.parametrize("position", POSITIONS, ids=[f"line {k}" for k in POSITIONS])
def test_chunked_load_rejects_a_corner_out_of_range_whose_centroid_agrees(tmp_path, canonical_lines, key, value, position):
    lines = list(canonical_lines)
    record = dict(json.loads(lines[position]), **{key: value})
    axis = key[-3:]
    record[f"centroid_{axis}"] = (record[f"min_{axis}"] + record[f"max_{axis}"]) / 2.0
    lines[position] = snapshot.encode_record(record)
    path = _store(tmp_path, lines)
    expected = outcome(oracle_state, path)
    assert expected[:3] == (CorruptSnapshot, f"{path}: bad box record: {expected[3]}", geo.InvalidCoordinate)
    assert outcome(registry_state, path) == expected
