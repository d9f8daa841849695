"""Snapshot container: round trips, atomicity, and corruption detection."""

import errno
import os
import stat
import tracemalloc
import zlib

import pytest

from geofence.snapshot import (
    CorruptSnapshot,
    StorageFailure,
    UnsyncedRename,
    encode_record,
    parse_line,
    read_snapshot,
    write_records,
    write_snapshot,
)


def read_records(path):
    return [parse_line(path, i, line) for i, line in enumerate(read_snapshot(path))]


def test_round_trip_preserves_records(tmp_path):
    path = str(tmp_path / "store.snap")
    records = [{"id": "a", "x": 1.5}, {"id": "b", "x": -2.25, "note": "hello"}]
    write_records(path, records)
    assert read_snapshot(path) == [encode_record(r) for r in records]
    assert read_records(path) == records


def test_empty_snapshot_round_trips(tmp_path):
    path = str(tmp_path / "empty.snap")
    write_records(path, [])
    assert read_snapshot(path) == []


def test_floats_round_trip_exactly(tmp_path):
    path = str(tmp_path / "floats.snap")
    values = [0.1 + 0.2, 1e-17, -179.99999999999997, 1234567890.123456]
    write_records(path, [{"v": v} for v in values])
    assert [r["v"] for r in read_records(path)] == values


def test_truncation_by_one_byte_detected(tmp_path):
    path = str(tmp_path / "store.snap")
    write_records(path, [{"id": i} for i in range(100)])
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-1])
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_flipped_byte_detected(tmp_path):
    path = str(tmp_path / "store.snap")
    write_records(path, [{"id": i} for i in range(100)])
    raw = bytearray(open(path, "rb").read())
    raw[len(raw) // 2] ^= 0x01
    open(path, "wb").write(bytes(raw))
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_wrong_magic_rejected(tmp_path):
    path = str(tmp_path / "store.snap")
    open(path, "wb").write(b"NOPE 1 0 00000000\n")
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_record_count_mismatch_rejected(tmp_path):
    path = str(tmp_path / "store.snap")
    write_records(path, [{"id": 1}, {"id": 2}])
    raw = open(path, "rb").read()
    header, body = raw.split(b"\n", 1)
    fields = header.split(b" ")
    fields[2] = b"3"  # lie about the count, keep the checksum honest
    open(path, "wb").write(b" ".join(fields) + b"\n" + body)
    with pytest.raises(CorruptSnapshot):
        read_snapshot(path)


def test_missing_file_is_storage_failure(tmp_path):
    with pytest.raises(StorageFailure):
        read_snapshot(str(tmp_path / "nope.snap"))


def test_unwritable_target_is_storage_failure(tmp_path):
    with pytest.raises(StorageFailure):
        write_records(str(tmp_path / "no-such-dir" / "store.snap"), [{"id": 1}])


def test_failed_write_leaves_previous_file_intact(tmp_path, monkeypatch):
    path = str(tmp_path / "store.snap")
    write_records(path, [{"id": "original"}])

    import geofence.snapshot as snap

    def boom(src, dst):
        raise OSError("simulated rename failure")

    monkeypatch.setattr(snap.os, "replace", boom)
    with pytest.raises(StorageFailure):
        write_records(path, [{"id": "replacement"}])
    monkeypatch.undo()
    assert read_records(path) == [{"id": "original"}]
    # no temp litter left behind
    assert [p for p in os.listdir(tmp_path) if p != "store.snap"] == []


def test_the_directory_is_fsynced_after_the_rename(tmp_path, monkeypatch):
    # a power cut cannot be staged in a test; the order of the calls can be
    path = str(tmp_path / "store.snap")
    events = []
    replace, fsync = os.replace, os.fsync

    def recording_replace(src, dst):
        events.append(("replace", dst))
        return replace(src, dst)

    def recording_fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", (st.st_dev, st.st_ino) if stat.S_ISDIR(st.st_mode) else "file"))
        return fsync(fd)

    monkeypatch.setattr(os, "replace", recording_replace)
    monkeypatch.setattr(os, "fsync", recording_fsync)
    write_records(path, [{"id": "a"}])
    directory = os.stat(tmp_path)
    assert events == [("fsync", "file"), ("replace", path), ("fsync", (directory.st_dev, directory.st_ino))]


@pytest.mark.parametrize("on_directory", [False, True], ids=["file fsync", "directory fsync"])
def test_a_failed_fsync_says_whether_the_rename_happened(tmp_path, monkeypatch, on_directory):
    path = str(tmp_path / "store.snap")
    write_records(path, [{"id": "original"}])
    fsync = os.fsync

    def failing_fsync(fd):
        if stat.S_ISDIR(os.fstat(fd).st_mode) == on_directory:
            raise OSError(errno.EIO, "injected fsync failure")
        return fsync(fd)

    monkeypatch.setattr(os, "fsync", failing_fsync)
    with pytest.raises(StorageFailure) as excinfo:
        write_records(path, [{"id": "replacement"}])
    monkeypatch.undo()
    # after the rename the file holds the new records, and the error says so
    assert isinstance(excinfo.value, UnsyncedRename) == on_directory
    assert read_records(path) == [{"id": "replacement" if on_directory else "original"}]
    assert os.listdir(tmp_path) == ["store.snap"]


def test_last_line_without_newline_is_returned_as_it_is(tmp_path):
    path = str(tmp_path / "store.snap")
    body = b'{"id":1}\n{"id":2}'
    open(path, "wb").write(b"GFG1 1 2 %08x\n" % zlib.crc32(body) + body)
    assert read_snapshot(path) == [b'{"id":1}\n', b'{"id":2}']
    assert read_records(path) == [{"id": 1}, {"id": 2}]


def _lines(n):
    return [encode_record({"id": f"{i:032x}", "reason": "x" * 200}) for i in range(n)]


def test_write_is_the_header_then_the_lines_byte_for_byte(tmp_path):
    path = str(tmp_path / "store.snap")
    for n in (0, 1, 4095, 4096, 4097, 9000):  # around the write's piece size
        lines = _lines(n)
        write_snapshot(path, lines)
        body = b"".join(lines)
        assert open(path, "rb").read() == b"GFG1 1 %d %08x\n" % (n, zlib.crc32(body)) + body


def test_write_does_not_hold_a_copy_of_the_whole_body(tmp_path):
    path = str(tmp_path / "store.snap")
    lines = _lines(20_000)
    body_size = sum(map(len, lines))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        write_snapshot(path, lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - before < body_size / 2
    assert len(read_snapshot(path)) == 20_000
