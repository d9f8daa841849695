"""Checksummed JSON-lines snapshot files.

Layout: one ASCII header line ``GFG1 <version> <count> <crc32>`` followed by
one JSON object per line. The CRC32 covers every byte after the header line,
so truncation or bit rot is caught on load. Writes go to a temp file in the
target directory and land with an atomic rename, and the directory is
fsynced after it; a crash mid-save can never leave a half-written store
behind, and once a save returns its rename is on disk too. A failure after
the rename raises ``UnsyncedRename``: the file already holds the new records.
"""

from __future__ import annotations

import json
import os
import tempfile
import zlib
from typing import Iterable, Sequence

MAGIC = "GFG1"
FORMAT_VERSION = 1
_PIECE_LINES = 4096  # lines joined at a time when checksumming and writing


class StorageFailure(OSError):
    """The underlying filesystem refused a read or write."""


class UnsyncedRename(StorageFailure):
    """The new snapshot is in place, but a crash may lose it: the directory fsync failed."""


class CorruptSnapshot(ValueError):
    """The file is not a valid snapshot or fails its integrity checks."""


def encode_record(record: dict) -> bytes:
    """Serialize one record as a compact, key-sorted JSON line."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8") + b"\n"


def _header(count: int, crc: int) -> bytes:
    return f"{MAGIC} {FORMAT_VERSION} {count} {crc:08x}\n".encode("ascii")


def write_snapshot(path: str, lines: Sequence[bytes]) -> None:
    """Write pre-encoded record lines as a snapshot, atomically.

    The body is joined, checksummed and written a piece at a time, never
    whole, so a write holds about one piece beyond the lines themselves.
    The header's length does not depend on the checksum, so it is written
    last, over a placeholder.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = None
    renamed = False
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".snapshot-", suffix=".tmp")
        with os.fdopen(fd, "wb") as f:
            f.write(_header(len(lines), 0))
            crc = 0
            for i in range(0, len(lines), _PIECE_LINES):
                piece = b"".join(lines[i : i + _PIECE_LINES])
                crc = zlib.crc32(piece, crc)
                f.write(piece)
            f.seek(0)
            f.write(_header(len(lines), crc))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp_path, path)
        tmp_path, renamed = None, True
        # the rename is durable only once the directory entry is on disk
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError as exc:
        raise (UnsyncedRename if renamed else StorageFailure)(f"cannot write snapshot {path}: {exc}") from exc
    finally:
        if tmp_path is not None and os.path.exists(tmp_path):
            try:
                os.remove(tmp_path)
            except OSError:
                pass


def write_records(path: str, records: Iterable[dict]) -> None:
    """Encode dict records and write them as a snapshot, atomically."""
    write_snapshot(path, [encode_record(r) for r in records])


def read_snapshot(path: str) -> list[bytes]:
    """Load and verify a snapshot, returning its record lines in file order.

    Each line keeps its line ending; ``parse_line`` turns one into a record.
    """
    try:
        with open(path, "rb") as f:
            header = f.readline()
            body = f.read()
    except OSError as exc:
        raise StorageFailure(f"cannot read snapshot {path}: {exc}") from exc

    if not header.endswith(b"\n"):
        raise CorruptSnapshot(f"{path}: missing header line")
    fields = header[:-1].decode("ascii", errors="replace").split(" ")
    if len(fields) != 4 or fields[0] != MAGIC:
        raise CorruptSnapshot(f"{path}: bad magic or malformed header")
    try:
        version = int(fields[1])
        count = int(fields[2])
        crc_expect = int(fields[3], 16)
    except ValueError as exc:
        raise CorruptSnapshot(f"{path}: malformed header fields") from exc
    if version != FORMAT_VERSION:
        raise CorruptSnapshot(f"{path}: unsupported format version {version}")

    if zlib.crc32(body) != crc_expect:
        raise CorruptSnapshot(f"{path}: checksum mismatch")
    lines = body.splitlines(keepends=True)
    if len(lines) != count:
        raise CorruptSnapshot(f"{path}: header claims {count} records, found {len(lines)}")
    return lines


def parse_line(path: str, index: int, line: bytes) -> dict:
    """Parse the record at index (from 0) of path's lines; errors name its file line."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise CorruptSnapshot(f"{path}: invalid JSON on line {index + 2}") from exc
    if not isinstance(record, dict):
        raise CorruptSnapshot(f"{path}: record on line {index + 2} is not an object")
    return record
