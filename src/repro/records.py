"""One durable record log: checked frames, appends, whole-file replaces.

A record log is a magic line, then one frame per record: ``>III`` (the
body's length, the CRC32 of the length's bytes, the CRC32 of the body)
and the body, the record's compact JSON.  :func:`read` drops only a
final frame the file ends inside of, the residue of a crash mid-append;
any other damage raises :class:`RecordError`.  A file whose first byte
is ``{`` is an NDJSON log, as journals and event logs were written
before the frames, and is read under the same rule line by line.
DESIGN.md 4m lists every caller and its ``fsync`` choice.
"""

from __future__ import annotations

import json
import os
import struct
import tempfile
import zlib
from contextlib import suppress
from typing import List, NamedTuple, Optional

_FRAME = struct.Struct(">III")
_LENGTH = struct.Struct(">I")


class RecordError(ValueError):
    """Damage at byte *offset* of *path* (``None``: a whole file)."""

    def __init__(self, path: str, offset: Optional[int], what: str):
        where = "" if offset is None else f" at byte {offset}"
        super().__init__(f"{path}: {what}{where}")
        self.offset, self.what = offset, what


class Log(NamedTuple):
    records: List[object]
    torn: bool    # a torn final frame (or line) was dropped
    ndjson: bool  # an NDJSON log, not a framed one


def encode(value: object) -> bytes:
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def frame(record: object) -> bytes:
    body = encode(record)
    return (_FRAME.pack(len(body), zlib.crc32(_LENGTH.pack(len(body))),
                        zlib.crc32(body)) + body)


def append(path: str, magic: bytes, record: object, *, fsync: bool) -> None:
    """Append *record* in one write, after *magic* if the file is empty."""
    data = frame(record)
    with open(path, "ab") as handle:
        handle.write(data if handle.tell() else magic + data)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def read(path: str, magic: bytes, count: Optional[int] = None) -> Log:
    """The complete records of the log at *path* (the first *count*)."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data[:1] == b"{":
        return _read_lines(path, data)
    if not data.startswith(magic):
        if magic.startswith(data):  # empty, or torn inside the magic
            return Log([], bool(data), False)
        raise RecordError(path, 0, "no record-log magic")
    records: List[object] = []
    offset, size = len(magic), len(data)
    while offset + _FRAME.size <= size and len(records) != count:
        length, length_crc, body_crc = _FRAME.unpack_from(data, offset)
        if zlib.crc32(_LENGTH.pack(length)) != length_crc:
            raise RecordError(path, offset, "damaged frame length")
        start = offset + _FRAME.size
        if start + length > size:
            break
        body = data[start:start + length]
        if zlib.crc32(body) != body_crc:
            raise RecordError(path, offset, "checksum mismatch in the frame")
        try:
            records.append(json.loads(body))
        except ValueError:  # UnicodeDecodeError included
            raise RecordError(path, offset, "undecodable frame") from None
        offset = start + length
    return Log(records, offset < size and len(records) != count, False)


def _read_lines(path: str, data: bytes) -> Log:
    *lines, last = data.split(b"\n")
    records: List[object] = []
    offset = 0
    for line in lines:
        try:
            records.append(json.loads(line))
        except ValueError:
            raise RecordError(path, offset, "malformed line") from None
        offset += len(line) + 1
    try:
        return Log(records + ([json.loads(last)] if last else []), False, True)
    except ValueError:
        return Log(records, True, True)


def atomic_replace(path: str, data: bytes, *, fsync: bool) -> None:
    """Make *data* the content of *path* through a temp file renamed over
    it: a reader, or a crash, sees the old file or the new one."""
    directory, name = os.path.split(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp",
                                    dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp_path)
        raise
