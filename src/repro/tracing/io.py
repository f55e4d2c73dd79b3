"""Line-oriented trace serialization.

The live SEER system logged traces to disk for later replay into the
correlator's simulation mode (section 5.1.2).  This module provides the
equivalent: a compact tab-separated text format, one record per line,
that round-trips every :class:`~repro.tracing.events.TraceRecord` field.
"""

from __future__ import annotations

import zlib
from typing import IO, Iterable, Iterator, List

from repro.tracing.events import Operation, TraceRecord

_HEADER = "#seer-trace-v1"
_FIELDS = ("seq", "time", "pid", "op", "path", "path2", "ok", "uid",
           "program", "ppid", "fd", "entries")


def _escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n")


def _unescape(text: str) -> str:
    out: List[str] = []
    index = 0
    while index < len(text):
        char = text[index]
        if char == "\\" and index + 1 < len(text):
            nxt = text[index + 1]
            out.append({"t": "\t", "n": "\n", "\\": "\\"}.get(nxt, nxt))
            index += 2
        else:
            out.append(char)
            index += 1
    return "".join(out)


def format_record(record: TraceRecord) -> str:
    """Render one record as a tab-separated line."""
    return "\t".join([
        str(record.seq),
        f"{record.time:.6f}",
        str(record.pid),
        record.op.value,
        _escape(record.path),
        _escape(record.path2),
        "1" if record.ok else "0",
        str(record.uid),
        _escape(record.program),
        str(record.ppid),
        str(record.fd),
        str(record.entries),
    ])


def parse_record(line: str) -> TraceRecord:
    """Parse one line produced by :func:`format_record`."""
    parts = line.rstrip("\n").split("\t")
    if len(parts) != len(_FIELDS):
        raise ValueError(f"malformed trace line ({len(parts)} fields): {line!r}")
    return TraceRecord(
        seq=int(parts[0]),
        time=float(parts[1]),
        pid=int(parts[2]),
        op=Operation(parts[3]),
        path=_unescape(parts[4]),
        path2=_unescape(parts[5]),
        ok=parts[6] == "1",
        uid=int(parts[7]),
        program=_unescape(parts[8]),
        ppid=int(parts[9]),
        fd=int(parts[10]),
        entries=int(parts[11]),
    )


def write_trace(records: Iterable[TraceRecord], stream: IO[str]) -> int:
    """Write *records* to *stream*; returns the number written."""
    stream.write(_HEADER + "\n")
    count = 0
    for record in records:
        stream.write(format_record(record) + "\n")
        count += 1
    return count


def read_trace(stream: IO[str]) -> Iterator[TraceRecord]:
    """Yield records from a stream written by :func:`write_trace`."""
    first = stream.readline()
    if first.strip() != _HEADER:
        raise ValueError(f"not a seer trace (bad header {first!r})")
    for line in stream:
        if line.strip() and not line.startswith("#"):
            yield parse_record(line)


def _open_for(path: str, mode: str) -> IO[str]:
    """Open *path* for text I/O, transparently gzipped for ``.gz``.

    Months of traces compress extremely well (the live system logged
    to disk continuously), so compressed trace files are first-class.
    """
    if path.endswith(".gz"):
        import gzip
        return gzip.open(path, mode + "t", encoding="utf-8")
    return open(path, mode, encoding="utf-8")


def write_trace_file(records: Iterable[TraceRecord], path: str) -> int:
    """Write *records* to the file at *path* (gzipped if ``.gz``)."""
    with _open_for(path, "w") as stream:
        return write_trace(records, stream)


def read_trace_file(path: str) -> List[TraceRecord]:
    """Read all records from the file at *path* (gzipped if ``.gz``).

    A truncated or corrupt gzip stream raises ``ValueError``, as a
    malformed line does.
    """
    with _open_for(path, "r") as stream:
        try:
            return list(read_trace(stream))
        except (EOFError, zlib.error) as error:
            raise ValueError(f"damaged gzip stream: {error}") from None
