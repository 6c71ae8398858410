"""Trace persistence — the SLOG-file analogue.

The paper's instrumented MPICH writes MPE logs to disk for later
Jumpshot analysis; this module does the same for :class:`TraceLog`,
using a line-oriented CSV that diffs well and loads fast.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path
from typing import Iterator, Union

from repro.trace.events import TraceEvent, TraceLog

__all__ = ["save_trace", "load_trace", "trace_to_csv", "trace_from_csv"]

_FIELDS = ("rank", "op", "t_begin", "t_end", "nbytes", "peer")


def trace_to_csv(log: TraceLog) -> str:
    """Render a trace log as CSV text (header + one row per event)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_FIELDS)
    for e in log:
        writer.writerow(
            [e.rank, e.op, repr(e.t_begin), repr(e.t_end), repr(e.nbytes), e.peer]
        )
    return buffer.getvalue()


def _lines(text: str) -> Iterator[str]:
    """``text`` split after each ``\\n``, as ``io.StringIO`` iterates it,
    without the 4-byte-per-character copy a ``StringIO`` buffer holds."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start) + 1 or size
        yield text[start:end]
        start = end


def trace_from_csv(text: str) -> TraceLog:
    """Parse CSV text produced by :func:`trace_to_csv`.

    Every defect raises ``ValueError``: a wrong header, a row of the
    wrong width or with a non-numeric field, an event that ends before
    it begins (which :meth:`TraceLog.record` would refuse), and text
    the CSV reader rejects (e.g. a bare ``\\r`` in an unquoted field).
    The measurement cache relies on this to evict a corrupt entry.
    """
    reader = csv.reader(_lines(text))
    log = TraceLog()
    append = log.events.append
    try:
        header = next(reader, None)
        if header is None or tuple(header) != _FIELDS:
            raise ValueError(f"not a trace CSV (header {header!r})")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rank, op, t0, t1, nbytes, peer = row
                t_begin = float(t0)
                t_end = float(t1)
                fields = (
                    int(rank), op, t_begin, t_end, float(nbytes), int(peer)
                )
            except ValueError:
                raise ValueError(
                    f"malformed trace row at line {lineno}: {row!r}"
                ) from None
            if t_end < t_begin:
                raise ValueError(
                    f"trace event at line {lineno} ends before it begins: "
                    f"{row!r}"
                )
            append(tuple.__new__(TraceEvent, fields))
    except csv.Error as exc:
        raise ValueError(f"not a trace CSV ({exc})") from None
    return log


def save_trace(log: TraceLog, path: Union[str, Path]) -> Path:
    """Write a trace log to ``path`` (parent dirs created)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(trace_to_csv(log))
    return path


def load_trace(path: Union[str, Path]) -> TraceLog:
    """Read a trace log written by :func:`save_trace`."""
    return trace_from_csv(Path(path).read_text())
