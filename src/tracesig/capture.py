"""Activity-capture log parsing and trace-name extraction.

Capture logs are process-monitor style CSV exports with the columns Time,
Process Name, PID, Operation, Path, Result, Detail; each row is read to its
process name and path.  The functions here reproduce the noise-reduction
pipeline used to find candidate traces for a user action: filter the log to
the processes of interest, collapse it to the set of distinct path names, and
intersect those sets across repeated runs of the action.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .evidence import _BLOCK_ROWS, fold_path, int_cell, read_csv, read_csv_rows

__all__ = [
    "CaptureFormatError",
    "TraceNameSet",
    "filter_by_process",
    "intersect_runs",
    "parse_capture",
    "unique_traces",
]


class CaptureFormatError(ValueError):
    """Capture text that does not conform to the capture CSV format."""


# One monitored operation: the process name and the path it touched.
Event = tuple[str, str]


@dataclass(frozen=True)
class TraceNameSet:
    """Case-folded trace names; iteration is sorted for stable output."""

    names: frozenset[str]

    @classmethod
    def of(cls, names: Iterable[str]) -> "TraceNameSet":
        return cls(frozenset(fold_path(n) for n in names))

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self.names))

    def __len__(self) -> int:
        return len(self.names)


# One row of a block of rows joined by "\n", as ``parse_capture`` scans it
# without the csv reader.  A plain row gives its process name and path cells:
# at least seven cells, a non-empty process name and path, and a PID in at
# most 18 ASCII digits, which ``int`` reads whatever its digit limit.  Any
# other row gives an empty process name.  The cells up to the result cell are
# the one-character class ``[^,]`` and the rest of the row is ``.*``, which
# ``re`` runs about two and eight times as fast as a set of several
# characters; so the scan leaves to ``parse_capture`` what a plain row also
# lacks: a quote or NUL, a cell longer than the csv reader allows, and a line
# break, across which a match may run.  Each cell's bound keeps such a match
# short: without them a block of lines with no comma took time in the square
# of its length.
_CELL_LIMIT = 131_072  # the csv reader's largest cell
_CELL = rf"[^,]{{0,{_CELL_LIMIT}}}"
_PLAIN_EVENT = re.compile(
    rf"^(?:{_CELL},([^,]{{1,{_CELL_LIMIT}}}),\d{{1,18}},{_CELL},([^,]{{1,{_CELL_LIMIT}}}),"
    rf"{_CELL},.*|.*)$",
    re.ASCII | re.MULTILINE,
)


def parse_capture(text: str) -> tuple[Event, ...]:
    """Parse capture CSV text into (process name, path) pairs, in log order.

    An optional first header row is recognized by the literal cell
    ``Process Name`` and skipped.  Rows need at least the seven standard
    columns; extra trailing columns are ignored.  A row's process name and
    path must be non-empty and its PID an integer; the time, operation,
    result and detail cells are not read.  Quoted cells may contain commas,
    with embedded quotes doubled; a row is one line (see ``read_csv``).

    Rows are read by one regex scan per block of rows.  Per block, one ``in``
    looks for a quote or NUL and one pass over the row lengths for a row
    longer than the csv reader's largest cell; a block holding either, or one
    the scan does not pass whole, goes through ``read_csv_rows``, so every
    refusal is the one ``read_csv`` gives over the whole text.  The scan
    passes a block whole when it gives one match per row, so none ran across
    a line break, and every row is plain.  A block, not a row: an export may
    quote most rows (the bundled fixture quotes 28 of 40), and the csv reader
    reads a block at once faster than row by row.
    """
    lines = text.splitlines()
    header = read_csv(lines[:1], list, CaptureFormatError)
    skip = 1 if header and "Process Name" in header[0] else 0
    rows = lines[skip:]
    events = []
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        joined = "\n".join(block)
        scannable = (
            '"' not in joined and "\x00" not in joined and max(map(len, block)) <= _CELL_LIMIT
        )
        scanned = _PLAIN_EVENT.findall(joined) if scannable else []
        if len(scanned) == len(block) and all(process for process, _path in scanned):
            events += scanned
        else:
            stop = start + len(block)
            events += read_csv_rows(rows, start, stop, _parse_event, CaptureFormatError, skip + 1)
    return tuple(events)


def _parse_event(row: list[str]) -> Event:
    if len(row) < 7:
        raise ValueError(f"row has {len(row)} columns, expected at least 7")
    process_name, pid, path = row[1], row[2], row[4]
    int_cell(pid, "PID")
    if not process_name:
        raise ValueError("capture event needs a process name")
    if not path:
        raise ValueError("capture event needs a path")
    return process_name, path


def filter_by_process(log: Iterable[Event], processes: Iterable[str]) -> tuple[Event, ...]:
    """Keep only events from the named processes (case-insensitive)."""
    wanted = {fold_path(p) for p in processes}
    if not wanted:
        raise ValueError("at least one process name is required")
    log = tuple(log)
    kept = {name for name in {e[0] for e in log} if fold_path(name) in wanted}
    return tuple(e for e in log if e[0] in kept)


def unique_traces(log: Iterable[Event]) -> TraceNameSet:
    """The distinct path names a log touches, case-folded."""
    return TraceNameSet.of({path for _process, path in log})


def intersect_runs(runs: Sequence[TraceNameSet]) -> TraceNameSet:
    """Names common to every run; paths touched only sometimes drop out."""
    if not runs:
        raise ValueError("at least one run is required")
    return TraceNameSet(reduce(lambda a, b: a & b, (r.names for r in runs)))
