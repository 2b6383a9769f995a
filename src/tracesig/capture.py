"""Activity-capture log parsing and trace-name extraction.

Capture logs are process-monitor style CSV exports with the columns Time,
Process Name, PID, Operation, Path, Result, Detail.  The functions here
reproduce the noise-reduction pipeline used to find candidate traces for a
user action: filter the log to the processes of interest, collapse it to the
set of distinct path names, and intersect those sets across repeated runs of
the action.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Iterator, Sequence

from .evidence import fold_path

__all__ = [
    "CaptureEvent",
    "CaptureFormatError",
    "TraceNameSet",
    "filter_by_process",
    "intersect_runs",
    "parse_capture",
    "unique_traces",
]


class CaptureFormatError(ValueError):
    """Capture text that does not conform to the capture CSV format."""


@dataclass(frozen=True)
class CaptureEvent:
    """One monitored operation: which process touched which path."""

    time_of_day: str
    process_name: str
    pid: int
    operation: str
    path: str
    result: str
    detail: str

    def __post_init__(self) -> None:
        if not self.process_name:
            raise ValueError("capture event needs a process name")
        if not self.path:
            raise ValueError("capture event needs a path")


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

    def __contains__(self, name: str) -> bool:
        return fold_path(name) in self.names


def parse_capture(text: str) -> tuple[CaptureEvent, ...]:
    """Parse capture CSV text into its events, in log order.

    An optional first header row is recognized by the literal cell
    ``Process Name`` and skipped.  Rows need at least the seven standard
    columns; extra trailing columns are ignored.  Quoted cells may contain
    commas, with embedded quotes doubled.
    """
    rows = csv.reader(text.splitlines(), strict=True)
    events = []
    try:
        for row in rows:
            if rows.line_num == 1 and "Process Name" in row:
                continue
            if len(row) < 7:
                raise CaptureFormatError(
                    f"line {rows.line_num}: row has {len(row)} columns, expected at least 7"
                )
            time_of_day, process_name, pid_text, operation, path, result, detail = row[:7]
            try:
                pid = int(pid_text)
            except ValueError:
                raise CaptureFormatError(
                    f"line {rows.line_num}: PID must be an integer, got {pid_text!r}"
                )
            try:
                events.append(
                    CaptureEvent(time_of_day, process_name, pid, operation, path, result, detail)
                )
            except ValueError as exc:
                raise CaptureFormatError(f"line {rows.line_num}: {exc}")
    except csv.Error as exc:
        raise CaptureFormatError(f"unbalanced quotes near line {rows.line_num}: {exc}")
    return tuple(events)


def filter_by_process(
    log: Iterable[CaptureEvent], processes: Iterable[str]
) -> tuple[CaptureEvent, ...]:
    """Keep only events from the named processes (case-insensitive)."""
    wanted = {fold_path(p) for p in processes}
    if not wanted:
        raise ValueError("at least one process name is required")
    return tuple(e for e in log if fold_path(e.process_name) in wanted)


def unique_traces(log: Iterable[CaptureEvent]) -> TraceNameSet:
    """The distinct path names a log touches, case-folded."""
    return TraceNameSet.of(e.path for e in log)


def intersect_runs(runs: Sequence[TraceNameSet]) -> TraceNameSet:
    """Names common to every run; paths touched only sometimes drop out."""
    if not runs:
        raise ValueError("at least one run is required")
    return TraceNameSet(reduce(lambda a, b: a & b, (r.names for r in runs)))
