"""Update-behavior classification across repeated runs of an action.

Given before/after snapshot pairs for several runs, ``build_update_matrix``
reduces each candidate trace to boolean vectors saying whether each timestamp
field changed on each run.  ``classify_field`` names the per-field pattern
and ``classify_trace`` maps the combination onto a trace category:

    AU1  modified and accessed always update, created never (plain files)
    AU2  like AU1 but created updates irregularly (caches, cookies)
    AU3  only accessed always updates
    AU4  registry key whose write time always updates
    AU5  only modified always updates
    FRO  updates on the first run of each session only
    UB   shortcut updated when used to launch the action
    IU   irregular updates; corroborating value only
    IUI  first run of each session plus irregular repeats (cookie behavior)

A trace also updated by unrelated background activity is confounded: still
real evidence, but useless for pinning the action, so it is excluded from
signature cores and kept as supporting data.
"""

from __future__ import annotations

import csv
import io
import logging
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .evidence import (
    FIELDS,
    ArtifactRecord,
    RecordKind,
    Snapshot,
    fold_path,
    parse_snapshot,
    save_snapshot,
)
from .capture import TraceNameSet

__all__ = [
    "CategoryLabel",
    "FieldPattern",
    "RunInfo",
    "RunObservation",
    "TraceAnalysis",
    "TraceCategory",
    "UpdateMatrix",
    "build_update_matrix",
    "categorize_matrix",
    "classify_field",
    "classify_trace",
    "read_observations",
    "write_observations",
]

logger = logging.getLogger(__name__)


class FieldPattern(Enum):
    ALWAYS = "Always"
    NEVER = "Never"
    FIRST_RUN_ONLY = "FirstRunOnly"
    IRREGULAR = "Irregular"
    USAGE_BASED = "UsageBased"


class CategoryLabel(Enum):
    AU1 = "AU1"
    AU2 = "AU2"
    AU3 = "AU3"
    AU4 = "AU4"
    AU5 = "AU5"
    FRO = "FRO"
    UB = "UB"
    IU = "IU"
    IUI = "IUI"
    NEVER = "Never"


_ALWAYS = frozenset(
    {CategoryLabel.AU1, CategoryLabel.AU2, CategoryLabel.AU3, CategoryLabel.AU4, CategoryLabel.AU5}
)


@dataclass(frozen=True)
class TraceCategory:
    label: CategoryLabel
    confounded: bool = False

    @property
    def is_always(self) -> bool:
        return self.label in _ALWAYS


@dataclass(frozen=True)
class RunInfo:
    """The per-run facts classification needs, detached from the snapshots."""

    session_id: int
    first_of_session: bool
    launch_method: str | None = None


@dataclass(frozen=True)
class RunObservation:
    """One run of the action: its context plus the before/after snapshots."""

    run_index: int
    session_id: int
    first_of_session: bool
    launch_method: str | None
    before: Snapshot
    after: Snapshot


@dataclass(frozen=True)
class UpdateMatrix:
    """Boolean update vectors per trace and field, plus per-run context.

    ``vectors`` maps each folded trace name to its ``{field: vector}`` dict,
    fields in ``FIELDS`` order; every vector has one entry per run.  Traces
    never seen in any snapshot are omitted.
    """

    runs: tuple[RunInfo, ...]
    vectors: Mapping[str, Mapping[str, tuple[bool, ...]]]
    kinds: Mapping[str, RecordKind]
    display: Mapping[str, str]

    @property
    def run_count(self) -> int:
        return len(self.runs)

    def traces(self) -> list[str]:
        return sorted(self.kinds)

    def vector(self, trace: str, field: str) -> tuple[bool, ...]:
        return self.vectors[fold_path(trace)][field]

    def any_update(self, trace: str) -> bool:
        return any(any(vec) for vec in self.vectors.get(fold_path(trace), {}).values())


def _field_updated(
    before: ArtifactRecord | None, after: ArtifactRecord | None, field: str
) -> bool:
    after_point = after.timestamp(field) if after is not None else None
    if after_point is None:
        return False
    before_point = before.timestamp(field) if before is not None else None
    if before_point is None:
        return True  # appeared; creation counts as an update
    return before_point != after_point


def _lookup(snap: Snapshot, folded: str) -> ArtifactRecord | None:
    rec = snap.records.get((RecordKind.FILE, folded))
    if rec is None:
        rec = snap.records.get((RecordKind.REGKEY, folded))
    return rec


def build_update_matrix(obs: Sequence[RunObservation], names: TraceNameSet) -> UpdateMatrix:
    """Diff each run's snapshot pair into per-trace, per-field update vectors."""
    if not obs:
        raise ValueError("at least one run observation is required")
    ordered = sorted(obs, key=lambda o: o.run_index)
    if [o.run_index for o in ordered] != list(range(len(ordered))):
        raise ValueError("run indexes must be exactly 0..n-1")
    meta0 = ordered[0].before.meta
    for o in ordered:
        if o.before.meta != meta0 or o.after.meta != meta0:
            raise ValueError("observations use inconsistent snapshot metadata")
    firsts: dict[int, int] = {}
    for o in ordered:
        firsts.setdefault(o.session_id, o.run_index)
    for o in ordered:
        if o.first_of_session != (firsts[o.session_id] == o.run_index):
            raise ValueError(
                f"run {o.run_index} first_of_session flag contradicts the session order"
            )

    runs = tuple(RunInfo(o.session_id, o.first_of_session, o.launch_method) for o in ordered)
    vectors: dict[str, dict[str, tuple[bool, ...]]] = {}
    kinds: dict[str, RecordKind] = {}
    display: dict[str, str] = {}

    for name in names:
        pairs = [(_lookup(o.before, name), _lookup(o.after, name)) for o in ordered]
        seen = [r for pair in pairs for r in pair if r is not None]
        if not seen:
            continue  # never present in any snapshot
        kinds[name] = seen[0].kind
        display[name] = seen[0].path
        vectors[name] = {
            f: tuple(_field_updated(b, a, f) for b, a in pairs)
            for f in FIELDS
            if any(r.timestamp(f) is not None for r in seen)
        }
    return UpdateMatrix(runs=runs, vectors=vectors, kinds=kinds, display=display)


def classify_field(
    vector: Sequence[bool],
    runs: Sequence[RunInfo],
    trace_path: str | None = None,
) -> FieldPattern:
    """Name the update pattern of one field across runs.

    Always and Never are the exact cases.  FirstRunOnly means the field
    updated on exactly the first run of every session.  UsageBased means every
    update happened on a run launched through this very path (shortcut
    behavior), which requires the trace path to check.  Anything else is
    Irregular.
    """
    if len(vector) != len(runs):
        raise ValueError("vector length must equal the number of runs")
    if all(vector):
        return FieldPattern.ALWAYS
    if not any(vector):
        return FieldPattern.NEVER
    if all(v == r.first_of_session for v, r in zip(vector, runs)):
        return FieldPattern.FIRST_RUN_ONLY
    if trace_path is not None:
        folded = fold_path(trace_path)
        if all(
            r.launch_method is not None and fold_path(r.launch_method) == folded
            for v, r in zip(vector, runs)
            if v
        ):
            return FieldPattern.USAGE_BASED
    return FieldPattern.IRREGULAR


def classify_trace(
    trace: str,
    patterns: Mapping[str, FieldPattern],
    kind: RecordKind,
    background_updates: bool,
    *,
    accessed_vector: Sequence[bool] | None = None,
    runs: Sequence[RunInfo] | None = None,
) -> TraceCategory:
    """Map per-field patterns onto a trace category.

    Combinations outside the known lattice degrade to IU with a logged
    diagnostic; noisy real-world data must never abort an analysis.  The
    accessed vector and run contexts, when provided, let the cookie-style
    IUI refinement of IU fire.
    """
    m = patterns.get("modified", FieldPattern.NEVER)
    a = patterns.get("accessed", FieldPattern.NEVER)
    c = patterns.get("created", FieldPattern.NEVER)

    def cat(label: CategoryLabel) -> TraceCategory:
        return TraceCategory(label, confounded=background_updates)

    if kind is RecordKind.REGKEY:
        if m is FieldPattern.ALWAYS:
            return cat(CategoryLabel.AU4)
        if m is FieldPattern.FIRST_RUN_ONLY:
            return cat(CategoryLabel.FRO)
        if m is FieldPattern.NEVER:
            return cat(CategoryLabel.NEVER)
        if m is FieldPattern.IRREGULAR:
            return cat(CategoryLabel.IU)
        logger.warning(
            "registry trace %r has pattern %s outside the category lattice; treating as IU",
            trace,
            m.value,
        )
        return cat(CategoryLabel.IU)

    if m is FieldPattern.ALWAYS and a is FieldPattern.ALWAYS and c is FieldPattern.NEVER:
        return cat(CategoryLabel.AU1)
    if m is FieldPattern.ALWAYS and a is FieldPattern.ALWAYS and c is FieldPattern.IRREGULAR:
        return cat(CategoryLabel.AU2)
    if a is FieldPattern.ALWAYS and m is FieldPattern.NEVER and c is FieldPattern.NEVER:
        return cat(CategoryLabel.AU3)
    if m is FieldPattern.ALWAYS and a is FieldPattern.NEVER and c is FieldPattern.NEVER:
        return cat(CategoryLabel.AU5)
    trio = (m, a, c)
    if any(p is FieldPattern.FIRST_RUN_ONLY for p in trio) and all(
        p in (FieldPattern.FIRST_RUN_ONLY, FieldPattern.NEVER) for p in trio
    ):
        return cat(CategoryLabel.FRO)
    if fold_path(trace).endswith(".lnk") and a is FieldPattern.USAGE_BASED:
        return cat(CategoryLabel.UB)
    if a is FieldPattern.IRREGULAR and m is FieldPattern.NEVER and c is FieldPattern.NEVER:
        if (
            accessed_vector is not None
            and runs is not None
            and any(r.first_of_session for r in runs)
            and all(v for v, r in zip(accessed_vector, runs) if r.first_of_session)
        ):
            return cat(CategoryLabel.IUI)
        return cat(CategoryLabel.IU)
    if all(p is FieldPattern.NEVER for p in trio):
        return cat(CategoryLabel.NEVER)
    logger.warning(
        "trace %r has pattern combination outside the category lattice "
        "(modified=%s accessed=%s created=%s); treating as IU",
        trace,
        m.value,
        a.value,
        c.value,
    )
    return cat(CategoryLabel.IU)


@dataclass(frozen=True)
class TraceAnalysis:
    category: TraceCategory
    patterns: Mapping[str, FieldPattern]


def categorize_matrix(
    action: UpdateMatrix, background: UpdateMatrix | None = None
) -> dict[str, TraceAnalysis]:
    """Classify every trace in an action matrix, marking confounded ones."""
    out: dict[str, TraceAnalysis] = {}
    for trace in action.traces():
        vectors = action.vectors[trace]
        display = action.display[trace]
        patterns = {
            f: classify_field(vec, action.runs, trace_path=display) for f, vec in vectors.items()
        }
        background_updates = background.any_update(trace) if background is not None else False
        category = classify_trace(
            trace,
            patterns,
            action.kinds[trace],
            background_updates,
            accessed_vector=vectors.get("accessed"),
            runs=action.runs,
        )
        out[trace] = TraceAnalysis(category=category, patterns=patterns)
    return out


# --- run-observation storage ----------------------------------------------

_RUN_FILE = re.compile(r"run(\d{3})_(before|after)\.csv$")
_SESSIONS_HEADER = ["run", "session", "launch_method"]


def read_observations(directory: str | Path) -> list[RunObservation]:
    """Load an observation directory.

    Layout: ``runNNN_before.csv`` and ``runNNN_after.csv`` snapshot pairs plus
    a ``sessions.csv`` with columns run, session, launch_method (empty launch
    cell means the launch method was not recorded).
    """
    directory = Path(directory)
    pairs: dict[int, dict[str, Path]] = {}
    for entry in directory.iterdir():
        match = _RUN_FILE.fullmatch(entry.name)
        if match:
            pairs.setdefault(int(match.group(1)), {})[match.group(2)] = entry
    if not pairs:
        raise ValueError(f"no runNNN_before/after.csv pairs in {directory}")
    for idx, sides in sorted(pairs.items()):
        if set(sides) != {"before", "after"}:
            raise ValueError(f"run {idx:03d} is missing its {'after' if 'before' in sides else 'before'} snapshot")
    if sorted(pairs) != list(range(len(pairs))):
        raise ValueError("run numbers must be contiguous from 000")

    sessions_file = directory / "sessions.csv"
    if not sessions_file.exists():
        raise ValueError(f"missing sessions.csv in {directory}")
    rows = list(csv.reader(sessions_file.read_text(encoding="utf-8").splitlines()))
    if not rows or rows[0] != _SESSIONS_HEADER:
        raise ValueError("sessions.csv must start with the header run,session,launch_method")
    session_of: dict[int, int] = {}
    launch_of: dict[int, str | None] = {}
    for row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"sessions.csv row has {len(row)} columns, expected 3")
        run = int(row[0])
        session_of[run] = int(row[1])
        launch_of[run] = row[2] or None
    if set(session_of) != set(pairs):
        raise ValueError("sessions.csv rows do not match the run files")

    firsts: dict[int, int] = {}
    for run in sorted(pairs):
        firsts.setdefault(session_of[run], run)
    observations = []
    for run in sorted(pairs):
        before = parse_snapshot(pairs[run]["before"].read_text(encoding="utf-8"))
        after = parse_snapshot(pairs[run]["after"].read_text(encoding="utf-8"))
        observations.append(
            RunObservation(
                run_index=run,
                session_id=session_of[run],
                first_of_session=(firsts[session_of[run]] == run),
                launch_method=launch_of[run],
                before=before,
                after=after,
            )
        )
    return observations


def write_observations(directory: str | Path, obs: Iterable[RunObservation]) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_SESSIONS_HEADER)
    for o in sorted(obs, key=lambda o: o.run_index):
        name = f"run{o.run_index:03d}"
        (directory / f"{name}_before.csv").write_text(save_snapshot(o.before), encoding="utf-8")
        (directory / f"{name}_after.csv").write_text(save_snapshot(o.after), encoding="utf-8")
        writer.writerow([o.run_index, o.session_id, o.launch_method or ""])
    (directory / "sessions.csv").write_text(buffer.getvalue(), encoding="utf-8")
