"""Update-behavior classification across repeated runs of an action.

Given before/after snapshot pairs for several runs, ``build_update_matrix``
reduces each candidate trace to boolean vectors saying whether each timestamp
field changed on each run; ``build_update_matrices`` does so for several sets
of runs in one pass.  ``classify_field`` names the per-field pattern
and ``category_of`` maps the combination onto a trace category and the
timestamp field that carries it, the one place the category lattice is
written down:

    label  field           update behaviour
    AU1    modified        modified and accessed always, created never (files)
    AU2    modified        like AU1, created irregularly (caches, cookies)
    AU3    accessed        only accessed always updates
    AU4    modified        a registry key whose write time always updates
    AU5    modified        only modified always updates
    FRO    first-run field first run of each session only; the rest never
    UB     accessed        a .lnk whose accessed time shows it launched the action
    IU     first changing  every changing field is Irregular; corroboration only
    IUI    accessed        accessed-only IU that fired on every session's first run

A registry key goes by its write time alone.  A trace that never updates is
Never; any other combination is off the lattice, which ``classify_trace``
treats as IU on its first changing field and the simulator refuses to plant.

A trace also updated by unrelated background activity is confounded: still
real evidence, but useless for pinning the action, so it is excluded from
signature cores and kept as supporting data.
"""

from __future__ import annotations

import csv
import functools
import io
import logging
import re
from dataclasses import dataclass, field as dc_field
from enum import Enum
from itertools import chain, compress, repeat
from operator import and_, attrgetter, eq, is_not, ne, truth
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .evidence import (
    FIELDS,
    KIND_FIELDS,
    RecordKind,
    Snapshot,
    SnapshotFormatError,
    SnapshotMeta,
    decode_utf8,
    fold_path,
    int_cell,
    parse_snapshot,
    read_csv,
    read_utf8,
    reraise_as,
    save_snapshot,
    time_keys,
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
    "build_update_matrices",
    "categorize_matrix",
    "category_of",
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
    def in_core(self) -> bool:
        """Whether the trace may serve in a signature's core: the action
        always updates it (AU1-AU5) and background activity never does."""
        return self.label in _ALWAYS and not self.confounded


@dataclass(frozen=True)
class RunInfo:
    """The per-run facts classification needs, detached from the snapshots."""

    session_id: int
    first_of_session: bool
    launch_method: str | None = None


@dataclass(frozen=True)
class RunObservation:
    """One run of the action: its context plus the before/after snapshots,
    each a ``Snapshot`` or the run file that holds it (``read_observations``
    gives files, which ``build_update_matrices`` parses)."""

    run_index: int
    session_id: int
    launch_method: str | None
    before: Snapshot | Path
    after: Snapshot | Path


@dataclass(frozen=True)
class UpdateMatrix:
    """Boolean update vectors per trace and field, plus per-run context.

    ``vectors`` maps each folded trace name to its ``{field: vector}`` dict,
    fields in ``FIELDS`` order; every vector has one entry per run.  Traces
    never seen in any snapshot are omitted.  ``meta`` is the metadata of the
    before snapshot of run 0, which every run's snapshots share but for the
    capture time; it takes no part in comparisons.
    """

    runs: tuple[RunInfo, ...]
    vectors: Mapping[str, Mapping[str, tuple[bool, ...]]]
    kinds: Mapping[str, RecordKind]
    display: Mapping[str, str]
    meta: SnapshotMeta = dc_field(compare=False, repr=False)

    def traces(self) -> list[str]:
        return sorted(self.kinds)

    def any_update(self, trace: str) -> bool:
        """Whether the folded trace name ``trace`` updated in any field on any run."""
        return any(map(any, self.vectors.get(trace, {}).values()))


def build_update_matrix(
    obs: Sequence[RunObservation], names: TraceNameSet | None = None
) -> UpdateMatrix:
    """The update matrix of one set of runs: ``build_update_matrices([obs],
    names)[0]``."""
    return build_update_matrices([obs], names)[0]


def build_update_matrices(
    groups: Sequence[Sequence[RunObservation]], names: TraceNameSet | None = None
) -> list[UpdateMatrix]:
    """Diff each group's snapshot pairs into per-trace, per-field update
    vectors, one matrix per group (``derive`` passes the action runs and the
    background runs).  Without ``names``, the names are every name the first
    group's snapshots hold.

    A field updated on a run when the after snapshot carries its time and the
    before snapshot does not (the trace appeared), or carries another time
    text or precision.  One snapshot is alive at a time: the snapshots are
    keyed group by group, in run order, before then after, each once, and
    what is kept of each is its columns: per field each name's key, and each
    name's path, the key and path it had in the snapshot keyed before
    wherever the name holds the same value there (see ``_KeyColumns``).  A
    run file is read and parsed unless a file with the same bytes was, and
    its snapshot is dropped before the next file is read; a side given as a
    ``Snapshot`` is keyed once per object.  Then, per group, run and field,
    the update column is true where the after key is set and differs from
    the before key, and per field it is known whether any of the group's
    snapshots sets it.  Only the ``{field: vector}`` dict of each name,
    carried fields in ``FIELDS`` order, is built name by name; equal vectors
    share one tuple.  A group's ``kinds`` and ``display`` come from the first
    of its snapshots whose path column holds the name, the before snapshot
    of its run 0 first, and its ``meta`` is that before snapshot's.

    A run is the first of its session when no lower run index shares its
    session id.  Once every file is parsed, so that the first malformed one
    in run order is the one named, each group is checked: its run indexes
    must be exactly 0..n-1, and its snapshots must describe the same system,
    only their capture times differing.
    """
    ordered = []
    for obs in groups:
        if not obs:
            raise ValueError("at least one run observation is required")
        ordered.append(sorted(obs, key=attrgetter("run_index")))
    keying = _KeyColumns(names)
    sides = keying.key(ordered)
    checked = [(_checked_group(runs, snaps), snaps) for runs, snaps in zip(ordered, sides)]
    names = keying.done()

    matrices, shared = [], {}
    for runs, snaps in checked:
        distinct = list({id(snap): snap for snap in snaps}.values())  # first seen first
        kinds, display = {}, {}
        for snap in reversed(distinct):  # the first snapshot holding a name is written last
            paths = snap.paths
            kinds.update(zip(compress(names, paths), repeat(RecordKind.REGKEY)))
            kinds.update(zip(compress(names, snap.files), repeat(RecordKind.FILE)))
            display.update(zip(compress(names, paths), compress(paths, paths)))
        pairs = list(zip(snaps[::2], snaps[1::2]))
        per_field = []  # per name, the field's vector over the runs
        for f in range(len(FIELDS)):
            updates = zip(*[_updated(b.columns[f], a.columns[f]) for b, a in pairs])
            per_field.append(shared.setdefault(v, v) for v in updates)
        carried = [  # per name, whether any snapshot sets the field
            map(any, zip(*[snap.columns[f] for snap in distinct])) for f in range(len(FIELDS))
        ]
        pairs_of = map(zip, repeat(FIELDS), zip(*per_field))  # per name, (field, vector) pairs
        per_name = list(map(dict, map(compress, pairs_of, zip(*carried))))
        vectors = dict(compress(zip(names, per_name), per_name))  # names never held have {}
        matrices.append(UpdateMatrix(runs, vectors, kinds, display, snaps[0].meta))
    return matrices


def _updated(before: list, after: list) -> Iterator[bool]:
    """Per name, whether the after key is set and differs from the before key."""
    return map(and_, map(truth, after), map(ne, after, before))


class _Keyed:
    """What the build keeps of one snapshot, one entry per name in each
    column: per field of ``FIELDS``, the key ``time_keys`` gives the value
    the name holds, or "" where it holds none; the path of that value, or
    None; whether it holds it as a file; and the snapshot's metadata."""

    __slots__ = ("columns", "paths", "files", "meta")  # a NamedTuple slows the import

    def __init__(self, columns: tuple, paths: list, files: bytearray, meta: SnapshotMeta) -> None:
        self.columns, self.paths, self.files, self.meta = columns, paths, files, meta


_ABSENT = ("", "", "", None)  # the key per field, then the path, of a name holding no value


class _KeyColumns:
    """Snapshots turned into ``_Keyed`` columns one at a time.

    Only the values a name does not hold as it held them in the snapshot
    keyed just before go through ``time_keys``, which gives their keys and
    paths; every other name keeps the key and path it had, and a snapshot
    with no such value shares the columns of the one before.  So a row that
    a run leaves as it is, as most rows are, is split once however many
    snapshots in a row hold it; equal cell texts share one string across all
    calls.  Without given names, each snapshot of the first group adds the
    names it holds that no earlier one did; every column keyed before gives
    them as absent."""

    def __init__(self, names: TraceNameSet | None) -> None:
        self._collect = names is None
        self.names: dict[str, None] = dict.fromkeys(names or ())
        self.texts: dict[str, str] = {}  # each cell text keyed, as the columns share it
        self.last_values: list = []  # per name, the value the snapshot keyed last holds
        self.last: tuple[list, ...] = ([], [], [], [])  # and its key per field, then its path
        self.snapshots: dict[int, _Keyed] = {}  # by object id
        self.files: dict[int, list[tuple[Path, _Keyed]]] = {}  # by hash of the file's bytes
        self.keyed: list[_Keyed] = []

    def key(self, groups: Sequence[Sequence[RunObservation]]) -> list[list[_Keyed]]:
        """Per group, the columns of its runs' sides in run order, before
        then after; without given names, the first group's snapshots add
        the names they hold."""
        sides = []
        for g, runs in enumerate(groups):
            collect = self._collect and g == 0
            sides.append([self._add(side, collect) for o in runs for side in (o.before, o.after)])
        return sides

    def _add(self, side: Snapshot | Path, collect: bool) -> _Keyed:
        """The columns of a snapshot, or of the run file holding one, keyed
        unless the same object, or a file with the same bytes, was."""
        if isinstance(side, Snapshot):
            found = self.snapshots.get(id(side))
            if found is None:
                found = self.snapshots[id(side)] = self._key(side, collect)
            return found
        data = Path(side).read_bytes()
        same_hash = self.files.setdefault(hash(data), [])
        for path, found in same_hash:  # the bytes decide, not the hash
            if Path(path).read_bytes() == data:
                return found
        text = decode_utf8(data, side)
        del data
        with reraise_as(SnapshotFormatError, str(side)):
            snap = parse_snapshot(text)
        del text
        found = self._key(snap, collect)
        same_hash.append((side, found))
        return found

    def _key(self, snap: Snapshot, collect: bool) -> _Keyed:
        file_table, key_table = snap.stored[RecordKind.FILE], snap.stored[RecordKind.REGKEY]
        if collect:
            self.names.update(dict.fromkeys(chain(file_table, key_table)))
        as_keys = list(map(key_table.get, self.names))
        values = list(map(file_table.get, self.names, as_keys))  # a file first
        files = bytearray(map(is_not, values, as_keys))
        del as_keys
        _pad((self.last_values, *self.last), (None, *_ABSENT), len(values))
        fresh = dict.fromkeys(compress(values, map(ne, values, self.last_values)))
        if fresh:
            index, keys, paths = time_keys(fresh, self.texts)
            del fresh
            columns = []
            for column, had in zip((*keys, paths), self.last):
                index.update(zip(index, column))  # each value keyed, its entry in this column
                # a value time_keys keyed takes its entry, any other keeps the one it had
                columns.append(list(map(index.get, values, had)))
            self.last = tuple(columns)
        self.last_values = values
        self.keyed.append(_Keyed(self.last[:-1], self.last[-1], files, snap.meta))
        return self.keyed[-1]

    def done(self) -> list[str]:
        """The names; every column now has one entry per name."""
        names = list(self.names)
        self.last_values, self.last, self.texts = [], (), {}
        for snap in self.keyed:
            _pad((*snap.columns, snap.paths, snap.files), (*_ABSENT, 0), len(names))
        return names


def _pad(columns: Iterable, absent: Iterable, size: int) -> None:
    """Extend each column to ``size`` entries with its ``absent`` entry: the
    names added since it was keyed are absent there."""
    for column, entry in zip(columns, absent):
        column.extend(repeat(entry, size - len(column)))


def _checked_group(runs: list[RunObservation], snaps: list[_Keyed]) -> tuple[RunInfo, ...]:
    """One group's run facts, once its run indexes and metadata pass."""
    if [o.run_index for o in runs] != list(range(len(runs))):
        raise ValueError("run indexes must be exactly 0..n-1")
    meta0 = snaps[0].meta
    for snap in {id(snap): snap for snap in snaps}.values():
        if differ := meta0.differences(snap.meta):
            raise ValueError(
                f"observations use inconsistent snapshot metadata: {', '.join(differ)} differ"
            )
    sessions: set[int] = set()
    out = []
    for o in runs:
        out.append(RunInfo(o.session_id, o.session_id not in sessions, o.launch_method))
        sessions.add(o.session_id)
    return tuple(out)


def classify_field(
    vector: Sequence[bool], firsts: Sequence[bool], launched: Sequence[bool]
) -> FieldPattern:
    """Name the update pattern of one field across runs.

    ``firsts`` says per run whether it was its session's first, ``launched``
    whether it was launched through this very trace.  Always and Never are
    the exact cases.  FirstRunOnly means the field updated on exactly the
    first run of every session.  UsageBased means every update happened on a
    run launched through the trace (shortcut behavior).  Anything else is
    Irregular.
    """
    if len(vector) != len(firsts):
        raise ValueError("vector length must equal the number of runs")
    if all(vector):
        return FieldPattern.ALWAYS
    if not any(vector):
        return FieldPattern.NEVER
    if all(map(eq, vector, firsts)):
        return FieldPattern.FIRST_RUN_ONLY
    if all(compress(launched, vector)):
        return FieldPattern.USAGE_BASED
    return FieldPattern.IRREGULAR


_A, _N = FieldPattern.ALWAYS, FieldPattern.NEVER
_F, _I = FieldPattern.FIRST_RUN_ONLY, FieldPattern.IRREGULAR
_REGISTRY_LATTICE = {  # the pattern of the one field a key has
    _A: CategoryLabel.AU4, _F: CategoryLabel.FRO, _I: CategoryLabel.IU, _N: CategoryLabel.NEVER
}
_FILE_LATTICE = {  # (modified, accessed, created): (label, field)
    (_A, _A, _N): (CategoryLabel.AU1, "modified"),
    (_A, _A, _I): (CategoryLabel.AU2, "modified"),
    (_N, _A, _N): (CategoryLabel.AU3, "accessed"),
    (_A, _N, _N): (CategoryLabel.AU5, "modified"),
    (_N, _N, _N): (CategoryLabel.NEVER, "modified"),
}


def _trio(patterns: Mapping[str, FieldPattern]) -> tuple[FieldPattern, ...]:
    return tuple(patterns.get(f, FieldPattern.NEVER) for f in FIELDS)


def _first_changing(trio: tuple[FieldPattern, ...]) -> str:
    return next(f for f, p in zip(FIELDS, trio) if p is not _N)


def category_of(
    kind: RecordKind, patterns: Mapping[str, FieldPattern], shortcut: bool
) -> tuple[CategoryLabel, str] | None:
    """The label of a pattern combination and the field it is keyed on, or
    None off the lattice (see the module docstring).  ``shortcut`` says
    whether the trace is a .lnk.  A missing field counts as Never."""
    if kind is RecordKind.REGKEY:
        [field] = KIND_FIELDS[kind]
        label = _REGISTRY_LATTICE.get(patterns.get(field, _N))
        return None if label is None else (label, field)
    trio = _trio(patterns)
    entry = _FILE_LATTICE.get(trio)
    if entry is not None:
        return entry
    if _F in trio and set(trio) <= {_F, _N}:
        return CategoryLabel.FRO, _first_changing(trio)
    if trio[1] is FieldPattern.USAGE_BASED and shortcut:
        return CategoryLabel.UB, "accessed"
    if set(trio) <= {_I, _N}:
        return CategoryLabel.IU, _first_changing(trio)
    return None


@dataclass(frozen=True)
class TraceAnalysis:
    """A trace's category and the timestamp field that carries it."""

    category: TraceCategory
    field: str


def classify_trace(
    kind: RecordKind,
    vectors: tuple[tuple[str, tuple[bool, ...]], ...],
    background_updates: bool,
    launched: tuple[bool, ...],
    shortcut: bool,
    firsts: tuple[bool, ...],
) -> tuple[TraceAnalysis, tuple[FieldPattern, ...] | None]:
    """Classify one trace from exactly what classification reads of it: its
    kind, its ``(field, vector)`` pairs in ``FIELDS`` order, whether
    background activity updated it, per run whether the run was launched
    through it, whether it is a .lnk, and per run whether the run was its
    session's first.  Also give the (modified, accessed, created) patterns
    of a trace off the lattice, else None.

    Each field's pattern comes from ``classify_field`` and the combination
    goes through ``category_of``.  A combination off the lattice degrades to
    IU on its first changing field; noisy real-world data must never abort
    an analysis.  An accessed-only IU trace whose accessed time updated on
    every session's first run is refined to IUI.
    """
    patterns = {f: classify_field(vec, firsts, launched) for f, vec in vectors}
    trio = _trio(patterns)
    found = category_of(kind, patterns, shortcut)
    label, field = found or (CategoryLabel.IU, _first_changing(trio))
    if (
        label is CategoryLabel.IU
        and trio == (_N, _I, _N)
        and any(firsts)
        and all(compress(dict(vectors)["accessed"], firsts))
    ):
        label = CategoryLabel.IUI
    analysis = TraceAnalysis(TraceCategory(label, confounded=background_updates), field)
    return analysis, trio if found is None else None


def categorize_matrix(
    action: UpdateMatrix, background: UpdateMatrix | None = None
) -> dict[str, TraceAnalysis]:
    """Classify every trace in an action matrix, marking confounded ones.

    Each trace's input to ``classify_trace`` is built once, and the
    classification is cached on it, so traces sharing an input share their
    analysis.  Each off-lattice trace is logged at DEBUG, in trace order,
    and they get one summary warning.
    """
    runs = action.runs
    firsts = tuple(r.first_of_session for r in runs)
    launches = [None if r.launch_method is None else fold_path(r.launch_method) for r in runs]
    classify = functools.cache(classify_trace)
    out: dict[str, TraceAnalysis] = {}
    off_lattice = 0
    for trace in action.traces():
        out[trace], off = classify(
            action.kinds[trace],
            tuple(action.vectors[trace].items()),
            background is not None and background.any_update(trace),
            tuple(launch == trace for launch in launches),
            trace.endswith(".lnk"),
            firsts,
        )
        if off is not None:
            off_lattice += 1
            logger.debug(
                "trace %r has pattern combination outside the category lattice "
                "(modified=%s accessed=%s created=%s); treating as IU",
                action.display[trace],
                *(p.value for p in off),
            )
    if off_lattice:
        logger.warning(
            "%d trace(s) have pattern combinations outside the category lattice; "
            "treating them as IU",
            off_lattice,
        )
    return out


# --- run-observation storage ----------------------------------------------

# the names write_observations gives: at least three digits, no padding past three
_RUN_FILE = re.compile(r"run(\d{3}|[1-9]\d{3,})_(before|after)\.csv$", re.ASCII)
_SESSIONS_HEADER = ["run", "session", "launch_method"]


def read_observations(directory: str | Path) -> list[RunObservation]:
    """The runs of an observation directory, their sides its run files.

    Layout: ``runNNN_before.csv`` and ``runNNN_after.csv`` snapshot pairs
    (``run1000_before.csv`` past run 999) plus a ``sessions.csv`` with
    columns run, session, launch_method (empty launch cell means the launch
    method was not recorded).

    Only the layout and ``sessions.csv`` are read here.  The run files are
    read by ``build_update_matrices``, which keeps one snapshot alive at a
    time: it reads them in run order, before then after, names the first
    malformed one, and parses each distinct file content once (a scenario's
    run starts from the state the previous one ended in, so one run's after
    file is often the next one's before file, byte for byte).
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
    lines = read_utf8(sessions_file).splitlines()
    sessions: dict[int, tuple[int, str | None]] = {}

    def add_session(row: list[str]) -> None:
        run, session = _parse_session(row)
        if run in sessions:
            raise ValueError(f"run {run} is listed twice")
        sessions[run] = session

    with reraise_as(ValueError, str(sessions_file)):
        if read_csv(lines[:1], list, ValueError) != [_SESSIONS_HEADER]:
            raise ValueError("line 1: expected the header run,session,launch_method")
        read_csv(lines[1:], add_session, ValueError, first_line=2)
    if set(sessions) != set(pairs):
        raise ValueError("sessions.csv rows do not match the run files")

    return [
        RunObservation(run, *sessions[run], pairs[run]["before"], pairs[run]["after"])
        for run in sorted(pairs)
    ]


def _parse_session(row: list[str]) -> tuple[int, tuple[int, str | None]]:
    """A run and its session id and launch method."""
    if len(row) != 3:
        raise ValueError(f"row has {len(row)} columns, expected 3")
    return int_cell(row[0], "run"), (int_cell(row[1], "session"), row[2] or None)


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
