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
import io
import logging
import re
from dataclasses import dataclass, field as dc_field
from enum import Enum
from itertools import compress, count, islice, repeat
from operator import and_, attrgetter, is_not, itemgetter, ne, truth
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
        return any(any(vec) for vec in self.vectors.get(fold_path(trace), {}).values())


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
    what is kept of each is one position per name in tables of keys and
    paths, the position it had in the snapshot keyed before wherever the name
    holds the same value there (see ``_KeyColumns``).  A run file is read
    and parsed unless a file with the same bytes was, and its snapshot is
    dropped before the next file is read; a side given as a ``Snapshot`` is
    keyed once per object.  Then, per
    group, run and field, the update column is true where the after key is
    set and differs from the before key, and per field it is known whether
    any of the group's snapshots sets it.  Only the ``{field: vector}`` dict
    of each name, carried fields in ``FIELDS`` order, is built name by name;
    equal vectors share one tuple.  A group's ``kinds`` and ``display`` come
    from the first record it holds, the before snapshot of its run 0 first,
    and its ``meta`` is that snapshot's.

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
    names, (*keys, paths) = keying.done()
    columns = {  # per snapshot, per field, each name's key
        id(snap): [list(map(column.__getitem__, snap.at)) for column in keys]
        for snap in keying.keyed
    }
    del keys

    matrices, shared_vector = [], _Shared().__getitem__
    for runs, snaps in checked:
        distinct = list({id(snap): snap for snap in snaps}.values())  # first seen first
        kinds, display = {}, {}
        for snap in reversed(distinct):  # the first snapshot holding a name is written last
            at = snap.at
            kinds.update(zip(compress(names, at), repeat(RecordKind.REGKEY)))
            kinds.update(zip(compress(names, snap.files), repeat(RecordKind.FILE)))
            display.update(zip(compress(names, at), map(paths.__getitem__, compress(at, at))))
        pairs = [(columns[id(b)], columns[id(a)]) for b, a in zip(snaps[::2], snaps[1::2])]
        per_field = [  # per name, the field's vector over the runs
            map(shared_vector, zip(*[_updated(before[f], after[f]) for before, after in pairs]))
            for f in range(len(FIELDS))
        ]
        carried = [  # per name, whether any snapshot sets the field
            map(any, zip(*[columns[id(snap)][f] for snap in distinct])) for f in range(len(FIELDS))
        ]
        pairs_of = map(zip, repeat(FIELDS), zip(*per_field))  # per name, (field, vector) pairs
        per_name = list(map(dict, map(compress, pairs_of, zip(*carried))))
        vectors = dict(compress(zip(names, per_name), per_name))  # names never held have {}
        matrices.append(UpdateMatrix(runs, vectors, kinds, display, snaps[0].meta))
    return matrices


def _updated(before: list, after: list) -> Iterator[bool]:
    """Per name, whether the after key is set and differs from the before key."""
    return map(and_, map(truth, after), map(ne, after, before))


class _Shared(dict):
    """``map(shared.__getitem__, items)`` gives each item as the first equal
    item it gave, so equal items share one object."""

    def __missing__(self, key):
        self[key] = key
        return key


class _Keyed:
    """What the build keeps of one snapshot: per name, the position in the
    key tables of the value it holds (0 where it holds none) and whether it
    holds it as a file; and its metadata."""

    __slots__ = ("at", "files", "meta")  # a plain class: a NamedTuple slows the import

    def __init__(self, at: list[int], files: bytearray, meta: SnapshotMeta) -> None:
        self.at, self.files, self.meta = at, files, meta


class _KeyColumns:
    """Snapshots turned into ``_Keyed`` columns one at a time.

    The tables hold, per field of ``FIELDS``, the key ``time_keys`` gives
    each value keyed, then each value's path; position 0 is no value.  Only
    the values a name does not hold as it held them in the snapshot keyed
    just before go through ``time_keys``; the rest keep their position.  So a
    row that a run leaves as it is, as most rows are, is split once however
    many snapshots in a row hold it; equal cell texts share one string
    across all calls.  Without given names, each snapshot of the first group
    adds the names it holds that no earlier one did; every column keyed
    before gives them as absent."""

    def __init__(self, names: TraceNameSet | None) -> None:
        self._collect = names is None
        self.names: dict[str, None] = dict.fromkeys(names or ())
        self.file_keys = [(RecordKind.FILE, name) for name in self.names]
        self.regkey_keys = [(RecordKind.REGKEY, name) for name in self.names]
        self.tables: tuple[list, ...] = ([""], [""], [""], [None])
        self.texts: dict[str, str] = {}  # each cell text in the tables, as they share it
        self.last_values: list = []  # per name, the value the snapshot keyed last holds
        self.last: list[int] = []  # and its position
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
        stored = snap.stored
        if collect:
            known = len(self.names)
            self.names.update(dict.fromkeys(map(itemgetter(1), stored)))
            new = list(islice(self.names, known, None))
            self.file_keys += [(RecordKind.FILE, name) for name in new]
            self.regkey_keys += [(RecordKind.REGKEY, name) for name in new]
        get = stored.get
        as_keys = list(map(get, self.regkey_keys))
        values = list(map(get, self.file_keys, as_keys))  # a file first
        files = bytearray(map(is_not, values, as_keys))
        del as_keys
        _pad((self.last_values, self.last), (None, 0), len(values))
        fresh = dict.fromkeys(compress(values, map(ne, values, self.last_values)))
        if fresh:
            index, keys, paths = time_keys(fresh, self.texts)
            del fresh
            base = len(self.tables[-1]) - 1
            for table, column in zip(self.tables, (*keys, paths)):
                table += islice(column, 1, None)
            positions = dict(zip(index, count(base)))
            positions[None] = 0
            # a value time_keys keyed gives its own position, any other the
            # position of the equal value the name held before
            self.last = list(map(positions.get, values, self.last))
        self.last_values = values
        self.keyed.append(_Keyed(self.last, files, snap.meta))
        return self.keyed[-1]

    def done(self) -> tuple[list[str], tuple[list, ...]]:
        """The names and the tables; every column now has one entry per name."""
        names = list(self.names)
        self.last_values, self.last, self.texts = [], [], {}
        for snap in self.keyed:
            _pad((snap.at, snap.files), (0, 0), len(names))
        return names, self.tables


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


def classify_field(vector: Sequence[bool], runs: Sequence[RunInfo], trace_path: str) -> FieldPattern:
    """Name the update pattern of one field across runs.

    Always and Never are the exact cases.  FirstRunOnly means the field
    updated on exactly the first run of every session.  UsageBased means every
    update happened on a run launched through this very path (shortcut
    behavior).  Anything else is Irregular.
    """
    if len(vector) != len(runs):
        raise ValueError("vector length must equal the number of runs")
    if all(vector):
        return FieldPattern.ALWAYS
    if not any(vector):
        return FieldPattern.NEVER
    if all(v == r.first_of_session for v, r in zip(vector, runs)):
        return FieldPattern.FIRST_RUN_ONLY
    folded = fold_path(trace_path)
    if all(
        r.launch_method is not None and fold_path(r.launch_method) == folded
        for v, r in zip(vector, runs)
        if v
    ):
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
    kind: RecordKind, patterns: Mapping[str, FieldPattern], trace: str
) -> tuple[CategoryLabel, str] | None:
    """The label of a pattern combination and the field it is keyed on, or
    None off the lattice (see the module docstring).  A missing field counts
    as Never."""
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
    if trio[1] is FieldPattern.USAGE_BASED and fold_path(trace).endswith(".lnk"):
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
    trace: str,
    kind: RecordKind,
    vectors: Mapping[str, Sequence[bool]],
    runs: Sequence[RunInfo],
    background_updates: bool,
) -> tuple[TraceAnalysis, bool]:
    """Classify one trace from its update vectors; also say whether its
    pattern combination is on the lattice.

    Each field's pattern comes from ``classify_field`` and the combination
    goes through ``category_of``.  A combination off the lattice degrades to
    IU on its first changing field, logged at DEBUG; noisy real-world data
    must never abort an analysis.  An accessed-only IU trace whose accessed
    time updated on every session's first run is refined to IUI.
    """
    patterns = _patterns(vectors, runs, trace)
    trio = _trio(patterns)
    found = category_of(kind, patterns, trace)
    if found is None:
        _note_off_lattice(trace, trio)
    label, field = found or (CategoryLabel.IU, _first_changing(trio))
    if (
        label is CategoryLabel.IU
        and trio == (_N, _I, _N)
        and any(r.first_of_session for r in runs)
        and all(v for v, r in zip(vectors["accessed"], runs) if r.first_of_session)
    ):
        label = CategoryLabel.IUI
    analysis = TraceAnalysis(TraceCategory(label, confounded=background_updates), field)
    return analysis, found is not None


def _patterns(
    vectors: Mapping[str, Sequence[bool]], runs: Sequence[RunInfo], trace: str
) -> dict[str, FieldPattern]:
    return {f: classify_field(vec, runs, trace) for f, vec in vectors.items()}


def _note_off_lattice(trace: str, trio: tuple[FieldPattern, ...]) -> None:
    logger.debug(
        "trace %r has pattern combination outside the category lattice "
        "(modified=%s accessed=%s created=%s); treating as IU",
        trace,
        *(p.value for p in trio),
    )


def categorize_matrix(
    action: UpdateMatrix, background: UpdateMatrix | None = None
) -> dict[str, TraceAnalysis]:
    """Classify every trace in an action matrix, marking confounded ones.

    ``classify_trace`` runs once per distinct input: the trace's kind and
    vectors, whether background activity updated it, on which runs it was
    the launch method, and whether it is a shortcut.  That is all it reads of
    a trace, so every trace sharing an input shares its analysis.  Each
    off-lattice trace is logged at DEBUG, and they get one summary warning.
    """
    runs = action.runs
    launches = [None if r.launch_method is None else fold_path(r.launch_method) for r in runs]
    classified: dict[tuple, tuple[TraceAnalysis, tuple[FieldPattern, ...] | None]] = {}
    out: dict[str, TraceAnalysis] = {}
    off_lattice = 0
    for trace in action.traces():
        display, kind, vectors = action.display[trace], action.kinds[trace], action.vectors[trace]
        background_updates = background.any_update(trace) if background is not None else False
        folded = fold_path(display)
        key = (
            kind,
            tuple(vectors.items()),
            background_updates,
            tuple(launch == folded for launch in launches),
            folded.endswith(".lnk"),
        )
        known = classified.get(key)
        if known is None:
            analysis, on_lattice = classify_trace(display, kind, vectors, runs, background_updates)
            off_trio = None if on_lattice else _trio(_patterns(vectors, runs, display))
            known = classified[key] = analysis, off_trio
        elif known[1] is not None:
            _note_off_lattice(display, known[1])
        out[trace] = known[0]
        off_lattice += known[1] is not None
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
