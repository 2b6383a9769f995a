"""Deterministic synthetic evidence generation, with planted ground truth.

A scenario plants per-trace update rules, replays a scripted sequence of
action executions over a virtual clock, and emits the same snapshot and
observation structures the real pipeline ingests, together with the planted
truth per action.  Everything is a pure function of the scenario, so equal
seeds give byte-identical output.

Randomness is a counter-based construction over the splitmix64 finalizer:
every draw hashes (seed, folded trace name, run index, purpose) through
``_mix64`` chaining, with purpose 0 reserved for latencies, purpose 1 for
probability draws and purpose 2 for baselines.  The test suite pins exact
vectors so independent builds agree bit for bit.

Every planted trace exists before the first step, each with its own
baseline: all its fields hold one time drawn from [first step - 1 day,
first step - 1 h].  A shared baseline would put the core traces of an
untouched machine at one instant, which reads as a span-0 action.

Rule modes:

    Always            fires on every run of its action
    FirstRunOfSession fires when its action first runs in a session
    Probability(p)    fires when the trace's uniform draw is below p
    UsageBased(m)     fires when the run was launched via method m
    Background        ambient noise: fires on every script step regardless
                      of which action ran (these traces end up confounded)

An update stamps the rule's field with the step time plus a latency in
[0, 45] seconds, drawn deterministically unless the rule fixes one.

A trace's planted category is ``categorize.category_of`` of the patterns its
rules plant, so a rule set off the lattice (say, usage-based on a non-.lnk
trace) is a ScenarioError: no classifier could recover it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, fields as dc_fields, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Union

from .categorize import (
    CategoryLabel,
    FieldPattern,
    RunObservation,
    TraceCategory,
    UpdateMatrix,
    categorize_matrix,
    category_of,
    write_observations,
)
from .evidence import (
    _NOT_IN_A_LINE,
    FIELDS,
    KIND_FIELDS,
    ArtifactRecord,
    JsonObject,
    RecordKind,
    Snapshot,
    SnapshotMeta,
    TimePoint,
    check_field,
    fold_path,
    parse_timestamp,
    read_json,
    reraise_as,
    save_snapshot,
)
from .signatures import Signature

__all__ = [
    "MAX_LATENCY_S",
    "Always",
    "Background",
    "FirstRunOfSession",
    "OracleEntry",
    "OracleReport",
    "Probability",
    "Scenario",
    "ScenarioError",
    "ScenarioResult",
    "ScriptStep",
    "UpdateRule",
    "UsageBased",
    "draw_latency",
    "draw_uniform",
    "load_scenario",
    "oracle_compare",
    "run_scenario",
    "write_scenario_outputs",
]


class ScenarioError(ValueError):
    """A scenario definition that cannot be simulated."""


# --- deterministic draws ----------------------------------------------------

_M64 = 0xFFFFFFFFFFFFFFFF


def _mix64(x: int) -> int:
    """One splitmix64 step (increment plus finalizer)."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _fnv1a64(data: bytes) -> int:
    h = 0xCBF29CE484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001B3) & _M64
    return h


_PURPOSE_LATENCY = 0
_PURPOSE_PROBABILITY = 1
_PURPOSE_BASELINE = 2


@lru_cache(maxsize=1 << 14)
def _name_hash(trace: str) -> int:
    """The hash of a trace's folded name, which every draw on the trace
    repeats: a scenario draws on each trace per run and purpose."""
    return _fnv1a64(fold_path(trace).encode("utf-8"))


def _draw(seed: int, trace: str, run: int, purpose: int) -> int:
    v = _mix64(seed & _M64)
    v = _mix64(v ^ _name_hash(trace))
    v = _mix64(v ^ (run & _M64))
    v = _mix64(v ^ purpose)
    return v


MAX_LATENCY_S = 45


def draw_latency(seed: int, trace: str, run: int) -> int:
    """Deterministic update latency in [0, MAX_LATENCY_S] for (run, trace)."""
    return _draw(seed, trace, run, _PURPOSE_LATENCY) % (MAX_LATENCY_S + 1)


def draw_uniform(seed: int, trace: str, run: int) -> float:
    """Deterministic uniform in [0, 1) for probability rules."""
    return _draw(seed, trace, run, _PURPOSE_PROBABILITY) / 2**64


# --- scenario model ---------------------------------------------------------


@dataclass(frozen=True)
class Always:
    pass


@dataclass(frozen=True)
class FirstRunOfSession:
    pass


@dataclass(frozen=True)
class Background:
    pass


@dataclass(frozen=True)
class Probability:
    p: float

    def __post_init__(self) -> None:
        if not 0.0 < self.p < 1.0:
            raise ScenarioError(f"probability must lie strictly between 0 and 1, got {self.p}")


@dataclass(frozen=True)
class UsageBased:
    method: str


UpdateMode = Union[Always, FirstRunOfSession, Probability, UsageBased, Background]


@dataclass(frozen=True)
class UpdateRule:
    """How one timestamp field of one trace reacts to runs of an action."""

    trace: str
    kind: RecordKind
    field: str
    mode: UpdateMode
    latency_s: int | None = None  # fixed latency; None draws deterministically

    def __post_init__(self) -> None:
        if not self.trace or _NOT_IN_A_LINE.search(self.trace):
            raise ScenarioError(f"trace {self.trace!r} is empty or holds a line break or NUL")
        with reraise_as(ScenarioError, ""):
            check_field(self.kind, self.field)
        if self.latency_s is not None and not 0 <= self.latency_s <= MAX_LATENCY_S:
            raise ScenarioError(f"latency_s must lie in [0, {MAX_LATENCY_S}]")


@dataclass(frozen=True)
class ScriptStep:
    time: int  # epoch seconds
    action: str
    session_id: int
    launch_method: str | None = None


_ACTION_NAME = re.compile(r"[A-Za-z0-9._-]+")
_BASELINE_LEAD_S = 86400  # the earliest a planted trace's baseline lies before the first step
_BASELINE_SPREAD_S = _BASELINE_LEAD_S - 3600  # so every baseline lies an hour or more before it


@dataclass(frozen=True)
class Scenario:
    seed: int
    meta: SnapshotMeta
    model: Mapping[str, tuple[UpdateRule, ...]]
    script: tuple[ScriptStep, ...]

    def __post_init__(self) -> None:
        if not self.script:
            raise ScenarioError("script must contain at least one step")
        for action in self.model:
            if not _ACTION_NAME.fullmatch(action):
                raise ScenarioError(f"action name {action!r} must match [A-Za-z0-9._-]+")
        times = [s.time for s in self.script]
        if sorted(set(times)) != times:
            raise ScenarioError("script times must be strictly increasing")
        for step in self.script:
            if step.action not in self.model:
                raise ScenarioError(f"script references undefined action {step.action!r}")
        if times[-1] + MAX_LATENCY_S > self.meta.capture_time.hi:
            raise ScenarioError("capture_time must fall after the last step plus latency")
        with reraise_as(ScenarioError, "script[0]: the baseline a day before it"):
            TimePoint(times[0] - _BASELINE_LEAD_S)
        seen: dict[tuple[str, str, str], str] = {}
        kinds: dict[str, RecordKind] = {}
        for action, rules in self.model.items():
            for rule in rules:
                folded = fold_path(rule.trace)
                key = (action, folded, rule.field)
                if key in seen:
                    raise ScenarioError(
                        f"duplicate rule for trace {rule.trace!r} field {rule.field!r} under {action!r}"
                    )
                seen[key] = action
                if kinds.setdefault(folded, rule.kind) is not rule.kind:
                    raise ScenarioError(f"trace {rule.trace!r} declared with two kinds")


# --- scenario JSON ----------------------------------------------------------


_NAMED_MODES = dict(always=Always, first_run_of_session=FirstRunOfSession, background=Background)


def _parse_time(obj: JsonObject, key: str, where: str) -> TimePoint:
    value = obj.get(key, (int, str))
    with reraise_as(ScenarioError, where):  # TimePoint holds the range a timestamp may take
        return TimePoint(value if isinstance(value, int) else parse_timestamp(value))


def _parse_mode(rule: JsonObject) -> UpdateMode:
    value = rule.value.get("mode")
    if type(value) is str:
        if value in _NAMED_MODES:
            return _NAMED_MODES[value]()
    else:
        mode = rule.object("mode", ("probability", "usage_based"))
        if set(mode.value) == {"probability"}:
            p = mode.get("probability", float)
            with reraise_as(ScenarioError, mode.where):
                return Probability(float(p))
        if set(mode.value) == {"usage_based"} and (method := mode.get("usage_based", str)):
            return UsageBased(method)  # a launch method path
    raise ScenarioError(f"{rule.where}: unknown mode {value!r}")


def _parse_rule(rule: JsonObject) -> UpdateRule:
    trace, kind = rule.get("trace", str), rule.get("kind", RecordKind)
    field, mode = rule.get("field", str), _parse_mode(rule)
    latency_s = rule.get("latency_s", int, None)
    with reraise_as(ScenarioError, rule.where):
        return UpdateRule(trace, kind, field, mode, latency_s)


def load_scenario(text: str) -> Scenario:
    """Parse scenario JSON: seed, meta, model (rules per action), script."""
    doc = read_json(text, ScenarioError, ("seed", "meta", "model", "script"))
    seed = doc.get("seed", int)
    meta = doc.object("meta", [f.name for f in dc_fields(SnapshotMeta)])
    meta_values = dict(
        system_root=meta.get("system_root", str),
        home_drive=meta.get("home_drive", str),
        home_path=meta.get("home_path", str),
        sids=tuple(meta.get("sids", list[str], [])),
        last_access_enabled=meta.get("last_access_enabled", bool, True),
        capture_time=_parse_time(meta, "capture_time", meta.name("capture_time")),
        install_paths=dict(meta.get("install_paths", dict[str, str], {})),
    )
    with reraise_as(ScenarioError, meta.where):
        snapshot_meta = SnapshotMeta(**meta_values)
    model = doc.object("model")
    rules = {
        action: tuple(
            _parse_rule(rule)
            for rule in model.objects(action, ("trace", "kind", "field", "mode", "latency_s"))
        )
        for action in model.value
    }
    script = tuple(
        ScriptStep(
            _parse_time(step, "time", step.where).epoch_s, step.get("action", str),
            step.get("session", int), step.get("launch", str, None),
        )
        for step in doc.objects("script", ("time", "action", "session", "launch"))
    )
    return Scenario(seed=seed, meta=snapshot_meta, model=rules, script=script)


# --- execution --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    snapshots: tuple[Snapshot, ...]  # after each step; the last is the final state
    observations: Mapping[str, tuple[RunObservation, ...]]
    planted: Mapping[str, Mapping[str, TraceCategory]]


def _baseline_state(sc: Scenario) -> dict[str, ArtifactRecord]:
    earliest = min(s.time for s in sc.script) - _BASELINE_LEAD_S
    state: dict[str, ArtifactRecord] = {}
    for rules in sc.model.values():
        for rule in rules:
            if (folded := fold_path(rule.trace)) not in state:
                drawn = _draw(sc.seed, rule.trace, 0, _PURPOSE_BASELINE) % _BASELINE_SPREAD_S
                fields = {f: TimePoint(earliest + drawn) for f in KIND_FIELDS[rule.kind]}
                state[folded] = ArtifactRecord(rule.kind, rule.trace, **fields)
    return state


def _background_rules(sc: Scenario) -> list[UpdateRule]:
    return [
        rule
        for rules in sc.model.values()
        for rule in rules
        if isinstance(rule.mode, Background)
    ]


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Replay the script, returning snapshots, observations and planted truth.

    Every planted trace pre-exists with its own baseline timestamps, between
    a day and an hour before the first step, so diffs see timestamp changes
    rather than record creation.
    Identical scenarios produce identical results, byte for byte once written.
    """
    state = _baseline_state(sc)
    background = _background_rules(sc)
    session_started: set[tuple[str, int]] = set()
    snapshots: list[Snapshot] = []
    observations: dict[str, list[RunObservation]] = {action: [] for action in sc.model}

    before = Snapshot.build(sc.meta, state.values())
    for step_index, step in enumerate(sc.script):
        run = len(observations[step.action])
        first = (step.action, step.session_id) not in session_started
        session_started.add((step.action, step.session_id))

        for rule in sc.model[step.action]:
            mode = rule.mode
            if isinstance(mode, Always):
                fires = True
            elif isinstance(mode, FirstRunOfSession):
                fires = first
            elif isinstance(mode, Probability):
                fires = draw_uniform(sc.seed, rule.trace, run) < mode.p
            elif isinstance(mode, UsageBased):
                fires = step.launch_method is not None and fold_path(
                    step.launch_method
                ) == fold_path(mode.method)
            else:  # Background rules fire via the ambient pass below
                fires = False
            if fires:
                _stamp(state, sc.seed, rule, step.time, run)
        for rule in background:
            _stamp(state, sc.seed, rule, step.time, step_index)

        after = Snapshot.build(sc.meta, state.values())
        snapshots.append(after)
        observations[step.action].append(
            RunObservation(
                run_index=run,
                session_id=step.session_id,
                launch_method=step.launch_method,
                before=before,
                after=after,
            )
        )
        before = after

    return ScenarioResult(
        snapshots=tuple(snapshots),
        observations={a: tuple(o) for a, o in observations.items() if o},
        planted=planted_categories(sc),
    )


def _stamp(
    state: dict[str, ArtifactRecord], seed: int, rule: UpdateRule, time: int, draw_index: int
) -> None:
    """Set the rule's field of its trace to ``time`` plus the rule's latency."""
    latency = rule.latency_s
    if latency is None:
        latency = draw_latency(seed, rule.trace, draw_index)
    folded = fold_path(rule.trace)
    state[folded] = replace(state[folded], **{rule.field: TimePoint(time + latency)})


# --- planted truth ----------------------------------------------------------


_PLANTED_PATTERN = {
    Always: FieldPattern.ALWAYS,
    Background: FieldPattern.ALWAYS,
    FirstRunOfSession: FieldPattern.FIRST_RUN_ONLY,
    Probability: FieldPattern.IRREGULAR,
    UsageBased: FieldPattern.USAGE_BASED,
}


def _planted_label(kind: RecordKind, modes: Mapping[str, UpdateMode], trace: str) -> CategoryLabel:
    patterns = {field: _PLANTED_PATTERN[type(mode)] for field, mode in modes.items()}
    found = category_of(kind, patterns, fold_path(trace).endswith(".lnk"))
    if found is None:
        raise ScenarioError(
            f"no planted category for trace {trace!r} with modes "
            + " ".join(f"{f}={patterns.get(f, FieldPattern.NEVER).value}" for f in FIELDS)
        )
    return found[0]


def planted_categories(sc: Scenario) -> dict[str, dict[str, TraceCategory]]:
    """The ground-truth category of each trace, per action.

    Background-mode traces fire during every action's runs, so they appear in
    every action's map, confounded.  A trace with rules under several actions
    is likewise confounded everywhere it appears.
    """
    actions_of: dict[str, set[str]] = {}
    for action, rules in sc.model.items():
        for rule in rules:
            actions_of.setdefault(fold_path(rule.trace), set()).add(action)
    background = _background_rules(sc)

    planted: dict[str, dict[str, TraceCategory]] = {}
    for action, rules in sc.model.items():
        # per trace, its first rule and each field's mode; the action's own rules win
        merged: dict[str, tuple[UpdateRule, dict[str, UpdateMode]]] = {}
        for rule in (*rules, *background):
            first, modes = merged.setdefault(fold_path(rule.trace), (rule, {}))
            modes.setdefault(rule.field, rule.mode)
        planted[action] = {
            first.trace: TraceCategory(
                _planted_label(first.kind, modes, first.trace),
                len(actions_of[folded]) > 1
                or any(isinstance(mode, Background) for mode in modes.values()),
            )
            for folded, (first, modes) in merged.items()
        }
    return planted


# --- oracle comparison ------------------------------------------------------


@dataclass(frozen=True)
class OracleEntry:
    trace: str
    planted: TraceCategory
    classified: TraceCategory
    agrees: bool
    sampling_artifact: bool


@dataclass(frozen=True)
class OracleReport:
    entries: tuple[OracleEntry, ...]
    core_expected: int
    core_actual: int

    def disagreements(self) -> list[OracleEntry]:
        return [e for e in self.entries if not e.agrees]

    def artifacts(self) -> list[OracleEntry]:
        return [e for e in self.entries if e.sampling_artifact]

    @property
    def clean(self) -> bool:
        """No disagreement beyond documented sampling artifacts.

        The core counts are not compared: several planted core traces may
        rightly share one derived template."""
        return all(e.agrees or e.sampling_artifact for e in self.entries)


def oracle_compare(
    planted: Mapping[str, TraceCategory],
    derived: Signature,
    matrix: UpdateMatrix,
    matrix_background: UpdateMatrix | None = None,
) -> OracleReport:
    """Compare planted categories against what classification recovered.

    A planted-irregular trace whose sampled vector came out all-true or
    all-false cannot be told apart from Always or Never by any classifier,
    and one whose accessed draws happened to cover every session's first run
    reads as IUI, which no rule plants; such rows are flagged sampling
    artifacts rather than real disagreements.
    """
    analyses = categorize_matrix(matrix, matrix_background)
    entries = []
    for trace in sorted(planted, key=fold_path):
        planted_cat = planted[trace]
        folded = fold_path(trace)
        analysis = analyses.get(folded)
        classified = analysis.category if analysis else TraceCategory(CategoryLabel.NEVER)
        agrees = classified == planted_cat
        artifact = False
        if not agrees and planted_cat.label is CategoryLabel.IU:
            vectors = matrix.vectors.get(folded, {}).values()
            artifact = classified == TraceCategory(CategoryLabel.IUI, planted_cat.confounded) or (
                bool(vectors) and all(all(v) or not any(v) for v in vectors)
            )
        entries.append(OracleEntry(trace, planted_cat, classified, agrees, artifact))
    core_expected = sum(1 for cat in planted.values() if cat.in_core)
    return OracleReport(
        entries=tuple(entries),
        core_expected=core_expected,
        core_actual=len(derived.core),
    )


# --- output tree ------------------------------------------------------------


_OUTPUT_NAMES = ("final.csv", "planted.json", "steps", "obs")


def write_scenario_outputs(result: ScenarioResult, directory: str | Path) -> None:
    """Write final.csv, per-step snapshots, observations and planted.json.

    A directory already holding one of those is refused before anything is
    written, and nothing is deleted: the files of two scenarios mixed in one
    tree would read as one set of runs.
    """
    directory = Path(directory)
    for name in _OUTPUT_NAMES:
        if (directory / name).exists():
            raise FileExistsError(f"{directory} already holds {name}; choose another directory")
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "final.csv").write_text(save_snapshot(result.snapshots[-1]), encoding="utf-8")
    steps = directory / "steps"
    steps.mkdir(exist_ok=True)
    for i, snap in enumerate(result.snapshots):
        (steps / f"step{i:03d}.csv").write_text(save_snapshot(snap), encoding="utf-8")
    for action, obs in sorted(result.observations.items()):
        write_observations(directory / "obs" / action, obs)
    planted_data = {
        action: {
            trace: {
                "category": cat.label.value,
                "confounded": cat.confounded,
            }
            for trace, cat in sorted(entries.items(), key=lambda kv: fold_path(kv[0]))
        }
        for action, entries in sorted(result.planted.items())
    }
    (directory / "planted.json").write_text(
        json.dumps(planted_data, indent=2) + "\n", encoding="utf-8"
    )
