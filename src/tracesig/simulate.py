"""Deterministic synthetic evidence generation, with planted ground truth.

A scenario plants per-trace update rules, replays a scripted sequence of
action executions over a virtual clock, and emits the same snapshot and
observation structures the real pipeline ingests, together with the planted
truth per action.  Everything is a pure function of the scenario, so equal
seeds give byte-identical output.

Randomness is a counter-based construction over the splitmix64 finalizer:
every draw hashes (seed, folded trace name, run index, purpose) through
``_mix64`` chaining, with purpose 0 reserved for latencies and purpose 1 for
probability draws.  The test suite pins exact vectors so independent builds
agree bit for bit.

Rule modes:

    Always            fires on every run of its action
    FirstRunOfSession fires when its action first runs in a session
    Probability(p)    fires when the trace's uniform draw is below p
    UsageBased(m)     fires when the run was launched via method m
    Background        ambient noise: fires on every script step regardless
                      of which action ran (these traces end up confounded)

An update stamps the rule's field with the step time plus a latency in
[0, 45] seconds, drawn deterministically unless the rule fixes one.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Union

from .categorize import (
    CategoryLabel,
    RunObservation,
    TraceCategory,
    UpdateMatrix,
    categorize_matrix,
    write_observations,
)
from .evidence import (
    FIELDS,
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotFormatError,
    SnapshotMeta,
    TimePoint,
    fold_path,
    parse_timestamp,
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


def _draw(seed: int, trace: str, run: int, purpose: int) -> int:
    v = _mix64(seed & _M64)
    v = _mix64(v ^ _fnv1a64(fold_path(trace).encode("utf-8")))
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
        if self.field not in FIELDS:
            raise ScenarioError(f"unknown timestamp field {self.field!r}")
        if self.kind is RecordKind.REGKEY and self.field != "modified":
            raise ScenarioError(f"registry trace {self.trace!r} only has a modified timestamp")
        if self.latency_s is not None and not 0 <= self.latency_s <= MAX_LATENCY_S:
            raise ScenarioError(f"latency_s must lie in [0, {MAX_LATENCY_S}]")


@dataclass(frozen=True)
class ScriptStep:
    time: int  # epoch seconds
    action: str
    session_id: int
    launch_method: str | None = None


_ACTION_NAME = re.compile(r"[A-Za-z0-9._-]+")


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


def _parse_time(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ScenarioError(f"{where}: time must be epoch seconds or ISO-8601 text")
    if isinstance(value, int):
        return value
    try:
        return parse_timestamp(value)
    except SnapshotFormatError as exc:
        raise ScenarioError(f"{where}: {exc}")


def _parse_mode(value: object, where: str) -> UpdateMode:
    if value == "always":
        return Always()
    if value == "first_run_of_session":
        return FirstRunOfSession()
    if value == "background":
        return Background()
    if isinstance(value, dict) and len(value) == 1:
        if "probability" in value:
            p = value["probability"]
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ScenarioError(f"{where}: probability must be a number")
            return Probability(float(p))
        if "usage_based" in value:
            method = value["usage_based"]
            if not isinstance(method, str) or not method:
                raise ScenarioError(f"{where}: usage_based needs a launch method path")
            return UsageBased(method)
    raise ScenarioError(f"{where}: unknown mode {value!r}")


def load_scenario(text: str) -> Scenario:
    """Parse scenario JSON: seed, meta, model (rules per action), script."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise ScenarioError("scenario file must hold a JSON object")
    unknown = set(data) - {"seed", "meta", "model", "script"}
    if unknown:
        raise ScenarioError(f"unknown top-level keys {sorted(unknown)}")
    seed = data.get("seed")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ScenarioError("seed must be an integer")
    meta_data = data.get("meta")
    if not isinstance(meta_data, dict):
        raise ScenarioError("meta must be a JSON object")
    try:
        meta = SnapshotMeta(
            system_root=meta_data["system_root"],
            home_drive=meta_data["home_drive"],
            home_path=meta_data["home_path"],
            sids=tuple(meta_data.get("sids", ())),
            last_access_enabled=bool(meta_data.get("last_access_enabled", True)),
            capture_time=TimePoint(_parse_time(meta_data["capture_time"], "meta.capture_time")),
            install_paths=dict(meta_data.get("install_paths", {})),
        )
    except KeyError as exc:
        raise ScenarioError(f"meta is missing key {exc.args[0]!r}")

    model_data = data.get("model")
    if not isinstance(model_data, dict) or not model_data:
        raise ScenarioError("model must map at least one action to its rules")
    model: dict[str, tuple[UpdateRule, ...]] = {}
    for action, rules_data in model_data.items():
        if not isinstance(rules_data, list):
            raise ScenarioError(f"model[{action!r}] must be a list of rules")
        rules = []
        for i, rule_data in enumerate(rules_data):
            where = f"model[{action!r}][{i}]"
            if not isinstance(rule_data, dict):
                raise ScenarioError(f"{where}: rules must be JSON objects")
            unknown = set(rule_data) - {"trace", "kind", "field", "mode", "latency_s"}
            if unknown:
                raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
            try:
                kind = RecordKind(rule_data.get("kind"))
            except ValueError:
                raise ScenarioError(f"{where}: unknown kind {rule_data.get('kind')!r}")
            rules.append(
                UpdateRule(
                    trace=rule_data.get("trace", ""),
                    kind=kind,
                    field=rule_data.get("field", ""),
                    mode=_parse_mode(rule_data.get("mode"), where),
                    latency_s=rule_data.get("latency_s"),
                )
            )
        model[action] = tuple(rules)

    script_data = data.get("script")
    if not isinstance(script_data, list):
        raise ScenarioError("script must be a list of steps")
    script = []
    for i, step_data in enumerate(script_data):
        where = f"script[{i}]"
        if not isinstance(step_data, dict):
            raise ScenarioError(f"{where}: steps must be JSON objects")
        unknown = set(step_data) - {"time", "action", "session", "launch"}
        if unknown:
            raise ScenarioError(f"{where}: unknown keys {sorted(unknown)}")
        session = step_data.get("session")
        if isinstance(session, bool) or not isinstance(session, int):
            raise ScenarioError(f"{where}: session must be an integer")
        script.append(
            ScriptStep(
                time=_parse_time(step_data.get("time"), where),
                action=step_data.get("action", ""),
                session_id=session,
                launch_method=step_data.get("launch"),
            )
        )
    return Scenario(seed=seed, meta=meta, model=model, script=tuple(script))


# --- execution --------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioResult:
    snapshots: tuple[Snapshot, ...]
    final: Snapshot
    observations: Mapping[str, tuple[RunObservation, ...]]
    planted: Mapping[str, Mapping[str, TraceCategory]]


def _baseline_state(sc: Scenario) -> dict[str, dict]:
    baseline = TimePoint(min(s.time for s in sc.script) - 86400)
    state: dict[str, dict] = {}
    for rules in sc.model.values():
        for rule in rules:
            folded = fold_path(rule.trace)
            if folded not in state:
                fields = (
                    {"modified": baseline}
                    if rule.kind is RecordKind.REGKEY
                    else {f: baseline for f in FIELDS}
                )
                state[folded] = {"kind": rule.kind, "path": rule.trace, "fields": fields}
    return state


def _snapshot(state: Mapping[str, dict], meta: SnapshotMeta) -> Snapshot:
    records = []
    for entry in state.values():
        fields = entry["fields"]
        records.append(
            ArtifactRecord(
                kind=entry["kind"],
                path=entry["path"],
                modified=fields.get("modified"),
                accessed=fields.get("accessed"),
                created=fields.get("created"),
            )
        )
    return Snapshot.build(meta, records)


def _background_rules(sc: Scenario) -> list[UpdateRule]:
    return [
        rule
        for rules in sc.model.values()
        for rule in rules
        if isinstance(rule.mode, Background)
    ]


def run_scenario(sc: Scenario) -> ScenarioResult:
    """Replay the script, returning snapshots, observations and planted truth.

    Every planted trace pre-exists with baseline timestamps one day before the
    first step, so diffs see timestamp changes rather than record creation.
    Identical scenarios produce identical results, byte for byte once written.
    """
    state = _baseline_state(sc)
    background = _background_rules(sc)
    run_counter: dict[str, int] = {action: 0 for action in sc.model}
    session_started: set[tuple[str, int]] = set()
    snapshots: list[Snapshot] = []
    observations: dict[str, list[RunObservation]] = {action: [] for action in sc.model}

    for step_index, step in enumerate(sc.script):
        before = _snapshot(state, sc.meta)
        run = run_counter[step.action]
        first = (step.action, step.session_id) not in session_started
        session_started.add((step.action, step.session_id))

        firing: list[tuple[UpdateRule, int]] = []
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
                firing.append((rule, run))
        for rule in background:
            firing.append((rule, step_index))

        for rule, draw_index in firing:
            latency = (
                rule.latency_s
                if rule.latency_s is not None
                else draw_latency(sc.seed, rule.trace, draw_index)
            )
            state[fold_path(rule.trace)]["fields"][rule.field] = TimePoint(step.time + latency)

        after = _snapshot(state, sc.meta)
        snapshots.append(after)
        run_counter[step.action] += 1
        observations[step.action].append(
            RunObservation(
                run_index=run,
                session_id=step.session_id,
                first_of_session=first,
                launch_method=step.launch_method,
                before=before,
                after=after,
            )
        )

    return ScenarioResult(
        snapshots=tuple(snapshots),
        final=snapshots[-1],
        observations={a: tuple(o) for a, o in observations.items() if o},
        planted=planted_categories(sc),
    )


# --- planted truth ----------------------------------------------------------


def _planted_label(kind: RecordKind, modes: Mapping[str, UpdateMode], trace: str) -> CategoryLabel:
    def tag(field: str) -> str:
        mode = modes.get(field)
        if mode is None:
            return "none"
        if isinstance(mode, (Always, Background)):
            return "always"
        if isinstance(mode, FirstRunOfSession):
            return "fro"
        if isinstance(mode, Probability):
            return "irregular"
        return "usage"

    m, a, c = tag("modified"), tag("accessed"), tag("created")
    if kind is RecordKind.REGKEY:
        table = {"always": CategoryLabel.AU4, "fro": CategoryLabel.FRO, "irregular": CategoryLabel.IU}
        label = table.get(m)
        if label is None:
            raise ScenarioError(f"no planted category for registry trace {trace!r} with mode {m}")
        return label
    if m == "always" and a == "always" and c == "none":
        return CategoryLabel.AU1
    if m == "always" and a == "always" and c == "irregular":
        return CategoryLabel.AU2
    if a == "always" and m == "none" and c == "none":
        return CategoryLabel.AU3
    if m == "always" and a == "none" and c == "none":
        return CategoryLabel.AU5
    if "fro" in (m, a, c) and all(t in ("fro", "none") for t in (m, a, c)):
        return CategoryLabel.FRO
    if a == "usage" and m in ("none",) and c in ("none",):
        return CategoryLabel.UB
    if all(t in ("irregular", "none") for t in (m, a, c)) and (m, a, c) != ("none",) * 3:
        return CategoryLabel.IU
    raise ScenarioError(
        f"no planted category for trace {trace!r} with modes modified={m} accessed={a} created={c}"
    )


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
    for action in sc.model:
        entries: dict[str, TraceCategory] = {}
        rule_sets: dict[str, list[UpdateRule]] = {}
        for rule in sc.model[action]:
            rule_sets.setdefault(fold_path(rule.trace), []).append(rule)
        for rule in background:
            rule_sets.setdefault(fold_path(rule.trace), [])
            if all(r.field != rule.field for r in rule_sets[fold_path(rule.trace)]):
                rule_sets[fold_path(rule.trace)].append(rule)
        for folded, rules in rule_sets.items():
            modes = {rule.field: rule.mode for rule in rules}
            kind = rules[0].kind
            confounded = any(isinstance(r.mode, Background) for r in rules) or len(
                actions_of.get(folded, set())
            ) > 1
            label = _planted_label(kind, modes, rules[0].trace)
            entries[rules[0].trace] = TraceCategory(label, confounded)
        planted[action] = entries
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
        """No disagreement beyond documented sampling artifacts."""
        return (
            all(e.agrees or e.sampling_artifact for e in self.entries)
            and self.core_expected == self.core_actual
        )


def oracle_compare(
    planted: Mapping[str, TraceCategory],
    derived: Signature,
    matrix: UpdateMatrix,
    matrix_background: UpdateMatrix | None = None,
) -> OracleReport:
    """Compare planted categories against what classification recovered.

    A planted-irregular trace whose sampled vector came out all-true or
    all-false cannot be told apart from Always or Never by any classifier;
    such rows are flagged sampling artifacts rather than real disagreements.
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
            artifact = bool(vectors) and all(all(v) or not any(v) for v in vectors)
        entries.append(OracleEntry(trace, planted_cat, classified, agrees, artifact))
    core_expected = sum(1 for cat in planted.values() if cat.is_always and not cat.confounded)
    return OracleReport(
        entries=tuple(entries),
        core_expected=core_expected,
        core_actual=len(derived.core),
    )


# --- output tree ------------------------------------------------------------


def write_scenario_outputs(result: ScenarioResult, directory: str | Path) -> None:
    """Write final.csv, per-step snapshots, observations and planted.json."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "final.csv").write_text(save_snapshot(result.final), encoding="utf-8")
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
