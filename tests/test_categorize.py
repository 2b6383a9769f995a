import contextlib
import dataclasses
import itertools
import logging
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import ADMIN, HKU, frec, krec, snap_of, t, xp_meta
from tracesig import categorize, cli, evidence
from tracesig.capture import TraceNameSet
from tracesig.categorize import (
    CategoryLabel,
    FieldPattern,
    RunInfo,
    RunObservation,
    TraceAnalysis,
    TraceCategory,
    UpdateMatrix,
    build_update_matrices,
    build_update_matrix,
    categorize_matrix,
    category_of,
    classify_field,
    classify_trace,
    read_observations,
    write_observations,
)
from tracesig.data import fixture_text
from tracesig.evidence import (
    FIELDS,
    KIND_FIELDS,
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotFormatError,
    TimePoint,
    _parse_row,
    fold_path,
    parse_snapshot,
    read_csv,
    read_utf8,
    save_snapshot,
    time_keys,
)
from tracesig.signatures import derive_signature
from tracesig.simulate import (
    Always,
    Background,
    FirstRunOfSession,
    Probability,
    ScenarioError,
    UsageBased,
    _planted_label,
    load_scenario,
    run_scenario,
    write_scenario_outputs,
)

LNK = f"{ADMIN}\\Desktop\\App.lnk"


def runs_via(path):
    """Sessions 0,0,1,1,2,2 with ``path`` used to launch runs 0 and 3."""
    return (
        RunInfo(0, True, path),
        RunInfo(0, False, None),
        RunInfo(1, True, None),
        RunInfo(1, False, path.lower()),
        RunInfo(2, True, None),
        RunInfo(2, False, None),
    )


RUNS = runs_via(LNK)

# a vector with each pattern over ``runs_via(trace)``, for the trace itself
T, F = True, False
VECTOR_OF = {
    FieldPattern.ALWAYS: (T, T, T, T, T, T),
    FieldPattern.NEVER: (F, F, F, F, F, F),
    FieldPattern.FIRST_RUN_ONLY: (T, F, T, F, T, F),
    FieldPattern.USAGE_BASED: (T, F, F, T, F, F),
    FieldPattern.IRREGULAR: (T, T, F, F, F, F),
}
IUI_VECTOR = (T, T, T, F, T, F)  # Irregular, yet it hits every session's first run


def vectors_for(patterns, iui=False):
    return {
        f: IUI_VECTOR if iui and p is FieldPattern.IRREGULAR else VECTOR_OF[p]
        for f, p in patterns.items()
    }


def run_inputs(trace, runs):
    """What ``classify_trace`` reads of ``trace`` besides its kind, vectors
    and background updates, worked out from the trace and its runs: per run
    whether it was launched through the trace, whether the trace is a
    shortcut, and per run whether it was its session's first."""
    launched = tuple(
        r.launch_method is not None and fold_path(r.launch_method) == fold_path(trace)
        for r in runs
    )
    return launched, fold_path(trace).endswith(".lnk"), tuple(r.first_of_session for r in runs)


def classify_runs(trace, kind, vectors, runs, background_updates):
    """``classify_trace`` on ``trace``'s vectors over ``runs``."""
    return classify_trace(
        kind, tuple(vectors.items()), background_updates, *run_inputs(trace, runs)
    )


def field_pattern(vector, runs, trace):
    """``classify_field`` on ``trace``'s vector over ``runs``."""
    launched, _, firsts = run_inputs(trace, runs)
    return classify_field(vector, firsts, launched)


def classify(trace, kind, patterns, confounded=False, iui=False):
    """``classify_trace`` on vectors showing ``patterns``; the analysis alone."""
    analysis, _ = classify_runs(
        trace, kind, vectors_for(patterns, iui), runs_via(trace), confounded
    )
    return analysis


def reference_pattern(vector, runs, trace_path):
    """Deliberately naive restatement of the field-pattern definitions."""
    if False not in vector:
        return FieldPattern.ALWAYS
    if True not in vector:
        return FieldPattern.NEVER
    if list(vector) == [r.first_of_session for r in runs]:
        return FieldPattern.FIRST_RUN_ONLY
    launched_here = [
        r.launch_method is not None and fold_path(r.launch_method) == fold_path(trace_path)
        for r in runs
    ]
    if all(launched_here[i] for i, v in enumerate(vector) if v):
        return FieldPattern.USAGE_BASED
    return FieldPattern.IRREGULAR


class TestClassifyField:
    def test_exhaustive_against_reference(self):
        for n in (1, 2, 6):
            runs = RUNS[:n]
            for vector in itertools.product([False, True], repeat=n):
                for path in (LNK, "C:\\other.txt"):
                    assert field_pattern(vector, runs, path) == reference_pattern(
                        vector, runs, path
                    ), (vector, path)
        for pattern, vector in VECTOR_OF.items():
            assert field_pattern(vector, RUNS, LNK) is pattern
        assert field_pattern(IUI_VECTOR, RUNS, LNK) is FieldPattern.IRREGULAR

    def test_first_run_only_across_uneven_sessions(self):
        runs = [RunInfo(s, first, None) for s, first in
                [(0, True), (0, False), (0, False),
                 (1, True), (1, False), (1, False),
                 (2, True), (2, False), (2, False), (2, False)]]
        vector = [r.first_of_session for r in runs]
        assert field_pattern(vector, runs, "C:\\x.dat") is FieldPattern.FIRST_RUN_ONLY

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            field_pattern((True,), RUNS, LNK)

    def test_usage_based_needs_the_path(self):
        vector = VECTOR_OF[FieldPattern.USAGE_BASED]
        assert field_pattern(vector, RUNS, "C:\\other.lnk") is FieldPattern.IRREGULAR
        assert field_pattern(vector, RUNS, LNK) is FieldPattern.USAGE_BASED


class TestClassifyTrace:
    def file_cases(self):
        A, N, F, I = (
            FieldPattern.ALWAYS,
            FieldPattern.NEVER,
            FieldPattern.FIRST_RUN_ONLY,
            FieldPattern.IRREGULAR,
        )
        return [
            ({"modified": A, "accessed": A, "created": N}, CategoryLabel.AU1, "modified"),
            ({"modified": A, "accessed": A, "created": I}, CategoryLabel.AU2, "modified"),
            ({"modified": N, "accessed": A, "created": N}, CategoryLabel.AU3, "accessed"),
            ({"modified": A, "accessed": N, "created": N}, CategoryLabel.AU5, "modified"),
            ({"modified": F, "accessed": F, "created": N}, CategoryLabel.FRO, "modified"),
            ({"modified": N, "accessed": F, "created": N}, CategoryLabel.FRO, "accessed"),
            ({"modified": N, "accessed": I, "created": N}, CategoryLabel.IU, "accessed"),
            ({"modified": I, "accessed": I, "created": N}, CategoryLabel.IU, "modified"),
            ({"modified": N, "accessed": N, "created": N}, CategoryLabel.NEVER, "modified"),
        ]

    def test_file_category_table(self):
        for patterns, label, field in self.file_cases():
            got = classify("C:\\some\\trace.dat", RecordKind.FILE, patterns)
            assert got == TraceAnalysis(TraceCategory(label), field), patterns

    def test_registry_category_table(self):
        table = [
            (FieldPattern.ALWAYS, CategoryLabel.AU4),
            (FieldPattern.FIRST_RUN_ONLY, CategoryLabel.FRO),
            (FieldPattern.IRREGULAR, CategoryLabel.IU),
            (FieldPattern.NEVER, CategoryLabel.NEVER),
        ]
        for pattern, expected in table:
            got = classify("HKEY_USERS\\X", RecordKind.REGKEY, {"modified": pattern})
            assert got == TraceAnalysis(TraceCategory(expected), "modified")

    def test_background_flag_marks_confounded(self):
        got = classify(
            "C:\\x",
            RecordKind.FILE,
            {"modified": FieldPattern.ALWAYS, "accessed": FieldPattern.ALWAYS},
            confounded=True,
        )
        assert got.category.label is CategoryLabel.AU1 and got.category.confounded

    def test_shortcut_usage_pattern(self):
        got = classify(
            LNK,
            RecordKind.FILE,
            {"modified": FieldPattern.USAGE_BASED, "accessed": FieldPattern.USAGE_BASED},
        )
        # a launch shows on the shortcut's accessed time, whatever modified does
        assert got == TraceAnalysis(TraceCategory(CategoryLabel.UB), "accessed")

    def test_usage_pattern_off_a_shortcut_is_not_ub(self):
        got = classify("C:\\x.txt", RecordKind.FILE, {"accessed": FieldPattern.USAGE_BASED})
        assert got.category.label is not CategoryLabel.UB

    def test_iui_needs_every_session_first_covered(self):
        runs = RUNS[:4]
        hit, _ = classify_runs(
            "C:\\cookie.txt", RecordKind.FILE, {"accessed": (T, F, T, T)}, runs, False
        )
        assert hit == TraceAnalysis(TraceCategory(CategoryLabel.IUI), "accessed")
        miss, _ = classify_runs(
            "C:\\cookie.txt", RecordKind.FILE, {"accessed": (T, T, F, T)}, runs, False
        )
        assert miss == TraceAnalysis(TraceCategory(CategoryLabel.IU), "accessed")

    def test_off_lattice_combo_degrades_to_iu(self, caplog):
        patterns = {"modified": FieldPattern.NEVER, "created": FieldPattern.ALWAYS}
        got, off = classify_runs(
            "C:\\odd", RecordKind.FILE, vectors_for(patterns), runs_via("C:\\odd"), False
        )
        assert got == TraceAnalysis(TraceCategory(CategoryLabel.IU), "created")
        assert off == (FieldPattern.NEVER, FieldPattern.NEVER, FieldPattern.ALWAYS)
        with caplog.at_level("DEBUG", logger="tracesig"):
            analyses = categorize_matrix(one_trace_matrix("C:\\odd", RecordKind.FILE, patterns))
        assert analyses == {"c:\\odd": got}
        [record] = [r for r in caplog.records if r.levelno == logging.DEBUG]
        assert record.getMessage() == (
            "trace 'C:\\\\odd' has pattern combination outside the category lattice "
            "(modified=Never accessed=Never created=Always); treating as IU"
        )


# --- the two if-chains the lattice table replaced -----------------------------

_oracle_log = logging.getLogger("tests.lattice_oracle")


def chain_classify_trace(trace, patterns, kind, background_updates, *, accessed_vector=None, runs=None):
    """``classify_trace`` as an if-chain, before the lattice became a table,
    kept as its oracle."""
    m = patterns.get("modified", FieldPattern.NEVER)
    a = patterns.get("accessed", FieldPattern.NEVER)
    c = patterns.get("created", FieldPattern.NEVER)

    def cat(label):
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
        _oracle_log.warning("registry trace %r off the lattice", trace)
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
    _oracle_log.warning("trace %r off the lattice", trace)
    return cat(CategoryLabel.IU)


def chain_core_field(patterns):
    """``signatures._core_field``, the field a core trace was keyed on before
    the lattice named it, kept as its oracle."""
    if patterns.get("modified") is FieldPattern.ALWAYS:
        return "modified"
    return "accessed"


def chain_field(category, patterns):
    """``signatures._supporting_field``, which also keyed always-updated
    traces through ``chain_core_field``, kept as the field oracle."""
    if category.label is CategoryLabel.FRO:
        for f in FIELDS:
            if patterns.get(f) is FieldPattern.FIRST_RUN_ONLY:
                return f
    if category.label.value.startswith("AU"):
        return chain_core_field(patterns)
    for f in FIELDS:
        if patterns.get(f, FieldPattern.NEVER) is not FieldPattern.NEVER:
            return f
    return "modified"


def chain_planted_label(kind, modes, trace):
    """The simulator's planted label as an if-chain over mode tags, before it
    read the lattice table, kept as its oracle."""

    def tag(field):
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
    raise ScenarioError(f"no planted category for trace {trace!r}")


FIELD_NAMES = ("modified", "accessed", "created")
PATHS = (LNK, "C:\\some\\trace.dat")
REG_PATH = "HKEY_USERS\\X\\Key"


def lattice_inputs():
    """All 125 file triples on a shortcut and on a plain file, and the five
    registry patterns, as (trace, kind, patterns)."""
    for path in PATHS:
        for trio in itertools.product(FieldPattern, repeat=3):
            yield path, RecordKind.FILE, dict(zip(FIELD_NAMES, trio))
    for pattern in FieldPattern:
        yield REG_PATH, RecordKind.REGKEY, {"modified": pattern}


def one_trace_matrix(trace, kind, patterns, iui=False):
    folded = fold_path(trace)
    return UpdateMatrix(
        runs=runs_via(trace),
        vectors={folded: vectors_for(patterns, iui)},
        kinds={folded: kind},
        display={folded: trace},
        meta=xp_meta(),
    )


class TestLatticeAgainstTheIfChains:
    def test_classifier_labels_match_the_chain(self):
        moved = []
        for trace, kind, patterns in lattice_inputs():
            for iui in (False, True):
                vectors = vectors_for(patterns, iui)
                for confounded in (False, True):
                    got, off = classify_runs(trace, kind, vectors, runs_via(trace), confounded)
                    category = chain_classify_trace(
                        trace, patterns, kind, confounded,
                        accessed_vector=vectors.get("accessed"), runs=runs_via(trace),
                    )
                    assert got.category == category, (trace, patterns, iui)
                    shortcut = fold_path(trace).endswith(".lnk")
                    assert (off is None) == (category_of(kind, patterns, shortcut) is not None)
                    if got.field != chain_field(category, patterns):
                        moved.append((category.label, patterns["modified"]))
                    else:
                        assert got == TraceAnalysis(category, chain_field(category, patterns))
        # the only field that moved: a shortcut launch shows on its accessed time
        assert moved and all(
            label is CategoryLabel.UB and modified is not FieldPattern.NEVER
            for label, modified in moved
        )
        assert len(moved) == 2 * 2 * 4 * 5  # iui, confounded, modified, created

    def test_warning_fires_exactly_off_the_lattice(self, caplog):
        off = []
        for trace, kind, patterns in lattice_inputs():
            caplog.clear()
            with caplog.at_level("DEBUG", logger="tracesig"):
                categorize_matrix(one_trace_matrix(trace, kind, patterns))
            warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
            details = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
            is_off = category_of(kind, patterns, fold_path(trace).endswith(".lnk")) is None
            assert len(warnings) == len(details) == is_off, (trace, patterns)
            if is_off:
                assert warnings[0].startswith("1 trace(s) have pattern combinations outside")
                assert "outside the category lattice" in details[0] and repr(trace) in details[0]
                off.append((kind, tuple(patterns.values())))
        # every Irregular/Never file triple is on the lattice now
        irregular_or_never = {FieldPattern.IRREGULAR, FieldPattern.NEVER}
        assert not any(set(trio) <= irregular_or_never for _, trio in off)
        assert (RecordKind.REGKEY, (FieldPattern.USAGE_BASED,)) in off

    def test_planted_labels_match_the_chain(self):
        modes = (
            None,
            Always(),
            Background(),
            FirstRunOfSession(),
            Probability(0.5),
            UsageBased("C:\\launcher.lnk"),
        )
        cases = [
            (path, RecordKind.FILE, dict(zip(FIELD_NAMES, trio)))
            for path in PATHS
            for trio in itertools.product(modes, repeat=3)
        ]
        cases += [(REG_PATH, RecordKind.REGKEY, {"modified": mode}) for mode in modes]
        for trace, kind, field_modes in cases:
            field_modes = {f: mode for f, mode in field_modes.items() if mode is not None}
            usage_accessed = isinstance(field_modes.get("accessed"), UsageBased)
            try:
                want = chain_planted_label(kind, field_modes, trace)
            except ScenarioError:
                want = None
            if usage_accessed and kind is RecordKind.FILE:
                # UB now follows the classifier: a shortcut, whatever else
                # its other fields do, and nothing else
                if trace == LNK:
                    assert _planted_label(kind, field_modes, trace) is CategoryLabel.UB
                else:
                    with pytest.raises(ScenarioError, match="no planted category"):
                        _planted_label(kind, field_modes, trace)
                continue
            if want is not None:
                assert _planted_label(kind, field_modes, trace) is want, (trace, field_modes)


def two_run_obs(meta=None):
    """Two runs: alpha.dat updates both times, beta.dat only once."""
    meta = meta or xp_meta()
    mk = lambda iso_a, iso_b: snap_of(
        [frec("C:\\alpha.dat", m=iso_a), frec("C:\\beta.dat", m=iso_b)], meta=meta
    )
    return [
        RunObservation(
            0, 0, None,
            mk("2010-04-01T10:00:00Z", "2010-04-01T10:00:00Z"),
            mk("2010-04-01T11:00:00Z", "2010-04-01T11:00:00Z"),
        ),
        RunObservation(
            1, 0, None,
            mk("2010-04-01T11:00:00Z", "2010-04-01T11:00:00Z"),
            mk("2010-04-01T12:00:00Z", "2010-04-01T11:00:00Z"),
        ),
    ]


class TestBuildUpdateMatrix:
    def test_vectors_reflect_timestamp_changes(self):
        matrix = build_update_matrix(two_run_obs(), TraceNameSet.of(["C:\\alpha.dat", "C:\\beta.dat"]))
        assert matrix.vectors["c:\\alpha.dat"]["modified"] == (True, True)
        assert matrix.vectors["c:\\beta.dat"]["modified"] == (True, False)

    def test_appearing_record_counts_as_update(self):
        meta = xp_meta()
        before = snap_of([frec("C:\\anchor", m="2010-04-01T09:00:00Z")], meta=meta)
        after = snap_of(
            [frec("C:\\anchor", m="2010-04-01T09:00:00Z"), frec("C:\\new.log", m="2010-04-01T10:00:00Z")],
            meta=meta,
        )
        matrix = build_update_matrix(
            [RunObservation(0, 0, None, before, after)], TraceNameSet.of(["C:\\new.log"])
        )
        assert matrix.vectors["c:\\new.log"]["modified"] == (True,)

    def test_absent_traces_are_omitted(self):
        matrix = build_update_matrix(two_run_obs(), TraceNameSet.of(["C:\\alpha.dat", "C:\\ghost"]))
        assert matrix.traces() == ["c:\\alpha.dat"]
        assert "c:\\ghost" not in matrix.vectors

    def test_minute_precision_hides_same_minute_updates(self):
        meta = xp_meta()
        mk = lambda iso: snap_of([krec("HKEY_LOCAL_MACHINE\\K", iso)], meta=meta)
        obs = [RunObservation(0, 0, None, mk("2010-04-01T10:00:00Z"), mk("2010-04-01T10:00:00Z"))]
        matrix = build_update_matrix(obs, TraceNameSet.of(["HKEY_LOCAL_MACHINE\\K"]))
        assert matrix.vectors["hkey_local_machine\\k"]["modified"] == (False,)

    def test_run_indexes_must_be_contiguous(self):
        obs = two_run_obs()
        broken = [obs[0], RunObservation(2, 0, None, obs[1].before, obs[1].after)]
        with pytest.raises(ValueError, match="0..n-1"):
            build_update_matrix(broken, TraceNameSet.of(["C:\\alpha.dat"]))

    def test_meta_must_agree_across_runs(self):
        obs, names = two_run_obs(), TraceNameSet.of(["C:\\alpha.dat"])
        later = two_run_obs(meta=xp_meta(capture="2010-04-14T17:19:00Z"))
        build_update_matrix([obs[0], later[1]], names)  # only the capture time differs
        other = two_run_obs(meta=xp_meta(home_path="\\Documents and Settings\\Other"))
        with pytest.raises(ValueError, match="metadata: home_path differ$"):
            build_update_matrix([obs[0], other[1]], names)
        # the fields are named in declaration order, and the capture time never
        other = two_run_obs(meta=xp_meta(capture="2010-04-14T17:19:00Z", sids=("S-1-5-18",),
                                          system_root="D:\\WINNT"))
        with pytest.raises(ValueError, match="metadata: system_root, sids differ$"):
            build_update_matrix([obs[0], other[1]], names)

    def test_first_of_session_follows_run_order(self):
        run = two_run_obs()[0]
        runs = [
            RunObservation(i, session, None, run.before, run.after)
            for i, session in enumerate([1, 0, 1, 0, 2])
        ]
        matrix = build_update_matrix(runs[::-1], TraceNameSet.of(["C:\\alpha.dat"]))
        assert [r.first_of_session for r in matrix.runs] == [True, True, False, False, True]

    def test_empty_observation_list_rejected(self):
        with pytest.raises(ValueError):
            build_update_matrix([], TraceNameSet.of(["C:\\x"]))


# The metadata block and header row of a snapshot under ``xp_meta``.
SNAPSHOT_HEAD = save_snapshot(snap_of([]))
T1, T2 = "2010-04-12T14:30:37Z", "2010-04-13T09:00:00Z"


def parsed(*rows):
    return parse_snapshot(SNAPSHOT_HEAD + "".join(row + "\n" for row in rows))


def row_matrix(*runs, name="C:\\x"):
    """The matrix of one trace over runs given as (before rows, after rows)."""
    obs = [RunObservation(i, 0, None, parsed(*b), parsed(*a)) for i, (b, a) in enumerate(runs)]
    return build_update_matrix(obs, TraceNameSet.of([name]))


class TestDiffOfRowText:
    """``build_update_matrix`` compares cells as text; each case where text
    that differs means the same ``TimePoint``, or the reverse."""

    def test_empty_precision_is_one(self):
        empty, one = f"file,C:\\x,{T1},,,", f"file,C:\\x,{T1},,,1"
        matrix = row_matrix(([empty], [one]), ([one], [empty]))
        assert matrix.vectors == {"c:\\x": {"modified": (False, False)}}

    def test_same_time_text_at_another_precision_is_an_update(self):
        matrix = row_matrix(([f"file,C:\\x,{T1},,,1"], [f"file,C:\\x,{T1},,,60"]))
        assert matrix.vectors == {"c:\\x": {"modified": (True,)}}

    def test_kind_cell_and_path_case_fold(self):
        matrix = row_matrix(([f"FILE,C:\\X,{T1},,,1"], [f"file,c:\\x,{T1},,,1"]))
        assert matrix.vectors == {"c:\\x": {"modified": (False,)}}
        assert matrix.kinds == {"c:\\x": RecordKind.FILE}

    def test_display_keeps_the_first_seen_spelling(self):
        matrix = row_matrix(
            ([], [f"file,C:\\App\\X.dat,{T1},,,1"]),
            ([f"file,c:\\APP\\x.DAT,{T1},,,1"], [f"file,c:\\app\\x.dat,{T2},,,1"]),
            name="C:\\App\\X.dat",
        )
        assert matrix.display == {"c:\\app\\x.dat": "C:\\App\\X.dat"}
        assert matrix.vectors["c:\\app\\x.dat"] == {"modified": (True, True)}


def checked_matrix(obs, names):
    """``build_update_matrix`` of ``obs``, checked against ``reference_matrix``
    (run after it: the reference builds every record it reads)."""
    matrix = build_update_matrix(obs, TraceNameSet.of(names))
    assert matrix == reference_matrix(obs, TraceNameSet.of(names))
    return matrix


class TestColumnBuild:
    """Pinned cases of values that reach the update columns in different
    forms: rows kept as text, records built at parse or by a lookup, and
    dict-backed snapshots."""

    def test_a_quoted_row_beside_its_plain_spelling(self):
        quoted = parsed(f'"file","C:\\x","{T1}","","",""')
        assert not isinstance(quoted.stored[RecordKind.FILE]["c:\\x"], str)  # built at parse
        plain, later = parsed(f"file,C:\\x,{T1},,,1"), parsed(f'file,"C:\\x",{T2},,,1')
        obs = [RunObservation(0, 0, None, quoted, plain), RunObservation(1, 0, None, plain, later)]
        matrix = checked_matrix(obs, ["C:\\x"])
        assert matrix.vectors == {"c:\\x": {"modified": (False, True)}}

    def test_a_built_record_whose_fields_mix_precisions(self):
        mixed = snap_of([ArtifactRecord(
            RecordKind.FILE, "C:\\x", TimePoint(t(T1), 1), TimePoint(t(T1), 60), None
        )])
        row = parsed(f"file,C:\\x,{T1},{T1},,")
        obs = [RunObservation(0, 0, None, row, mixed), RunObservation(1, 0, None, mixed, row)]
        matrix = checked_matrix(obs, ["C:\\x"])
        assert matrix.vectors == {"c:\\x": {"modified": (False, False), "accessed": (True, True)}}

    def test_an_empty_precision_cell_against_a_record_at_1(self):
        row, record = parsed(f"file,C:\\x,{T1},,,"), snap_of([frec("C:\\x", m=T1)])
        obs = [RunObservation(0, 0, None, row, record), RunObservation(1, 0, None, record, row)]
        matrix = checked_matrix(obs, ["C:\\x"])
        assert matrix.vectors == {"c:\\x": {"modified": (False, False)}}

    def test_a_name_absent_from_some_snapshots(self):
        empty, first, second = parsed(), parsed(f"file,C:\\x,{T1},,,1"), parsed(f"file,C:\\x,{T2},,,1")
        obs = [
            RunObservation(0, 0, None, empty, first),
            RunObservation(1, 0, None, first, empty),
            RunObservation(2, 1, None, empty, second),
            RunObservation(3, 1, None, second, second),
        ]
        matrix = checked_matrix(obs, ["C:\\x", "C:\\ghost"])
        assert matrix.vectors == {"c:\\x": {"modified": (True, False, True, False)}}

    def test_a_name_held_as_a_file_and_as_a_key(self):
        """Where a snapshot holds both, the file is read; the kind is that of
        the first record the runs hold."""
        path = "HKEY_LOCAL_MACHINE\\Both"
        both = parsed(f"file,{path},{T1},,,1", f"regkey,{path},{T2},,,1")
        key = parsed(f"regkey,{path},{T2},,,1")
        forward = checked_matrix([RunObservation(0, 0, None, both, key)], [path])
        assert forward.vectors == {path.lower(): {"modified": (True,)}}
        assert forward.kinds == {path.lower(): RecordKind.FILE}
        backward = checked_matrix([RunObservation(0, 0, None, key, both)], [path])
        assert backward.vectors == {path.lower(): {"modified": (True,)}}
        assert backward.kinds == {path.lower(): RecordKind.REGKEY}

    def test_spellings_that_differ_in_case(self):
        """``display`` is the path of the first record, whatever its form."""
        quoted = parsed(f'file,"C:\\App\\X.dat",{T1},,,1')
        lower, upper = parsed(f"file,c:\\app\\x.dat,{T1},,,"), parsed(f"FILE,C:\\APP\\X.DAT,{T2},,,1")
        upper.get(RecordKind.FILE, "C:\\App\\X.dat")  # built by a lookup
        for snaps, first in [((quoted, lower, upper), "C:\\App\\X.dat"),
                             ((upper, quoted, lower), "C:\\APP\\X.DAT"),
                             ((lower, upper, quoted), "c:\\app\\x.dat")]:
            obs = [RunObservation(i, 0, None, b, a) for i, (b, a) in enumerate(zip(snaps, snaps[1:]))]
            matrix = checked_matrix(obs, ["C:\\App\\X.dat"])
            assert matrix.display == {"c:\\app\\x.dat": first}


# The records the oracle below draws from: a path whose row must be quoted, a
# file named like a registry key beside that key (the file is looked up
# first), and a key under HKEY_USERS.
ORACLE_PATHS = [
    (RecordKind.FILE, "C:\\App\\a.dat"),
    (RecordKind.FILE, "C:\\App\\Smith, J.doc"),
    (RecordKind.FILE, "HKEY_LOCAL_MACHINE\\Both"),
    (RecordKind.REGKEY, "HKEY_LOCAL_MACHINE\\Both"),
    (RecordKind.REGKEY, f"{HKU}\\Software\\App"),
]
ORACLE_TIMES = ["2010-04-12T14:30:00Z", T1, T2]


@hs.composite
def oracle_row(draw, kind, path):
    """A row of ``path``, quoted or plain, in any case, with an empty, 1 or
    60 precision cell."""
    times = [draw(hs.sampled_from([None, *ORACLE_TIMES])) for _ in KIND_FIELDS[kind]]
    if not any(times):
        times[0] = draw(hs.sampled_from(ORACLE_TIMES))
    times += [None] * (len(FIELDS) - len(times))
    spelling = draw(hs.sampled_from([path, path.lower(), path.upper()]))
    if "," in path or draw(hs.booleans()):
        spelling = f'"{spelling}"'
    kind_cell = draw(hs.sampled_from([kind.value, kind.value.upper()]))
    precision = draw(hs.sampled_from(["", "1", "60"]))
    return ",".join([kind_cell, spelling, *(cell or "" for cell in times), precision])


@hs.composite
def oracle_snapshot(draw):
    """A snapshot of some of ``ORACLE_PATHS`` and its eager reference, every
    record built through ``_parse_row`` and ``Snapshot.build``.  The snapshot
    is parsed, parsed with some records looked up already, or is the
    dict-backed reference itself, perhaps with a record whose fields mix
    precisions, which no row can hold."""
    chosen = draw(hs.lists(hs.sampled_from(ORACLE_PATHS), unique=True))
    rows = [draw(oracle_row(kind, path)) for kind, path in chosen]
    eager = Snapshot.build(xp_meta(), read_csv(rows, _parse_row, SnapshotFormatError))
    form = draw(hs.sampled_from(["parsed", "looked up", "built"]))
    if form == "built":
        records = {rec.key: rec for rec in eager}
        if draw(hs.booleans()):
            mixed = [
                TimePoint(t(draw(hs.sampled_from(ORACLE_TIMES))), precision)
                for precision in (1, 60)
            ]
            rec = ArtifactRecord(RecordKind.FILE, ORACLE_PATHS[0][1], *mixed)
            records[rec.key] = rec
        snap = snap_of(records.values())
        return snap, snap
    snap = parsed(*rows)
    if form == "looked up" and chosen:
        for kind, path in draw(hs.lists(hs.sampled_from(chosen))):
            snap.get(kind, path)
    return snap, eager


def reference_matrix(obs, names):
    """The update matrix of ``obs`` (in run order), records compared as
    ``TimePoint``s."""
    sessions, runs, vectors, kinds, display = set(), [], {}, {}, {}
    for o in obs:
        runs.append(RunInfo(o.session_id, o.session_id not in sessions, o.launch_method))
        sessions.add(o.session_id)
    for name in names:
        lookup = lambda snap: next(
            (rec for kind in RecordKind if (rec := snap.records.get((kind, name)))), None
        )
        pairs = [(lookup(o.before), lookup(o.after)) for o in obs]
        seen = [rec for pair in pairs for rec in pair if rec is not None]
        if not seen:
            continue
        kinds[name], display[name] = seen[0].kind, seen[0].path
        point = lambda rec, f: None if rec is None else rec.timestamp(f)
        vectors[name] = {
            f: tuple(point(a, f) is not None and point(b, f) != point(a, f) for b, a in pairs)
            for f in FIELDS
            if any(rec.timestamp(f) is not None for rec in seen)
        }
    return UpdateMatrix(tuple(runs), vectors, kinds, display, obs[0].before.meta)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_update_matrix_agrees_with_time_points(data):
    """Also where snapshot objects are shared, as ``read_observations`` shares
    byte-equal run files: a run may start from the very snapshot the run
    before it ended in, and a background set may hold one of the action's
    snapshots, looked up in part between the two matrices."""
    count = data.draw(hs.integers(1, 3))
    pairs = [(data.draw(oracle_snapshot()), data.draw(oracle_snapshot())) for _ in range(count)]
    for i in range(1, count):
        if data.draw(hs.booleans()):
            pairs[i] = (pairs[i - 1][1], pairs[i][1])
    sessions = data.draw(hs.lists(hs.integers(0, 1), min_size=count, max_size=count))
    traced = data.draw(hs.lists(hs.sampled_from([p for _, p in ORACLE_PATHS] + ["C:\\ghost"])))
    names = TraceNameSet.of(traced)
    runs = list(enumerate(zip(sessions, pairs)))
    obs, eager = [
        [RunObservation(i, s, None, b[side], a[side]) for i, (s, (b, a)) in runs] for side in (0, 1)
    ]
    assert build_update_matrix(obs, names) == reference_matrix(eager, names)

    shared = data.draw(hs.sampled_from([snap for pair in pairs for snap in pair]))
    ambient = data.draw(hs.permutations([shared, data.draw(oracle_snapshot())]))
    for kind, path in data.draw(hs.lists(hs.sampled_from(ORACLE_PATHS))):
        shared[0].get(kind, path)
    background, eager_background = [
        [RunObservation(0, 0, None, ambient[0][side], ambient[1][side])] for side in (0, 1)
    ]
    assert build_update_matrix(background, names) == reference_matrix(eager_background, names)
    assert build_update_matrix(obs, names) == reference_matrix(eager, names)


def outcome(build):
    """What ``build()`` returns, or the text of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_update_matrices_agree_with_one_matrix_per_group(data):
    """One pass over the action and background groups gives each group the
    matrix it gets alone, where the groups share snapshot objects: each action
    run starts from the snapshot the run before it ended in, background runs
    hold action snapshots, a name may be held by background snapshots only,
    and each snapshot spells a path in its own case.  A group whose metadata
    is inconsistent raises the same error either way."""
    chain = [data.draw(oracle_snapshot()) for _ in range(data.draw(hs.integers(2, 4)))]
    own = data.draw(oracle_snapshot())  # a snapshot only the background holds
    pool = chain + [own]
    if data.draw(hs.booleans()):
        other = snap_of([], meta=xp_meta(system_root="D:\\WINNT"))
        pool.append((other, other))
    count = len(chain) - 1
    sessions = data.draw(hs.lists(hs.integers(0, 1), min_size=count, max_size=count))
    background_pairs = data.draw(
        hs.lists(hs.tuples(hs.sampled_from(pool), hs.sampled_from(pool)), min_size=1, max_size=3)
    )
    traced = data.draw(hs.lists(hs.sampled_from([p for _, p in ORACLE_PATHS] + ["C:\\ghost"])))
    names = TraceNameSet.of(traced)
    obs, eager = [
        [
            RunObservation(i, session, None, chain[i][side], chain[i + 1][side])
            for i, session in enumerate(sessions)
        ]
        for side in (0, 1)
    ]
    background, eager_background = [
        [RunObservation(i, 0, None, b[side], a[side]) for i, (b, a) in enumerate(background_pairs)]
        for side in (0, 1)
    ]

    both = outcome(lambda: build_update_matrices([obs, background], names))
    alone = outcome(lambda: [build_update_matrix(runs, names) for runs in (obs, background)])
    assert both == alone
    if isinstance(both, list):
        assert both == [reference_matrix(eager, names), reference_matrix(eager_background, names)]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_update_matrices_without_names_take_those_the_first_group_holds(data):
    """Without names, the build equals the build given the names the first
    group's snapshots hold: where a name first appears in a later snapshot
    than the first, so that the columns keyed before it give it as absent,
    and where runs and groups share snapshot objects, so that a later group
    meets snapshots the first one keyed."""
    pool = [data.draw(oracle_snapshot())[0] for _ in range(data.draw(hs.integers(2, 4)))]
    side = hs.sampled_from(pool)
    groups = [
        [
            RunObservation(run, data.draw(hs.integers(0, 1)), None, data.draw(side), data.draw(side))
            for run in range(data.draw(hs.integers(1, 3)))
        ]
        for _ in range(data.draw(hs.integers(1, 3)))
    ]
    held = TraceNameSet.of(
        path for o in groups[0] for snap in (o.before, o.after) for _, path in snap.records
    )
    assert build_update_matrices(groups, None) == build_update_matrices(groups, held)


@hs.composite
def run_file_text(draw):
    """The text of a run file: some of ``ORACLE_PATHS`` as rows (see
    ``oracle_row``), and the snapshot the eager reference reads from it."""
    chosen = draw(hs.lists(hs.sampled_from(ORACLE_PATHS), unique=True))
    rows = [draw(oracle_row(kind, path)) for kind, path in chosen]
    eager = Snapshot.build(xp_meta(), read_csv(rows, _parse_row, SnapshotFormatError))
    return SNAPSHOT_HEAD + "".join(f"{row}\n" for row in rows), eager


def write_run_files(directory, runs, spell):
    """``runs`` as (session, before text, after text), written as an
    observation directory, each file in the encoding ``spell`` draws."""
    directory.mkdir()
    sessions = ["run,session,launch_method"]
    for i, (session, before, after) in enumerate(runs):
        for side, text in (("before", before), ("after", after)):
            (directory / f"run{i:03d}_{side}.csv").write_bytes(spell(text))
        sessions.append(f"{i},{session},")
    (directory / "sessions.csv").write_text("\n".join(sessions) + "\n", encoding="utf-8")


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_run_files_give_the_matrices_of_their_snapshots(data):
    """Run files read by the build, the same runs as parsed snapshots, and the
    reference over eagerly built records give equal matrices: over chained
    action runs, background runs that hold the action's texts, names only
    some snapshots hold, and files with a byte-order mark or CRLF line ends,
    so that equal texts need not be equal bytes.  Without given names, the
    names are those the action snapshots hold."""
    chain = [data.draw(run_file_text()) for _ in range(data.draw(hs.integers(2, 4)))]
    pool = chain + [data.draw(run_file_text())]  # the last one only the background holds
    sessions = data.draw(hs.lists(hs.integers(0, 1), min_size=len(chain) - 1, max_size=len(chain) - 1))
    action = [(s, chain[i], chain[i + 1]) for i, s in enumerate(sessions)]
    background = [
        (0, *pair) for pair in data.draw(
            hs.lists(hs.tuples(hs.sampled_from(pool), hs.sampled_from(pool)), min_size=1, max_size=3)
        )
    ]
    paths = [p for _, p in ORACLE_PATHS] + ["C:\\ghost"]
    traced = data.draw(hs.none() | hs.lists(hs.sampled_from(paths)))
    names = None if traced is None else TraceNameSet.of(traced)
    bom = hs.sampled_from([b"", b"\xef\xbb\xbf"])
    ends = hs.sampled_from(["\n", "\r\n"])
    spell = lambda text: data.draw(bom) + text.replace("\n", data.draw(ends)).encode("utf-8")

    parsed = {}  # one snapshot per distinct text, as run files of equal texts share their keys
    in_memory = [
        [RunObservation(i, s, None, *(parsed.setdefault(t, parse_snapshot(t)) for t, _ in (b, a)))
         for i, (s, b, a) in enumerate(runs)]
        for runs in (action, background)
    ]
    eager = [
        [RunObservation(i, s, None, b[1], a[1]) for i, (s, b, a) in enumerate(runs)]
        for runs in (action, background)
    ]
    if names is None:
        snaps = [eager for _, before, after in action for _, eager in (before, after)]
        reference_names = TraceNameSet.of(path for snap in snaps for _, path in snap.records)
    else:
        reference_names = names
    with tempfile.TemporaryDirectory() as tmp:
        for name, runs in (("obs", action), ("bg", background)):
            write_run_files(Path(tmp) / name, [(s, b[0], a[0]) for s, b, a in runs], spell)
        from_files = build_update_matrices(
            [read_observations(Path(tmp) / name) for name in ("obs", "bg")], names
        )
    assert from_files == build_update_matrices(in_memory, names)
    assert from_files == [reference_matrix(runs, reference_names) for runs in eager]
    assert [m.meta for m in from_files] == [xp_meta(), xp_meta()]


class TestUpdateMatrices:
    """The cases the property above draws, each pinned once."""

    def test_a_name_only_the_background_holds(self):
        quiet = parsed(f"file,C:\\a,{T1},,,")
        busy = parsed(f"file,C:\\a,{T1},,,", f"file,C:\\bg,{T2},,,")
        obs = [RunObservation(0, 0, None, quiet, quiet)]
        background = [RunObservation(0, 0, None, quiet, busy)]
        names = TraceNameSet.of(["C:\\a", "C:\\bg"])
        action, ambient = build_update_matrices([obs, background], names)
        assert action.traces() == ["c:\\a"]
        assert ambient.vectors["c:\\bg"] == {"modified": (True,)}

    def test_each_group_keeps_its_own_first_spelling(self):
        shared = parsed(f"file,C:\\App\\X.dat,{T1},,,")
        other = parsed(f"file,c:\\APP\\x.DAT,{T2},,,")
        obs = [RunObservation(0, 0, None, shared, other)]
        background = [RunObservation(0, 0, None, other, shared)]
        names = TraceNameSet.of(["C:\\App\\X.dat"])
        action, ambient = build_update_matrices([obs, background], names)
        assert action.display == {"c:\\app\\x.dat": "C:\\App\\X.dat"}
        assert ambient.display == {"c:\\app\\x.dat": "c:\\APP\\x.DAT"}
        assert action.vectors == ambient.vectors == {"c:\\app\\x.dat": {"modified": (True,)}}

    def test_a_group_with_inconsistent_metadata_is_refused_as_alone(self):
        obs, names = two_run_obs(), TraceNameSet.of(["C:\\alpha.dat"])
        other = two_run_obs(meta=xp_meta(home_path="\\Documents and Settings\\Other"))
        mixed = [RunObservation(0, 0, None, obs[0].before, other[0].after)]
        with pytest.raises(ValueError, match="metadata: home_path differ$"):
            build_update_matrices([obs, mixed], names)
        late = [RunObservation(1, 0, None, obs[1].before, obs[1].after)]
        with pytest.raises(ValueError, match="0..n-1"):
            build_update_matrices([obs, late], names)


def test_derive_over_parsed_observations_builds_no_record(tmp_path, monkeypatch):
    """Loading, diffing and deriving over plain rows builds no record, and no
    ``TimePoint`` beyond each distinct run file's capture time."""
    scenario = load_scenario(fixture_text("demo_scenario.json"))
    write_scenario_outputs(run_scenario(scenario), tmp_path)
    built, points = [], []
    monkeypatch.setattr(evidence, "_build_record", lambda *args: built.append(args))
    record_check, point_check = ArtifactRecord.__post_init__, TimePoint.__post_init__
    monkeypatch.setattr(ArtifactRecord, "__post_init__", lambda r: built.append(r) or record_check(r))
    monkeypatch.setattr(TimePoint, "__post_init__", lambda p: points.append(p) or point_check(p))
    directory = tmp_path / "obs" / "app.open"
    texts = {path.read_bytes() for path in directory.glob("run*.csv")}
    obs = read_observations(directory)
    assert points == []  # the run files are read by the build
    matrix = build_update_matrix(obs)
    assert len(points) == len(texts) < 2 * len(obs)  # one parse per distinct file content
    sig = derive_signature("app.open", matrix, None)
    assert sig.core and matrix.vectors
    assert built == [] and len(points) == len(texts)


class TestCategorizeMatrix:
    def test_confounded_comes_from_background_matrix(self):
        names = TraceNameSet.of(["C:\\alpha.dat", "C:\\beta.dat"])
        action = build_update_matrix(two_run_obs(), names)
        meta = xp_meta()
        ambient = RunObservation(
            0, 0, None,
            snap_of([frec("C:\\beta.dat", m="2010-04-02T08:00:00Z")], meta=meta),
            snap_of([frec("C:\\beta.dat", m="2010-04-02T09:00:00Z")], meta=meta),
        )
        background = build_update_matrix([ambient], TraceNameSet.of(["C:\\beta.dat"]))
        analyses = categorize_matrix(action, background)
        assert analyses["c:\\alpha.dat"].category.label is CategoryLabel.AU5
        assert not analyses["c:\\alpha.dat"].category.confounded
        assert analyses["c:\\beta.dat"].category.confounded

    def test_off_lattice_traces_get_one_summary_warning(self, caplog):
        created_only = {"modified": (F, F), "accessed": (F, F), "created": (T, T)}
        traces = ["C:\\a.dat", "C:\\b.dat", "C:\\c.dat", "C:\\ok.dat"]
        vectors = {fold_path(t): created_only for t in traces[:3]}
        vectors[fold_path(traces[3])] = {"modified": (T, T)}
        matrix = UpdateMatrix(
            runs=RUNS[:2],
            vectors=vectors,
            kinds={fold_path(t): RecordKind.FILE for t in traces},
            display={fold_path(t): t for t in traces},
            meta=xp_meta(),
        )
        with caplog.at_level("DEBUG", logger="tracesig"):
            analyses = categorize_matrix(matrix)
        [warning] = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warning.startswith("3 trace(s) have pattern combinations outside")
        details = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert [t for t in traces if any(repr(t) in d for d in details)] == traces[:3]
        assert analyses["c:\\a.dat"] == TraceAnalysis(TraceCategory(CategoryLabel.IU), "created")

    def test_without_background_nothing_is_confounded(self):
        action = build_update_matrix(two_run_obs(), TraceNameSet.of(["C:\\beta.dat"]))
        analyses = categorize_matrix(action)
        assert not analyses["c:\\beta.dat"].category.confounded


def loaded(observations):
    """``observations`` with each side parsed from the run file it names."""
    return [
        dataclasses.replace(
            o, **{side: parse_snapshot(read_utf8(getattr(o, side))) for side in ("before", "after")}
        )
        for o in observations
    ]


class TestObservationStorage:
    def test_round_trip(self, tmp_path):
        obs = two_run_obs()
        write_observations(tmp_path / "obs", obs)
        again = read_observations(tmp_path / "obs")
        assert [(o.before.name, o.after.name) for o in again] == [
            ("run000_before.csv", "run000_after.csv"), ("run001_before.csv", "run001_after.csv")
        ]
        assert loaded(again) == obs

    def test_round_trip_past_run_999(self, tmp_path):
        """Run 1000 is written as ``run1000_*.csv`` and read back; a name
        padded past three digits, which no run is written as, is a stray file."""
        snap = two_run_obs()[0].before
        obs = [RunObservation(i, i // 2, None, snap, snap) for i in range(1001)]
        write_observations(tmp_path, obs)
        assert (tmp_path / "run1000_after.csv").exists()
        (tmp_path / "run0001_before.csv").write_text("not a snapshot\n", encoding="utf-8")
        assert loaded(read_observations(tmp_path)) == obs

    def test_a_run_number_in_other_digits_is_a_stray_file(self, tmp_path, monkeypatch):
        """``run٠٠٠_after.csv`` (Arabic-Indic digits, which ``int`` reads as
        0) beside ``run000_after.csv`` is ignored, whichever is listed last."""
        obs = two_run_obs()
        write_observations(tmp_path, obs)
        run = tmp_path / "run000_after.csv"
        decoy = tmp_path / "run\u0660\u0660\u0660_after.csv"
        extra = "file,C:\\decoy,2010-04-01T10:00:00Z,,,1\n"
        decoy.write_text(run.read_text(encoding="utf-8") + extra, encoding="utf-8")
        listed = Path.iterdir
        for order in (sorted, lambda paths: sorted(paths, reverse=True)):
            monkeypatch.setattr(Path, "iterdir", lambda self, order=order: iter(order(listed(self))))
            assert loaded(read_observations(tmp_path)) == obs

    def test_launch_method_survives(self, tmp_path):
        obs = two_run_obs()
        obs[0] = RunObservation(0, 0, LNK, obs[0].before, obs[0].after)
        write_observations(tmp_path, obs)
        assert read_observations(tmp_path)[0].launch_method == LNK

    def test_missing_sessions_file(self, tmp_path):
        write_observations(tmp_path, two_run_obs())
        (tmp_path / "sessions.csv").unlink()
        with pytest.raises(ValueError, match="sessions.csv"):
            read_observations(tmp_path)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("x,0,", "line 2: run must be an integer, got 'x'"),
            ("0,s1,", "line 2: session must be an integer, got 's1'"),
            ("٠,0,", "line 2: run must be an integer, got '٠'"),
            ("0,0", "line 2: row has 2 columns, expected 3"),
            ("1,5,", "line 3: run 1 is listed twice"),
        ],
    )
    def test_bad_sessions_row_is_named(self, row, message, tmp_path):
        write_observations(tmp_path, two_run_obs())
        sessions = tmp_path / "sessions.csv"
        lines = sessions.read_text(encoding="utf-8").splitlines()
        lines[1] = row
        sessions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as info:
            read_observations(tmp_path)
        assert str(info.value) == f"{sessions}: {message}"

    def test_bad_run_file_is_named(self, tmp_path):
        write_observations(tmp_path, two_run_obs())
        run = tmp_path / "run001_before.csv"
        text = run.read_text(encoding="utf-8")
        run.write_text(text.replace("\nfile,", "\nfiel,", 1), encoding="utf-8")
        obs = read_observations(tmp_path)  # the layout and sessions.csv only
        with pytest.raises(SnapshotFormatError) as info:
            build_update_matrix(obs)
        assert str(info.value) == f"{run}: line 8: unknown record kind 'fiel'"

    def test_byte_equal_run_files_share_one_snapshot(self, tmp_path, monkeypatch):
        """Run files with equal bytes, in one directory or across both, are
        parsed once between them, and unequal files each once; the matrices
        are those of the parsed snapshots."""
        write_scenario_outputs(run_scenario(load_scenario(fixture_text("demo_scenario.json"))), tmp_path)
        groups = [read_observations(tmp_path / "obs" / name) for name in ("app.open", "web.browse")]
        app, web = [{getattr(o, side).read_bytes() for o in obs for side in ("before", "after")}
                    for obs in groups]
        assert len(app) < 2 * len(groups[0]) and app & web  # shared within and across
        parsed = []
        parse = categorize.parse_snapshot
        monkeypatch.setattr(categorize, "parse_snapshot", lambda text: parsed.append(text) or parse(text))
        matrices = build_update_matrices(groups, None)
        assert len(parsed) == len(set(parsed)) == len(app | web)
        assert matrices == build_update_matrices([loaded(obs) for obs in groups], None)

    def test_non_utf8_run_file_is_named(self, tmp_path):
        write_observations(tmp_path, two_run_obs())
        run = tmp_path / "run000_after.csv"
        run.write_bytes(run.read_bytes() + b"\xff")
        obs = read_observations(tmp_path)
        with pytest.raises(ValueError, match=f"^{re.escape(str(run))} is not UTF-8 text: "):
            build_update_matrix(obs)

    def test_missing_after_snapshot(self, tmp_path):
        write_observations(tmp_path, two_run_obs())
        (tmp_path / "run001_after.csv").unlink()
        with pytest.raises(ValueError, match="after"):
            read_observations(tmp_path)

    def test_gap_in_run_numbers(self, tmp_path):
        write_observations(tmp_path, two_run_obs())
        for side in ("before", "after"):
            (tmp_path / f"run001_{side}.csv").rename(tmp_path / f"run005_{side}.csv")
        with pytest.raises(ValueError, match="contiguous"):
            read_observations(tmp_path)


def chained_runs(directory, count, records=500):
    """``count`` chained runs of an action over ``records`` records, each run
    updating every 16th record in turn, written as an observation directory."""
    paths = [f"C:\\App\\data\\file{i:04d}.dat" for i in range(records - records // 5)]
    paths += [f"{HKU}\\Software\\App\\Key{i:04d}" for i in range(records // 5)]
    hours = [0] * len(paths)
    snaps = []
    for run in range(count + 1):
        for i in range(run % 16, len(paths), 16):
            hours[i] = run
        snaps.append(snap_of(
            (krec if path.startswith("HKEY") else frec)(path, f"2010-04-0{1 + h // 24}T{h % 24:02d}:00:00Z")
            for path, h in zip(paths, hours)
        ))
    runs = [RunObservation(i, i // 2, None, snaps[i], snaps[i + 1]) for i in range(count)]
    write_observations(directory, runs)


def test_derive_keeps_one_snapshot_alive_at_a_time(tmp_path, capsys):
    """``derive``'s traced peak memory over 16 chained runs of 500 records
    exceeds that over 4 runs by at most a quarter of one parsed snapshot per
    added run: what it keeps of a snapshot once it is keyed is a small part
    of the snapshot."""
    chained_runs(tmp_path / "four", 4)
    chained_runs(tmp_path / "sixteen", 16)
    text = (tmp_path / "four" / "run000_before.csv").read_text(encoding="utf-8")
    tracemalloc.start()
    try:
        snapshot = parse_snapshot(text)
        parsed_size = tracemalloc.get_traced_memory()[0]
        del snapshot
        peaks = {}
        for name in ("four", "sixteen"):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            derive = ["derive", "--obs", str(tmp_path / name), "--action", "app.open",
                      "-o", str(tmp_path / f"{name}.sig")]
            assert cli.main(derive) == 0
            peaks[name] = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    entries = {
        name: (tmp_path / f"{name}.sig").read_text(encoding="utf-8").count('"kind"') for name in peaks
    }
    assert 0 < entries["four"] < entries["sixteen"]
    assert peaks["sixteen"] - peaks["four"] <= 12 * parsed_size / 4, (peaks, parsed_size)


# --- one classification per distinct input --------------------------------


def reference_categorize(action, background=None):
    """``categorize_matrix`` as one ``classify_trace`` per trace, and the
    DEBUG line each off-lattice trace gets, in trace order."""
    out, details = {}, []
    for trace in action.traces():
        background_updates = background.any_update(trace) if background is not None else False
        out[trace], off = classify_runs(
            action.display[trace],
            action.kinds[trace],
            action.vectors[trace],
            action.runs,
            background_updates,
        )
        if off is not None:
            details.append(
                f"trace {action.display[trace]!r} has pattern combination outside the category "
                f"lattice (modified={off[0].value} accessed={off[1].value} "
                f"created={off[2].value}); treating as IU"
            )
    return out, details


class _Records(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.DEBUG)
        self.records = []

    def emit(self, record) -> None:
        self.records.append(record)


@contextlib.contextmanager
def logged():
    """Every message the package logs in the block, DEBUG up, as (level, text)."""
    handler, package = _Records(), logging.getLogger("tracesig")
    level = package.level
    package.addHandler(handler)
    package.setLevel(logging.DEBUG)
    messages = []
    try:
        yield messages
    finally:
        package.removeHandler(handler)
        package.setLevel(level)
        messages.extend((r.levelno, r.getMessage()) for r in handler.records)


# Shortcuts, plain files (one named like a shortcut) and registry keys (one
# ending in .lnk).
CATEGORY_PATHS = [
    (RecordKind.FILE, "C:\\App\\App.lnk"),
    (RecordKind.FILE, "C:\\Desk\\Run.LNK"),
    (RecordKind.FILE, "C:\\App\\lnk.dat"),
    *((RecordKind.FILE, f"C:\\App\\cache{i}.dat") for i in range(6)),
    (RecordKind.REGKEY, f"{HKU}\\Software\\App"),
    (RecordKind.REGKEY, "HKEY_LOCAL_MACHINE\\Software\\App.lnk"),
]


@hs.composite
def category_matrix(draw):
    """An action matrix of 1-5 runs in random sessions, each launched through
    nothing or through one of the traces spelled in another case, whose
    traces draw their vectors from a few shared ones, so that many share an
    input and some fall off the lattice."""
    count = draw(hs.integers(1, 5))
    sessions = draw(hs.lists(hs.integers(0, 2), min_size=count, max_size=count))
    spellings = [None] + [
        spell(path) for _, path in CATEGORY_PATHS for spell in (str.upper, str.lower)
    ]
    runs = tuple(
        RunInfo(session, session not in sessions[:i], draw(hs.sampled_from(spellings)))
        for i, session in enumerate(sessions)
    )
    runs_of = lambda: hs.lists(hs.booleans(), min_size=count, max_size=count).map(tuple)
    shared = draw(hs.lists(runs_of(), min_size=1, max_size=3))
    first_runs = tuple(r.first_of_session for r in runs)
    launched = {  # per launch method, the runs launched through it
        tuple(fold_path(r.launch_method or "") == fold_path(path) for r in runs)
        for path in {r.launch_method for r in runs} - {None}
    }
    vector = hs.sampled_from([(True,) * count, (False,) * count, first_runs, *shared, *launched])
    vectors, kinds, display = {}, {}, {}
    for kind, path in draw(hs.lists(hs.sampled_from(CATEGORY_PATHS), unique=True, min_size=1)):
        fields = draw(
            hs.lists(hs.sampled_from(KIND_FIELDS[kind]), unique=True, min_size=1).map(
                lambda chosen: [f for f in FIELDS if f in chosen]
            )
        )
        folded = fold_path(path)
        vectors[folded] = {f: draw(vector) for f in fields}
        kinds[folded], display[folded] = kind, path
    return UpdateMatrix(runs, vectors, kinds, display, xp_meta())


@hs.composite
def background_of(draw, action):
    """None, or one background run that updated some of ``action``'s traces."""
    if draw(hs.booleans()):
        return None
    traces = draw(hs.lists(hs.sampled_from(action.traces()), unique=True))
    return UpdateMatrix(
        runs=(RunInfo(0, True, None),),
        vectors={t: {"modified": (draw(hs.booleans()),)} for t in traces},
        kinds={t: action.kinds[t] for t in traces},
        display={t: action.display[t] for t in traces},
        meta=action.meta,
    )


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_categorize_matrix_agrees_with_one_classification_per_trace(data):
    action = data.draw(category_matrix())
    background = data.draw(background_of(action))
    with logged() as messages:
        got = categorize_matrix(action, background)
    want, details = reference_categorize(action, background)
    assert got == want
    warnings = [text for level, text in messages if level == logging.WARNING]
    assert warnings == [
        f"{len(details)} trace(s) have pattern combinations outside the category lattice; "
        "treating them as IU"
    ][:len(details)]
    assert [text for level, text in messages if level == logging.DEBUG] == details


def test_update_matrices_split_each_distinct_row_and_record_once(tmp_path, monkeypatch):
    """The demo scenario's action and background runs, which share run files
    (here one ``Snapshot`` per distinct file), with some records built by
    lookups first, in one, two or three groups: ``time_keys`` is called once
    per snapshot, in the order they are keyed, where its names hold other
    values than in the snapshot keyed before, and only over those values.
    So a row that a run leaves as it is is split once, not once per
    snapshot holding it, and so is a built record."""
    write_scenario_outputs(run_scenario(load_scenario(fixture_text("demo_scenario.json"))), tmp_path)
    parsed = {}

    def snapshot(path):
        data = path.read_bytes()
        if data not in parsed:
            parsed[data] = parse_snapshot(read_utf8(path))
        return parsed[data]

    groups = [
        [dataclasses.replace(o, before=snapshot(o.before), after=snapshot(o.after))
         for o in read_observations(tmp_path / "obs" / name)]
        for name in ("app.open", "web.browse")
    ]
    snaps = list(parsed.values())
    for snap in snaps[::2]:
        for kind, path in list(snap.records)[::3]:
            snap.records[(kind, path)]
    names = TraceNameSet.of(path for snap in snaps for _, path in snap.records)
    held = {  # per snapshot id, the value each name holds
        id(snap): {name: snap.stored[RecordKind.FILE].get(name)
                   or snap.stored[RecordKind.REGKEY].get(name) for name in names}
        for snap in snaps
    }
    values = [value for by_name in held.values() for value in by_name.values()]
    assert any(isinstance(value, str) for value in values)
    assert any(isinstance(value, ArtifactRecord) for value in values)
    calls = []

    def counted(values, shared):
        calls.append(list(values))
        return time_keys(calls[-1], shared)

    monkeypatch.setattr(categorize, "time_keys", counted)
    for chosen in ([groups[0]], groups, [*groups, groups[0]]):
        calls.clear()
        matrices = build_update_matrices(chosen, names)
        assert len(matrices) == len(chosen) and all(m.vectors for m in matrices)
        keyed = {id(s): s for obs in chosen for o in obs for s in (o.before, o.after)}
        expected, last = [], dict.fromkeys(names)
        for key in keyed:
            changed = {value for name, value in held[key].items() if value != last[name]}
            if changed:
                expected.append(changed - {None})
            last = held[key]
        assert [set(values) - {None} for values in calls] == expected
        whole = sum(len(set(held[key].values()) - {None}) for key in keyed)
        assert sum(map(len, expected)) < whole  # fewer than keying each snapshot whole


def test_categorize_matrix_classifies_each_distinct_input_once(monkeypatch):
    """Every lattice input on three copies of its trace, in other folders, half
    of them updated by background activity."""
    vectors, kinds, display, updated = {}, {}, {}, {}
    for i, (trace, kind, patterns) in enumerate(lattice_inputs()):
        for copy in range(3):
            path = trace.replace("\\", f"\\input{i}\\copy{copy}\\", 1)
            folded = fold_path(path)
            vectors[folded], kinds[folded], display[folded] = vectors_for(patterns), kind, path
            updated[folded] = {"modified": (copy % 2 == 0,)}
    matrix = UpdateMatrix(RUNS, vectors, kinds, display, xp_meta())
    background = UpdateMatrix((RunInfo(0, True, None),), updated, kinds, display, matrix.meta)
    inputs = []

    def counted(*args):
        inputs.append(args)
        return classify_trace(*args)

    monkeypatch.setattr(categorize, "classify_trace", counted)
    analyses = categorize_matrix(matrix, background)
    assert len(inputs) == len(set(inputs)) == 2 * len(analyses) // 3
    assert analyses == reference_categorize(matrix, background)[0]
