import itertools
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import ADMIN, SID, frec, krec, pt, snap_of, t, xp_meta
from tracesig import matching
from tracesig.categorize import CategoryLabel, TraceCategory
from tracesig.evidence import ArtifactRecord, RecordKind, TimePoint
from tracesig.matching import (
    DetectionResult,
    Verdict,
    _strength,
    check_consistency,
    infer_event_interval,
    match_signature,
)
from tracesig.signatures import CoreTrace, Signature, SupportingTrace
from tracesig.templates import PathTemplate

SID2 = "S-1-5-21-1417001333-573735546-682003330-1004"


def ct(template, field="modified", kind=RecordKind.FILE):
    return CoreTrace(PathTemplate(template, kind), field)


def st(template, label, field="modified", kind=RecordKind.FILE, confounded=False):
    return SupportingTrace(
        PathTemplate(template, kind), field, TraceCategory(label, confounded)
    )


class TestConsistency:
    def test_window_bounds_the_spread(self):
        points = [pt("2010-04-01T10:00:00Z"), pt("2010-04-01T10:00:30Z")]
        assert check_consistency(points, 60)
        assert check_consistency(points, 30)
        assert not check_consistency(points, 29)

    def test_minute_precision_widens_tolerance(self):
        second = pt("2010-04-01T10:01:59Z")
        minute = pt("2010-04-01T10:01:00Z", 60)
        # the minute point reaches up to 10:01:59, so they can coincide
        assert check_consistency([second, minute], 0)

    def test_interval_formula(self):
        points = [pt("2010-04-01T10:00:00Z"), pt("2010-04-01T10:00:30Z")]
        lo, hi = infer_event_interval(points, 60)
        assert lo == t("2010-04-01T09:59:30Z")
        assert hi == t("2010-04-01T10:00:00Z")

    def test_single_point_interval(self):
        lo, hi = infer_event_interval([pt("2010-04-01T10:00:00Z")], 60)
        assert (lo, hi) == (t("2010-04-01T09:59:00Z"), t("2010-04-01T10:00:00Z"))

    def test_inconsistent_points_have_no_interval(self):
        points = [pt("2010-04-01T10:00:00Z"), pt("2010-04-01T10:02:00Z")]
        with pytest.raises(ValueError):
            infer_event_interval(points, 60)

    def test_no_points_rejected(self):
        with pytest.raises(ValueError):
            check_consistency([], 60)


TWO_CORE = Signature(
    "app.open", "xp", (ct("C:\\core\\a.dat"), ct("C:\\core\\b.dat"))
)


class TestVerdicts:
    def test_detected_with_interval(self):
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:00:30Z"),
            ]
        )
        got = match_signature(TWO_CORE, snap)
        assert got.verdict is Verdict.DETECTED
        assert got.event_interval == (t("2010-04-01T09:59:30Z"), t("2010-04-01T10:00:00Z"))
        assert got.core_span_s == 30
        assert not got.weak

    def test_inconsistent_when_span_exceeds_window(self):
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:02:00Z"),
            ]
        )
        got = match_signature(TWO_CORE, snap)
        assert got.verdict is Verdict.INCONSISTENT
        assert got.event_interval is None
        assert got.core_span_s == 120

    def test_missing_lists_unresolved_templates(self):
        snap = snap_of([frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z")])
        got = match_signature(TWO_CORE, snap)
        assert got.verdict is Verdict.MISSING
        assert got.missing == ("C:\\core\\b.dat",)

    def test_missing_when_record_lacks_the_field(self):
        sig = Signature("app.open", "xp", (ct("C:\\core\\a.dat", field="created"),))
        snap = snap_of([frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z")])
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.MISSING
        assert got.missing == ("C:\\core\\a.dat",)

    def test_inapplicable_when_access_times_disabled(self):
        sig = Signature("app.open", "xp", (ct("C:\\core\\a.dat", field="accessed"),))
        snap = snap_of(
            [frec("C:\\core\\a.dat", a="2010-04-01T10:00:00Z")],
            meta=xp_meta(last_access_enabled=False),
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.INAPPLICABLE

    def test_missing_outranks_inapplicable(self):
        # template absence is checked before the access-time policy
        sig = Signature("app.open", "xp", (ct("C:\\core\\a.dat", field="accessed"),))
        snap = snap_of(
            [frec("C:\\other.dat", m="2010-04-01T10:00:00Z")],
            meta=xp_meta(last_access_enabled=False),
        )
        assert match_signature(sig, snap).verdict is Verdict.MISSING

    def test_missing_names_only_templates_with_no_record(self):
        # a template with no record outranks one whose record lacks the field
        sig = Signature(
            "app.open", "xp", (ct("C:\\core\\b.dat", field="created"), ct("C:\\core\\a.dat"))
        )
        snap = snap_of([frec("C:\\core\\b.dat", m="2010-04-01T10:00:00Z")])
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.MISSING
        assert got.missing == ("C:\\core\\a.dat",)

    def test_inapplicable_outranks_a_record_lacking_the_field(self):
        sig = Signature(
            "app.open", "xp",
            (ct("C:\\core\\a.dat", field="accessed"), ct("C:\\core\\b.dat", field="created")),
        )
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", a="2010-04-01T10:00:00Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:00:00Z"),
            ],
            meta=xp_meta(last_access_enabled=False),
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.INAPPLICABLE
        assert got.missing == ()

    def test_empty_core_never_detects(self):
        sig = Signature("app.open", "xp", ())
        snap = snap_of([frec("C:\\x", m="2010-04-01T10:00:00Z")])
        assert match_signature(sig, snap).verdict is Verdict.MISSING

    def test_weak_flag_carries_over(self):
        sig = Signature("app.open", "xp", (ct("C:\\core\\a.dat"),))
        snap = snap_of([frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z")])
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.DETECTED and got.weak


class TestWindows:
    def test_window_override(self):
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:00:30Z"),
            ]
        )
        assert match_signature(TWO_CORE, snap, window_s=29).verdict is Verdict.INCONSISTENT
        wide = match_signature(TWO_CORE, snap, window_s=3600)
        assert wide.event_interval == (
            t("2010-04-01T09:00:30Z"),
            t("2010-04-01T10:00:00Z"),
        )

    def test_window_floor(self):
        snap = snap_of([frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z")])
        with pytest.raises(ValueError):
            match_signature(TWO_CORE, snap, window_s=0)


class TestMultipleCandidates:
    def test_latest_consistent_combination_wins(self):
        sig = Signature(
            "app.open", "xp",
            (ct("%SystemRoot%\\Prefetch\\APP.EXE-%s.pf"), ct("C:\\core\\b.dat")),
        )
        snap = snap_of(
            [
                frec("C:\\WINDOWS\\Prefetch\\APP.EXE-AAAAAA01.pf", m="2010-04-01T08:00:00Z"),
                frec("C:\\WINDOWS\\Prefetch\\APP.EXE-BBBBBB02.pf", m="2010-04-01T10:00:10Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:00:00Z"),
            ]
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.DETECTED
        assert got.event_interval == (t("2010-04-01T09:59:10Z"), t("2010-04-01T10:00:00Z"))
        paths = {rc.record.path for rc in got.resolved_core}
        assert "C:\\WINDOWS\\Prefetch\\APP.EXE-BBBBBB02.pf" in paths

    def test_all_candidates_inconsistent(self):
        sig = Signature(
            "app.open", "xp",
            (ct("%SystemRoot%\\Prefetch\\APP.EXE-%s.pf"), ct("C:\\core\\b.dat")),
        )
        snap = snap_of(
            [
                frec("C:\\WINDOWS\\Prefetch\\APP.EXE-AAAAAA01.pf", m="2010-04-01T08:00:00Z"),
                frec("C:\\core\\b.dat", m="2010-04-01T10:00:00Z"),
            ]
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.INCONSISTENT
        assert got.core_span_s == 7200

    def test_search_never_enumerates_combinations(self):
        # 200**5 = 3.2e11 combinations, far beyond any enumeration; the only
        # consistent one is the planted set, with decoys on days either side.
        day0 = t("2010-01-01T00:00:00Z")
        planted = t("2010-03-15T12:00:00Z")
        core, records = [], []
        for j in range(5):
            core.append(ct(f"C:\\core\\t{j}\\%s.dat"))
            records.append(
                ArtifactRecord(RecordKind.FILE, f"C:\\core\\t{j}\\P.dat",
                               modified=TimePoint(planted + 10 * j))
            )
            for i in range(199):
                # one decoy a day, each template's an hour after the last one's
                records.append(
                    ArtifactRecord(RecordKind.FILE, f"C:\\core\\t{j}\\D{i:03d}.dat",
                                   modified=TimePoint(day0 + 86400 * i + 3600 * j))
                )
        snap = snap_of(records, meta=xp_meta(capture="2011-01-01T00:00:00Z"))
        got = match_signature(Signature("app.open", "xp", tuple(core)), snap)
        assert got.verdict is Verdict.DETECTED
        assert got.event_interval == (planted + 40 - 60, planted)
        assert got.core_span_s == 40
        assert [rc.record.path for rc in got.resolved_core] == [
            f"C:\\core\\t{j}\\P.dat" for j in range(5)
        ]


SID_SIG = Signature(
    "app.open", "xp",
    (CoreTrace(PathTemplate("HKEY_USERS\\%SID%\\Software\\App", RecordKind.REGKEY), "modified"),),
)


class TestSidResolution:
    def test_detected_outranks_missing_across_identities(self):
        meta = xp_meta(sids=(SID, SID2))
        snap = snap_of(
            [krec(f"HKEY_USERS\\{SID2}\\Software\\App", "2010-04-01T10:00:00Z")], meta=meta
        )
        got = match_signature(SID_SIG, snap)
        assert got.verdict is Verdict.DETECTED
        assert got.sid == SID2

    def test_latest_event_picks_the_identity(self):
        meta = xp_meta(sids=(SID, SID2))
        snap = snap_of(
            [
                krec(f"HKEY_USERS\\{SID}\\Software\\App", "2010-04-01T10:00:00Z"),
                krec(f"HKEY_USERS\\{SID2}\\Software\\App", "2010-04-01T12:00:00Z"),
            ],
            meta=meta,
        )
        got = match_signature(SID_SIG, snap)
        assert got.sid == SID2
        assert got.event_interval[1] == t("2010-04-01T12:00:59Z")

    def test_no_declared_identities_is_missing(self):
        snap = snap_of([frec("C:\\x", m="2010-04-01T10:00:00Z")], meta=xp_meta(sids=()))
        got = match_signature(SID_SIG, snap)
        assert got.verdict is Verdict.MISSING
        assert got.missing == ("HKEY_USERS\\%SID%\\Software\\App",)

    @pytest.mark.parametrize("sid", [SID, "S-1-5-21-ABC-1001"])
    def test_unbound_sid_takes_any_listed_spelling(self, sid):
        sig = Signature(
            "app.open", "xp",
            (ct("C:\\core\\a.dat"),),
            (st("HKEY_USERS\\%SID%\\Software\\App", CategoryLabel.FRO, kind=RecordKind.REGKEY),),
        )
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                krec(f"HKEY_USERS\\{sid}\\Software\\App", "2010-04-01T10:00:00Z"),
            ],
            meta=xp_meta(sids=(sid,)),
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.DETECTED
        assert got.supporting_counts() == {"FRO": 1}


def first_strongest(evaluations):
    """The per-SID choice written out: a stronger verdict wins, then the most
    recent interval among detections, then the fewest missing templates among
    misses; an equal outcome never displaces an earlier one."""
    rank = {Verdict.MISSING: 0, Verdict.INAPPLICABLE: 1, Verdict.INCONSISTENT: 2, Verdict.DETECTED: 3}
    best = evaluations[0]
    for ev in evaluations[1:]:
        if rank[ev.verdict] > rank[best.verdict]:
            best = ev
        elif ev.verdict is best.verdict is Verdict.DETECTED:
            if (ev.event_interval[1], ev.event_interval[0]) > (
                best.event_interval[1], best.event_interval[0]
            ):
                best = ev
        elif ev.verdict is best.verdict is Verdict.MISSING:
            if len(ev.missing) < len(best.missing):
                best = ev
    return best


@hs.composite
def evaluations(draw, sid):
    verdict = draw(hs.sampled_from(Verdict))
    base = DetectionResult("app.open", verdict, False, sid, 60)
    if verdict is Verdict.DETECTED:
        lo = draw(hs.integers(0, 3))
        return replace(base, event_interval=(lo, lo + draw(hs.integers(0, 3))))
    if verdict is Verdict.MISSING:
        return replace(base, missing=("x",) * draw(hs.integers(1, 3)))
    return base


@settings(max_examples=500, derandomize=True, deadline=None)
@given(hs.integers(1, 6).flatmap(lambda n: hs.tuples(*(evaluations(str(i)) for i in range(n)))))
def test_sid_choice_keeps_the_first_of_equals(evs):
    assert max(evs, key=_strength) is first_strongest(evs)


def product_search(resolved, base):
    """The combination loop the sorted search replaced, kept as its oracle:
    it tries every combination in product order and keeps the first with the
    most recent interval, or else the smallest span."""
    window = base.window_s
    best = None
    min_span = None
    for combo in itertools.product(*resolved):
        points = [rc.timestamp for rc in combo]
        span = max(p.lo for p in points) - min(p.hi for p in points)
        if min_span is None or span < min_span:
            min_span = span
        if span > window:
            continue
        interval = (max(p.lo for p in points) - window, min(p.hi for p in points))
        if best is None or (interval[1], interval[0]) > (
            best.event_interval[1], best.event_interval[0]
        ):
            best = replace(
                base, verdict=Verdict.DETECTED, event_interval=interval,
                core_span_s=max(span, 0), resolved_core=tuple(combo),
            )
    if best is not None:
        return best
    return replace(base, verdict=Verdict.INCONSISTENT, core_span_s=min_span)


CASE_BASE = t("2010-04-01T10:00:00Z")
candidate_names = hs.lists(
    hs.text("aB1-", min_size=1, max_size=3), min_size=1, max_size=5, unique_by=str.lower
)


@hs.composite
def ambiguous_snapshots(draw):
    """1-4 core templates with 1-5 candidates each, on a timeline short enough
    that ties and near misses are common; some files lack the core field."""
    sids = (SID, SID2)[: draw(hs.integers(1, 2))]
    core, records = [], []
    for j in range(draw(hs.integers(1, 4))):
        if draw(hs.booleans()):
            core.append(ct(f"HKEY_USERS\\%SID%\\Software\\T{j}\\%s", kind=RecordKind.REGKEY))
            for sid in sids:
                for name in draw(candidate_names):
                    stamp = TimePoint(CASE_BASE + 60 * draw(hs.integers(0, 2)), 60)
                    path = f"HKEY_USERS\\{sid}\\Software\\T{j}\\{name}"
                    records.append(ArtifactRecord(RecordKind.REGKEY, path, modified=stamp))
        else:
            core.append(ct(f"C:\\core\\t{j}\\%s.dat"))
            for name in draw(candidate_names):
                stamp = TimePoint(CASE_BASE + 10 * draw(hs.integers(0, 12)))
                path = f"C:\\core\\t{j}\\{name}.dat"
                field = draw(hs.sampled_from(("modified",) * 4 + ("accessed",)))
                records.append(ArtifactRecord(RecordKind.FILE, path, **{field: stamp}))
    snap = snap_of(records, meta=xp_meta(sids=sids))
    return Signature("app.open", "xp", tuple(core)), snap, draw(hs.sampled_from((1, 30, 60, 120)))


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(ambiguous_snapshots())
def test_core_search_agrees_with_the_product_oracle(case):
    sig, snap, window = case
    got = match_signature(sig, snap, window)
    with mock.patch.object(matching, "_core_search", product_search):
        assert got == match_signature(sig, snap, window)


SUPPORTED = Signature(
    "app.open", "xp",
    (ct("C:\\core\\a.dat"), ct("C:\\core\\b.dat")),
    (
        st("C:\\logs\\first.log", CategoryLabel.FRO),
        st("C:\\cookies\\%s.txt", CategoryLabel.IU, field="accessed"),
        st(f"{ADMIN}\\Desktop\\App.lnk", CategoryLabel.UB, field="accessed"),
        st(f"{ADMIN}\\Start Menu\\App.lnk", CategoryLabel.UB, field="accessed"),
    ),
)


def supported_snapshot(meta=None):
    return snap_of(
        [
            frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
            frec("C:\\core\\b.dat", m="2010-04-01T10:00:30Z"),
            frec("C:\\logs\\first.log", m="2010-04-01T10:00:05Z"),
            # one cookie inside the event window, one long before it
            frec("C:\\cookies\\AAAAAA01.txt", a="2010-04-01T10:00:40Z"),
            frec("C:\\cookies\\BBBBBB02.txt", a="2010-03-30T09:00:00Z"),
            frec(f"{ADMIN}\\Desktop\\App.lnk", a="2010-04-01T10:00:01Z"),
            frec(f"{ADMIN}\\Start Menu\\App.lnk", a="2010-04-01T10:00:02Z"),
        ],
        meta=meta,
    )


class TestSupportingEvidence:
    def test_hits_stay_inside_the_event_window(self):
        got = match_signature(SUPPORTED, supported_snapshot())
        # interval [09:59:30, 10:00:00] + window → accepts up to 10:01:00
        assert got.supporting_counts() == {"FRO": 1, "IU": 1, "UB": 2}
        hit_paths = {h.record.path for h in got.supporting_hits}
        assert "C:\\cookies\\BBBBBB02.txt" not in hit_paths

    def test_launch_hint_prefers_latest_usage(self):
        got = match_signature(SUPPORTED, supported_snapshot())
        assert got.launch_hint == f"{ADMIN}\\Start Menu\\App.lnk"

    def test_a_supporting_record_without_its_field_is_no_hit(self):
        sig = Signature(
            "app.open", "xp",
            (ct("C:\\core\\a.dat"),),
            (st("C:\\logs\\%s.log", CategoryLabel.FRO),),
        )
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                frec("C:\\logs\\first.log", a="2010-04-01T10:00:05Z"),
                frec("C:\\logs\\second.log", m="2010-04-01T10:00:05Z"),
            ]
        )
        got = match_signature(sig, snap)
        assert [h.record.path for h in got.supporting_hits] == ["C:\\logs\\second.log"]

    def test_a_sid_supporting_template_resolves_nothing_without_listed_sids(self):
        sig = Signature(
            "app.open", "xp",
            (ct("C:\\core\\a.dat"),),
            (st("C:\\profiles\\%SID%\\app.ini", CategoryLabel.FRO),),
        )
        snap = snap_of(
            [
                frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z"),
                frec(f"C:\\profiles\\{SID}\\app.ini", m="2010-04-01T10:00:00Z"),
            ],
            meta=xp_meta(sids=()),
        )
        got = match_signature(sig, snap)
        assert got.verdict is Verdict.DETECTED and got.sid is None
        assert got.supporting_hits == () and got.launch_hint is None

    def test_access_supporting_skipped_when_disabled(self):
        got = match_signature(SUPPORTED, supported_snapshot(xp_meta(last_access_enabled=False)))
        assert got.verdict is Verdict.DETECTED
        assert got.supporting_counts() == {"FRO": 1}
        assert got.launch_hint is None

    def test_non_detections_carry_no_supporting(self):
        snap = snap_of([frec("C:\\core\\a.dat", m="2010-04-01T10:00:00Z")])
        got = match_signature(SUPPORTED, snap)
        assert got.verdict is Verdict.MISSING
        assert got.supporting_hits == ()
