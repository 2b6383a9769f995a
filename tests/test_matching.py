import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import ADMIN, SID, frec, krec, pt, snap_of, t, xp_meta
from tracesig import (
    CategoryLabel,
    CoreTrace,
    PathTemplate,
    RecordKind,
    Signature,
    SupportingTrace,
    TraceCategory,
    Verdict,
    check_consistency,
    infer_event_interval,
    match_signature,
)
from tracesig.matching import _Evaluation, _strength

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
            if (ev.interval[1], ev.interval[0]) > (best.interval[1], best.interval[0]):
                best = ev
        elif ev.verdict is best.verdict is Verdict.MISSING:
            if len(ev.missing) < len(best.missing):
                best = ev
    return best


@hs.composite
def evaluations(draw, sid):
    verdict = draw(hs.sampled_from(Verdict))
    if verdict is Verdict.DETECTED:
        lo = draw(hs.integers(0, 3))
        return _Evaluation(verdict, sid, interval=(lo, lo + draw(hs.integers(0, 3))))
    if verdict is Verdict.MISSING:
        return _Evaluation(verdict, sid, missing=("x",) * draw(hs.integers(1, 3)))
    return _Evaluation(verdict, sid)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(hs.integers(1, 6).flatmap(lambda n: hs.tuples(*(evaluations(str(i)) for i in range(n)))))
def test_sid_choice_keeps_the_first_of_equals(evs):
    assert max(evs, key=_strength) is first_strongest(evs)


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
