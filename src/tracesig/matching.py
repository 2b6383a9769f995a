"""Signature evaluation against a snapshot.

The consistency test: a set of observed timestamp intervals can have been
produced by a single action iff ``max(lo) - min(hi) <= window``.  When it
holds, the action time t lies in ``[max(lo) - window, min(hi)]``, exactly the
t for which every true update time can fall within [t, t + window].

``match_signature`` resolves a signature's core templates against a snapshot,
runs the test over every combination of resolved records, and reports one of
four verdicts: Detected (some combination is consistent), Inconsistent (all
core evidence present but nothing lines up), Missing (a core template
resolves to no record), or Inapplicable (the signature needs last-access
timestamps and the system had them disabled, so absence of agreement proves
nothing).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .categorize import CategoryLabel
from .evidence import ArtifactRecord, Snapshot, TimePoint, fold_path
from .signatures import CoreTrace, Signature, SupportingTrace, templates_per_label
from .templates import Binding, instantiate

__all__ = [
    "DetectionResult",
    "ResolvedCore",
    "SupportingHit",
    "Verdict",
    "check_consistency",
    "infer_event_interval",
    "match_signature",
]


class Verdict(Enum):
    DETECTED = "detected"
    INCONSISTENT = "inconsistent"
    MISSING = "missing"
    INAPPLICABLE = "inapplicable"


def check_consistency(points: Sequence[TimePoint], window_s: int) -> bool:
    """True iff one action within the window can explain every timestamp."""
    if not points:
        raise ValueError("at least one timestamp is required")
    return max(p.lo for p in points) - min(p.hi for p in points) <= window_s


def infer_event_interval(points: Sequence[TimePoint], window_s: int) -> tuple[int, int]:
    """The closed interval of action times that explain all timestamps."""
    if not check_consistency(points, window_s):
        raise ValueError("inconsistent timestamps have no event interval")
    return (max(p.lo for p in points) - window_s, min(p.hi for p in points))


@dataclass(frozen=True)
class ResolvedCore:
    trace: CoreTrace
    record: ArtifactRecord
    binding: Binding
    timestamp: TimePoint


@dataclass(frozen=True)
class SupportingHit:
    trace: SupportingTrace
    record: ArtifactRecord
    timestamp: TimePoint


@dataclass(frozen=True)
class DetectionResult:
    action: str
    verdict: Verdict
    event_interval: tuple[int, int] | None
    core_span_s: int
    resolved_core: tuple[ResolvedCore, ...]
    missing: tuple[str, ...]
    supporting_hits: tuple[SupportingHit, ...]
    launch_hint: str | None
    weak: bool
    sid: str | None
    window_s: int

    def supporting_counts(self) -> dict[str, int]:
        """Distinct supporting templates with a hit, per category label."""
        return templates_per_label(hit.trace for hit in self.supporting_hits)


@dataclass(frozen=True)
class _Evaluation:
    verdict: Verdict
    sid: str | None
    missing: tuple[str, ...] = ()
    interval: tuple[int, int] | None = None
    span: int = 0
    combo: tuple[ResolvedCore, ...] = ()


_VERDICT_STRENGTH = (Verdict.MISSING, Verdict.INAPPLICABLE, Verdict.INCONSISTENT, Verdict.DETECTED)


def _strength(ev: _Evaluation) -> tuple:
    """Verdict first; then the most recent interval, or the fewest missing templates."""
    latest = (ev.interval[1], ev.interval[0]) if ev.interval is not None else ()
    return (_VERDICT_STRENGTH.index(ev.verdict), latest, -len(ev.missing))


def _evaluate(sig: Signature, snap: Snapshot, sid: str | None, window: int) -> _Evaluation:
    fixed = Binding(sid=sid) if sid is not None else None

    matches = []
    missing = []
    for trace in sig.core:
        found = instantiate(trace.template, snap, fixed=fixed)
        if not found:
            missing.append(trace.template.text)
        matches.append(found)
    if missing:
        return _Evaluation(Verdict.MISSING, sid, missing=tuple(missing))

    if not snap.meta.last_access_enabled and any(t.field == "accessed" for t in sig.core):
        return _Evaluation(Verdict.INAPPLICABLE, sid)

    resolved: list[list[ResolvedCore]] = []
    for trace, found in zip(sig.core, matches):
        with_field = [
            ResolvedCore(trace, rec, binding, point)
            for rec, binding in found
            if (point := rec.timestamp(trace.field)) is not None
        ]
        if not with_field:
            missing.append(trace.template.text)
        resolved.append(with_field)
    if missing:
        return _Evaluation(Verdict.MISSING, sid, missing=tuple(missing))

    best: _Evaluation | None = None
    min_span: int | None = None
    for combo in itertools.product(*resolved):
        points = [rc.timestamp for rc in combo]
        span = max(p.lo for p in points) - min(p.hi for p in points)
        if min_span is None or span < min_span:
            min_span = span
        if span > window:
            continue
        interval = (max(p.lo for p in points) - window, min(p.hi for p in points))
        if best is None or (interval[1], interval[0]) > (best.interval[1], best.interval[0]):
            best = _Evaluation(
                Verdict.DETECTED,
                sid,
                interval=interval,
                span=max(span, 0),
                combo=tuple(combo),
            )
    if best is not None:
        return best
    return _Evaluation(Verdict.INCONSISTENT, sid, span=min_span or 0)


def _supporting_hits(
    sig: Signature, snap: Snapshot, sid: str | None, interval: tuple[int, int], window: int
) -> tuple[tuple[SupportingHit, ...], str | None]:
    fixed = Binding(sid=sid) if sid is not None else None
    lo, hi = interval
    hi_bound = hi + window
    hits = []
    for trace in sig.supporting:
        if trace.field == "accessed" and not snap.meta.last_access_enabled:
            continue
        for rec, _binding in instantiate(trace.template, snap, fixed=fixed):
            point = rec.timestamp(trace.field)
            if point is None:
                continue
            if point.hi < lo or point.lo > hi_bound:
                continue
            hits.append(SupportingHit(trace, rec, point))
    launch = None
    usage_hits = [h for h in hits if h.trace.category.label is CategoryLabel.UB]
    if usage_hits:
        best = max(usage_hits, key=lambda h: (h.timestamp.hi, fold_path(h.record.path)))
        launch = best.record.path
    return tuple(hits), launch


def match_signature(sig: Signature, snap: Snapshot, window_s: int | None = None) -> DetectionResult:
    """Evaluate a signature against a snapshot.

    Every SID in the snapshot metadata is tried as a candidate binding when
    the core references %SID%; the strongest outcome wins, and among multiple
    consistent record combinations the one with the most recent event
    interval is reported (the latest occurrence of the action).  A signature
    with no core at all can never resolve and comes back Missing.
    """
    window = sig.window_s if window_s is None else window_s
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")

    def result(ev: _Evaluation) -> DetectionResult:
        hits: tuple[SupportingHit, ...] = ()
        launch = None
        if ev.verdict is Verdict.DETECTED:
            hits, launch = _supporting_hits(sig, snap, ev.sid, ev.interval, window)
        return DetectionResult(
            action=sig.action,
            verdict=ev.verdict,
            event_interval=ev.interval,
            core_span_s=ev.span,
            resolved_core=ev.combo,
            missing=ev.missing,
            supporting_hits=hits,
            launch_hint=launch,
            weak=sig.weak,
            sid=ev.sid,
            window_s=window,
        )

    if not sig.core:
        return result(_Evaluation(Verdict.MISSING, None))

    core_needs_sid = any(t.template.uses_sid for t in sig.core)
    if core_needs_sid and not snap.meta.sids:
        missing = tuple(t.template.text for t in sig.core if t.template.uses_sid)
        return result(_Evaluation(Verdict.MISSING, None, missing=missing))
    candidates: Iterable[str | None] = snap.meta.sids if core_needs_sid else (None,)

    # max keeps the first of equally strong evaluations
    return result(max((_evaluate(sig, snap, sid, window) for sid in candidates), key=_strength))
