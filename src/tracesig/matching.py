"""Signature evaluation against a snapshot.

The consistency test: a set of observed timestamp intervals can have been
produced by a single action iff ``max(lo) - min(hi) <= window``.  When it
holds, the action time t lies in ``[max(lo) - window, min(hi)]``, exactly the
t for which every true update time can fall within [t, t + window]; its lower
end is clipped at 1601-01-01T00:00:00Z, before which no timestamp lies.

``match_signature`` resolves a signature's core templates against a snapshot
and reports one of four verdicts: Detected (some combination of one record
per core template is consistent), Inconsistent (all core evidence present
but nothing lines up), Missing (a core template resolves to no record), or
Inapplicable (the signature needs last-access timestamps and the system had
them disabled, so absence of agreement proves nothing).  Before any search,
the precedence is: a core template with no record at all makes it Missing,
listing only those templates; else an ``accessed`` core on a system with
last-access disabled makes it Inapplicable; else a core template whose
records all lack its timestamp field makes it Missing.

The core search never enumerates combinations.  It sorts the N candidate
records of one SID by ``hi`` and sweeps them once; with k core templates it
costs O(N log N + N*k).
It finds the combination with the most recent event interval (latest
``min(hi)``, then latest ``max(lo)``) or, when none is consistent, the
smallest span any combination reaches.  When several combinations share the
best interval, the first in product order is reported: template order, then
each template's candidates in ``instantiate``'s folded-path order.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Sequence

from .categorize import CategoryLabel
from .evidence import _EARLIEST_S, ArtifactRecord, Snapshot, TimePoint, fold_path
from .signatures import CoreTrace, Signature, SupportingTrace, templates_per_label
from .templates import Binding, instantiate

__all__ = [
    "DetectionResult",
    "ResolvedTrace",
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
    """The closed interval of action times that explain all timestamps, its
    lower end clipped at the earliest time a timestamp holds."""
    if not check_consistency(points, window_s):
        raise ValueError("inconsistent timestamps have no event interval")
    return (max(max(p.lo for p in points) - window_s, _EARLIEST_S), min(p.hi for p in points))


@dataclass(frozen=True)
class ResolvedTrace:
    """A core or supporting trace, a record it resolved to, and that record's time."""

    trace: CoreTrace | SupportingTrace
    record: ArtifactRecord
    timestamp: TimePoint


@dataclass(frozen=True)
class DetectionResult:
    """A signature's verdict on a snapshot, and also each SID's evaluation in
    ``match_signature``; the fields after ``window_s`` default where a verdict
    has no such fact, and only the reported Detected result has supporting hits."""

    action: str
    verdict: Verdict
    weak: bool
    sid: str | None
    window_s: int
    event_interval: tuple[int, int] | None = None
    core_span_s: int = 0
    resolved_core: tuple[ResolvedTrace, ...] = ()
    missing: tuple[str, ...] = ()
    supporting_hits: tuple[ResolvedTrace, ...] = ()
    launch_hint: str | None = None

    def supporting_counts(self) -> dict[str, int]:
        """Distinct supporting templates with a hit, per category label."""
        return templates_per_label(hit.trace for hit in self.supporting_hits)


_VERDICT_STRENGTH = (Verdict.MISSING, Verdict.INAPPLICABLE, Verdict.INCONSISTENT, Verdict.DETECTED)


def _strength(res: DetectionResult) -> tuple:
    """Verdict first; then the most recent interval, or the fewest missing templates."""
    latest = res.event_interval[::-1] if res.event_interval is not None else ()
    return (_VERDICT_STRENGTH.index(res.verdict), latest, -len(res.missing))


def _resolve(
    trace: CoreTrace | SupportingTrace, snap: Snapshot, sid: str | None
) -> tuple[bool, list[ResolvedTrace]]:
    """Whether the trace's template matched any record under ``sid``, and the
    matched records that carry the trace's field."""
    found = instantiate(trace.template, snap, fixed=Binding(sid=sid) if sid is not None else None)
    return bool(found), [
        ResolvedTrace(trace, rec, point)
        for rec, _binding in found
        if (point := rec.timestamp(trace.field)) is not None
    ]


def _evaluate(sig: Signature, snap: Snapshot, base: DetectionResult) -> DetectionResult:
    """The verdict for ``base.sid``, in the precedence the module docstring gives."""
    resolved: list[list[ResolvedTrace]] = []
    unmatched, fieldless = [], []
    for trace in sig.core:
        found, with_field = _resolve(trace, snap, base.sid)
        if not found:
            unmatched.append(trace.template.text)
        elif not with_field:
            fieldless.append(trace.template.text)
        resolved.append(with_field)
    if unmatched:
        return replace(base, verdict=Verdict.MISSING, missing=tuple(unmatched))
    if not snap.meta.last_access_enabled and any(t.field == "accessed" for t in sig.core):
        return replace(base, verdict=Verdict.INAPPLICABLE)
    if fieldless:
        return replace(base, verdict=Verdict.MISSING, missing=tuple(fieldless))
    return _core_search(resolved, base)


def _core_search(
    resolved: Sequence[Sequence[ResolvedTrace]], base: DetectionResult
) -> DetectionResult:
    """The consistent combination with the most recent interval, or the smallest span.

    A combination whose smallest ``hi`` is h is consistent iff its largest
    ``lo`` is at most h + window.  The sweep visits the distinct ``hi`` values
    from the highest down; ``least[j]`` is the smallest ``lo`` of template j
    among the candidates with ``hi`` >= h, so ``max(least) - h`` is the
    smallest span of any combination drawn from them.  The first h where that
    fits the window is the latest achievable ``min(hi)``.  Each of the at most
    N tests takes the max over the k templates.
    """
    window = base.window_s
    by_hi = sorted(
        ((rc.timestamp.hi, rc.timestamp.lo, j) for j, found in enumerate(resolved) for rc in found),
        reverse=True,
    )
    least: dict[int, int] = {}
    smallest = top = None
    for i, (h, lo, j) in enumerate(by_hi):
        least[j] = min(lo, least.get(j, lo))
        # test h once every template and every candidate with hi == h is in
        if len(least) < len(resolved) or (i + 1 < len(by_hi) and by_hi[i + 1][0] == h):
            continue
        span = max(least.values()) - h
        if span <= window:
            top = h
            break
        smallest = span if smallest is None else min(smallest, span)
    if top is None:
        return replace(base, verdict=Verdict.INCONSISTENT, core_span_s=smallest)

    latest = max(
        rc.timestamp.lo
        for found in resolved
        for rc in found
        if rc.timestamp.hi >= top and rc.timestamp.lo <= top + window
    )
    # Every combination drawn from the pools is consistent, and its min(hi)
    # is top: a later one would have ended the sweep sooner.  The best ones
    # also reach max(lo) == latest.  The first of those in product order takes
    # each pool's first entry, unless none of them reaches latest; then pool
    # `last`, the last that can, takes its first entry that does.
    pools = [
        [rc for rc in found if rc.timestamp.hi >= top and rc.timestamp.lo <= latest]
        for found in resolved
    ]
    last = max(j for j, pool in enumerate(pools) if any(rc.timestamp.lo == latest for rc in pool))
    combo = [pool[0] for pool in pools]
    if all(rc.timestamp.lo < latest for rc in combo):
        combo[last] = next(rc for rc in pools[last] if rc.timestamp.lo == latest)
    interval = infer_event_interval([rc.timestamp for rc in combo], window)
    return replace(
        base, verdict=Verdict.DETECTED, event_interval=interval,
        core_span_s=max(latest - top, 0), resolved_core=tuple(combo),
    )


def _supporting_hits(
    sig: Signature, snap: Snapshot, sid: str | None, interval: tuple[int, int], window: int
) -> tuple[tuple[ResolvedTrace, ...], str | None]:
    lo, hi = interval
    hi_bound = hi + window
    hits = [
        hit
        for trace in sig.supporting
        if trace.field != "accessed" or snap.meta.last_access_enabled
        for hit in _resolve(trace, snap, sid)[1]
        if hit.timestamp.hi >= lo and hit.timestamp.lo <= hi_bound
    ]
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

    base = DetectionResult(sig.action, Verdict.MISSING, sig.weak, None, window)
    core_needs_sid = any(t.template.uses_sid for t in sig.core)
    if not sig.core or (core_needs_sid and not snap.meta.sids):
        needs = tuple(t.template.text for t in sig.core if t.template.uses_sid)
        return replace(base, missing=needs)
    candidates: Iterable[str | None] = snap.meta.sids if core_needs_sid else (None,)

    # max keeps the first of equally strong evaluations
    best = max((_evaluate(sig, snap, replace(base, sid=sid)) for sid in candidates), key=_strength)
    if best.verdict is not Verdict.DETECTED:
        return best
    hits, launch = _supporting_hits(sig, snap, best.sid, best.event_interval, window)
    return replace(best, supporting_hits=hits, launch_hint=launch)
