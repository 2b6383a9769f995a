"""Span tracing of tracesig's layers, from outside the package.

``Tracer.install`` replaces each traced public function at the name its
caller looks it up by (``tracesig.cli.parse_snapshot``,
``tracesig.matching.instantiate``, ``UpdateMatrix.any_update`` ...) with a
wrapper that records a span: name, start, end, parent span and op id.
Spans and counters stay in memory; ``summary`` reduces them after the run.
A span's self time is its duration minus the durations of its child spans,
which nest strictly because the benchmark makes its calls from one thread.
``uninstall`` restores every original.
"""

from __future__ import annotations

import contextlib
import math
from collections import Counter, defaultdict
from time import perf_counter

import tracesig.categorize
import tracesig.cli
import tracesig.matching
import tracesig.signatures
from tracesig.categorize import UpdateMatrix
from tracesig.evidence import Snapshot

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counters: Counter[str] = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list = []
        self._match: dict | None = None
        self._intersections: list[tuple[int, list]] = []

    # --- recording ----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, name, before=None, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(original.__func__, name, before, after))
        else:
            replacement = self._wrap(original, name, before, after)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    @contextlib.contextmanager
    def op(self):
        """The root span of one op; every traced call inside it is a child."""
        self.op_id += 1
        span = [OP_SPAN, 0.0, 0.0, -1, self.op_id]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter()
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    # --- counters -------------------------------------------------------------

    def _count(self, key: str, amount: int) -> None:
        self.counters[key] += amount

    def _match_start(self, args, kwargs) -> None:
        sig, snap = args[0], args[1]
        needs_sid = any(t.template.uses_sid for t in sig.core)
        if not sig.core or (needs_sid and not snap.meta.sids):
            sids = 0
        else:
            sids = len(snap.meta.sids) if needs_sid else 1
        self._count("matching.sids_tried", sids)
        self._match = {
            "core": {id(t.template): t.field for t in sig.core},
            "searched": snap.meta.last_access_enabled
            or all(t.field != "accessed" for t in sig.core),
            "per_sid": defaultdict(list),
        }

    def _match_end(self, args, kwargs, result) -> None:
        ctx, self._match = self._match, None
        if not ctx["searched"]:
            return
        for counts in ctx["per_sid"].values():
            if len(counts) == len(ctx["core"]) and all(counts):
                self._count("matching.combinations", math.prod(counts))

    def _instantiated(self, args, kwargs, result) -> None:
        tpl, snap = args[0], args[1]
        self._count("templates.records_scanned", len(snap.records))
        self._count("templates.candidates", len(result))
        ctx = self._match
        if ctx is not None and id(tpl) in ctx["core"]:
            field = ctx["core"][id(tpl)]
            fixed = kwargs.get("fixed", args[2] if len(args) > 2 else None)
            sid = fixed.sid if fixed is not None else None
            usable = sum(1 for rec, _binding in result if rec.timestamp(field) is not None)
            ctx["per_sid"][sid].append(usable)

    def install(self) -> None:
        cli, sigs = tracesig.cli, tracesig.signatures
        records = lambda a, k, snap: self._count("evidence.records_parsed", len(snap))
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "parse_snapshot", "evidence.parse_snapshot", after=records)
        self._patch(tracesig.categorize, "parse_snapshot", "evidence.parse_snapshot", after=records)
        self._patch(Snapshot, "build", "evidence.snapshot_build")
        self._patch(cli, "load_signature", "signatures.load_signature")
        self._patch(sigs, "load_signature", "signatures.load_signature")
        self._patch(cli, "match_signature", "matching.match_signature",
                    before=self._match_start, after=self._match_end)
        self._patch(tracesig.matching, "instantiate", "templates.instantiate",
                    after=self._instantiated)
        self._patch(cli, "parse_capture", "capture.parse_capture",
                    after=lambda a, k, log: self._count("capture.events_parsed", len(log)))
        self._patch(cli, "filter_by_process", "capture.filter_by_process")
        self._patch(cli, "unique_traces", "capture.unique_traces")
        self._patch(cli, "intersect_runs", "capture.intersect_runs",
                    after=lambda a, k, kept: self._intersections.append((len(kept), list(a[0]))))
        self._patch(cli, "read_observations", "categorize.read_observations")
        self._patch(cli, "build_update_matrix", "categorize.build_update_matrix")
        self._patch(sigs, "categorize_matrix", "categorize.categorize_matrix",
                    after=lambda a, k, out: self._count("categorize.traces_categorized", len(out)))
        self._patch(UpdateMatrix, "any_update", "categorize.any_update",
                    after=lambda a, k, r: self._count("categorize.vectors_scanned", len(a[0].vectors)))
        self._patch(cli, "derive_signature", "signatures.derive_signature")
        self._patch(sigs, "generalize_path", "templates.generalize_path")
        self._patch(cli, "save_signature", "signatures.save_signature")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # --- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds (totals)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child[i]
        return out

    def counts(self) -> Counter:
        """Counters, plus the capture intersection's kept and distinct names."""
        out = Counter(self.counters)
        for kept, runs in self._intersections:
            out["capture.names_kept"] += kept
            out["capture.names_distinct"] += len(frozenset().union(*(r.names for r in runs)))
        return out
