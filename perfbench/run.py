"""tracesig benchmark: whole CLI ops end to end, and the layers inside them.

    python3 perfbench/run.py --workload match-bulk --seed 1 --seconds 30 --trace 0

One client drives ``tracesig.cli.main`` in-process as a closed loop: each op
starts when the previous one has returned, from one thread.  Inputs are
generated from ``--seed`` beforehand, in a child process, under
``.perfbench/work/`` (removed at exit); the program sees only the generated
CSV, capture and observation files.  Every op's exit codes and outputs are
checked (see ``workloads.py``).

After every op, and before and after every set-up probe, the runner times
a fixed reference task (``reference.py``).  Times are reported *at the
reference speed*: a run's total op time over the total reference time beside
it, times the reference task's nominal ``REFERENCE_S``.  The shared host's
speed moves by up to half between phases of seconds to minutes.  Raw times
move with it, so sets of runs of the same code differed by a fifth; their
ratio to the reference task's time moves far less.

``--trace 0`` measures ops untraced and prints the end-to-end metrics: the
mean op time and the evidence records an op parses per second of it, the
set-up time of a fresh interpreter (``probe.py``, several probes spread
over the run), all three at the reference speed, and peak RSS.
``--trace 1`` measures a third of the time untraced, then the rest with
every layer wrapped by ``tracer.Tracer``, and prints the per-layer metrics,
each a mean per traced op, in raw seconds.  The last stdout line is one
JSON object with the keys correct, attempted, failed and metrics.  A run
record with the seed, interpreter, CPU count, input sizes, all raw samples
(ops, set-up probes, reference task) and the span summary goes to
``.perfbench/results/<workload>-seed<seed>-trace<0|1>.json``; a traced run
also writes its raw spans beside it as ``<...>.spans.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import REFERENCE_S, Reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
WORKLOADS = ("match-bulk", "match-ambiguous", "derive-pipeline")
SETUP_PROBES = 11
REFERENCE_SHARE = 0.1
MIN_OPS = 3
CHILD_TIMEOUT_S = 150


def _child(args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return proc.stdout


def generate(workload: str, seed: int, work: Path, scale: float) -> dict:
    out = _child([str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                  "--out", str(work), "--scale", repr(scale)])
    return json.loads(out.splitlines()[-1])


def at_reference_speed(samples: list[float], refs: list[float]) -> float:
    """Mean of ``samples`` scaled to the speed at which the reference task
    takes ``REFERENCE_S``, from the reference times ``refs`` taken beside them."""
    return sum(samples) / len(samples) * REFERENCE_S / (sum(refs) / len(refs))


class SetupProbes:
    """Fresh-interpreter set-up times (see ``probe.py``), taken between ops and
    spread evenly over the timed loop, each between two reference timings."""

    def __init__(self, signatures: list[str], reference: Reference) -> None:
        self.args = [str(HERE / "probe.py"), *signatures]
        self.reference = reference
        self.samples: list[float] = []
        self.refs: list[float] = []
        _child(self.args)  # writes bytecode caches if missing; not a sample

    def _probe(self) -> None:
        self.refs.append(self.reference.time())
        self.samples.append(float(_child(self.args).split()[-1]))
        self.refs.append(self.reference.time())

    def between(self, fraction: float) -> None:
        if len(self.samples) < SETUP_PROBES and fraction >= len(self.samples) / SETUP_PROBES:
            self._probe()

    def finish(self) -> float:
        while len(self.samples) < SETUP_PROBES:
            self._probe()
        return at_reference_speed(self.samples, self.refs)


class Runner:
    """Makes ops, times them, and checks every op's exit codes and outputs."""

    def __init__(self, workload, cli, reference: Reference) -> None:
        self.workload = workload
        self.cli = cli
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.warnings: list[int] = []
        self.output_bytes: list[int] = []
        self.digest: str | None = None
        self.blobs: list[bytes] = []

    def _calls(self) -> list[int]:
        # Looked up on every call, so the tracer's wrapper is seen when installed.
        return [self.cli.main(argv) for argv in self.workload.calls]

    def op(self, tracer=None) -> float:
        err = io.StringIO()
        codes: list[int] = []
        error = None
        for path in self.workload.outputs:  # so a stale output cannot pass
            path.unlink(missing_ok=True)
        gc.collect()  # every op starts from the same heap state
        with contextlib.redirect_stderr(err):
            started = perf_counter()
            try:
                if tracer is None:
                    codes = self._calls()
                else:
                    with tracer.op():
                        codes = self._calls()
            except Exception as exc:  # an op that raises fails; the run goes on
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = perf_counter() - started
        self.attempted += 1
        self.warnings.append(
            sum(1 for line in err.getvalue().splitlines() if line.startswith("WARNING:"))
        )
        self.output_bytes.append(
            sum(path.stat().st_size for path in self.workload.outputs if path.exists())
        )
        error = error or self._check(codes)
        if error:
            self.failures.append(error)
        return elapsed

    def _check(self, codes: list[int]) -> str | None:
        from workloads import CheckError

        if codes != self.workload.codes:
            return f"exit codes {codes}, expected {self.workload.codes}"
        try:
            blobs = [path.read_bytes() for path in self.workload.outputs]
        except OSError as exc:
            return f"missing output: {exc}"
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        if self.digest is None:
            try:
                self.workload.check_output(blobs)
            except CheckError as exc:
                return str(exc)
            self.digest, self.blobs = digest, blobs
        elif digest != self.digest:
            return "output differs from the first op's"
        return None

    def loop(self, seconds: float, tracer=None, between=None) -> tuple[list[float], list[float]]:
        """Ops for ``seconds``, each followed by timings of the reference
        task that add up to ``REFERENCE_SHARE`` of the op's time;
        ``between(elapsed share)`` runs after each.  Returns the op times and
        the reference times."""
        times: list[float] = []
        refs: list[float] = []
        started = perf_counter()
        while len(times) < MIN_OPS or perf_counter() < started + seconds:
            times.append(self.op(tracer))
            spent = 0.0
            while spent < times[-1] * REFERENCE_SHARE:
                refs.append(self.reference.time())
                spent += refs[-1]
            if between is not None:
                between((perf_counter() - started) / seconds)
        return times, refs


def percentiles(times: list[float]) -> dict:
    """Median plus the highest tail percentile with ten samples beyond it."""
    out = {"n": len(times), "p50": statistics.median(times)}
    for q in (99, 95, 90, 75):
        if len(times) * (100 - q) / 100 >= 10:
            out[f"p{q}"] = statistics.quantiles(times, n=100, method="inclusive")[q - 1]
            break
    return out


def end_to_end_metrics(op_s, records_per_op, setup_s, peak_rss_mb) -> dict:
    """``op_s`` and ``setup_s`` are at the reference speed."""
    return {
        "op_s.mean": (op_s, "s"),
        "records_per_s": (records_per_op / op_s, "records/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def layer_self_s(spans: dict, ops: int) -> Counter:
    """Self seconds per op of each layer: the span-name prefix before the dot."""
    layers = Counter()
    for name, entry in spans.items():
        layers[name.split(".")[0]] += entry["self_s"] / ops
    return layers


def layer_metrics(spans: dict, counts: Counter, ops: int, extra: dict) -> dict:
    """Per-layer metrics, each a mean per traced op."""

    def total(name):
        return spans.get(name, {}).get("s", 0.0) / ops

    def own(name):
        return spans.get(name, {}).get("self_s", 0.0) / ops

    def calls(name):
        return spans.get(name, {}).get("calls", 0) / ops

    def ratio(a, b):
        return a / b if b else 0.0

    layer = layer_self_s(spans, ops)
    parse_s = total("evidence.parse_snapshot")
    parsed = counts["evidence.records_parsed"] / ops
    scanned = counts["templates.records_scanned"] / ops
    candidates = counts["templates.candidates"] / ops
    return {
        "evidence.parse_snapshot.s": (parse_s, "s"),
        "evidence.parse_snapshot.calls": (calls("evidence.parse_snapshot"), "count"),
        "evidence.records_parsed": (parsed, "count"),
        "evidence.parse_records_per_s": (ratio(parsed, parse_s), "records/s"),
        "evidence.snapshot_build.s": (total("evidence.snapshot_build"), "s"),
        "evidence.snapshot_build.share": (ratio(total("evidence.snapshot_build"), parse_s), "ratio"),
        "evidence.self_s": (layer["evidence"], "s"),
        "templates.instantiate.s": (total("templates.instantiate"), "s"),
        "templates.instantiate.calls": (calls("templates.instantiate"), "count"),
        "templates.records_scanned": (scanned, "count"),
        "templates.candidates": (candidates, "count"),
        "templates.hit_ratio": (ratio(candidates, scanned), "ratio"),
        "templates.generalize_path.s": (total("templates.generalize_path"), "s"),
        "templates.generalize_path.calls": (calls("templates.generalize_path"), "count"),
        "templates.self_s": (layer["templates"], "s"),
        "matching.match_signature.s": (total("matching.match_signature"), "s"),
        "matching.self_s": (layer["matching"], "s"),
        "matching.combinations": (counts["matching.combinations"] / ops, "count"),
        "matching.sids_tried": (counts["matching.sids_tried"] / ops, "count"),
        "signatures.load_signature.s": (total("signatures.load_signature"), "s"),
        "signatures.derive_signature.s": (own("signatures.derive_signature"), "s"),
        "signatures.save_signature.s": (total("signatures.save_signature"), "s"),
        "signatures.self_s": (layer["signatures"], "s"),
        "categorize.read_observations.s": (own("categorize.read_observations"), "s"),
        "categorize.build_update_matrix.s": (total("categorize.build_update_matrix"), "s"),
        "categorize.categorize_matrix.s": (total("categorize.categorize_matrix"), "s"),
        "categorize.traces_categorized": (counts["categorize.traces_categorized"] / ops, "count"),
        "categorize.any_update.calls": (calls("categorize.any_update"), "count"),
        "categorize.vectors_scanned": (counts["categorize.vectors_scanned"] / ops, "count"),
        "categorize.self_s": (layer["categorize"], "s"),
        "capture.parse_capture.s": (total("capture.parse_capture"), "s"),
        "capture.events_parsed": (counts["capture.events_parsed"] / ops, "count"),
        "capture.intersect_runs.s": (total("capture.intersect_runs"), "s"),
        "capture.kept_ratio": (
            ratio(counts["capture.names_kept"], counts["capture.names_distinct"]), "ratio"),
        "capture.self_s": (layer["capture"], "s"),
        "cli.self_s": (layer["cli"], "s"),
        "cli.output_bytes": (extra["output_bytes"], "bytes"),
        "cli.warnings_logged": (extra["warnings"], "count"),
        "simulate.run_scenario.s": (extra["run_scenario_s"], "s"),
        "simulate.oracle_compare.s": (extra["oracle_compare_s"], "s"),
    }


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="tracesig benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for quick self-tests")
    args = parser.parse_args(argv)

    if not (SRC / "tracesig" / "cli.py").is_file():
        print(f"perfbench: no tracesig sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracesig
    import tracesig.cli

    if Path(tracesig.__file__).resolve().parent != (SRC / "tracesig").resolve():
        print(f"perfbench: imported tracesig from {tracesig.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from tracer import OP_SPAN, Tracer

    work = STATE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        manifest = generate(args.workload, args.seed, work, args.scale)
        workload = workloads.make(args.workload, work, manifest)
        reference = Reference()
        runner = Runner(workload, tracesig.cli, reference)
        runner.op()  # warm-up: caches fill and the first output is checked
        reference.time()  # warm-up of the reference task
        tracer = None
        probes = None
        if args.trace:
            times, refs = runner.loop(args.seconds / 3)
            first_traced = runner.attempted
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_refs = runner.loop(args.seconds * 2 / 3, tracer)
            finally:
                tracer.uninstall()
        else:
            probes = SetupProbes(manifest.get("signatures", []), reference)
            times, refs = runner.loop(args.seconds, between=probes.between)
            setup_s = probes.finish()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        run_error = None
        check_metrics: dict = {}
        if runner.digest is not None:
            try:
                check_metrics = workload.check_run(runner.blobs)
            except workloads.CheckError as exc:
                run_error = str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = runner.attempted if run_error else len(runner.failures)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "load": "closed loop, one client, in-process tracesig.cli.main calls",
        "inputs": {k: v for k, v in manifest.items() if k != "expected"},
        "attempted": runner.attempted,
        "failed": failed,
        "failures": sorted(set(runner.failures + ([f"run check: {run_error}"] if run_error else []))),
        "reference_s": REFERENCE_S,
        "op_s": percentiles(times),
        "op_s_samples": times,
        "reference_s_samples": refs,
        "setup_s_samples": probes.samples if probes else [],
        "setup_reference_s_samples": probes.refs if probes else [],
    }
    op_s = at_reference_speed(times, refs)
    if tracer is None:
        metrics = end_to_end_metrics(op_s, workload.records_per_op, setup_s, peak_rss_mb)
    else:
        spans = tracer.summary()
        ops = len(traced)
        extra = {
            "output_bytes": _mean(runner.output_bytes[first_traced:]),
            "warnings": _mean(runner.warnings[first_traced:]),
            "run_scenario_s": manifest.get("run_scenario_s", 0.0),
            "oracle_compare_s": check_metrics.get("simulate.oracle_compare.s", 0.0),
        }
        metrics = layer_metrics(spans, tracer.counts(), ops, extra)
        layers = layer_self_s(spans, ops)
        traced_op_s = spans[OP_SPAN]["s"] / ops
        record["traced"] = {
            "ops": ops,
            "op_s": percentiles(traced),
            "reference_s_samples": traced_refs,
            "op_span_mean_s": traced_op_s,
            "layer_self_s": dict(layers),
            "layer_self_sum_s": sum(layers.values()),
            "layer_share": {k: v / traced_op_s for k, v in layers.items()},
            # At the reference speed, as the gated op_s.mean of an untraced run.
            "overhead_s": at_reference_speed(traced, traced_refs) - op_s,
            "spans": {name: {k: v / ops for k, v in e.items()} for name, e in sorted(spans.items())},
            "counters": dict(tracer.counts()),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if tracer is not None:
        spans = {"fields": ["name", "start", "end", "parent", "op"], "spans": tracer.spans}
        (results / f"{stem}.spans.json").write_text(json.dumps(spans), encoding="utf-8")
    for failure in record["failures"][:5]:
        print(f"perfbench: failed op: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
