"""The benchmark's modules still import, and its tracer still hooks the CLI.

``perfbench/`` imports names from the package root and patches functions at
the names their callers look them up by.  Renaming or dropping one of those
breaks the benchmark, not the package, so it is checked here.  Small
``derive-pipeline`` ops also run end to end: one traced, to check which
layers its spans cover, and one untraced, to keep its stderr free of
per-trace warnings.
"""

import importlib.util
from pathlib import Path

import tracesig.categorize
import tracesig.cli
import tracesig.matching
import tracesig.signatures
from tracesig.categorize import UpdateMatrix
from tracesig.data import fixture_text
from tracesig.evidence import Snapshot

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
HOOKED = (
    tracesig.cli,
    tracesig.categorize,
    tracesig.matching,
    tracesig.signatures,
    Snapshot,
    UpdateMatrix,
)


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_modules_import():
    for name in ("gen", "workloads", "tracer"):
        assert load_bench_module(name).__name__ == f"perfbench_{name}"


def test_tracer_wraps_a_match_and_restores_the_originals(tmp_path, capsys):
    snap = tmp_path / "snap.csv"
    snap.write_text(fixture_text("ie8_2010-04-12.csv"), encoding="utf-8")
    originals = [dict(vars(owner)) for owner in HOOKED]

    tracer = load_bench_module("tracer").Tracer()
    tracer.install()
    try:
        with tracer.op():
            rc = tracesig.cli.main(["match", "--bundled", "ie8_open", "--snapshot", str(snap)])
    finally:
        tracer.uninstall()

    assert rc == 0
    spans = tracer.summary()
    for name in ("cli.main", "evidence.parse_snapshot", "matching.match_signature"):
        assert spans[name]["calls"] == 1, name
    assert spans["templates.instantiate"]["calls"] > 0
    assert tracer.counts()["evidence.records_parsed"] == 17
    for owner, before in zip(HOOKED, originals):
        after = vars(owner)
        assert all(after[attr] is value for attr, value in before.items()), owner


def test_tracer_wraps_a_derive_pipeline_op(tmp_path, capsys):
    """The derive layers the benchmark reports fire; both update matrices are
    built in one call that no span wraps, so that time counts as the CLI's."""
    manifest = load_bench_module("gen").generate("derive-pipeline", 3, tmp_path, 0.02)
    workload = load_bench_module("workloads").make("derive-pipeline", tmp_path, manifest)
    tracer = load_bench_module("tracer").Tracer()
    tracer.install()
    try:
        with tracer.op():
            codes = [tracesig.cli.main(call) for call in workload.calls]
    finally:
        tracer.uninstall()

    assert codes == workload.codes
    spans, counts = tracer.summary(), tracer.counts()
    assert spans["categorize.read_observations"]["calls"] == 2  # --obs and --background
    for name in ("signatures.derive_signature", "categorize.categorize_matrix"):
        assert spans[name]["calls"] == 1, name
    assert counts["categorize.traces_categorized"] > 0
    assert spans["templates.generalize_path"]["calls"] == counts["categorize.traces_categorized"]
    assert "categorize.build_update_matrix" not in spans


def test_derive_pipeline_logs_no_lattice_warnings(tmp_path, capsys):
    gen = load_bench_module("gen")
    workloads = load_bench_module("workloads")
    manifest = gen.generate("derive-pipeline", 3, tmp_path, 0.02)
    workload = workloads.make("derive-pipeline", tmp_path, manifest)
    capsys.readouterr()
    for call in workload.calls:
        assert tracesig.cli.main(call) == 0, call
    err = capsys.readouterr().err
    assert not [line for line in err.splitlines() if "WARNING" in line], err[:500]
