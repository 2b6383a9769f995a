"""Self-tests of the benchmark: smoke runs, generator determinism, checks.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import REFERENCE_S, Reference  # noqa: E402
from tracesig import cli  # noqa: E402

SMALL = 0.05
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _files(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def test_spec_names_the_workloads_the_runner_accepts():
    assert [w["name"] for w in SPEC["workloads"]] == list(gen.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--scale", str(SMALL)],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    record = json.loads(
        (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert record["seed"] == 3 and record["nproc"] and record["python"]
    assert record["inputs"]["records"] > 0
    if trace:
        traced = record["traced"]
        assert traced["layer_self_sum_s"] == pytest.approx(traced["op_span_mean_s"], rel=1e-9)
        assert "overhead_s" in traced
        spans = json.loads(
            (ROOT / ".perfbench" / "results" / f"{workload}-seed3-trace1.spans.json").read_text()
        )["spans"]
        assert sum(1 for s in spans if s[3] == -1) == traced["ops"]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    first = gen.generate(workload, 11, tmp_path / "a", SMALL)
    second = gen.generate(workload, 11, tmp_path / "b", SMALL)
    first.pop("run_scenario_s", None)
    second.pop("run_scenario_s", None)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    gen.generate(workload, 12, tmp_path / "c", SMALL)
    assert _files(tmp_path / "c") != _files(tmp_path / "a")


def test_times_scale_to_the_reference_speed():
    # Ops twice as long as the reference task beside them take twice its
    # nominal time, however fast the host ran.
    for host_speed in (0.5, 1.0, 3.0):
        refs = [0.01 * host_speed, 0.03 * host_speed]
        ops = [0.04 * host_speed, 0.02 * host_speed, 0.06 * host_speed]
        assert run.at_reference_speed(ops, refs) == pytest.approx(2 * REFERENCE_S)


def test_reference_task_is_timed_with_the_collector_restored():
    import gc

    assert Reference().time() > 0
    assert gc.isenabled()


def _one_op(workload: str, tmp_path: Path):
    manifest = gen.generate(workload, 5, tmp_path, SMALL)
    wl = workloads.make(workload, tmp_path, manifest)
    assert [cli.main(argv) for argv in wl.calls] == wl.codes
    return wl, [path.read_bytes() for path in wl.outputs]


@pytest.mark.parametrize("workload", ["match-bulk", "match-ambiguous"])
def test_match_check_rejects_a_wrong_interval(workload, tmp_path):
    wl, blobs = _one_op(workload, tmp_path)
    wl.check_output(blobs)
    lo, hi = wl.expected["interval"]
    wl.expected["interval"] = [lo + 1, hi]
    with pytest.raises(workloads.CheckError, match="event interval"):
        wl.check_output(blobs)


def test_ambiguous_check_rejects_an_interval_missing_the_action(tmp_path):
    wl, blobs = _one_op("match-ambiguous", tmp_path)
    wl.expected["action_time"] = wl.expected["interval"][1] + 1
    with pytest.raises(workloads.CheckError, match="misses the action"):
        wl.check_output(blobs)


def test_derive_checks_reject_a_wrong_core_count(tmp_path):
    wl, blobs = _one_op("derive-pipeline", tmp_path)
    wl.check_output(blobs)
    assert "simulate.oracle_compare.s" in wl.check_run(blobs)
    wl.expected["core"] += 1
    with pytest.raises(workloads.CheckError, match="core"):
        wl.check_output(blobs)
    with pytest.raises(workloads.CheckError, match="core"):
        wl.check_run(blobs)
