"""The benchmark's workloads: the CLI calls that make one op, and output checks.

An op is what one user waits for: one ``tracesig match`` call on the match
workloads, and ``tracesig traces`` followed by ``tracesig derive`` on
``derive-pipeline``.  Checks raise ``CheckError``; the runner counts the op
as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path
from time import perf_counter

from tracesig import (
    CategoryLabel,
    TraceCategory,
    TraceNameSet,
    build_update_matrix,
    load_signature,
    oracle_compare,
    read_observations,
)


class CheckError(Exception):
    """An op's output is not what the workload's inputs imply."""


def check_match(results: dict, expected: dict) -> None:
    """Structured ``match`` output, keyed by action, against the expectation."""
    hit = results.get(expected["detected"])
    if hit is None or hit["verdict"] != "detected":
        raise CheckError(f"{expected['detected']} not detected: {hit and hit['verdict']}")
    interval = hit["event_interval"]
    got = [interval["lo"], interval["hi"]]
    if got != list(expected["interval"]):
        raise CheckError(f"event interval {got} != expected {expected['interval']}")
    if "sid" in expected and hit["sid"] != expected["sid"]:
        raise CheckError(f"detected for SID {hit['sid']}, planted {expected['sid']}")
    if "action_time" in expected and not got[0] <= expected["action_time"] <= got[1]:
        raise CheckError(f"event interval {got} misses the action at {expected['action_time']}")
    for action in expected.get("missing", ()):
        verdict = results.get(action, {}).get("verdict")
        if verdict != "missing":
            raise CheckError(f"{action} verdict {verdict!r}, expected 'missing'")


def check_core(actual: int, expected: int) -> None:
    if actual != expected:
        raise CheckError(f"derived core has {actual} trace(s), planted {expected}")


class MatchWorkload:
    def __init__(self, work: Path, manifest: dict) -> None:
        out = work / "match.json"
        bundled = [arg for name in manifest["signatures"] for arg in ("--bundled", name)]
        self.calls = [
            ["match", *bundled, "--snapshot", str(work / manifest["snapshot"]),
             "--format", "structured", "-o", str(out)]
        ]
        self.codes = [0]
        self.outputs = [out]
        self.records_per_op = manifest["records"]
        self.expected = manifest["expected"]

    def check_output(self, blobs: list[bytes]) -> None:
        results = {r["action"]: r for r in json.loads(blobs[0])}
        check_match(results, self.expected)

    def check_run(self, blobs: list[bytes]) -> dict:
        return {}


class DeriveWorkload:
    def __init__(self, work: Path, manifest: dict) -> None:
        names = work / "names.txt"
        sig = work / "derived.sig"
        captures = [arg for name in manifest["captures"] for arg in ("--capture", str(work / name))]
        self.obs = work / manifest["obs"]
        self.background = work / manifest["background"]
        self.planted = work / manifest["planted"]
        self.action = manifest["action"]
        self.calls = [
            ["traces", *captures, "--process", ",".join(manifest["processes"]), "-o", str(names)],
            ["derive", "--obs", str(self.obs), "--background", str(self.background),
             "--traces", str(names), "--action", self.action, "--platform", "windows_xp",
             "-o", str(sig)],
        ]
        self.codes = [0, 0]
        self.outputs = [names, sig]
        self.records_per_op = manifest["records"]
        self.expected = manifest["expected"]

    def check_output(self, blobs: list[bytes]) -> None:
        kept = blobs[0].decode("utf-8").splitlines()
        if len(kept) != self.expected["names"]:
            raise CheckError(f"traces kept {len(kept)} names, expected {self.expected['names']}")
        check_core(len(load_signature(blobs[1].decode("utf-8")).core), self.expected["core"])

    def check_run(self, blobs: list[bytes]) -> dict:
        """Compare the derived signature with the scenario's planted truth."""
        data = json.loads(self.planted.read_text(encoding="utf-8"))[self.action]
        planted = {
            trace: TraceCategory(CategoryLabel(v["category"]), v["confounded"])
            for trace, v in data.items()
        }
        names = TraceNameSet.of(blobs[0].decode("utf-8").splitlines())
        sig = load_signature(blobs[1].decode("utf-8"))
        # The per-trace lattice warnings of this check are not part of any op.
        with contextlib.redirect_stderr(io.StringIO()):
            matrix = build_update_matrix(read_observations(self.obs), names)
            background = build_update_matrix(read_observations(self.background), names)
            started = perf_counter()
            report = oracle_compare(planted, sig, matrix, background)
            elapsed = perf_counter() - started
        if not report.clean:
            raise CheckError(
                f"oracle: {len(report.disagreements())} disagreement(s), core planted "
                f"{report.core_expected}, derived {report.core_actual}"
            )
        check_core(report.core_actual, self.expected["core"])
        return {"simulate.oracle_compare.s": elapsed}


def make(workload: str, work: Path, manifest: dict):
    cls = DeriveWorkload if workload == "derive-pipeline" else MatchWorkload
    return cls(work, manifest)
