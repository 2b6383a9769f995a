"""The benchmark's derive-pipeline outputs, pinned byte for byte.

The derive-pipeline inputs of ``perfbench/gen.py`` at scale 0.1 (about 300
traces, a core of 9) go through ``traces``, then ``derive --traces`` and
``derive`` without it.  The sha256 of ``names.txt``, of both signatures and
of the simulated observation tree are fixed: a change to derivation,
classification or the simulator that moves any byte of them fails here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from tracesig.cli import main

GEN = Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"


def generate(seed, out):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.generate("derive-pipeline", seed, out, 0.1)


def tree_digest(root):
    """The sha256 of every file under ``root``: its relative path, then its bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes() + b"\0")
    return digest.hexdigest()


def file_digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def pipeline_digests(seed, work):
    """The digests of one seed's pipeline outputs, by output name."""
    manifest = generate(seed, work)
    names = work / "names.txt"
    captures = [arg for name in manifest["captures"] for arg in ("--capture", str(work / name))]
    traces = ["traces", *captures, "--process", ",".join(manifest["processes"]), "-o", str(names)]
    assert main(traces) == 0
    derive = ["derive", "--obs", str(work / manifest["obs"]),
              "--background", str(work / manifest["background"]),
              "--action", manifest["action"], "--platform", "windows_xp"]
    assert main([*derive, "--traces", str(names), "-o", str(work / "traces.sig")]) == 0
    assert main([*derive, "-o", str(work / "all.sig")]) == 0
    return {
        "names.txt": file_digest(names),
        "traces.sig": file_digest(work / "traces.sig"),
        "all.sig": file_digest(work / "all.sig"),
        "sim/obs": tree_digest(work / "sim" / "obs"),
    }


SIG_11 = "b5101c41492d89676afd0673ac0146fd8b6c432bf98d712f4fa3d770bbdf8637"
SIG_29 = "634fe0b10749756371898452c5ab7a0f23a1ddf63db547eecc34c7185aa06481"
PINNED = {  # with and without --traces, derive writes the same signature
    11: {
        "names.txt": "5f3e79c3b740276348dde3a07c544b49c4321e3d1a5a573959b5f00f716cdd7e",
        "traces.sig": SIG_11,
        "all.sig": SIG_11,
        "sim/obs": "c8613bf4b317d843868785dfaf16adfece89844f418bc0ace6e3333900f97226",
    },
    29: {
        "names.txt": "84964d4e642795b4bafc75989d562fb967e3192853f14817f64aea1d618b333f",
        "traces.sig": SIG_29,
        "all.sig": SIG_29,
        "sim/obs": "994777bd5d4047862bdd79fc42914aa471bbc59686e6505ef875aac3cec98e63",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_derive_pipeline_outputs_are_pinned(seed, tmp_path):
    assert pipeline_digests(seed, tmp_path) == PINNED[seed]
