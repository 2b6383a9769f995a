"""Peak memory of ``tracesig derive`` against the number of runs.

For each N in ``--runs``, the derive-pipeline scenario of ``perfbench/gen.py``
(seed 11, ``SEED``, about 3,000 traces) has its script stretched to N
``app.open`` runs, two to a session and an hour apart, and one
``bg.activity`` run after the first.  A child process simulates it; then
``tracesig derive --obs ... --background ...`` (no ``--traces``) runs in
another child, once per ``--repeat``, from the package under ``--src``
(this checkout's ``src`` by default, so another checkout's code can be
measured on the same inputs).  Reported per N: the derive child's peak RSS
(``os.wait4``) and the size of the derived core (the medians over the
repeats), and over all N the least-squares slope of peak RSS per run.  A
table goes to stderr and one JSON object to stdout, or to ``-o``.

A child's peak RSS counts the pages it shares with this process between
fork and exec, so this process never imports the package or holds the
simulated evidence: it stays far smaller than any derive it measures.

    python3 tools/derive_memory.py --runs 3,12,48,96
    python3 tools/derive_memory.py --runs 2,6 --repeat 1
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 11


def stretched_scenario(runs: int) -> dict:
    """The derive-pipeline scenario of ``SEED`` with ``runs`` action runs."""
    from tracesig.evidence import format_timestamp, parse_timestamp

    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    scenario = gen.derive_scenario(SEED)[0]["scenario"]
    start = parse_timestamp(scenario["script"][0]["time"])
    script = []
    for run in range(runs):
        script.append({"time": format_timestamp(start + 3600 * len(script)), "action": "app.open",
                       "session": run // 2, "launch": gen._LAUNCHES[run % len(gen._LAUNCHES)]})
        if run == 0:
            script.append({"time": format_timestamp(start + 3600 * len(script)),
                           "action": "bg.activity", "session": 0})
    capture = max(parse_timestamp(scenario["meta"]["capture_time"]), start + 3600 * len(script) + 86400)
    scenario["meta"]["capture_time"] = format_timestamp(capture)
    scenario["script"] = script
    return scenario


def simulate(runs: int, out: Path) -> None:
    """Write the evidence tree of the stretched scenario to ``out``."""
    sys.path.insert(0, str(ROOT / "src"))  # the simulator of this checkout, installed or not
    from tracesig.simulate import load_scenario, run_scenario, write_scenario_outputs

    scenario = load_scenario(json.dumps(stretched_scenario(runs)))
    write_scenario_outputs(run_scenario(scenario), out)


def measure(src: Path, obs: Path, background: Path, sig: Path) -> tuple[float, int]:
    """Peak RSS in MiB and derived core size of one derive."""
    command = [sys.executable, "-m", "tracesig.cli", "derive", "--obs", str(obs),
               "--background", str(background), "--action", "app.open",
               "--platform", "windows_xp", "-o", str(sig)]
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryFile() as err:
        child = subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(child.pid, 0)  # the rusage of this child alone
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            err.seek(0)
            message = err.read().decode("utf-8", "replace").strip()[-2000:]
            raise RuntimeError(f"derive exited {child.returncode}: {message}")
    core = len(json.loads(sig.read_text(encoding="utf-8"))["core"])
    return usage.ru_maxrss / 1024, core


def slope(xs: list[float], ys: list[float]) -> float | None:
    """The least-squares slope of ``ys`` over ``xs``."""
    if len(set(xs)) < 2:
        return None
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", default="3,12,48,96", help="comma-separated run counts")
    parser.add_argument("--repeat", type=int, default=3, help="derives per run count")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the tracesig package to measure")
    parser.add_argument("-o", "--output", type=Path, help="JSON output file (default: stdout)")
    parser.add_argument("--simulate-into", type=Path, help=argparse.SUPPRESS)  # the child's task
    args = parser.parse_args(argv)
    counts = [int(n) for n in args.runs.split(",")]
    if not counts or min(counts) < 1 or args.repeat < 1:
        parser.error("--runs takes positive counts and --repeat a positive number")

    if args.simulate_into:
        simulate(counts[0], args.simulate_into)
        return 0

    rows = []
    with tempfile.TemporaryDirectory(prefix="derive_memory-") as tmp:
        for n in counts:
            out = Path(tmp) / f"runs{n}"
            subprocess.run([sys.executable, __file__, "--runs", str(n), "--simulate-into", str(out)],
                           check=True)
            obs, background = out / "obs" / "app.open", out / "obs" / "bg.activity"
            samples = [measure(args.src.resolve(), obs, background, Path(tmp) / "derived.sig")
                       for _ in range(args.repeat)]
            rss, core = (statistics.median(column) for column in zip(*samples))
            rows.append({"runs": n, "run_files": 2 * n + 2, "peak_rss_mib": round(rss, 2),
                         "core": int(core)})
            print(f"runs {n:4d}  files {2 * n + 2:4d}  peak RSS {rss:7.1f} MiB  core {int(core)}",
                  file=sys.stderr)
    per_run = slope([r["runs"] for r in rows], [r["peak_rss_mib"] for r in rows])
    if per_run is not None:
        print(f"peak RSS slope {per_run:.3f} MiB per run", file=sys.stderr)
    report = {
        "seed": SEED,
        "src": str(args.src),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "repeat": args.repeat,
        "runs": rows,
        "slope_mib_per_run": None if per_run is None else round(per_run, 4),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.output:
        args.output.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
