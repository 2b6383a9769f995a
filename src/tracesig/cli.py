"""Command line front end.

Subcommands mirror the library pipeline:

    traces    reduce capture logs to the trace names present in every run
    derive    turn recorded observation runs into a signature file
    match     evaluate signature files against a timestamp snapshot
    simulate  execute a scenario file and write its evidence tree
    inspect   dump an observation directory's update matrix as CSV

Exit codes: 0 success (for ``match``: at least one Detected), 1 clean negative
(no signature detected), 2 usage or file format error, 3 internal error (an
unexpected exception; never read it as a verdict).  Reports go to the output
stream, diagnostics to the error stream.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from pathlib import Path

logger = logging.getLogger(__name__)

from . import __version__
from .capture import filter_by_process, intersect_runs, parse_capture, unique_traces
from .capture import CaptureFormatError, TraceNameSet
from .categorize import build_update_matrices, build_update_matrix, read_observations
from .evidence import format_timestamp, parse_snapshot, parse_timestamp, read_utf8, reraise_as
from .matching import DetectionResult, Verdict, match_signature
from .signatures import (
    Signature,
    bundled_signature,
    derive_signature,
    load_signature,
    save_signature,
    templates_per_label,
)

__all__ = ["main", "run"]


def _write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_signatures(args: argparse.Namespace) -> list[Signature]:
    sigs = [bundled_signature(name) for name in args.bundled]
    for path in args.signature:
        sigs.append(load_signature(read_utf8(path)))
    return sigs


def _trace_names(args: argparse.Namespace) -> TraceNameSet | None:
    """The names in the ``--traces`` file, one per non-empty line and kept as
    written (a name may start or end with a space), else None: every name the
    ``--obs`` snapshots hold, which the update matrices collect as they go."""
    if args.traces:
        return TraceNameSet.of(line for line in read_utf8(args.traces).splitlines() if line)
    return None


# --- traces -----------------------------------------------------------------


def cmd_traces(args: argparse.Namespace) -> int:
    processes = None
    if args.process is not None:
        processes = [p.strip() for p in args.process.split(",") if p.strip()]
    names = intersect_runs([_capture_names(path, processes) for path in args.capture])
    _write_output("".join(f"{name}\n" for name in names), args.output)
    return 0


def _capture_names(path: str, processes: list[str] | None) -> TraceNameSet:
    """The names one capture touches, through ``processes`` if given; its
    text and events are dropped before the next capture is read."""
    text = read_utf8(path)
    with reraise_as(CaptureFormatError, str(path)):
        log = parse_capture(text)
    del text
    if processes is not None:  # a list of no names is refused, not read as "all"
        log = filter_by_process(log, processes)
    return unique_traces(log)


# --- derive -----------------------------------------------------------------


def cmd_derive(args: argparse.Namespace) -> int:
    _write_output(save_signature(_derived(args)), args.output)
    return 0


def _derived(args: argparse.Namespace) -> Signature:
    """The signature of the ``--obs`` runs; the update matrices are dropped
    before it is serialized.  Background runs must observe the system the
    action runs did: their snapshot metadata must equal the action runs' but
    for the capture time, the rule ``build_update_matrices`` applies within
    each directory."""
    groups = [read_observations(args.obs)]
    if args.background:
        groups.append(read_observations(args.background))
    matrix, *background = build_update_matrices(groups, _trace_names(args))
    if background and (differ := matrix.meta.differences(background[0].meta)):
        raise ValueError(
            f"--background snapshots describe another system than --obs: {', '.join(differ)} differ"
        )
    return derive_signature(
        args.action,
        matrix,
        background[0] if background else None,
        matrix.meta,
        platform=args.platform,
    )


# --- match ------------------------------------------------------------------

def _point_text(tp) -> str:
    text = tp.iso()
    if tp.precision_s > 1:
        text += f" (precision {tp.precision_s}s)"
    return text


def _core_evidence(result: DetectionResult) -> list[str]:
    return ["core evidence:"] + [
        f"  {rc.record.kind.value:<6}  {rc.trace.field:<8}  "
        f"{_point_text(rc.timestamp):<37}  {rc.record.path}"
        for rc in result.resolved_core
    ]


def _render_text(sig: Signature, result: DetectionResult, now: int | None) -> str:
    lines = [f"action: {result.action}", f"platform: {sig.platform}"]
    if now is not None:
        lines.append(f"report time: {format_timestamp(now)}")
    lines.append(f"verdict: {result.verdict.value.capitalize()}")
    lines.append(f"window: {result.window_s}s")
    lines.append(f"weak: {'yes' if result.weak else 'no'}")
    if result.sid is not None:
        lines.append(f"sid: {result.sid}")

    if result.verdict is Verdict.DETECTED:
        lo, hi = result.event_interval
        lines.append(f"event interval: [{format_timestamp(lo)}, {format_timestamp(hi)}]")
        lines.append(f"core span: {result.core_span_s}s")
        lines.extend(_core_evidence(result))
        totals = templates_per_label(sig.supporting)
        if totals:
            counts = result.supporting_counts()
            tally = ", ".join(
                f"{label} {counts.get(label, 0)}/{totals[label]}" for label in sorted(totals)
            )
            lines.append(f"supporting: {tally}")
        if result.launch_hint is not None:
            lines.append(f"launch hint: {result.launch_hint}")
    elif result.verdict is Verdict.INCONSISTENT:
        lines.append(
            f"core span: {result.core_span_s}s exceeds the {result.window_s}s window"
        )
        lines.extend(_core_evidence(result))
    elif result.verdict is Verdict.MISSING:
        lines.append("missing evidence:")
        for text in result.missing:
            lines.append(f"  {text}")
    else:
        lines.append(
            "note: core relies on accessed times, which the source system did not maintain"
        )
    return "\n".join(lines) + "\n"


def _render_structured(sig: Signature, result: DetectionResult) -> dict:
    interval = None
    if result.event_interval is not None:
        lo, hi = result.event_interval
        interval = {
            "lo": lo,
            "hi": hi,
            "lo_iso": format_timestamp(lo),
            "hi_iso": format_timestamp(hi),
        }
    totals = templates_per_label(sig.supporting)
    counts = result.supporting_counts()
    return {
        "action": result.action,
        "platform": sig.platform,
        "verdict": result.verdict.value,
        "event_interval": interval,
        "core_span_s": result.core_span_s,
        "window_s": result.window_s,
        "weak": result.weak,
        "sid": result.sid,
        "core": [
            {
                "template": rc.trace.template.text,
                "field": rc.trace.field,
                "path": rc.record.path,
                "timestamp": rc.timestamp.iso(),
                "precision_s": rc.timestamp.precision_s,
            }
            for rc in result.resolved_core
        ],
        "missing": list(result.missing),
        "supporting": {
            label: {"hits": counts.get(label, 0), "total": totals[label]}
            for label in sorted(totals)
        },
        "launch_hint": result.launch_hint,
    }


def cmd_match(args: argparse.Namespace) -> int:
    if not args.signature and not args.bundled:
        print("error: at least one --signature or --bundled is required", file=sys.stderr)
        return 2
    now = parse_timestamp(args.now) if args.now else None
    sigs = _load_signatures(args)
    snap = parse_snapshot(read_utf8(args.snapshot))
    for sig in sigs:
        if sig.weak:
            logger.warning(
                "signature for %r carries %d core trace(s); corroborate any detection",
                sig.action,
                len(sig.core),
            )
    results = [match_signature(sig, snap, window_s=args.window) for sig in sigs]
    if args.format == "structured":
        payload = [_render_structured(sig, res) for sig, res in zip(sigs, results)]
        _write_output(json.dumps(payload, indent=2) + "\n", args.output)
    else:
        blocks = [_render_text(sig, res, now) for sig, res in zip(sigs, results)]
        _write_output("\n".join(blocks), args.output)
    return 0 if any(r.verdict is Verdict.DETECTED for r in results) else 1


# --- simulate ---------------------------------------------------------------


def cmd_simulate(args: argparse.Namespace) -> int:
    # Imported here so that no other subcommand pays for the simulator.
    from .simulate import load_scenario, run_scenario, write_scenario_outputs

    scenario = load_scenario(read_utf8(args.scenario))
    result = run_scenario(scenario)
    write_scenario_outputs(result, args.output)
    print(
        f"wrote {len(result.snapshots)} step snapshot(s) covering "
        f"{len(result.observations)} action(s) to {args.output}"
    )
    return 0


# --- inspect ----------------------------------------------------------------


def cmd_inspect(args: argparse.Namespace) -> int:
    matrix = build_update_matrix(read_observations(args.obs), _trace_names(args))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["trace", "field"] + [f"run{i}" for i in range(len(matrix.runs))])
    for trace in matrix.traces():
        for field, vec in matrix.vectors[trace].items():
            writer.writerow([matrix.display[trace], field] + ["1" if v else "0" for v in vec])
    _write_output(buf.getvalue(), args.output)
    return 0


# --- wiring -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tracesig",
        description="Derive and match timestamp-update signatures of user actions.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traces", help="trace names present in every capture run")
    p.add_argument("--capture", action="append", required=True, metavar="FILE",
                   help="capture CSV; repeat for one file per run")
    p.add_argument("--process", metavar="LIST",
                   help="comma-separated process names to keep (default: all)")
    p.add_argument("-o", "--output", metavar="FILE", help="default: standard output")
    p.set_defaults(func=cmd_traces)

    p = sub.add_parser("derive", help="derive a signature from observation runs")
    p.add_argument("--obs", required=True, metavar="DIR",
                   help="runNNN_before/after.csv pairs plus sessions.csv")
    p.add_argument("--background", metavar="DIR",
                   help="observation runs of ambient activity without the action")
    p.add_argument("--action", required=True, metavar="NAME")
    p.add_argument("--platform", default="unknown", metavar="NAME")
    p.add_argument("--traces", metavar="FILE",
                   help="restrict to these trace names, one per line, as written")
    p.add_argument("-o", "--output", metavar="FILE", help="default: standard output")
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("match", help="evaluate signatures against a snapshot")
    p.add_argument("--signature", action="append", default=[], metavar="FILE")
    p.add_argument("--bundled", action="append", default=[], metavar="NAME",
                   help="use a signature shipped with the package")
    p.add_argument("--snapshot", required=True, metavar="FILE")
    p.add_argument("--window", type=int, metavar="SECONDS",
                   help="override each signature's consistency window")
    p.add_argument("--format", choices=("text", "structured"), default="text")
    p.add_argument("--now", metavar="TIMESTAMP",
                   help="report timestamp to display; never affects verdicts")
    p.add_argument("-o", "--output", metavar="FILE", help="default: standard output")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("simulate", help="run a scenario file")
    p.add_argument("--scenario", required=True, metavar="FILE")
    p.add_argument("-o", "--output", required=True, metavar="DIR")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("inspect", help="dump an observation update matrix as CSV")
    p.add_argument("--obs", required=True, metavar="DIR")
    p.add_argument("--traces", metavar="FILE",
                   help="restrict to these trace names, one per line, as written")
    p.add_argument("-o", "--output", metavar="FILE", help="default: standard output")
    p.set_defaults(func=cmd_inspect)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)

    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s: %(message)s"))
    pkg_logger = logging.getLogger("tracesig")
    pkg_logger.addHandler(handler)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must never read as a verdict
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    finally:
        pkg_logger.removeHandler(handler)


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
