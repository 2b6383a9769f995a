"""Seeded input generators for the tracesig benchmark.

Each workload's inputs are a pure function of ``(workload, seed, scale)``:
the same arguments give byte-identical files.  Every snapshot is built
through the package's public API (``Snapshot.build`` and ``save_snapshot``);
the derive scenario goes through ``load_scenario``, ``run_scenario`` and
``write_scenario_outputs``.  Capture logs have no writer in the package, so
they are written here as process-monitor style CSV, the format
``parse_capture`` reads.

Run as a script to generate one workload's inputs into a directory; it
prints a JSON manifest (file names, sizes, expected results) as its last
line:

    PYTHONPATH=src python3 perfbench/gen.py --workload match-bulk --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import random
import sys
import time
from pathlib import Path

from tracesig import (
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotMeta,
    TimePoint,
    format_timestamp,
    load_scenario,
    parse_snapshot,
    parse_timestamp,
    run_scenario,
    save_snapshot,
    write_scenario_outputs,
)
from tracesig.data import fixture_text
from tracesig.simulate import draw_uniform

WORKLOADS = ("match-bulk", "match-ambiguous", "derive-pipeline")

# Sizes at scale 1.0.  Tests pass a small scale for quick smoke runs.
BULK_EXTRA_RECORDS = 20_000
AMBIGUOUS_KEYS_PER_TEMPLATE = 110  # AntiPhishing and Ext\Stats keys per SID
AMBIGUOUS_PREFETCH = 6
DERIVE_TRACES = 3_000
DERIVE_ACTION_RUNS = 3  # sessions [0, 0, 1]
DERIVE_BACKGROUND_RUNS = 1
DERIVE_CAPTURE_RUNS = 4
UNRECORDED_NAMES = 20  # capture names with no snapshot record, kept by `traces`

BULK_FIXTURE = "ie8_2010-04-12.csv"
# The fixture's event interval for ie8_open, pinned by the acceptance suite.
BULK_IE8_INTERVAL = ("2010-04-12T14:29:37Z", "2010-04-12T14:30:26Z")
BULK_SIGNATURES = ("ie8_open", "msn2009_open", "ff36_open")

WINDOW_S = 60
XP_HOME = "\\Documents and Settings\\Administrator"

_WORDS = (
    "alpha", "beacon", "cobalt", "delta", "ember", "falcon", "garnet", "harbor",
    "indigo", "juniper", "krypton", "lumen", "meadow", "nickel", "onyx", "prairie",
    "quartz", "raven", "sierra", "tundra", "umber", "violet", "willow", "yarrow",
)
_EXES = ("NOTEPAD.EXE", "WINWORD.EXE", "EXCEL.EXE", "CALC.EXE", "MSPAINT.EXE", "WMPLAYER.EXE")
_VENDORS = ("Adobe", "Apple", "Corel", "Nullsoft", "Skype", "VideoLAN", "WinRAR")
_EXTS = ("doc", "xls", "txt", "jpg", "pdf", "mp3")


def _hex(rng: random.Random, digits: int) -> str:
    return f"{rng.getrandbits(4 * digits):0{digits}X}"


def _guid(rng: random.Random) -> str:
    h = _hex(rng, 32)
    return f"{h[:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:]}"


def _minute(epoch: int) -> TimePoint:
    return TimePoint(epoch - epoch % 60, 60)


def _file(path: str, rng: random.Random, newest: int, span_s: int) -> ArtifactRecord:
    created = newest - rng.randrange(span_s)
    modified = created + rng.randrange(newest - created + 1)
    accessed = modified + rng.randrange(newest - modified + 1)
    return ArtifactRecord(
        RecordKind.FILE, path, TimePoint(modified), TimePoint(accessed), TimePoint(created)
    )


def _write(path: Path, text: str) -> int:
    path.write_text(text, encoding="utf-8")
    return len(text.encode("utf-8"))


# --- match-bulk -------------------------------------------------------------


def gen_match_bulk(out: Path, seed: int, scale: float = 1.0) -> dict:
    """The IE8 fixture plus seeded unrelated files and HKEY_USERS keys.

    No generated path matches any template of the three bundled signatures,
    so each ie8_open core template keeps the single candidate the fixture
    gives it and the match outcome stays the fixture's.
    """
    rng = random.Random(f"match-bulk/{seed}")
    base = parse_snapshot(fixture_text(BULK_FIXTURE))
    meta = base.meta
    sid = meta.sids[0]
    newest = meta.capture_time.epoch_s
    span = 400 * 86400
    records = list(base.records.values())
    extra = max(1, int(BULK_EXTRA_RECORDS * scale))
    for n in range(extra):
        word = rng.choice(_WORDS)
        shape = n % 5
        if shape == 0:
            path = f"{meta.system_root}\\Prefetch\\{rng.choice(_EXES)}-{_hex(rng, 8)}-{n}.pf"
            records.append(_file(path, rng, newest, span))
        elif shape == 1:
            records.append(_file(f"{meta.system_root}\\system32\\{word}{n}.dll", rng, newest, span))
        elif shape == 2:
            path = f"C:{XP_HOME}\\My Documents\\{word}\\{word}{n}.{rng.choice(_EXTS)}"
            records.append(_file(path, rng, newest, span))
        else:
            vendor = rng.choice(_VENDORS)
            path = f"HKEY_USERS\\{sid}\\Software\\{vendor}\\{word.title()}\\Key{n}"
            records.append(
                ArtifactRecord(RecordKind.REGKEY, path, _minute(newest - rng.randrange(span)))
            )
    text = save_snapshot(Snapshot.build(meta, records))
    size = _write(out / "snapshot.csv", text)
    return {
        "snapshot": "snapshot.csv",
        "signatures": list(BULK_SIGNATURES),
        "records": len(records),
        "bytes": size,
        "expected": {
            "detected": "ie8_open",
            "interval": [parse_timestamp(t) for t in BULK_IE8_INTERVAL],
            "missing": [s for s in BULK_SIGNATURES if s != "ie8_open"],
        },
    }


# --- match-ambiguous --------------------------------------------------------

_HKU_IE = "Software\\Microsoft\\Internet Explorer\\Security\\AntiPhishing"
_HKU_EXT = "Software\\Microsoft\\Windows\\CurrentVersion\\Ext\\Stats"


def _consistent_best(per_template: list[list[TimePoint]]) -> tuple[int, int] | None:
    """Most recent event interval over all consistent choices (small inputs)."""
    best = None
    for combo in itertools.product(*per_template):
        lo = max(p.lo for p in combo)
        hi = min(p.hi for p in combo)
        if lo - hi <= WINDOW_S:
            interval = (lo - WINDOW_S, hi)
            if best is None or (interval[1], interval[0]) > (best[1], best[0]):
                best = interval
    return best


def gen_match_ambiguous(out: Path, seed: int, scale: float = 1.0) -> dict:
    """A small snapshot where ie8_open's core search faces k^2 x p choices per SID.

    Two SIDs each carry k AntiPhishing keys and k Ext\\Stats keys; the system
    carries p IEXPLORE prefetch files.  Decoy timestamps spread over days on
    both sides of one planted action.  The planted user's CTF\\TIP key and the
    single Feeds Cache index.dat sit at the action time; the other user's TIP
    key is days away, so that user's combinations are all inconsistent but
    still examined.  Every consistent combination must include index.dat, so
    only records within the window of it can take part: the expected interval
    is computed from those few alone.
    """
    rng = random.Random(f"match-ambiguous/{seed}")
    k = max(2, int(AMBIGUOUS_KEYS_PER_TEMPLATE * scale))
    action = parse_timestamp("2010-03-01T00:00:00Z") + rng.randrange(60 * 86400)
    sids = tuple(
        f"S-1-5-21-{rng.randrange(10**9, 4 * 10**9)}-{rng.randrange(10**9, 4 * 10**9)}"
        f"-{rng.randrange(10**9, 4 * 10**9)}-{1000 + i}"
        for i in range(2)
    )
    planted_sid = sids[0]
    capture = action + 10 * 86400
    meta = SnapshotMeta(
        system_root="C:\\WINDOWS",
        home_drive="C:",
        home_path=XP_HOME,
        sids=sids,
        last_access_enabled=True,
        capture_time=TimePoint(capture),
        install_paths={"InternetExplorer": "C:\\Program Files\\Internet Explorer"},
    )

    def decoy() -> int:
        # Days before or after the action, never within ten minutes of it.
        while True:
            t = action + rng.randrange(-20 * 86400, 9 * 86400)
            if abs(t - action) > 600:
                return t

    def lat() -> int:
        return action + rng.randrange(46)

    records = []
    near: dict[str, list[TimePoint]] = {"index": [], "pf": [], "tip": [], "ap": [], "ext": []}

    def add_file(path: str, when: int, slot: str | None) -> None:
        point = TimePoint(when)
        records.append(ArtifactRecord(RecordKind.FILE, path, point, point, TimePoint(when - 86400 * 30)))
        if slot is not None:
            near[slot].append(point)

    def add_key(path: str, when: int, slot: str | None) -> None:
        point = _minute(when)
        records.append(ArtifactRecord(RecordKind.REGKEY, path, point))
        if slot is not None:
            near[slot].append(point)

    home = f"C:{XP_HOME}"
    add_file(f"{home}\\Local Settings\\Application Data\\Microsoft\\Feeds Cache\\index.dat", lat(), "index")
    add_file("C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf", lat(), "pf")
    for _ in range(max(1, int(AMBIGUOUS_PREFETCH * scale)) - 1):
        add_file(f"C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-{_hex(rng, 8)}.pf", decoy(), None)
    # A second planted-user AntiPhishing key shortly before the action gives
    # the search a second consistent choice with an earlier interval.
    for sid in sids:
        planted = sid == planted_sid
        add_key(f"HKEY_USERS\\{sid}\\Software\\Microsoft\\CTF\\TIP",
                lat() if planted else decoy(), "tip" if planted else None)
        for i in range(k):
            when, slot = decoy(), None
            if planted and i == 0:
                when, slot = lat(), "ap"
            elif planted and i == 1:
                when, slot = action - 90, "ap"
            add_key(f"HKEY_USERS\\{sid}\\{_HKU_IE}\\{_guid(rng)}", when, slot)
        for i in range(k):
            when, slot = (lat(), "ext") if planted and i == 0 else (decoy(), None)
            add_key(f"HKEY_USERS\\{sid}\\{_HKU_EXT}\\{{{_guid(rng)}}}\\iexplore", when, slot)
        add_key(f"HKEY_USERS\\{sid}\\Software\\Microsoft\\Internet Explorer\\Main", decoy(), None)
    interval = _consistent_best([near[s] for s in ("index", "pf", "tip", "ap", "ext")])
    text = save_snapshot(Snapshot.build(meta, records))
    size = _write(out / "snapshot.csv", text)
    return {
        "snapshot": "snapshot.csv",
        "signatures": ["ie8_open"],
        "records": len(records),
        "bytes": size,
        "keys_per_template": k,
        "combinations": len(sids) * k * k * max(1, int(AMBIGUOUS_PREFETCH * scale)),
        "expected": {
            "detected": "ie8_open",
            "sid": planted_sid,
            "action_time": action,
            "interval": list(interval),
        },
    }


# --- derive-pipeline --------------------------------------------------------

DERIVE_SID = "S-1-5-21-1000000000-2000000000-3000000000-1001"
DERIVE_HOME = "\\Documents and Settings\\demo"
APP_PROCESSES = ("app.exe", "explorer.exe")
_SESSIONS = (0, 0, 1)
_LNK_DESKTOP = f"C:{DERIVE_HOME}\\Desktop\\App.lnk"
_LNK_QUICK = f"C:{DERIVE_HOME}\\Application Data\\Microsoft\\Internet Explorer\\Quick Launch\\App.lnk"
_LAUNCHES = (_LNK_QUICK, _LNK_DESKTOP, _LNK_DESKTOP)


def _fires(seed: int, trace: str, p: float, runs: int) -> tuple[bool, ...]:
    return tuple(draw_uniform(seed, trace, r) < p for r in range(runs))


def _observably_irregular(vec: tuple[bool, ...], field: str, kind: str) -> bool:
    """True when a classifier can see the planted irregularity in the runs.

    All-same vectors look like Always or Never, the first-run-of-session
    vector looks like FirstRunOnly, and an irregular accessed time on a file
    that fires on every first run of a session is the cookie-style IUI case.
    """
    firsts = tuple(i == 0 or _SESSIONS[i] != _SESSIONS[i - 1] for i in range(len(vec)))
    if all(vec) or not any(vec) or vec == firsts:
        return False
    if kind == "file" and field == "accessed" and all(v for v, f in zip(vec, firsts) if f):
        return False
    return True


def _irregular_name(seed: int, stem: str, ext: str, p: float, field: str, kind: str) -> str:
    """The first ``stem<n><ext>`` whose probability draws look irregular."""
    n = 0
    while not _observably_irregular(
        _fires(seed, f"{stem}{n}{ext}", p, DERIVE_ACTION_RUNS), field, kind
    ):
        n += 1
    return f"{stem}{n}{ext}"


def derive_scenario(seed: int, scale: float = 1.0) -> tuple[dict, list[str]]:
    """Scenario JSON data plus the paths the action's process touches.

    Every rule mode the simulator supports is planted: a core of always
    traces with distinct templates, first-run-of-session traces, two
    usage-based shortcuts, background-mode traces, and a majority of
    probability traces.  About half of all traces also always update under
    a second action, ``bg.activity``, whose observations are the derive
    background, so they come out confounded.
    """
    rng = random.Random(f"derive-pipeline/{seed}")
    total = max(60, int(DERIVE_TRACES * scale))
    home = f"C:{DERIVE_HOME}"
    hku = f"HKEY_USERS\\{DERIVE_SID}"
    app: list[dict] = []
    bg: list[dict] = []

    def rule(trace: str, kind: str, field: str, mode) -> None:
        app.append({"trace": trace, "kind": kind, "field": field, "mode": mode})

    # Core: always-updated traces no background touches (9 entries).
    for i in range(2):
        path = f"C:\\WINDOWS\\Prefetch\\APP{i}.EXE-00C0FFE{i}.pf"
        rule(path, "file", "modified", "always")
        rule(path, "file", "accessed", "always")
    for i in range(3):
        rule(f"{hku}\\Software\\App\\Session\\State{i}", "regkey", "modified", "always")
    for i in range(2):
        rule(f"{home}\\Local Settings\\Application Data\\App\\session{i}.dat", "file", "modified", "always")
    rule("C:\\WINDOWS\\system32\\appcore.dll", "file", "accessed", "always")
    au2 = _irregular_name(seed, f"{home}\\Local Settings\\Application Data\\App\\feeds", ".dat",
                          0.5, "created", "file")
    rule(au2, "file", "modified", "always")
    rule(au2, "file", "accessed", "always")
    rule(au2, "file", "created", {"probability": 0.5})
    core = 9
    # Confounded always traces: every action updates them.
    for i in range(3):
        path = f"C:\\WINDOWS\\system32\\config\\software{i}.LOG"
        rule(path, "file", "modified", "background")
    for i in range(3):
        path = f"{hku}\\Software\\App\\Shared\\Counter{i}"
        rule(path, "regkey", "modified", "always")
        bg.append({"trace": path, "kind": "regkey", "field": "modified", "mode": "always"})
    # First-run-of-session traces.
    for i in range(10):
        rule(f"{hku}\\Software\\App\\FirstRun\\Flag{i}", "regkey", "modified", "first_run_of_session")
        rule(f"{home}\\Application Data\\App\\firstrun{i}.ini", "file", "accessed", "first_run_of_session")
    # Usage-based shortcuts.
    for lnk in (_LNK_DESKTOP, _LNK_QUICK):
        rule(lnk, "file", "accessed", {"usage_based": lnk})

    planted = len({r["trace"].lower() for r in app})
    n = 0
    while planted < total:
        shape = n % 3
        word = _WORDS[n % len(_WORDS)]
        if shape == 0:
            base, kind, field = f"{home}\\Application Data\\App\\cache\\{word}_{n}", "file", "modified"
        elif shape == 1:
            base, kind, field = f"{home}\\Cookies\\demo@{word}{n}", "file", "accessed"
        else:
            base, kind, field = f"{hku}\\Software\\App\\Recent\\{word.title()}{n}", "regkey", "modified"
        p = rng.choice((0.3, 0.5, 0.7))
        trace = _irregular_name(seed, f"{base}_", "" if kind == "regkey" else ".dat", p, field, kind)
        rule(trace, kind, field, {"probability": p})
        if n % 2 == 0:
            bg.append({"trace": trace, "kind": kind, "field": field, "mode": "always"})
        n += 1
        planted += 1

    day = parse_timestamp("2010-05-01T00:00:00Z") + 86400 * rng.randrange(30)
    script = []
    hour = 9
    for run in range(DERIVE_ACTION_RUNS):
        script.append({"time": format_timestamp(day + _SESSIONS[run] * 86400 + hour * 3600),
                       "action": "app.open", "session": _SESSIONS[run], "launch": _LAUNCHES[run]})
        hour += 1
        if run < DERIVE_BACKGROUND_RUNS:
            script.append({"time": format_timestamp(day + _SESSIONS[run] * 86400 + hour * 3600),
                           "action": "bg.activity", "session": _SESSIONS[run]})
            hour += 1
    scenario = {
        "seed": seed,
        "meta": {
            "system_root": "C:\\WINDOWS",
            "home_drive": "C:",
            "home_path": DERIVE_HOME,
            "sids": [DERIVE_SID],
            "last_access_enabled": True,
            "capture_time": format_timestamp(day + 5 * 86400),
        },
        "model": {"app.open": app, "bg.activity": bg},
        "script": script,
    }
    touched = sorted({r["trace"] for r in app}, key=str.lower)
    return {"scenario": scenario, "core": core}, touched


def _capture_csv(rng: random.Random, run: int, touched: list[str]) -> str:
    """One monitored run: the action's processes touch every planted trace."""
    events: list[tuple[str, str]] = []
    for path in touched:
        proc = "explorer.exe" if path.lower().endswith(".lnk") else "app.exe"
        events.append((proc, path))
        events.append((proc, path.upper() if rng.random() < 0.1 else path))
    # Names every run touches that carry no timestamp record of their own.
    for i in range(UNRECORDED_NAMES):
        events.append(("app.exe", f"HKEY_LOCAL_MACHINE\\SOFTWARE\\App\\Values\\Setting{i}"))
    # Names only this run touches, which the intersection drops.
    for i in range(len(touched) // 10):
        events.append(("app.exe", f"C:{DERIVE_HOME}\\Local Settings\\Temp\\~app{run}_{i}.tmp"))
    # Other processes, which the process filter drops.
    for path in rng.sample(touched, len(touched) // 4):
        events.append(("svchost.exe", path))
    rng.shuffle(events)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["Time of Day", "Process Name", "PID", "Operation", "Path", "Result", "Detail"])
    for i, (proc, path) in enumerate(events):
        pid = 1528 if proc == "explorer.exe" else (2044 if proc == "app.exe" else 880)
        op = "RegOpenKey" if path.upper().startswith("HKEY_") else "CreateFile"
        when = f"{9 + run:02d}:{(i // 60000) % 60:02d}:{(i // 1000) % 60:02d}.{i % 1000:03d}0000"
        writer.writerow([when, proc, pid, op, path, "SUCCESS", "Desired Access: Generic Read"])
    return buf.getvalue()


def gen_derive_pipeline(out: Path, seed: int, scale: float = 1.0) -> dict:
    """Capture logs plus simulator observations for the traces + derive pipeline."""
    data, touched = derive_scenario(seed, scale)
    text = json.dumps(data["scenario"], indent=2) + "\n"
    _write(out / "scenario.json", text)
    started = time.perf_counter()
    result = run_scenario(load_scenario(text))
    run_scenario_s = time.perf_counter() - started
    write_scenario_outputs(result, out / "sim")
    rng = random.Random(f"derive-pipeline/capture/{seed}")
    captures = []
    events = 0
    for run in range(DERIVE_CAPTURE_RUNS):
        name = f"capture{run}.csv"
        body = _capture_csv(rng, run, touched)
        events += body.count("\n") - 1
        _write(out / name, body)
        captures.append(name)
    obs = result.observations["app.open"]
    records = sum(len(o.before) + len(o.after) for runs in result.observations.values() for o in runs)
    return {
        "captures": captures,
        "processes": list(APP_PROCESSES),
        "obs": "sim/obs/app.open",
        "background": "sim/obs/bg.activity",
        "planted": "sim/planted.json",
        "action": "app.open",
        "candidate_traces": len(touched),
        "capture_events": events,
        "action_runs": len(obs),
        "background_runs": len(result.observations["bg.activity"]),
        "records": records,
        "run_scenario_s": run_scenario_s,
        "expected": {"core": data["core"], "names": len(touched) + UNRECORDED_NAMES},
    }


GENERATORS = {
    "match-bulk": gen_match_bulk,
    "match-ambiguous": gen_match_ambiguous,
    "derive-pipeline": gen_derive_pipeline,
}


def generate(workload: str, seed: int, out: Path, scale: float = 1.0) -> dict:
    out.mkdir(parents=True, exist_ok=True)
    manifest = GENERATORS[workload](out, seed, scale)
    manifest.update(workload=workload, seed=seed, scale=scale)
    return manifest


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    manifest = generate(args.workload, args.seed, Path(args.out), args.scale)
    print(json.dumps(manifest, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
