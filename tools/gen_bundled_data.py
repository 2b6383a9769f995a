"""Regenerate the signatures bundled under tracesig.data and re-verify its fixtures.

The fixtures are committed source, edited by hand: five evidence snapshots
hand-timed from published observations, a 40-row capture excerpt, the demo
scenario and the list of IE8's irregularly accessed traces.  This script
reads them rather than rebuilding them.

The three bundled signatures are derived: they are what ``derive`` makes of
seeded scenarios.  Each action's published update behaviour is planted as
scenario rules, IE8's irregular traces taken from that list; one run of
``SESSIONS`` sessions of ``LAUNCHES`` launches each, one hour apart, under
seed ``SEED`` on the system the snapshot fixtures describe gives the
observations; ``build_update_matrix`` and ``derive_signature`` turn them
into the signature.  A derivation that planted truth contradicts fails the
script: every trace must be classified as planted, and the derived core must
be the planted core, generalized.

Each snapshot fixture must match its signature within its frozen event
interval, and is written back as ``save_snapshot`` of what ``parse_snapshot``
reads, so a snapshot-format change the parser still reads re-canonicalizes
it.  The capture excerpt must parse to 40 events, 12 names of them touched by
iexplore.exe and explorer.exe, and the demo scenario must replay.  Nothing is
written unless everything verifies.  Everything here is deterministic; run it
after changing serialization, template or derivation code and commit the
refreshed files.  ``ff36_open`` has a one-trace core, so its derivation logs
a weak-core WARNING on stderr; that is expected.

    python3 tools/gen_bundled_data.py
"""

from __future__ import annotations

import sys
from pathlib import Path

# Import the package from this checkout's src/, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from tracesig.capture import TraceNameSet, filter_by_process, parse_capture, unique_traces
from tracesig.categorize import build_update_matrix
from tracesig.evidence import RecordKind, fold_path, format_timestamp, parse_snapshot
from tracesig.evidence import parse_timestamp, save_snapshot
from tracesig.matching import Verdict, match_signature
from tracesig.signatures import Signature, derive_signature, load_signature, save_signature
from tracesig.simulate import (
    Always,
    FirstRunOfSession,
    Probability,
    Scenario,
    ScriptStep,
    UpdateMode,
    UpdateRule,
    UsageBased,
    load_scenario,
    oracle_compare,
    run_scenario,
)
from tracesig.templates import generalize_path

DATA = SRC / "tracesig" / "data"


def fixture(name: str) -> str:
    """The committed text of a fixture file."""
    return (DATA / "fixtures" / name).read_text(encoding="utf-8")


# --- deriving a signature from a seeded scenario ------------------------------

SEED = 1
SESSIONS, LAUNCHES = 12, 2  # one session a day, launches one hour apart
FIRST_LAUNCH = "2010-04-01T09:00:00Z"
SID = "S-1-5-21-1417001333-573735546-682003330-500"
HKU = f"HKEY_USERS\\{SID}"
ADMIN = "C:\\Documents and Settings\\Administrator"


def rule(path: str, field: str, mode: UpdateMode) -> UpdateRule:
    kind = RecordKind.REGKEY if path.startswith("HKEY_") else RecordKind.FILE
    return UpdateRule(path, kind, field, mode)


def derived_signature(
    action: str, rules: list[UpdateRule], launches: tuple[str | None, ...] = (None,)
) -> Signature:
    """``derive``'s signature for ``action`` over the seeded scenario planting ``rules``.

    The scenario runs on the system the snapshot fixtures describe, and its
    runs take their launch methods from ``launches`` in turn.  Asserts
    that every planted trace is classified as planted and that the derived
    core's template keys are those of the planted core traces, generalized.
    """
    meta = parse_snapshot(fixture("ie8_2010-04-12.csv")).meta
    start = parse_timestamp(FIRST_LAUNCH)
    script = tuple(
        ScriptStep(start + session * 86400 + launch * 3600, action, session,
                   launches[(session * LAUNCHES + launch) % len(launches)])
        for session in range(SESSIONS)
        for launch in range(LAUNCHES)
    )
    result = run_scenario(Scenario(SEED, meta, {action: tuple(rules)}, script))
    obs = result.observations[action]
    matrix = build_update_matrix(obs, TraceNameSet.of(r.trace for r in rules))
    sig = derive_signature(action, matrix, None, obs[0].before.meta, platform="windows_xp")

    planted = result.planted[action]
    disagreements = oracle_compare(planted, sig, matrix).disagreements()
    assert not disagreements, (action, disagreements)
    planted_core = {
        generalize_path(trace, meta, kind=matrix.kinds[fold_path(trace)]).key
        for trace, category in planted.items()
        if category.is_always and not category.confounded
    }
    derived_core = {c.template.key for c in sig.core}
    assert derived_core == planted_core, (
        f"{action}: derived core {sorted(derived_core)} is not the planted core "
        f"{sorted(planted_core)}"
    )
    return sig


# --- ie8_open ----------------------------------------------------------------

PF = "C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf"
INDEX = f"{ADMIN}\\Local Settings\\Application Data\\Microsoft\\Feeds Cache\\index.dat"
CTF = f"{HKU}\\Software\\Microsoft\\CTF\\TIP"
PHISH = (f"{HKU}\\Software\\Microsoft\\Internet Explorer\\Security"
         "\\AntiPhishing\\2CEDBFBC-DBA8-43AA-B1FD-CC8E6316E3E2")
EXT1 = (f"{HKU}\\Software\\Microsoft\\Windows\\CurrentVersion\\Ext\\Stats"
        "\\{E2E2DD38-D088-4134-82B7-F2BA38496583}\\iexplore")
EXT2 = (f"{HKU}\\Software\\Microsoft\\Windows\\CurrentVersion\\Ext\\Stats"
        "\\{FB5F1910-F110-11D2-BB9E-00C04F795683}\\iexplore")
IE8_CORE_CONCRETE = [PF, INDEX, CTF, PHISH, EXT1, EXT2]

IE8_SHORTCUTS = [
    f"{ADMIN}\\Application Data\\Microsoft\\Internet Explorer"
    "\\Quick Launch\\Launch Internet Explorer Browser.lnk",
    f"{ADMIN}\\Desktop\\Internet Explorer.lnk",
    f"{ADMIN}\\Start Menu\\Programs\\Internet Explorer.lnk",
    "C:\\Documents and Settings\\All Users\\Start Menu\\Programs\\Internet Explorer.lnk",
]

IE8_FIRST_RUN_KEY = f"{HKU}\\Software\\Microsoft\\Internet Explorer\\Main"

IE8_RULES = [
    *(rule(path, "modified", Always()) for path in IE8_CORE_CONCRETE),
    *(rule(path, "accessed", UsageBased(path)) for path in IE8_SHORTCUTS),
    rule(IE8_FIRST_RUN_KEY, "modified", FirstRunOfSession()),
]

# --- msn2009_open ------------------------------------------------------------

MSN_LOG = f"{ADMIN}\\Tracing\\WindowsLiveMessenger-uccapi-0.uccapilog"
MSN_PF = "C:\\WINDOWS\\Prefetch\\MSNMSGGR.EXE-030AB647.pf"
MSN_KEY = f"{HKU}\\Software\\Microsoft\\Tracing\\WPPMedia"
MSN_RULES = [rule(path, "modified", Always()) for path in (MSN_LOG, MSN_PF, MSN_KEY)]

# --- ff36_open ---------------------------------------------------------------

FF36_PF = "C:\\WINDOWS\\Prefetch\\FIREFOX.EXE-28641590.pf"
FF36_RULES = [rule(FF36_PF, "modified", Always())]


# --- verification + write-out -------------------------------------------------

# Each snapshot fixture's signature and frozen event interval; generation
# fails loudly if matching drifts.  A fixture is written back in canonical form.
SNAPSHOT_FIXTURES = {
    "ie8_2010-04-12.csv": ("ie8_open", "2010-04-12T14:29:37Z", "2010-04-12T14:30:26Z"),
    "ie8_2010-04-14.csv": ("ie8_open", "2010-04-14T16:59:24Z", "2010-04-14T17:00:19Z"),
    "msn2009_2010-04-14_1949.csv":
        ("msn2009_open", "2010-04-14T19:27:25Z", "2010-04-14T19:28:25Z"),
    "msn2009_2010-04-14_1958.csv":
        ("msn2009_open", "2010-04-14T19:55:46Z", "2010-04-14T19:56:46Z"),
    "ff36_2010-04-14.csv": ("ff36_open", "2010-04-14T12:04:03Z", "2010-04-14T12:05:03Z"),
}


def build_all() -> dict[str, str]:
    """Every bundled file's text, keyed by its path relative to tracesig.data."""
    # Irregularly accessed traces observed around IE8 launches.  The two
    # entries ending in a bare 32-hex name cover per-download cache content;
    # they generalize to a %s tail.
    irregular = fixture("ie8_irregular_traces.txt")
    ie8_rules = [
        *IE8_RULES,
        *(rule(path, "accessed", Probability(0.5)) for path in irregular.splitlines()),
    ]
    sigs = {
        "ie8_open": derived_signature("ie8_open", ie8_rules, launches=(*IE8_SHORTCUTS, None)),
        "msn2009_open": derived_signature("msn2009_open", MSN_RULES),
        "ff36_open": derived_signature("ff36_open", FF36_RULES),
    }
    files: dict[str, str] = {}
    for sig in sigs.values():
        text = save_signature(sig)
        assert save_signature(load_signature(text)) == text, sig.action
        files[f"signatures/{sig.action}.sig"] = text

    for name, (action, *interval) in SNAPSHOT_FIXTURES.items():
        snap = parse_snapshot(fixture(name))
        result = match_signature(sigs[action], snap)
        assert result.verdict is Verdict.DETECTED, (name, result.verdict, result.missing)
        got = [format_timestamp(t) for t in result.event_interval]
        assert got == interval, (name, got)
        text = save_snapshot(snap)
        assert save_snapshot(parse_snapshot(text)) == text, name
        files[f"fixtures/{name}"] = text

    capture = fixture("capture_40rows.csv")
    events = parse_capture(capture)
    assert len(events) == 40, len(events)
    names = unique_traces(filter_by_process(events, ["iexplore.exe", "explorer.exe"]))
    assert len(names) == 12, len(names)
    files["fixtures/capture_40rows.csv"] = capture
    files["fixtures/ie8_irregular_traces.txt"] = irregular

    scenario = fixture("demo_scenario.json")
    result = run_scenario(load_scenario(scenario))
    assert set(result.observations) == {"app.open", "web.browse"}
    assert len(result.observations["app.open"]) == 7
    files["fixtures/demo_scenario.json"] = scenario
    return files


def main() -> None:
    for rel, text in build_all().items():
        path = DATA / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {rel}")


if __name__ == "__main__":
    main()
