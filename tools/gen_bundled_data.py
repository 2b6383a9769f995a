"""Regenerate the signatures and fixtures bundled under tracesig.data.

The three bundled signatures are what ``derive`` makes of seeded scenarios.
Each action's published update behaviour is planted as scenario rules; one
run of ``SESSIONS`` sessions of ``LAUNCHES`` launches each, one hour apart,
under seed ``SEED`` gives the observations; ``build_update_matrix`` and
``derive_signature`` turn them into the signature.  A derivation that planted
truth contradicts fails the script: every trace must be classified as
planted, and the derived core must be the planted core, generalized.

The snapshot fixtures are still hand-timed from the published observations.
Each is matched against its signature, and its interval checked, before
anything is written.  Everything here is deterministic; run it after
changing serialization, template or derivation code and commit the
refreshed files.  ``ff36_open`` has a one-trace core, so its derivation logs
a weak-core WARNING on stderr; that is expected.

    python3 tools/gen_bundled_data.py
"""

from __future__ import annotations

import csv
import io
import json
import sys
from pathlib import Path

# Import the package from this checkout's src/, installed or not.
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from tracesig.capture import TraceNameSet
from tracesig.categorize import build_update_matrix
from tracesig.evidence import (
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotMeta,
    TimePoint,
    fold_path,
    format_timestamp,
    parse_snapshot,
    parse_timestamp,
    save_snapshot,
)
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

SID = "S-1-5-21-1417001333-573735546-682003330-500"
HKU = f"HKEY_USERS\\{SID}"
ADMIN = "C:\\Documents and Settings\\Administrator"

META_KWARGS = dict(
    system_root="C:\\WINDOWS",
    home_drive="C:",
    home_path="\\Documents and Settings\\Administrator",
    sids=(SID,),
    last_access_enabled=True,
    install_paths={"InternetExplorer": "C:\\Program Files\\Internet Explorer"},
)


def meta_at(capture_iso: str) -> SnapshotMeta:
    return SnapshotMeta(capture_time=TimePoint(parse_timestamp(capture_iso)), **META_KWARGS)


def tp(iso: str, precision: int = 1) -> TimePoint:
    return TimePoint(parse_timestamp(iso), precision)


# --- deriving a signature from a seeded scenario ------------------------------

SEED = 1
SESSIONS, LAUNCHES = 12, 2  # one session a day, launches one hour apart
FIRST_LAUNCH = "2010-04-01T09:00:00Z"
SCENARIO_META = meta_at("2010-04-14T16:45:00Z")


def rule(path: str, field: str, mode: UpdateMode) -> UpdateRule:
    kind = RecordKind.REGKEY if path.startswith("HKEY_") else RecordKind.FILE
    return UpdateRule(path, kind, field, mode)


def derived_signature(
    action: str, rules: list[UpdateRule], launches: tuple[str | None, ...] = (None,)
) -> Signature:
    """``derive``'s signature for ``action`` over the seeded scenario planting ``rules``.

    The runs take their launch methods from ``launches`` in turn.  Asserts
    that every planted trace is classified as planted and that the derived
    core's template keys are those of the planted core traces, generalized.
    """
    start = parse_timestamp(FIRST_LAUNCH)
    script = tuple(
        ScriptStep(start + session * 86400 + launch * 3600, action, session,
                   launches[(session * LAUNCHES + launch) % len(launches)])
        for session in range(SESSIONS)
        for launch in range(LAUNCHES)
    )
    result = run_scenario(Scenario(SEED, SCENARIO_META, {action: tuple(rules)}, script))
    obs = result.observations[action]
    matrix = build_update_matrix(obs, TraceNameSet.of(r.trace for r in rules))
    sig = derive_signature(action, matrix, None, obs[0].before, platform="windows_xp")

    planted = result.planted[action]
    disagreements = oracle_compare(planted, sig, matrix).disagreements()
    assert not disagreements, (action, disagreements)
    planted_core = {
        generalize_path(trace, SCENARIO_META, kind=matrix.kinds[fold_path(trace)]).key
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

COOKIE = f"{ADMIN}\\Cookies\\administrator@live[1].txt"
COOKIE_MSN = f"{ADMIN}\\Cookies\\administrator@msn[1].txt"
URLMON = "C:\\WINDOWS\\system32\\urlmon.dll"
IERTUTIL = "C:\\WINDOWS\\system32\\iertutil.dll"
IEFRAME = "C:\\WINDOWS\\system32\\ieframe.dll"
MSHTML = "C:\\WINDOWS\\system32\\mshtml.dll"

# Irregularly accessed traces observed around IE8 launches.  The two entries
# ending in a bare 32-hex name cover per-download cache content; they
# generalize to a %s tail.
IE8_IRREGULAR = [
    f"{ADMIN}\\Cookies",
    "C:\\WINDOWS\\system32\\ieapfltr.dat",
    f"{ADMIN}\\Application Data\\Microsoft"
    "\\CryptnetUrlCache\\MetaData\\7B2238AACCEDC3F1FFE8E7EB5F575EC9",
    "C:\\Documents and Settings\\All Users\\Application Data\\Microsoft"
    "\\CryptnetUrlCache\\production\\perlconfig.dll",
    "C:\\WINDOWS\\system32\\xmlite.dll",
    f"{ADMIN}\\Application Data\\Microsoft"
    "\\CryptnetUrlCache\\Content\\7B2238AACCEDC3F1FFE8E7EB5F575EC9",
    f"{ADMIN}\\Local Settings"
    "\\Application Data\\Microsoft\\Internet Explorer\\frameiconcache.dat",
    f"{ADMIN}\\Favorites\\Links\\desktop.ini",
    f"{ADMIN}\\Favorites\\Desktop.ini",
    "C:\\WINDOWS\\system32\\winhttp.dll",
    "C:\\Program Files\\Common Files\\Microsoft Shared\\Windows Live"
    "\\WindowsLiveLogin.dll",
    "C:\\Program Files\\Common Files\\Microsoft Shared\\Windows Live"
    "\\msidcr140.dll",
    "C:\\WINDOWS\\system32\\ieui.dll",
    "C:\\WINDOWS\\system32\\msls31.dll",
    "C:\\WINDOWS\\system32\\ieapfltr.dll",
    "C:\\Program Files\\Internet Explorer\\xpshims.dll",
    MSHTML,
    "C:\\WINDOWS\\system32\\msfeeds.dll",
    "C:\\WINDOWS\\system32\\activeds.dll",
    "C:\\WINDOWS\\system32\\adslrpc.dll",
    "C:\\WINDOWS\\system32\\credui.dll",
    "C:\\WINDOWS\\system32\\cryptnet.dll",
    "C:\\WINDOWS\\system32\\cscdll.dll",
    "C:\\WINDOWS\\system32\\cscui.dll",
    "C:\\WINDOWS\\system32\\dhcpcsvc.dll",
    "C:\\WINDOWS\\system32\\dot3api.dll",
    "C:\\WINDOWS\\system32\\dot3dlg.dll",
    "C:\\WINDOWS\\system32\\eadpolqec.dll",
    "C:\\WINDOWS\\system32\\eadpfcfg.dll",
    "C:\\WINDOWS\\system32\\eadpprxy.dll",
    "C:\\WINDOWS\\system32\\esent.dll",
    "C:\\WINDOWS\\system32\\mprapi.dll",
    "C:\\WINDOWS\\system32\\msxml3r.dll",
    "C:\\WINDOWS\\system32\\netman.dll",
    "C:\\WINDOWS\\system32\\netshell.dll",
    "C:\\WINDOWS\\system32\\onex.dll",
    "C:\\WINDOWS\\system32\\psapi.dll",
    "C:\\WINDOWS\\system32\\qutil.dll",
    "C:\\WINDOWS\\system32\\rasadhlp.dll",
    "C:\\WINDOWS\\system32\\rasenh.dll",
    "C:\\WINDOWS\\system32\\winlogon.exe",
    "C:\\WINDOWS\\system32\\winrnr.dll",
    "C:\\WINDOWS\\system32\\wintrust.dll",
    "C:\\WINDOWS\\system32\\wmi.dll",
    "C:\\WINDOWS\\system32\\wtsapi32.dll",
    "C:\\WINDOWS\\system32\\wzcsapi.dll",
    "C:\\WINDOWS\\system32\\wzcsvc.dll",
    "C:\\Program Files\\Messenger\\msmsgs.exe",
    "C:\\WINDOWS\\system32\\mswsock.dll",
    "C:\\WINDOWS\\system32\\msxml3.dll",
    "C:\\WINDOWS\\system32\\atl.dll",
    "C:\\Program Files\\Internet Explorer\\sqmapi.dll",
    "C:\\WINDOWS\\system32\\schannel.dll",
    "C:\\WINDOWS\\AppPatch\\aclayers.dll",
    URLMON,
    "C:\\Program Files\\Internet Explorer\\ieproxy.dll",
    IERTUTIL,
    IEFRAME,
    "C:\\WINDOWS\\system32\\actxprxy.dll",
    "C:\\WINDOWS\\system32\\apphelp.dll",
    "C:\\WINDOWS\\system32\\crypt32.dll",
    "C:\\WINDOWS\\system32\\cryptdll.dll",
    "C:\\WINDOWS\\system32\\digest.dll",
    "C:\\WINDOWS\\system32\\iphlpapi.dll",
    "C:\\WINDOWS\\system32\\ir32_32.dll",
    "C:\\WINDOWS\\system32\\ir41_32.ax",
    "C:\\WINDOWS\\system32\\ir41_qc.dll",
    "C:\\WINDOWS\\system32\\ir41_qcx.dll",
    "C:\\WINDOWS\\system32\\ir50_32.dll",
    "C:\\WINDOWS\\system32\\ir50_qc.dll",
    "C:\\WINDOWS\\system32\\ir50_qcx.dll",
    "C:\\WINDOWS\\system32\\mlang.dll",
    "C:\\WINDOWS\\system32\\msapsspc.dll",
    "C:\\WINDOWS\\system32\\msisip.dll",
    "C:\\WINDOWS\\system32\\msnsspc.dll",
    "C:\\WINDOWS\\system32\\msvcrt40.dll",
    "C:\\WINDOWS\\system32\\rasapi32.dll",
    "C:\\WINDOWS\\system32\\rasman.dll",
    "C:\\WINDOWS\\system32\\rtutils.dll",
    "C:\\WINDOWS\\system32\\sensapi.dll",
    "C:\\WINDOWS\\system32\\setupapi.dll",
    "C:\\WINDOWS\\system32\\sxs.dll",
    "C:\\WINDOWS\\system32\\tapi32.dll",
    "C:\\WINDOWS\\system32\\winspool.drv",
    "C:\\WINDOWS\\system32\\ws2_32.dll",
    "C:\\WINDOWS\\system32\\ws2help.dll",
    "C:\\WINDOWS\\system32\\xpssp2res.dll",
    "C:\\WINDOWS\\system32\\msv1_0.dll",
    "C:\\WINDOWS\\system32\\msasn1.dll",
    "C:\\WINDOWS\\system32\\wshex.dll",
    "C:\\WINDOWS\\system32\\dnsapi.dll",
    COOKIE,
    COOKIE_MSN,
]

QUICK_LAUNCH = (f"{ADMIN}\\Application Data\\Microsoft\\Internet Explorer"
                "\\Quick Launch\\Launch Internet Explorer Browser.lnk")
LNK = f"{ADMIN}\\Desktop\\Internet Explorer.lnk"
IE8_SHORTCUTS = [
    QUICK_LAUNCH,
    LNK,
    f"{ADMIN}\\Start Menu\\Programs\\Internet Explorer.lnk",
    "C:\\Documents and Settings\\All Users\\Start Menu\\Programs\\Internet Explorer.lnk",
]

IE8_FIRST_RUN_KEY = f"{HKU}\\Software\\Microsoft\\Internet Explorer\\Main"

IE8_RULES = [
    *(rule(path, "modified", Always()) for path in IE8_CORE_CONCRETE),
    *(rule(path, "accessed", Probability(0.5)) for path in IE8_IRREGULAR),
    *(rule(path, "accessed", UsageBased(path)) for path in IE8_SHORTCUTS),
    rule(IE8_FIRST_RUN_KEY, "modified", FirstRunOfSession()),
]


def file_record(path: str, m: str | None, a: str | None, c: str | None) -> ArtifactRecord:
    return ArtifactRecord(
        kind=RecordKind.FILE,
        path=path,
        modified=tp(m) if m else None,
        accessed=tp(a) if a else None,
        created=tp(c) if c else None,
    )


def key_record(path: str, m: str) -> ArtifactRecord:
    return ArtifactRecord(kind=RecordKind.REGKEY, path=path, modified=tp(m, 60))


DLL_M = "2009-03-08T04:31:09Z"
DLL_C = "2008-04-14T05:42:00Z"
NOTEPAD = "C:\\WINDOWS\\system32\\notepad.exe"
RUN_KEY = "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows\\CurrentVersion\\Run"


def ie8_records(pf_t, index_t, key_minute, lnk_t, cookie_live_t, urlmon_t, ieframe_t, main_minute):
    """One IE8 evidence set; times vary between the two analysis fixtures."""
    return [
        file_record(PF, pf_t, pf_t, "2010-02-20T11:08:15Z"),
        file_record(INDEX, index_t, index_t, "2010-02-20T11:05:02Z"),
        key_record(CTF, key_minute),
        key_record(PHISH, key_minute),
        key_record(EXT1, key_minute),
        key_record(EXT2, key_minute),
        # supporting evidence
        file_record(COOKIE, cookie_live_t, cookie_live_t, "2010-03-01T16:22:05Z"),
        file_record(COOKIE_MSN,
                    "2010-04-14T11:02:13Z", "2010-04-14T11:02:13Z", "2010-03-01T16:25:44Z"),
        file_record(URLMON, DLL_M, urlmon_t, DLL_C),
        file_record(IEFRAME, DLL_M, ieframe_t, DLL_C),
        file_record(IERTUTIL, DLL_M, "2010-04-14T16:40:00Z", DLL_C),
        file_record(MSHTML, DLL_M, "2010-04-13T10:15:30Z", DLL_C),
        file_record(LNK, lnk_t, lnk_t, "2009-11-03T09:12:44Z"),
        file_record(QUICK_LAUNCH,
                    "2010-04-09T08:00:00Z", "2010-04-09T08:00:00Z", "2009-11-03T09:12:44Z"),
        key_record(IE8_FIRST_RUN_KEY, main_minute),
        # unrelated records
        file_record(NOTEPAD, DLL_C, "2010-04-13T09:00:00Z", DLL_C),
        key_record(RUN_KEY, "2010-04-01T12:00:00Z"),
    ]


def build_ie8_fixture_apr12() -> Snapshot:
    records = ie8_records(
        pf_t="2010-04-12T14:30:37Z",
        index_t="2010-04-12T14:30:26Z",
        key_minute="2010-04-12T14:30:00Z",
        lnk_t="2010-04-12T14:30:02Z",
        cookie_live_t="2010-04-12T14:30:40Z",
        urlmon_t="2010-04-12T14:30:05Z",
        ieframe_t="2010-04-12T14:29:50Z",
        main_minute="2010-04-12T14:30:00Z",
    )
    return Snapshot.build(meta_at("2010-04-14T16:45:00Z"), records)


def build_ie8_fixture_apr14() -> Snapshot:
    records = ie8_records(
        pf_t="2010-04-14T17:00:24Z",
        index_t="2010-04-14T17:00:19Z",
        key_minute="2010-04-14T17:00:00Z",
        lnk_t="2010-04-14T17:00:01Z",
        cookie_live_t="2010-04-14T17:00:30Z",
        urlmon_t="2010-04-14T17:00:08Z",
        ieframe_t="2010-04-14T17:00:07Z",
        main_minute="2010-04-14T17:00:00Z",
    )
    return Snapshot.build(meta_at("2010-04-14T17:19:00Z"), records)


# --- msn2009_open ------------------------------------------------------------

MSN_LOG = f"{ADMIN}\\Tracing\\WindowsLiveMessenger-uccapi-0.uccapilog"
MSN_PF = "C:\\WINDOWS\\Prefetch\\MSNMSGGR.EXE-030AB647.pf"
MSN_KEY = f"{HKU}\\Software\\Microsoft\\Tracing\\WPPMedia"
MSN_RULES = [rule(path, "modified", Always()) for path in (MSN_LOG, MSN_PF, MSN_KEY)]


def msn_records(log_t: str, key_minute: str) -> list[ArtifactRecord]:
    return [
        file_record(MSN_LOG, log_t, log_t, "2010-04-10T08:12:30Z"),
        file_record(MSN_PF, log_t, log_t, "2010-03-15T10:22:41Z"),
        key_record(MSN_KEY, key_minute),
        # IE8 and friends were used afterwards; partial IE8 evidence only
        file_record(INDEX, "2010-04-14T19:45:12Z", "2010-04-14T19:45:12Z", "2010-02-20T11:05:02Z"),
        file_record(URLMON, DLL_M, "2010-04-14T19:45:12Z", DLL_C),
        file_record(NOTEPAD, DLL_C, "2010-04-13T09:00:00Z", DLL_C),
    ]


def build_msn_fixture_1949() -> Snapshot:
    return Snapshot.build(
        meta_at("2010-04-14T19:49:00Z"),
        msn_records("2010-04-14T19:28:25Z", "2010-04-14T19:28:00Z"),
    )


def build_msn_fixture_1958() -> Snapshot:
    return Snapshot.build(
        meta_at("2010-04-14T19:58:00Z"),
        msn_records("2010-04-14T19:56:46Z", "2010-04-14T19:56:00Z"),
    )


# --- ff36_open ---------------------------------------------------------------

FF36_PF = "C:\\WINDOWS\\Prefetch\\FIREFOX.EXE-28641590.pf"
FF36_RULES = [rule(FF36_PF, "modified", Always())]


def build_ff36_fixture() -> Snapshot:
    records = [
        file_record(FF36_PF,
                    "2010-04-14T12:05:03Z", "2010-04-14T12:05:03Z", "2010-03-01T09:30:00Z"),
        file_record(NOTEPAD, DLL_C, "2010-04-13T09:00:00Z", DLL_C),
        key_record(RUN_KEY, "2010-04-01T12:00:00Z"),
    ]
    return Snapshot.build(meta_at("2010-04-14T12:30:00Z"), records)


# --- capture fixture ----------------------------------------------------------

IEXE = "C:\\Program Files\\Internet Explorer\\iexplore.exe"
SVCHOST = "C:\\WINDOWS\\system32\\svchost.exe"
SVCKEY = "HKEY_LOCAL_MACHINE\\SOFTWARE\\Microsoft\\Windows NT\\CurrentVersion\\Svchost"

READ_DETAIL = "Desired Access: Generic Read, Disposition: Open, Options: Sequential Access"

# 40 events; iexplore.exe/explorer.exe touch exactly 12 distinct paths, the
# service rows add 2 more that a process filter must drop.
CAPTURE_ROWS = [
    ("14:30:01.0412345", "explorer.exe", 1528, "CreateFile", LNK, "SUCCESS", READ_DETAIL),
    ("14:30:01.0498211", "explorer.exe", 1528, "ReadFile", LNK, "SUCCESS",
     "Offset: 0, Length: 1024"),
    ("14:30:01.0523984", "explorer.exe", 1528, "CloseFile", LNK, "SUCCESS", ""),
    ("14:30:01.1048812", "explorer.exe", 1528, "CreateFile", IEXE, "SUCCESS",
     "Desired Access: Execute/Traverse, Disposition: Open"),
    ("14:30:01.2238870", "EXPLORER.EXE", 1528, "ReadFile",
     "c:\\program files\\internet explorer\\IEXPLORE.EXE", "SUCCESS",
     "Offset: 0, Length: 65536"),
    ("14:30:01.3711209", "explorer.exe", 1528, "ReadFile", PF, "SUCCESS",
     "Offset: 0, Length: 4096"),
    ("14:30:01.4001293", "explorer.exe", 1528, "CloseFile", PF, "SUCCESS", ""),
    ("14:30:01.4100288", "explorer.exe", 1528, "CloseFile", IEXE, "SUCCESS", ""),
    ("14:30:02.0014521", "iexplore.exe", 2936, "ReadFile", IEXE, "SUCCESS",
     "Offset: 65536, Length: 65536"),
    ("14:30:02.1183345", "iexplore.exe", 2936, "CreateFile", URLMON, "SUCCESS", READ_DETAIL),
    ("14:30:02.1201458", "iexplore.exe", 2936, "CloseFile", URLMON, "SUCCESS", ""),
    ("14:30:02.1377319", "iexplore.exe", 2936, "CreateFile", IERTUTIL, "SUCCESS", READ_DETAIL),
    ("14:30:02.1398001", "iexplore.exe", 2936, "CloseFile", IERTUTIL, "SUCCESS", ""),
    ("14:30:02.1540023", "iexplore.exe", 2936, "CreateFile", IEFRAME, "SUCCESS", READ_DETAIL),
    ("14:30:02.1561209", "iexplore.exe", 2936, "CloseFile", IEFRAME, "SUCCESS", ""),
    ("14:30:02.3300478", "iexplore.exe", 2936, "RegSetValue", CTF, "SUCCESS",
     "Type: REG_DWORD, Length: 4, Data: 1"),
    ("14:30:02.3318870", "iexplore.exe", 2936, "RegCloseKey", CTF, "SUCCESS", ""),
    ("14:30:02.4122901", "iexplore.exe", 2936, "RegSetValue", PHISH, "SUCCESS",
     "Type: REG_BINARY, Length: 16"),
    ("14:30:02.4901277", "iexplore.exe", 2936, "RegSetValue", EXT1, "SUCCESS",
     "Type: REG_BINARY, Length: 48"),
    ("14:30:02.5012385", "iexplore.exe", 2936, "RegSetValue", EXT2, "SUCCESS",
     "Type: REG_BINARY, Length: 48"),
    ("14:30:02.5100023", "iexplore.exe", 2936, "RegQueryValue", EXT2, "SUCCESS",
     "Type: REG_BINARY, Length: 48"),
    ("14:30:02.6671222", "iexplore.exe", 2936, "CreateFile", INDEX, "SUCCESS",
     "Desired Access: Generic Read/Write, Disposition: Open"),
    ("14:30:02.6698701", "iexplore.exe", 2936, "ReadFile", INDEX, "SUCCESS",
     "Offset: 0, Length: 16384"),
    ("14:30:02.6722209", "iexplore.exe", 2936, "WriteFile", INDEX, "SUCCESS",
     "Offset: 16384, Length: 512"),
    ("14:30:02.6759981", "iexplore.exe", 2936, "CloseFile",
     "c:\\documents and settings\\administrator\\LOCAL SETTINGS"
     "\\application data\\microsoft\\feeds cache\\INDEX.DAT", "SUCCESS", ""),
    ("14:30:03.0193356", "iexplore.exe", 2936, "CreateFile", COOKIE, "SUCCESS",
     "Desired Access: Generic Write, Disposition: OverwriteIf"),
    ("14:30:03.0214588", "iexplore.exe", 2936, "WriteFile", COOKIE, "SUCCESS",
     "Offset: 0, Length: 211"),
    ("14:30:03.0229903", "iexplore.exe", 2936, "CloseFile", COOKIE, "SUCCESS", ""),
    ("14:30:03.1888190", "IEXPLORE.EXE", 2936, "CloseFile",
     "C:\\WINDOWS\\PREFETCH\\IEXPLORE.EXE-27122324.PF", "SUCCESS", ""),
    ("14:30:03.2000000", "iexplore.exe", 2936, "WriteFile", PF, "SUCCESS",
     "Offset: 0, Length: 22114"),
    ("14:30:04.0012345", "svchost.exe", 1032, "ReadFile", SVCHOST, "SUCCESS",
     "Offset: 0, Length: 8192"),
    ("14:30:04.0100456", "svchost.exe", 1032, "CreateFile", SVCHOST, "SUCCESS", READ_DETAIL),
    ("14:30:04.0190012", "svchost.exe", 1032, "RegQueryValue", SVCKEY, "SUCCESS",
     "Type: REG_MULTI_SZ, Length: 64"),
    ("14:30:04.0201233", "svchost.exe", 1032, "RegCloseKey", SVCKEY, "SUCCESS", ""),
    ("14:30:04.1032985", "svchost.exe", 1032, "ReadFile", URLMON, "SUCCESS",
     "Offset: 0, Length: 4096"),
    ("14:30:04.2281244", "svchost.exe", 1032, "ReadFile", INDEX, "SUCCESS",
     "Offset: 0, Length: 1024"),
    ("14:30:04.3391200", "svchost.exe", 1032, "CloseFile", SVCHOST, "SUCCESS", ""),
    ("14:30:05.0000001", "System", 4, "WriteFile", PF, "SUCCESS",
     "Offset: 0, Length: 22114"),
    ("14:30:05.1102933", "System", 4, "ReadFile", SVCHOST, "SUCCESS",
     "Offset: 8192, Length: 8192"),
    ("14:30:05.2245110", "System", 4, "ReadFile", URLMON, "SUCCESS",
     "Offset: 4096, Length: 4096"),
]


def build_capture_csv() -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        ["Time of Day", "Process Name", "PID", "Operation", "Path", "Result", "Detail"]
    )
    assert len(CAPTURE_ROWS) == 40, len(CAPTURE_ROWS)
    for row in CAPTURE_ROWS:
        writer.writerow(row)
    return out.getvalue()


# --- demo scenario -----------------------------------------------------------

DEMO_SID = "S-1-5-21-1000000000-2000000000-3000000000-1001"
DEMO_HOME = "C:\\Documents and Settings\\demo"

DEMO_SCENARIO = {
    "seed": 20100501,
    "meta": {
        "system_root": "C:\\WINDOWS",
        "home_drive": "C:",
        "home_path": "\\Documents and Settings\\demo",
        "sids": [DEMO_SID],
        "last_access_enabled": True,
        "capture_time": "2010-05-02T00:00:00Z",
    },
    "model": {
        "app.open": [
            {"trace": "C:\\WINDOWS\\Prefetch\\APP.EXE-00C0FFEE.pf",
             "kind": "file", "field": "modified", "mode": "always"},
            {"trace": "C:\\WINDOWS\\Prefetch\\APP.EXE-00C0FFEE.pf",
             "kind": "file", "field": "accessed", "mode": "always"},
            {"trace": f"{DEMO_HOME}\\Local Settings\\Application Data\\App\\session.dat",
             "kind": "file", "field": "modified", "mode": "always"},
            {"trace": f"HKEY_USERS\\{DEMO_SID}\\Software\\App\\LastRun",
             "kind": "regkey", "field": "modified", "mode": "always"},
            {"trace": f"HKEY_USERS\\{DEMO_SID}\\Software\\App\\FirstRun",
             "kind": "regkey", "field": "modified", "mode": "first_run_of_session"},
            {"trace": f"{DEMO_HOME}\\Desktop\\App.lnk", "kind": "file",
             "field": "accessed", "mode": {"usage_based": f"{DEMO_HOME}\\Desktop\\App.lnk"}},
            {"trace": f"{DEMO_HOME}\\Cookies\\demo@app[1].txt", "kind": "file",
             "field": "accessed", "mode": {"probability": 0.5}},
            {"trace": "C:\\WINDOWS\\system32\\config\\software.LOG",
             "kind": "file", "field": "modified", "mode": "background"},
        ],
        "web.browse": [
            {"trace": "C:\\WINDOWS\\Prefetch\\BROWSER.EXE-12345678.pf",
             "kind": "file", "field": "modified", "mode": "always"},
            {"trace": f"{DEMO_HOME}\\Cookies\\demo@app[1].txt", "kind": "file",
             "field": "accessed", "mode": {"probability": 0.35}},
        ],
    },
    "script": [
        {"time": "2010-05-01T09:00:00Z", "action": "app.open", "session": 0,
         "launch": f"{DEMO_HOME}\\Desktop\\App.lnk"},
        {"time": "2010-05-01T09:20:00Z", "action": "web.browse", "session": 0},
        {"time": "2010-05-01T10:00:00Z", "action": "app.open", "session": 0},
        {"time": "2010-05-01T13:00:00Z", "action": "app.open", "session": 1,
         "launch": f"{DEMO_HOME}\\Desktop\\App.lnk"},
        {"time": "2010-05-01T13:30:00Z", "action": "web.browse", "session": 1},
        {"time": "2010-05-01T15:00:00Z", "action": "app.open", "session": 1},
        {"time": "2010-05-01T18:00:00Z", "action": "app.open", "session": 2},
        {"time": "2010-05-01T18:40:00Z", "action": "web.browse", "session": 2},
        {"time": "2010-05-01T20:00:00Z", "action": "app.open", "session": 2,
         "launch": f"{DEMO_HOME}\\Desktop\\App.lnk"},
        {"time": "2010-05-01T21:00:00Z", "action": "app.open", "session": 2},
    ],
}


# --- verification + write-out -------------------------------------------------


def verify_match(sig: Signature, snap: Snapshot, lo_iso: str, hi_iso: str) -> None:
    result = match_signature(sig, snap)
    assert result.verdict is Verdict.DETECTED, (sig.action, result.verdict, result.missing)
    lo, hi = result.event_interval
    got = (format_timestamp(lo), format_timestamp(hi))
    assert got == (lo_iso, hi_iso), (sig.action, got)


def build_all() -> dict[str, str]:
    """Every bundled file's text, keyed by its path relative to tracesig.data."""
    ie8 = derived_signature("ie8_open", IE8_RULES, launches=(*IE8_SHORTCUTS, None))
    msn = derived_signature("msn2009_open", MSN_RULES)
    ff36 = derived_signature("ff36_open", FF36_RULES)

    fixtures = {
        "ie8_2010-04-12.csv": build_ie8_fixture_apr12(),
        "ie8_2010-04-14.csv": build_ie8_fixture_apr14(),
        "msn2009_2010-04-14_1949.csv": build_msn_fixture_1949(),
        "msn2009_2010-04-14_1958.csv": build_msn_fixture_1958(),
        "ff36_2010-04-14.csv": build_ff36_fixture(),
    }

    # the frozen interval oracles; generation fails loudly if matching drifts
    verify_match(ie8, fixtures["ie8_2010-04-12.csv"], "2010-04-12T14:29:37Z", "2010-04-12T14:30:26Z")
    verify_match(ie8, fixtures["ie8_2010-04-14.csv"], "2010-04-14T16:59:24Z", "2010-04-14T17:00:19Z")
    verify_match(msn, fixtures["msn2009_2010-04-14_1949.csv"], "2010-04-14T19:27:25Z", "2010-04-14T19:28:25Z")
    verify_match(msn, fixtures["msn2009_2010-04-14_1958.csv"], "2010-04-14T19:55:46Z", "2010-04-14T19:56:46Z")
    verify_match(ff36, fixtures["ff36_2010-04-14.csv"], "2010-04-14T12:04:03Z", "2010-04-14T12:05:03Z")

    files: dict[str, str] = {}
    for sig in (ie8, msn, ff36):
        text = save_signature(sig)
        assert save_signature(load_signature(text)) == text, sig.action
        files[f"signatures/{sig.action}.sig"] = text

    for name, snap in fixtures.items():
        text = save_snapshot(snap)
        assert save_snapshot(parse_snapshot(text)) == text, name
        files[f"fixtures/{name}"] = text

    files["fixtures/capture_40rows.csv"] = build_capture_csv()
    files["fixtures/ie8_irregular_traces.txt"] = "".join(f"{p}\n" for p in IE8_IRREGULAR)

    scenario_text = json.dumps(DEMO_SCENARIO, indent=2) + "\n"
    result = run_scenario(load_scenario(scenario_text))
    assert set(result.observations) == {"app.open", "web.browse"}
    assert len(result.observations["app.open"]) == 7
    files["fixtures/demo_scenario.json"] = scenario_text
    return files


def main() -> None:
    for rel, text in build_all().items():
        path = DATA / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        print(f"wrote {rel}")


if __name__ == "__main__":
    main()
