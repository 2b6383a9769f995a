"""Shared builders for the test suite."""

from __future__ import annotations

from tracesig.evidence import (
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotMeta,
    TimePoint,
    parse_timestamp,
)

SID = "S-1-5-21-1417001333-573735546-682003330-500"
HKU = f"HKEY_USERS\\{SID}"
ADMIN = "C:\\Documents and Settings\\Administrator"

# Hand-counted distinct names touched by iexplore.exe/explorer.exe in the
# bundled 40-row capture fixture, case-folded and sorted.
FROZEN_FILTERED_TRACES = [
    "c:\\documents and settings\\administrator\\cookies\\administrator@live[1].txt",
    "c:\\documents and settings\\administrator\\desktop\\internet explorer.lnk",
    "c:\\documents and settings\\administrator\\local settings\\application data"
    "\\microsoft\\feeds cache\\index.dat",
    "c:\\program files\\internet explorer\\iexplore.exe",
    "c:\\windows\\prefetch\\iexplore.exe-27122324.pf",
    "c:\\windows\\system32\\ieframe.dll",
    "c:\\windows\\system32\\iertutil.dll",
    "c:\\windows\\system32\\urlmon.dll",
    "hkey_users\\s-1-5-21-1417001333-573735546-682003330-500"
    "\\software\\microsoft\\ctf\\tip",
    "hkey_users\\s-1-5-21-1417001333-573735546-682003330-500"
    "\\software\\microsoft\\internet explorer\\security\\antiphishing"
    "\\2cedbfbc-dba8-43aa-b1fd-cc8e6316e3e2",
    "hkey_users\\s-1-5-21-1417001333-573735546-682003330-500"
    "\\software\\microsoft\\windows\\currentversion\\ext\\stats"
    "\\{e2e2dd38-d088-4134-82b7-f2ba38496583}\\iexplore",
    "hkey_users\\s-1-5-21-1417001333-573735546-682003330-500"
    "\\software\\microsoft\\windows\\currentversion\\ext\\stats"
    "\\{fb5f1910-f110-11d2-bb9e-00c04f795683}\\iexplore",
]


def t(iso: str) -> int:
    return parse_timestamp(iso)


def pt(iso: str, precision: int = 1) -> TimePoint:
    return TimePoint(parse_timestamp(iso), precision)


def frec(
    path: str,
    m: str | None = None,
    a: str | None = None,
    c: str | None = None,
    precision: int = 1,
) -> ArtifactRecord:
    return ArtifactRecord(
        kind=RecordKind.FILE,
        path=path,
        modified=pt(m, precision) if m else None,
        accessed=pt(a, precision) if a else None,
        created=pt(c, precision) if c else None,
    )


def krec(path: str, m: str, precision: int = 60) -> ArtifactRecord:
    return ArtifactRecord(kind=RecordKind.REGKEY, path=path, modified=pt(m, precision))


def xp_meta(capture: str = "2010-04-14T16:45:00Z", **overrides) -> SnapshotMeta:
    kwargs = dict(
        system_root="C:\\WINDOWS",
        home_drive="C:",
        home_path="\\Documents and Settings\\Administrator",
        sids=(SID,),
        last_access_enabled=True,
        capture_time=TimePoint(parse_timestamp(capture)),
        install_paths={},
    )
    kwargs.update(overrides)
    return SnapshotMeta(**kwargs)


def snap_of(records, meta: SnapshotMeta | None = None) -> Snapshot:
    return Snapshot.build(meta or xp_meta(), list(records))
