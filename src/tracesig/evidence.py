"""Post-mortem evidence model: timestamped file and registry-key records.

A snapshot is the flat export of every file and registry-key timestamp an
investigator pulled off a machine, together with the system facts needed to
interpret those timestamps (Windows directory, profile location, user SIDs,
whether last-access updating was enabled, and when the capture was taken).

Timestamps are intervals, not instants.  File times are known to the second;
registry exports are often minute-granular.  A ``TimePoint`` therefore keeps
the raw value plus its precision and exposes the closed interval of true
times it may denote.
"""

from __future__ import annotations

import csv
import io
import string
from calendar import timegm
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from enum import Enum
from typing import IO, Iterable, Iterator, Mapping

__all__ = [
    "FIELDS",
    "ArtifactRecord",
    "RecordKind",
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotMeta",
    "TimePoint",
    "fold_path",
    "format_timestamp",
    "parse_snapshot",
    "parse_timestamp",
    "save_snapshot",
]


class SnapshotFormatError(ValueError):
    """Snapshot text that does not conform to the snapshot CSV format."""


_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def fold_path(path: str) -> str:
    """Case-fold a Windows path for identity comparison.

    Only ASCII letters fold; everything else is left alone so that byte-exact
    names survive the round trip.
    """
    return path.translate(_ASCII_FOLD)


_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def parse_timestamp(text: str) -> int:
    """Parse ``YYYY-MM-DDThh:mm:ssZ`` (UTC, whole seconds) to epoch seconds."""
    try:
        parsed = datetime.strptime(text, _TS_FORMAT)
    except ValueError as exc:
        raise SnapshotFormatError(f"unparseable timestamp {text!r}") from exc
    return timegm(parsed.timetuple())


def format_timestamp(epoch_s: int) -> str:
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime(_TS_FORMAT)


@dataclass(frozen=True)
class TimePoint:
    """A timestamp known to whole-second resolution or coarser.

    ``epoch_s`` is UTC seconds since the Unix epoch; ``precision_s`` is the
    granularity of the source (1 for NTFS-style file times, 60 for
    minute-granular registry exports).  The value denotes the closed interval
    ``[epoch_s, epoch_s + precision_s - 1]`` of possible true times.
    """

    epoch_s: int
    precision_s: int = 1

    def __post_init__(self) -> None:
        if self.precision_s < 1:
            raise ValueError(f"precision_s must be >= 1, got {self.precision_s}")

    @property
    def lo(self) -> int:
        return self.epoch_s

    @property
    def hi(self) -> int:
        return self.epoch_s + self.precision_s - 1

    @classmethod
    def from_iso(cls, text: str, precision_s: int = 1) -> "TimePoint":
        return cls(parse_timestamp(text), precision_s)

    def iso(self) -> str:
        return format_timestamp(self.epoch_s)


class RecordKind(Enum):
    FILE = "file"
    REGKEY = "regkey"


FIELDS = ("modified", "accessed", "created")


@dataclass(frozen=True)
class ArtifactRecord:
    """One file or registry key and whichever timestamps the export carried.

    Registry keys carry exactly one timestamp (their last-write time, stored
    here as ``modified``).  Files carry any non-empty subset of the three.
    """

    kind: RecordKind
    path: str
    modified: TimePoint | None = None
    accessed: TimePoint | None = None
    created: TimePoint | None = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("record path must be non-empty")
        if self.kind is RecordKind.REGKEY:
            if self.modified is None:
                raise ValueError(
                    f"registry key {self.path!r} must carry a modified timestamp"
                )
            if self.accessed is not None or self.created is not None:
                raise ValueError(
                    f"registry key {self.path!r} carries only a modified timestamp"
                )
        elif self.modified is None and self.accessed is None and self.created is None:
            raise ValueError(f"file {self.path!r} must carry at least one timestamp")

    def timestamp(self, field: str) -> TimePoint | None:
        if field not in FIELDS:
            raise ValueError(f"unknown timestamp field {field!r}")
        return getattr(self, field)

    @property
    def key(self) -> tuple[RecordKind, str]:
        return (self.kind, fold_path(self.path))


@dataclass(frozen=True)
class SnapshotMeta:
    """System facts required to interpret and generalize evidence paths."""

    system_root: str
    home_drive: str
    home_path: str
    sids: tuple[str, ...]
    last_access_enabled: bool
    capture_time: TimePoint
    install_paths: Mapping[str, str] = dc_field(default_factory=dict)


@dataclass(frozen=True)
class Snapshot:
    """A full evidence set: metadata plus records keyed by (kind, folded path)."""

    meta: SnapshotMeta
    records: Mapping[tuple[RecordKind, str], ArtifactRecord]

    @classmethod
    def build(cls, meta: SnapshotMeta, records: Iterable[ArtifactRecord]) -> "Snapshot":
        table: dict[tuple[RecordKind, str], ArtifactRecord] = {}
        for rec in records:
            if rec.key in table:
                raise SnapshotFormatError(f"duplicate record for path {rec.path!r}")
            table[rec.key] = rec
        snap = cls(meta, table)
        snap.validate()
        return snap

    def validate(self) -> None:
        cap_hi = self.meta.capture_time.hi
        has_user_hive = False
        for rec in self.records.values():
            for field in FIELDS:
                point = rec.timestamp(field)
                if point is not None and point.epoch_s > cap_hi:
                    raise SnapshotFormatError(
                        f"{rec.path!r} has a {field} time after the capture time"
                    )
            if rec.kind is RecordKind.REGKEY and fold_path(rec.path).startswith(
                "hkey_users\\"
            ):
                has_user_hive = True
        if has_user_hive and not self.meta.sids:
            raise SnapshotFormatError(
                "snapshot contains HKEY_USERS keys but no #sid metadata"
            )

    def get(self, kind: RecordKind, path: str) -> ArtifactRecord | None:
        return self.records.get((kind, fold_path(path)))

    def __iter__(self) -> Iterator[ArtifactRecord]:
        for key in sorted(self.records, key=lambda k: (k[0].value, k[1])):
            yield self.records[key]

    def __len__(self) -> int:
        return len(self.records)


_HEADER_ROW = "kind,path,modified,accessed,created,precision_s"

_REQUIRED_META = ("system_root", "home_drive", "home_path", "last_access_enabled", "capture_time")


def parse_snapshot(source: str | IO[str]) -> Snapshot:
    """Parse snapshot CSV text.

    The format is a ``#key=value`` metadata block followed by the literal
    header row ``kind,path,modified,accessed,created,precision_s`` and one CSV
    row per record.  Metadata keys: ``system_root``, ``home_drive``,
    ``home_path``, repeatable ``sid``, optional ``install_path.<name>``,
    ``last_access_enabled`` (true/false) and ``capture_time`` (ISO-8601 UTC).
    Timestamp cells may be empty; ``precision_s`` defaults to 1.  Fields
    containing commas are double-quoted with embedded quotes doubled.
    """
    text = source.read() if hasattr(source, "read") else source
    lines = text.splitlines()

    idx = 0
    singles: dict[str, str] = {}
    sids: list[str] = []
    install_paths: dict[str, str] = {}
    while idx < len(lines) and lines[idx].startswith("#"):
        line = lines[idx]
        idx += 1
        key, sep, value = line[1:].partition("=")
        if not sep:
            raise SnapshotFormatError(f"malformed metadata line {line!r}")
        key = key.strip()
        if key == "sid":
            sids.append(value)
        elif key.startswith("install_path."):
            name = key[len("install_path."):]
            if not name:
                raise SnapshotFormatError(f"install_path key needs a name: {line!r}")
            install_paths[name] = value
        elif key in _REQUIRED_META:
            if key in singles:
                raise SnapshotFormatError(f"duplicate metadata key {key!r}")
            singles[key] = value
        else:
            raise SnapshotFormatError(f"unknown metadata key {key!r}")
    if not singles and not sids and not install_paths:
        raise SnapshotFormatError("missing metadata header block")
    for key in _REQUIRED_META:
        if key not in singles:
            raise SnapshotFormatError(f"missing required metadata key {key!r}")
    flag = singles["last_access_enabled"]
    if flag not in ("true", "false"):
        raise SnapshotFormatError(
            f"last_access_enabled must be 'true' or 'false', got {flag!r}"
        )
    meta = SnapshotMeta(
        system_root=singles["system_root"],
        home_drive=singles["home_drive"],
        home_path=singles["home_path"],
        sids=tuple(sids),
        last_access_enabled=(flag == "true"),
        capture_time=TimePoint.from_iso(singles["capture_time"]),
        install_paths=install_paths,
    )

    if idx >= len(lines) or lines[idx] != _HEADER_ROW:
        raise SnapshotFormatError(f"missing column header row {_HEADER_ROW!r}")
    idx += 1

    records = []
    reader = csv.reader(lines[idx:], strict=True)
    try:
        for row in reader:
            records.append(_parse_row(row, idx + reader.line_num))
    except csv.Error as exc:
        raise SnapshotFormatError(f"bad CSV quoting near line {idx + reader.line_num}: {exc}")
    return Snapshot.build(meta, records)


def _parse_row(row: list[str], line_no: int) -> ArtifactRecord:
    if len(row) != 6:
        raise SnapshotFormatError(
            f"line {line_no}: row has {len(row)} columns, expected 6"
        )
    kind_text, path, modified, accessed, created, precision_text = row
    try:
        kind = RecordKind(fold_path(kind_text))
    except ValueError:
        raise SnapshotFormatError(f"line {line_no}: unknown record kind {kind_text!r}")
    if precision_text == "":
        precision = 1
    else:
        try:
            precision = int(precision_text)
        except ValueError:
            raise SnapshotFormatError(
                f"line {line_no}: precision_s must be an integer, got {precision_text!r}"
            )
    if precision < 1:
        raise SnapshotFormatError(f"line {line_no}: precision_s must be >= 1")

    def point(cell: str) -> TimePoint | None:
        return None if cell == "" else TimePoint(parse_timestamp(cell), precision)

    try:
        return ArtifactRecord(
            kind=kind,
            path=path,
            modified=point(modified),
            accessed=point(accessed),
            created=point(created),
        )
    except ValueError as exc:
        raise SnapshotFormatError(f"line {line_no}: {exc}")


def save_snapshot(snap: Snapshot) -> str:
    """Serialize a snapshot to canonical CSV text.

    Records are sorted by kind then folded path so that serialization is
    byte-stable; parse followed by save followed by parse is an identity.
    """
    out = io.StringIO()
    meta = snap.meta
    out.write(f"#system_root={meta.system_root}\n")
    out.write(f"#home_drive={meta.home_drive}\n")
    out.write(f"#home_path={meta.home_path}\n")
    for sid in meta.sids:
        out.write(f"#sid={sid}\n")
    for name in sorted(meta.install_paths):
        out.write(f"#install_path.{name}={meta.install_paths[name]}\n")
    out.write(f"#last_access_enabled={'true' if meta.last_access_enabled else 'false'}\n")
    out.write(f"#capture_time={meta.capture_time.iso()}\n")
    out.write(_HEADER_ROW + "\n")
    writer = csv.writer(out, lineterminator="\n")
    for rec in snap:
        precisions = {
            rec.timestamp(f).precision_s for f in FIELDS if rec.timestamp(f) is not None
        }
        if len(precisions) > 1:
            raise SnapshotFormatError(
                f"{rec.path!r} mixes timestamp precisions; one row holds one precision"
            )
        cells = [rec.kind.value, rec.path]
        for f in FIELDS:
            point = rec.timestamp(f)
            cells.append("" if point is None else point.iso())
        cells.append(str(precisions.pop()))
        writer.writerow(cells)
    return out.getvalue()
