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
import json
import re
import string
from contextlib import AbstractContextManager
from dataclasses import dataclass, field as dc_field
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Iterator, Mapping

__all__ = [
    "FIELDS",
    "ArtifactRecord",
    "JsonObject",
    "RecordKind",
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotMeta",
    "TimePoint",
    "fold_path",
    "format_timestamp",
    "parse_snapshot",
    "parse_timestamp",
    "read_json",
    "read_utf8",
    "reraise_as",
    "save_snapshot",
]


class SnapshotFormatError(ValueError):
    """Snapshot text that does not conform to the snapshot CSV format."""


_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def read_utf8(path: str | Path) -> str:
    """The text of an input file.  A leading UTF-8 byte-order mark, which
    Windows tools put on CSV exports, is dropped; a file that is not UTF-8 is
    a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}")


_REQUIRED = object()

# Each JSON type a loader reads: how an error names it, and its test.  The
# tests compare exact types because JSON true and false load as bool, an int.
_JSON_TYPES = {
    int: ("an integer", lambda v: type(v) is int),
    float: ("a number", lambda v: type(v) in (int, float)),
    str: ("a string", lambda v: type(v) is str),
    bool: ("true or false", lambda v: type(v) is bool),
    list: ("a list", lambda v: type(v) is list),
    dict: ("a JSON object", lambda v: type(v) is dict),
    list[str]: ("a list of strings", lambda v: type(v) is list and all(type(s) is str for s in v)),
    dict[str, str]: (
        "an object of strings",
        lambda v: type(v) is dict and all(type(s) is str for s in v.values()),
    ),
    (int, str): ("an integer or a string", lambda v: type(v) in (int, str)),
}


def _at(where: str, message: str) -> str:
    return f"{where}: {message}" if where else message


class reraise_as(AbstractContextManager):
    """Raise a ValueError from the block, a constructor's refusal say, as the
    loader's own ``error`` naming ``where``; keep reads that name their own
    place outside it.  A class: a generator-based one slows a small load."""

    def __init__(self, error: type[ValueError], where: str) -> None:
        self._error, self._where = error, where

    def __exit__(self, kind, exc, traceback) -> None:
        if isinstance(exc, ValueError):
            raise self._error(_at(self._where, str(exc))) from exc


class JsonObject:
    """One object of a JSON input document.  A read raises the loader's own
    ``error`` naming the place of the bad value: ``meta.sids`` in a named
    object, ``core[1]: template`` in a list item, ``model['app.open']`` in a
    map, an object whose keys the document chooses (``keys=None``)."""

    def __init__(
        self, value: object, where: str, error: type[ValueError], keys: Iterable[str] | None
    ) -> None:
        if type(value) is not dict:
            raise error(f"{where or 'the document'} must be a JSON object")
        if keys is not None and not set(value) <= set(keys):
            raise error(_at(where, f"unknown keys {sorted(set(value) - set(keys))}"))
        self.value, self.where, self._error, self._keys = value, where, error, keys

    def name(self, key: str) -> str:
        if self._keys is None:
            return f"{self.where}[{key!r}]"
        if not self.where:
            return key
        return f"{self.where}{': ' if self.where.endswith(']') else '.'}{key}"

    def get(self, key: str, kind, default=_REQUIRED):
        """The value at ``key`` as ``kind``, a key of ``_JSON_TYPES`` or an
        Enum.  An absent key gives ``default`` if there is one."""
        if key not in self.value:
            if default is _REQUIRED:
                raise self._error(_at(self.where, f"missing key {key!r}"))
            return default
        value = self.value[key]
        if kind in _JSON_TYPES:
            words, test = _JSON_TYPES[kind]
            if not test(value):
                raise self._error(f"{self.name(key)} must be {words}")
            return value
        try:
            return kind(value)
        except ValueError:
            raise self._error(_at(self.where, f"unknown {key} {value!r}")) from None

    def object(self, key: str, keys: Iterable[str] | None = None) -> JsonObject:
        return JsonObject(self.get(key, dict), self.name(key), self._error, keys)

    def objects(self, key: str, keys: Iterable[str], default=_REQUIRED) -> list[JsonObject]:
        """The list at ``key``, whose items are objects holding only ``keys``."""
        where, items = self.name(key), self.get(key, list, default)
        return [JsonObject(v, f"{where}[{i}]", self._error, keys) for i, v in enumerate(items)]


def read_json(text: str, error: type[ValueError], keys: Iterable[str]) -> JsonObject:
    """The top-level object of a JSON document, holding only ``keys``."""
    try:
        value = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"not valid JSON: {exc}")
    return JsonObject(value, "", error, keys)


def fold_path(path: str) -> str:
    """Case-fold a Windows path for identity comparison.

    Only ASCII letters fold; everything else is left alone so that byte-exact
    names survive the round trip.  On ASCII text ``str.lower`` is that fold.
    """
    return path.lower() if path.isascii() else path.translate(_ASCII_FOLD)


_TS_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
_TS_TEXT = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()


def parse_timestamp(text: str) -> int:
    """Parse ``YYYY-MM-DDThh:mm:ssZ`` (UTC, whole seconds) to epoch seconds.

    Exactly that form, with ASCII digits and every field zero-padded; the
    ``datetime`` constructor rejects a date or time that does not exist
    (month 13, February 30, hour 24, second 60).
    """
    match = _TS_TEXT.fullmatch(text)
    if match is None:
        raise SnapshotFormatError(f"unparseable timestamp {text!r}")
    try:
        parsed = datetime(*map(int, match.groups()))
    except ValueError as exc:
        raise SnapshotFormatError(f"unparseable timestamp {text!r}") from exc
    days = parsed.toordinal() - _EPOCH_ORDINAL
    return days * 86400 + parsed.hour * 3600 + parsed.minute * 60 + parsed.second


def format_timestamp(epoch_s: int) -> str:
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime(_TS_FORMAT)


_EARLIEST_S = -11644473600  # 1601-01-01T00:00:00Z, where NTFS FILETIME starts
_LATEST_S = 253402300799  # 9999-12-31T23:59:59Z
_MAX_PRECISION_S = 86400  # one day: FAT's last-access date, the coarsest Windows time


@dataclass(frozen=True)
class TimePoint:
    """A timestamp known to whole-second resolution or coarser.

    ``epoch_s`` is UTC seconds since the Unix epoch; ``precision_s`` is the
    granularity of the source (1 for NTFS-style file times, 60 for
    minute-granular registry exports).  The value denotes the closed interval
    ``[epoch_s, epoch_s + precision_s - 1]`` of possible true times, which
    must lie within 1601-01-01T00:00:00Z .. 9999-12-31T23:59:59Z.
    """

    epoch_s: int
    precision_s: int = 1

    def __post_init__(self) -> None:
        if not 1 <= self.precision_s <= _MAX_PRECISION_S:
            raise ValueError(
                f"precision_s must lie in [1, {_MAX_PRECISION_S}], got {self.precision_s}"
            )
        if self.epoch_s < _EARLIEST_S:
            raise ValueError(f"timestamp {self.epoch_s} is before 1601-01-01T00:00:00Z")
        if self.epoch_s + self.precision_s - 1 > _LATEST_S:
            raise ValueError(f"timestamp {self.epoch_s} ends after 9999-12-31T23:59:59Z")

    @property
    def lo(self) -> int:
        return self.epoch_s

    @property
    def hi(self) -> int:
        return self.epoch_s + self.precision_s - 1

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


# The characters str.splitlines breaks a line at, and NUL, which the csv
# reader before Python 3.11 refuses: no line of a saved snapshot holds them.
_NOT_IN_A_LINE = re.compile("[\x00\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


@dataclass(frozen=True)
class SnapshotMeta:
    """System facts required to interpret and generalize evidence paths.

    Each value must survive the ``#key=value`` lines of a saved snapshot.
    """

    system_root: str
    home_drive: str
    home_path: str
    sids: tuple[str, ...]
    last_access_enabled: bool
    capture_time: TimePoint
    install_paths: Mapping[str, str] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        values = {
            "system_root": self.system_root,
            "home_drive": self.home_drive,
            "home_path": self.home_path,
            **{f"sid {sid!r}": sid for sid in self.sids},
            **{f"install path {name!r}": name + path for name, path in self.install_paths.items()},
        }
        for key, value in values.items():
            if _NOT_IN_A_LINE.search(value):
                raise ValueError(f"{key} holds a line break or NUL: {value!r}")
        if "" in self.sids:
            raise ValueError("a SID must be non-empty")
        for name in self.install_paths:
            if not name or "=" in name or "%" in name or name != name.strip():
                raise ValueError(
                    f"install path name {name!r} must be non-empty, "
                    "with no '=', '%' or outer whitespace"
                )
        if self.capture_time.precision_s != 1:
            raise ValueError("capture_time must be to the second")


@dataclass(frozen=True)
class Snapshot:
    """A full evidence set: metadata plus records keyed by (kind, folded path).

    ``by_path`` sorts one kind's records by folded path on first use and
    keeps the result, so the sort is paid only by snapshots that are searched
    or iterated.
    """

    meta: SnapshotMeta
    records: Mapping[tuple[RecordKind, str], ArtifactRecord]
    _by_path: dict[RecordKind, tuple[tuple[str, ...], tuple[ArtifactRecord, ...]]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, meta: SnapshotMeta, records: Iterable[ArtifactRecord]) -> "Snapshot":
        table: dict[tuple[RecordKind, str], ArtifactRecord] = {}
        for rec in records:
            key = rec.key
            if key in table:
                raise SnapshotFormatError(f"duplicate record for path {rec.path!r}")
            table[key] = rec
        snap = cls(meta, table)
        snap.validate()
        return snap

    def validate(self) -> None:
        cap_hi = self.meta.capture_time.hi
        has_user_hive = False
        for (kind, folded), rec in self.records.items():
            for field in FIELDS:
                point = rec.timestamp(field)
                if point is not None and point.epoch_s > cap_hi:
                    raise SnapshotFormatError(
                        f"{rec.path!r} has a {field} time after the capture time"
                    )
            if kind is RecordKind.REGKEY and folded.startswith("hkey_users\\"):
                has_user_hive = True
        if has_user_hive and not self.meta.sids:
            raise SnapshotFormatError(
                "snapshot contains HKEY_USERS keys but no #sid metadata"
            )

    def get(self, kind: RecordKind, path: str) -> ArtifactRecord | None:
        return self.records.get((kind, fold_path(path)))

    def by_path(self, kind: RecordKind) -> tuple[tuple[str, ...], tuple[ArtifactRecord, ...]]:
        """One kind's folded paths in sorted order, and their records in step."""
        index = self._by_path.get(kind)
        if index is None:
            folded = sorted(path for k, path in self.records if k is kind)
            index = (tuple(folded), tuple(self.records[(kind, path)] for path in folded))
            self._by_path[kind] = index
        return index

    def __iter__(self) -> Iterator[ArtifactRecord]:
        """Records by kind (in ``RecordKind`` order, which is value order), then folded path."""
        for kind in RecordKind:
            yield from self.by_path(kind)[1]

    def __len__(self) -> int:
        return len(self.records)


_HEADER_ROW = "kind,path,modified,accessed,created,precision_s"

_REQUIRED_META = ("system_root", "home_drive", "home_path", "last_access_enabled", "capture_time")


def parse_snapshot(text: str) -> Snapshot:
    """Parse snapshot CSV text.

    The format is a ``#key=value`` metadata block followed by the literal
    header row ``kind,path,modified,accessed,created,precision_s`` and one CSV
    row per record.  Metadata keys: ``system_root``, ``home_drive``,
    ``home_path``, repeatable ``sid``, optional ``install_path.<name>``,
    ``last_access_enabled`` (true/false) and ``capture_time``.  Timestamps,
    there and in the cells, are ``YYYY-MM-DDThh:mm:ssZ`` exactly (see
    ``parse_timestamp``).  Timestamp cells may be empty; ``precision_s``
    defaults to 1.  Fields containing commas are double-quoted with embedded
    quotes doubled.
    """
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
            install_paths[key[len("install_path."):]] = value
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
    with reraise_as(SnapshotFormatError, "#capture_time"):
        capture_time = TimePoint(parse_timestamp(singles["capture_time"]))
    with reraise_as(SnapshotFormatError, "metadata"):
        meta = SnapshotMeta(
            system_root=singles["system_root"],
            home_drive=singles["home_drive"],
            home_path=singles["home_path"],
            sids=tuple(sids),
            last_access_enabled=(flag == "true"),
            capture_time=capture_time,
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

    def point(cell: str) -> TimePoint | None:
        return None if cell == "" else TimePoint(parse_timestamp(cell), precision)

    if "\x00" in path:  # as the csv reader before Python 3.11 does
        raise SnapshotFormatError(f"line {line_no}: record path holds NUL")
    try:  # not reraise_as: per row, its object and message cost ~12 ms per 20k rows
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
    byte-stable; parse followed by save followed by parse is an identity.  A
    record one row cannot hold (a line break, NUL, mixed precisions) is refused.
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
        if _NOT_IN_A_LINE.search(rec.path):
            raise SnapshotFormatError(f"{rec.path!r} holds a line break or NUL; no row can")
        cells = [rec.kind.value, rec.path]
        for f in FIELDS:
            point = rec.timestamp(f)
            cells.append("" if point is None else point.iso())
        cells.append(str(precisions.pop()))
        writer.writerow(cells)
    return out.getvalue()
