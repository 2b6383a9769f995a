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
from collections.abc import Callable, Iterable, Iterator, Mapping
from contextlib import AbstractContextManager
from dataclasses import dataclass, field as dc_field, fields
from datetime import date, datetime, timedelta
from enum import Enum
from itertools import chain, compress, count, repeat
from operator import gt
from pathlib import Path

__all__ = [
    "FIELDS",
    "KIND_FIELDS",
    "ArtifactRecord",
    "JsonObject",
    "RecordKind",
    "Snapshot",
    "SnapshotFormatError",
    "SnapshotMeta",
    "TimePoint",
    "check_field",
    "decode_utf8",
    "fold_path",
    "format_timestamp",
    "int_cell",
    "parse_snapshot",
    "parse_timestamp",
    "read_csv",
    "read_csv_rows",
    "read_json",
    "read_utf8",
    "reraise_as",
    "save_snapshot",
    "time_keys",
]


class SnapshotFormatError(ValueError):
    """Snapshot text that does not conform to the snapshot CSV format."""


_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def read_utf8(path: str | Path) -> str:
    """The text of an input file (see ``decode_utf8``)."""
    return decode_utf8(Path(path).read_bytes(), path)


def decode_utf8(data: bytes, path: str | Path) -> str:
    """The text of the bytes of the input file ``path``.  A leading UTF-8
    byte-order mark, which Windows tools put on CSV exports, is dropped, and
    "\\r\\n" and "\\r" read as "\\n"; bytes that are not UTF-8 are a
    ValueError naming the file."""
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc}")
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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


def read_csv(
    lines: list[str], parse_row: Callable[[list[str]], object], error: type[ValueError],
    first_line: int = 1,
) -> list:
    """Each row of CSV ``lines``, the first of them numbered ``first_line``,
    through ``parse_row``.  A row is one line: a quoted line break, a quote
    out of place, a NUL, an oversized cell, or a ValueError from
    ``parse_row`` is the loader's own ``error`` naming the line the row
    starts on, as ``line N: ...``."""
    for i, line in enumerate(lines):  # first, as the csv reader before Python 3.11 refuses NUL
        if "\x00" in line:
            raise error(f"line {first_line + i}: a cell holds NUL")
    reader = csv.reader(lines, strict=True)
    rows, done = [], 0  # done: the lines read before the current row
    try:
        for row in reader:
            if reader.line_num != done + 1:
                raise ValueError("a quoted cell spans a line break")
            rows.append(parse_row(row))
            done += 1
    except csv.Error as exc:
        raise error(f"line {first_line + done}: bad CSV quote or oversized cell: {exc}") from exc
    except ValueError as exc:
        raise error(f"line {first_line + done}: {exc}") from exc
    return rows


def read_csv_rows(
    rows: list[str], start: int, stop: int, parse_row: Callable[[list[str]], object],
    error: type[ValueError], first_line: int,
) -> list:
    """``read_csv`` of ``rows[start:stop]``, where ``rows[0]`` is on line
    ``first_line``, for a loader whose own scan passes over rows it cannot
    read.  A refusal is the one ``read_csv`` gives over ``rows[start:]``, so
    it is the one a read of the whole text gives when the rows before
    ``start`` are sound: a NUL on a later line, or a quote open past
    ``stop``, comes first there."""
    try:
        return read_csv(rows[start:stop], parse_row, error, first_line + start)
    except error:
        read_csv(rows[start:], parse_row, error, first_line + start)
        raise


_INT_CELL = re.compile(r"-?[0-9]+")


def int_cell(cell: str, column: str) -> int:
    """The integer in a CSV cell: ASCII digits after an optional ``-``.

    ``int`` alone would also take ``6_0``, `` 60``, ``+60`` and other
    scripts' digits.  A ValueError naming ``column`` otherwise.
    """
    try:
        if _INT_CELL.fullmatch(cell):
            return int(cell)
    except ValueError:  # more digits than ``int`` reads
        pass
    raise ValueError(f"{column} must be an integer, got {cell!r}")


def fold_path(path: str) -> str:
    """Case-fold a Windows path for identity comparison.

    Only ASCII letters fold; everything else is left alone so that byte-exact
    names survive the round trip.  On ASCII text ``str.lower`` is that fold.
    """
    return path.lower() if path.isascii() else path.translate(_ASCII_FOLD)


_TS_TEXT = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)
_EPOCH_ORDINAL = 719163  # date(1970, 1, 1).toordinal()
_EPOCH = datetime(1970, 1, 1)


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
    return f"{(_EPOCH + timedelta(seconds=epoch_s)).isoformat()}Z"


_EARLIEST_S = -11644473600  # 1601-01-01T00:00:00Z, where NTFS FILETIME starts
_LATEST_S = 253402300799  # 9999-12-31T23:59:59Z
_MAX_PRECISION_S = 86400  # one day: FAT's last-access date, the coarsest Windows time


@dataclass(frozen=True, slots=True)
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


class RecordKind(str, Enum):
    FILE = "file"
    REGKEY = "regkey"


FIELDS = ("modified", "accessed", "created")

# The timestamp fields each kind of record carries: a registry key has one,
# its last-write time, kept as ``modified``.
KIND_FIELDS = {RecordKind.FILE: FIELDS, RecordKind.REGKEY: ("modified",)}
_LACKED = {kind: [f for f in FIELDS if f not in fields] for kind, fields in KIND_FIELDS.items()}


def check_field(kind: RecordKind, field: str) -> None:
    """Refuse, as a ValueError, a timestamp field no record of ``kind`` carries."""
    if field not in FIELDS:
        raise ValueError(f"unknown timestamp field {field!r}")
    if field not in KIND_FIELDS[kind]:
        raise ValueError(f"a {kind.value} has no {field} time, only {'/'.join(KIND_FIELDS[kind])}")


@dataclass(frozen=True, slots=True)
class ArtifactRecord:
    """One file or registry key and whichever timestamps the export carried:
    a non-empty subset of its kind's ``KIND_FIELDS``."""

    kind: RecordKind
    path: str
    modified: TimePoint | None = None
    accessed: TimePoint | None = None
    created: TimePoint | None = None

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("record path must be non-empty")
        if self.modified is None and self.accessed is None and self.created is None:
            raise ValueError(f"{self.kind.value} {self.path!r} must carry at least one timestamp")
        for field in _LACKED[self.kind]:
            if getattr(self, field) is not None:
                check_field(self.kind, field)

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

    def differences(self, other: SnapshotMeta) -> list[str]:
        """Names of the fields, the capture time aside, in which ``other`` differs."""
        return [f.name for f in fields(self)
                if f.name != "capture_time" and getattr(self, f.name) != getattr(other, f.name)]


@dataclass(frozen=True)
class Snapshot:
    """A full evidence set: metadata plus records keyed by (kind, folded path).

    ``records`` is any mapping that ``_checked_table`` passed: a dict from
    ``build``, or, from ``parse_snapshot``, one that builds each record from
    its validated row on first lookup.  ``by_path`` sorts one kind's folded
    paths on first use and keeps the result, so the sort is paid only by
    snapshots that are searched or iterated.
    """

    meta: SnapshotMeta
    records: Mapping[tuple[RecordKind, str], ArtifactRecord]
    _by_path: dict[RecordKind, tuple[str, ...]] = dc_field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def build(cls, meta: SnapshotMeta, records: Iterable[ArtifactRecord]) -> "Snapshot":
        records = list(records)
        return cls(meta, _checked_table(meta, [rec.key for rec in records], records, records))

    def get(self, kind: RecordKind, path: str) -> ArtifactRecord | None:
        return self.records.get((kind, fold_path(path)))

    @property
    def stored(self) -> Mapping[tuple[RecordKind, str], str | ArtifactRecord]:
        """Each record by its key as the snapshot holds it: the validated row
        text of a row not yet built, else the record.  A lookup here builds
        nothing.  Equal values hold equal records; unequal ones may too (a
        row and the record built from it, or rows spelled in another case)."""
        records = self.records
        return records._rows if type(records) is _RowRecords else records

    def by_path(self, kind: RecordKind) -> tuple[str, ...]:
        """One kind's folded paths in sorted order; the record of each is
        ``records[(kind, path)]``."""
        index = self._by_path.get(kind)
        if index is None:
            index = tuple(sorted(path for k, path in self.records if k is kind))
            self._by_path[kind] = index
        return index

    def __iter__(self) -> Iterator[ArtifactRecord]:
        """Records by kind (in ``RecordKind`` order, which is value order), then folded path."""
        for kind in RecordKind:
            for path in self.by_path(kind):
                yield self.records[(kind, path)]

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

    Every row is validated here, but a plain row's record is built only when
    it is first looked up (see ``_validated_rows``), so a search that reaches
    a few paths builds a few records.
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

    return Snapshot(meta, _validated_rows(lines[idx:], meta, singles["capture_time"], idx + 1))


# One row of a block of rows joined by "\n", as the one-pass check scans it
# without the csv reader.  A plain row gives its kind cell (empty for a key),
# its path cell, its three time cells and its precision cell: the kind in any
# ASCII case; a path cell without a comma and no longer than Windows allows
# (the csv reader refuses a cell over 131,072); time cells empty or canonical
# with the time of day in range, at least one of them set and a key's
# accessed and created cells empty (``KIND_FIELDS``); a precision in plain
# digits.  Any other row gives an empty path.  The path is the one-character
# class ``[^,]``, which ``re`` runs about twice as fast as a set of several
# characters; so the scan leaves to ``_validated_rows`` the characters a
# plain path also lacks: a quote or NUL, looked for once per block, and a
# line break, across which a match may run.
_TIME_CELL = r"(\d{4}-\d\d-\d\dT(?:[01]\d|2[0-3]):[0-5]\d:[0-5]\dZ)?"
_PLAIN_ROW = re.compile(
    rf"^(?:(?i:(file)|regkey),([^,]{{1,32767}})(?!,,,,),"
    rf"{_TIME_CELL},(?(1){_TIME_CELL}),(?(1){_TIME_CELL}),([1-9]\d{{0,4}})?|.*)$",
    re.ASCII | re.MULTILINE,
)
# Rows per scan, and per split in ``time_keys``.  The scan's results for a
# block are held at once, so a larger block raises the parse's peak memory:
# one scan of a whole 20k-row body more than doubled it, and blocks of 1,024
# rows added a third on a 3k-row snapshot, for no speed over 256.
_BLOCK_ROWS = 256


class _Days(dict):
    """``YYYY-MM-DD`` text to the epoch seconds its day starts at, or None for
    a date that does not exist or one with a time that, at some precision,
    would not lie within the bounds a ``TimePoint`` checks."""

    def __missing__(self, day: str) -> int | None:
        try:
            start = date(int(day[:4]), int(day[5:7]), int(day[8:10])).toordinal() - _EPOCH_ORDINAL
        except ValueError:  # no such date
            return self.setdefault(day, None)
        start *= 86400
        fits = _EARLIEST_S <= start and start + 86399 + _MAX_PRECISION_S - 1 <= _LATEST_S
        self[day] = start if fits else None
        return self[day]


class _RowRecords(Mapping):
    """Records keyed by (kind, folded path), each held as its validated row
    until first looked up, then built, kept, and its row dropped."""

    def __init__(
        self, rows: dict[tuple[RecordKind, str], str | ArtifactRecord], days: _Days
    ) -> None:
        self._rows, self._days = rows, days

    def __getitem__(self, key: tuple[RecordKind, str]) -> ArtifactRecord:
        value = self._rows[key]
        if type(value) is str:
            value = self._rows[key] = _build_record(key[0], value, self._days)
        return value

    def get(self, key, default=None):  # Mapping's own raises and catches a KeyError per miss
        return self[key] if key in self._rows else default

    def __iter__(self) -> Iterator[tuple[RecordKind, str]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)


def _checked_table(meta: SnapshotMeta, keys: list, values: list, records: list) -> dict:
    """``values`` by their ``keys``, in file order: rows ``_validated_rows``
    kept as text, all within the capture time, and ``records``.  The rules over
    the whole snapshot are checked in the order an eager parse breaks them:
    the first duplicate, else the first time after the capture time, else
    ``HKEY_USERS`` keys with no SID."""
    table = dict(zip(keys, values))
    if len(table) < len(keys):
        seen = set()
        for key, value in zip(keys, values):
            if key in seen:
                path = value.split(",")[1] if isinstance(value, str) else value.path
                raise SnapshotFormatError(f"duplicate record for path {path!r}")
            seen.add(key)
    cap_hi = meta.capture_time.hi
    for rec in records:
        for field in FIELDS:
            point = getattr(rec, field)
            if point is not None and point.epoch_s > cap_hi:
                raise SnapshotFormatError(f"{rec.path!r} has a {field} time after the capture time")
    user_keys = (p for k, p in table if k is RecordKind.REGKEY and p.startswith("hkey_users\\"))
    if not meta.sids and any(user_keys):
        raise SnapshotFormatError("snapshot contains HKEY_USERS keys but no #sid metadata")
    return table


def _validated_rows(
    rows: list[str], meta: SnapshotMeta, capture: str, first_line: int
) -> _RowRecords:
    """The records of ``rows``, the first on line ``first_line``.  A row
    ``_PLAIN_ROW`` matches that passes every check ``_parse_row`` makes and
    the capture-time bound is kept as text and built on first lookup.  Each
    distinct day is checked once, and the bound is a text comparison with the
    canonical ``capture`` text, as canonical timestamps sort as text.  Any
    other row (a quoted path, say) is built now through ``_parse_row``, and
    its refusal is the one ``read_csv`` gives over the whole text.

    Per block of rows, one ``in`` looks for a quote or NUL, and a count of
    the scan's matches shows whether one ran across a line break, as from a
    line such as ``file,C:\\a``, which is no plain row; the block's rows are
    then scanned one at a time.  Per row, only in a block that holds a quote
    or NUL, the path is searched for them."""
    days = _Days()
    keys, values, records = [], rows.copy(), []
    file_kind, key_kind = RecordKind.FILE, RecordKind.REGKEY
    for start in range(0, len(rows), _BLOCK_ROWS):
        block = rows[start:start + _BLOCK_ROWS]
        joined = "\n".join(block)
        scanned = _PLAIN_ROW.findall(joined)
        if len(scanned) != len(block):  # a match ran across a line break
            scanned = [cells for row in block for cells in _PLAIN_ROW.findall(row)]
        quote_or_nul = '"' in joined or "\x00" in joined
        folded = fold_path("\n".join([row[1] for row in scanned])).split("\n")
        for i, (is_file, path, modified, accessed, created, precision), folded_path in zip(
            range(start, start + len(block)), scanned, folded, strict=True
        ):
            if (
                path
                and (not quote_or_nul or '"' not in path and "\x00" not in path)
                and (not precision or int(precision) <= _MAX_PRECISION_S)
                and (not modified or modified <= capture and days[modified[:10]] is not None)
                and (not accessed or accessed <= capture and days[accessed[:10]] is not None)
                and (not created or created <= capture and days[created[:10]] is not None)
            ):
                keys.append((file_kind if is_file else key_kind, folded_path))
                continue
            (rec,) = read_csv_rows(rows, i, i + 1, _parse_row, SnapshotFormatError, first_line)
            values[i] = rec
            records.append(rec)
            keys.append(rec.key)
    return _RowRecords(_checked_table(meta, keys, values, records), days)


def time_keys(
    values: Iterable, shared: dict[str, str]
) -> tuple[dict, tuple[list, ...], list[str | None]]:
    """Each distinct one of ``values`` (values ``Snapshot.stored`` holds, or
    None) by its position in the lists that follow, None at 0; then per field
    of ``FIELDS`` each value's key, and each value's path.  A key is "" where
    the field carries no time, its canonical time text at precision 1, else
    (time text, precision), so equal keys mean equal ``TimePoint``s whether a
    row or a built record holds them.  ``_PLAIN_ROW`` keeps a row's six cells
    free of commas, so rows are split a block of ``_BLOCK_ROWS`` at a time,
    joined by commas; equal cell texts share one string, held in ``shared``,
    which several calls may share."""
    distinct = dict.fromkeys(values)
    distinct.pop(None, None)
    rows = [value for value in distinct if type(value) is str]
    records = [value for value in distinct if type(value) is not str]
    del distinct
    keys, paths = ([""], [""], [""]), [None]
    for start in range(0, len(rows), _BLOCK_ROWS):
        cells = ",".join(rows[start:start + _BLOCK_ROWS]).split(",")
        offset = len(paths)
        for column, texts in zip((paths, *keys), (cells[i::6] for i in range(1, 5))):
            column += map(shared.setdefault, texts, texts)
        precisions = cells[5::6]
        for i in compress(count(), map(gt, precisions, repeat("1"))):  # neither empty nor 1
            for column in keys:
                if column[offset + i]:
                    column[offset + i] = (column[offset + i], int(precisions[i]))
    for record in records:
        paths.append(record.path)
        for column, point in zip(keys, (record.modified, record.accessed, record.created)):
            text = "" if point is None else point.iso()
            column.append(text if not text or point.precision_s == 1 else (text, point.precision_s))
    return dict(zip(chain((None,), rows, records), count())), keys, paths


def _build_record(kind: RecordKind, line: str, days: _Days) -> ArtifactRecord:
    """The record of one row ``_validated_rows`` kept as text."""
    _, path, *cells, precision_text = line.split(",")
    precision = int(precision_text) if precision_text else 1
    points = [
        None if not cell else TimePoint(
            days[cell[:10]] + int(cell[11:13]) * 3600 + int(cell[14:16]) * 60 + int(cell[17:19]),
            precision,
        )
        for cell in cells
    ]
    return ArtifactRecord(kind, path, *points)


def _parse_row(row: list[str]) -> ArtifactRecord:
    if len(row) != 6:
        raise ValueError(f"row has {len(row)} columns, expected 6")
    kind_text, path, modified, accessed, created, precision_text = row
    try:
        kind = RecordKind(fold_path(kind_text))
    except ValueError:
        raise ValueError(f"unknown record kind {kind_text!r}") from None
    precision = 1 if precision_text == "" else int_cell(precision_text, "precision_s")

    def point(cell: str) -> TimePoint | None:
        return None if cell == "" else TimePoint(parse_timestamp(cell), precision)

    return ArtifactRecord(kind, path, point(modified), point(accessed), point(created))


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
