import csv
import io
import re
import string
import sys
from calendar import timegm
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from conftest import HKU, SID, frec, krec, pt, snap_of, t, xp_meta
from tracesig import evidence
from tracesig.capture import CaptureFormatError, parse_capture
from tracesig.categorize import RunObservation, read_observations, write_observations
from tracesig.evidence import (
    FIELDS,
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotFormatError,
    SnapshotMeta,
    TimePoint,
    fold_path,
    format_timestamp,
    parse_snapshot,
    _parse_row,
    parse_timestamp,
    read_csv,
    save_snapshot,
    time_keys,
)


class TestTimestamps:
    def test_parse_format_round_trip(self):
        for iso in ("1970-01-01T00:00:00Z", "2010-04-12T14:30:37Z", "2038-01-19T03:14:07Z"):
            assert format_timestamp(parse_timestamp(iso)) == iso

    def test_known_epoch_value(self):
        assert parse_timestamp("2010-04-12T14:30:37Z") == 1271082637

    @pytest.mark.parametrize(
        "bad",
        [
            "2010-04-12 14:30:37",
            "2010-04-12T14:30:37",
            "2010-04-12T14:30:37+00:00",
            "12/04/2010 14:30",
            "2010-04-12T14:30:37Z ",
            "",
            # forms strptime accepted: unpadded fields, a space-padded day,
            # lower-case separators, non-ASCII digits, a trailing newline
            "2010-4-12T1:2:3Z",
            "2010-04- 2T14:30:37Z",
            "2010-04-12t14:30:37z",
            "\uff12\uff10\uff11\uff10-04-12T14:30:37Z",
            "2010-04-12T14:30:37Z\n",
        ],
    )
    def test_rejects_non_canonical_forms(self, bad):
        with pytest.raises(SnapshotFormatError):
            parse_timestamp(bad)


def strptime_timestamp(text: str) -> int | None:
    """The strptime parser ``parse_timestamp`` replaced; None where it raised."""
    try:
        return timegm(datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").timetuple())
    except ValueError:
        return None


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(
    hs.tuples(
        hs.integers(0, 9999) | hs.sampled_from([0, 1, 1600, 1601, 1900, 1970, 2000, 2012, 9999]),
        hs.integers(0, 13),
        hs.integers(0, 32),
        hs.integers(0, 25),
        hs.integers(0, 61),
        hs.integers(0, 62),
    )
)
@example((2012, 2, 29, 0, 0, 0))
@example((2011, 2, 29, 0, 0, 0))
@example((2012, 2, 30, 0, 0, 0))
@example((1900, 2, 29, 0, 0, 0))
@example((2010, 4, 12, 24, 0, 0))
@example((2010, 4, 12, 23, 59, 60))
@example((2010, 4, 12, 23, 59, 61))
@example((0, 1, 1, 0, 0, 0))
@example((1600, 12, 31, 23, 59, 59))
@example((9999, 12, 31, 23, 59, 59))
def test_parse_timestamp_agrees_with_strptime(fields):
    text = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format(*fields)
    expected = strptime_timestamp(text)
    if expected is None:
        with pytest.raises(SnapshotFormatError):
            parse_timestamp(text)
    else:
        assert parse_timestamp(text) == expected


def strftime_timestamp(epoch_s: int) -> str:
    """The strftime formatter ``format_timestamp`` replaced."""
    return datetime.fromtimestamp(epoch_s, tz=timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(hs.integers(evidence._EARLIEST_S, evidence._LATEST_S))
@example(evidence._EARLIEST_S)
@example(evidence._LATEST_S)
@example(0)
@example(-1)
def test_format_timestamp_agrees_with_strftime_and_round_trips(epoch_s):
    text = format_timestamp(epoch_s)
    assert text == strftime_timestamp(epoch_s)
    assert parse_timestamp(text) == epoch_s


_ASCII_FOLD = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


@settings(max_examples=500, derandomize=True, deadline=None)
@given(hs.text() | hs.text(hs.characters(max_codepoint=127)))
@example("C:\\WINDOWS\\\u00c4\u0130\u212a.DAT")
def test_fold_path_agrees_with_the_ascii_table(text):
    assert fold_path(text) == text.translate(_ASCII_FOLD)


class TestTimePoint:
    def test_interval_bounds(self):
        p = TimePoint(1271082637)
        assert (p.lo, p.hi) == (1271082637, 1271082637)
        minute = TimePoint(1271082600, 60)
        assert (minute.lo, minute.hi) == (1271082600, 1271082659)

    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            TimePoint(0, 0)

    @pytest.mark.parametrize(
        "epoch_s, precision_s, fragment",
        [
            (-11644473601, 1, "before 1601-01-01"),
            (253402300799, 2, "after 9999-12-31"),
            (0, 86401, r"precision_s must lie in \[1, 86400\]"),
        ],
    )
    def test_rejects_what_no_windows_timestamp_carries(self, epoch_s, precision_s, fragment):
        with pytest.raises(ValueError, match=fragment):
            TimePoint(epoch_s, precision_s)

    def test_accepts_the_edges_of_the_range(self):
        assert TimePoint(parse_timestamp("1601-01-01T00:00:00Z")).lo == -11644473600
        assert TimePoint(parse_timestamp("9999-12-31T23:59:59Z")).hi == 253402300799
        assert TimePoint(0, 86400).hi == 86399

    def test_iso_prints_interval_start(self):
        assert pt("2010-04-12T14:30:00Z", 60).iso() == "2010-04-12T14:30:00Z"


class TestFoldPath:
    def test_ascii_only_case_fold(self):
        assert fold_path("C:\\WINDOWS\\System32") == "c:\\windows\\system32"
        # non-ASCII letters must survive untouched in both cases
        assert fold_path("C:\\Ä\\ü.txt") == "c:\\Ä\\ü.txt"

    def test_fold_is_idempotent(self):
        assert fold_path(fold_path("HKEY_USERS\\Foo")) == fold_path("HKEY_USERS\\Foo")


class TestArtifactRecord:
    def test_regkey_carries_only_modified(self):
        with pytest.raises(ValueError):
            ArtifactRecord(
                kind=RecordKind.REGKEY,
                path="HKEY_LOCAL_MACHINE\\X",
                modified=pt("2010-04-12T14:30:00Z", 60),
                accessed=pt("2010-04-12T14:30:00Z", 60),
                created=None,
            )

    def test_file_needs_some_timestamp(self):
        with pytest.raises(ValueError):
            ArtifactRecord(
                kind=RecordKind.FILE, path="C:\\x", modified=None, accessed=None, created=None
            )

    def test_empty_path_rejected(self):
        with pytest.raises(ValueError):
            frec("", m="2010-04-12T14:30:37Z")

    def test_field_accessor(self):
        rec = frec("C:\\x", m="2010-04-12T14:30:37Z", a="2010-04-13T09:00:00Z")
        assert rec.timestamp("modified") == pt("2010-04-12T14:30:37Z")
        assert rec.timestamp("created") is None
        with pytest.raises(ValueError):
            rec.timestamp("changed")


class TestSnapshot:
    def test_duplicate_paths_fold_together(self):
        with pytest.raises(SnapshotFormatError):
            snap_of(
                [
                    frec("C:\\A.TXT", m="2010-04-12T14:30:37Z"),
                    frec("c:\\a.txt", m="2010-04-12T14:30:38Z"),
                ]
            )

    def test_timestamps_after_capture_rejected(self):
        with pytest.raises(SnapshotFormatError):
            snap_of([frec("C:\\x", m="2011-01-01T00:00:00Z")])

    def test_user_keys_require_declared_sids(self):
        with pytest.raises(SnapshotFormatError):
            snap_of(
                [krec(f"{HKU}\\Software\\X", "2010-04-12T14:30:00Z")],
                meta=xp_meta(sids=()),
            )

    def test_iteration_sorted_by_kind_then_path(self):
        snap = snap_of(
            [
                krec("HKEY_LOCAL_MACHINE\\b", "2010-04-12T14:30:00Z"),
                frec("C:\\z", m="2010-04-12T14:30:37Z"),
                frec("C:\\a", m="2010-04-12T14:30:37Z"),
            ]
        )
        assert [r.path for r in snap] == ["C:\\a", "C:\\z", "HKEY_LOCAL_MACHINE\\b"]

    def test_get_is_case_insensitive(self):
        snap = snap_of([frec("C:\\Dir\\File.txt", m="2010-04-12T14:30:37Z")])
        assert snap.get(RecordKind.FILE, "c:\\dir\\FILE.TXT") is not None


SNAPSHOT_TEXT = """\
#system_root=C:\\WINDOWS
#home_drive=C:
#home_path=\\Documents and Settings\\Administrator
#sid=S-1-5-21-1417001333-573735546-682003330-500
#last_access_enabled=true
#capture_time=2010-04-14T16:45:00Z
kind,path,modified,accessed,created,precision_s
file,C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf,2010-04-12T14:30:37Z,,,1
regkey,HKEY_USERS\\S-1-5-21-1417001333-573735546-682003330-500\\Software\\Microsoft\\CTF\\TIP,2010-04-12T14:30:00Z,,,60
"""


class TestSnapshotIO:
    def test_parse_small_snapshot(self):
        snap = parse_snapshot(SNAPSHOT_TEXT)
        assert len(snap) == 2
        pf = snap.get(RecordKind.FILE, "C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf")
        assert pf.modified == pt("2010-04-12T14:30:37Z")
        assert pf.accessed is None
        key = snap.get(RecordKind.REGKEY, f"{HKU}\\Software\\Microsoft\\CTF\\TIP")
        assert key.modified.precision_s == 60

    def test_save_parse_identity(self):
        snap = parse_snapshot(SNAPSHOT_TEXT)
        text = save_snapshot(snap)
        assert parse_snapshot(text) == snap
        assert save_snapshot(parse_snapshot(text)) == text

    def test_missing_meta_key(self):
        broken = SNAPSHOT_TEXT.replace("#home_drive=C:\n", "")
        with pytest.raises(SnapshotFormatError, match="home_drive"):
            parse_snapshot(broken)

    def test_unknown_meta_key(self):
        broken = "#color=blue\n" + SNAPSHOT_TEXT
        with pytest.raises(SnapshotFormatError, match="color"):
            parse_snapshot(broken)

    def test_duplicate_scalar_meta_key(self):
        broken = "#system_root=D:\\W\n" + SNAPSHOT_TEXT
        with pytest.raises(SnapshotFormatError, match="system_root"):
            parse_snapshot(broken)

    def test_header_row_is_mandatory(self):
        broken = SNAPSHOT_TEXT.replace("kind,path,modified,accessed,created,precision_s\n", "")
        with pytest.raises(SnapshotFormatError, match="header"):
            parse_snapshot(broken)

    def test_wrong_column_count_names_line(self):
        broken = SNAPSHOT_TEXT + "file,C:\\x,2010-04-12T14:30:37Z\n"
        with pytest.raises(SnapshotFormatError, match="line 10"):
            parse_snapshot(broken)

    def test_bad_precision(self):
        broken = SNAPSHOT_TEXT.replace(",,,60", ",,,0")
        with pytest.raises(SnapshotFormatError, match="precision"):
            parse_snapshot(broken)

    @pytest.mark.parametrize("cell", ["6_0", " 60", "+60", "\u0666\u0660"])
    def test_precision_takes_only_ascii_digits(self, cell):
        """``int`` reads each of these as 60; a precision cell is ASCII digits."""
        broken = SNAPSHOT_TEXT + f"file,C:\\x,2010-04-13T09:00:00Z,,,{cell}\n"
        with pytest.raises(SnapshotFormatError) as info:
            parse_snapshot(broken)
        assert str(info.value) == f"line 10: precision_s must be an integer, got {cell!r}"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() == 0,
        reason="this interpreter's int reads any number of digits",
    )
    def test_an_integer_cell_longer_than_int_reads_is_refused(self):
        cell = "6" * (sys.get_int_max_str_digits() + 1)
        with pytest.raises(ValueError) as info:
            evidence.int_cell(cell, "precision_s")
        assert str(info.value) == f"precision_s must be an integer, got {cell!r}"

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "2010-04-12T14:30:37Z,,,1",
                "0001-01-01T00:00:00Z,,,1",
                "line 8: timestamp -62135596800 is before 1601-01-01T00:00:00Z",
            ),
            (",,,60", ",,,99999999999999999999", "line 9: precision_s must lie in [1, 86400]"),
            (
                "#capture_time=2010-04-14T16:45:00Z",
                "#capture_time=0001-01-01T00:00:00Z",
                "#capture_time: timestamp -62135596800 is before 1601-01-01T00:00:00Z",
            ),
        ],
    )
    def test_out_of_range_timestamp_names_its_place(self, old, new, message):
        with pytest.raises(SnapshotFormatError) as info:
            parse_snapshot(SNAPSHOT_TEXT.replace(old, new))
        assert str(info.value).startswith(message)

    def test_record_path_with_nul_refused(self):
        broken = SNAPSHOT_TEXT.replace("IEXPLORE.EXE", "IEXPLORE\x00.EXE")
        # Before Python 3.11 the csv reader refuses the line in its own words.
        with pytest.raises(SnapshotFormatError, match=r"line 8: .*NUL"):
            parse_snapshot(broken)

    def test_last_access_enabled_must_be_literal(self):
        broken = SNAPSHOT_TEXT.replace("=true", "=yes")
        with pytest.raises(SnapshotFormatError, match="last_access_enabled"):
            parse_snapshot(broken)

    def test_install_paths_round_trip(self):
        meta = xp_meta(install_paths={"Office": "C:\\Program Files\\Office"})
        snap = snap_of([frec("C:\\x", m="2010-04-12T14:30:37Z")], meta=meta)
        again = parse_snapshot(save_snapshot(snap))
        assert again.meta.install_paths == {"Office": "C:\\Program Files\\Office"}

    def test_mixed_precisions_in_one_record_unserializable(self):
        rec = ArtifactRecord(
            kind=RecordKind.FILE,
            path="C:\\x",
            modified=pt("2010-04-12T14:30:37Z"),
            accessed=pt("2010-04-12T14:30:00Z", 60),
            created=None,
        )
        with pytest.raises(SnapshotFormatError, match="precision"):
            save_snapshot(snap_of([rec]))

    @pytest.mark.parametrize("brk", ["\n", "\r", "\x0c", "\x1c", "\u2028", "\x00"])
    def test_record_path_with_a_line_break_unserializable(self, brk):
        snap = snap_of([frec(f"C:\\a{brk}b.txt", m="2010-04-12T14:30:37Z")])
        with pytest.raises(SnapshotFormatError, match="line break or NUL"):
            save_snapshot(snap)

    @pytest.mark.parametrize(
        "line, fragment",
        [
            ("#sid=", "metadata: a SID must be non-empty"),
            ("#install_path.=C:\\x", "metadata: install path name ''"),
            ("#install_path.A%B=C:\\x", "metadata: install path name 'A%B'"),
        ],
    )
    def test_metadata_refused_by_the_meta_names_its_key(self, line, fragment):
        with pytest.raises(SnapshotFormatError, match=fragment):
            parse_snapshot(line + "\n" + SNAPSHOT_TEXT)



CAPTURE_ROW = "4:04 PM,iexplore.exe,2936,ReadFile,{cell},SUCCESS,D\n"

# Each CSV input: the text before a bad row, the row with its ``{cell}`` to
# fill, the line the row starts on, and the input's own error.
CSV_INPUTS = {
    "snapshot": (SNAPSHOT_TEXT, "file,{cell},2010-04-12T14:30:37Z,,,1\n", 10, SnapshotFormatError),
    "capture": (CAPTURE_ROW.format(cell="C:\\x"), CAPTURE_ROW, 2, CaptureFormatError),
    "sessions.csv": ("run,session,launch_method\n", "0,0,{cell}\n", 2, ValueError),
}


@pytest.mark.parametrize("source", sorted(CSV_INPUTS))
@pytest.mark.parametrize(
    "cell, fragment",
    [
        ('"C:\\a\nb"', "a quoted cell spans a line break"),
        ('"C:\\a', "quote"),
        ("C:\\a\x00b", "a cell holds NUL"),
        ("x" * 200_000, "field larger than field limit"),
    ],
    ids=["quoted-line-break", "unbalanced-quote", "nul", "oversized-cell"],
)
def test_bad_csv_row_names_the_line_it_starts_on(source, cell, fragment, tmp_path):
    head, row, line, error = CSV_INPUTS[source]
    text = head + row.format(cell=cell) + row.format(cell="C:\\y")
    where = ""
    if source == "snapshot":
        load = lambda: parse_snapshot(text)
    elif source == "capture":
        load = lambda: parse_capture(text)
    else:
        snap = parse_snapshot(SNAPSHOT_TEXT)
        write_observations(tmp_path, [RunObservation(0, 0, None, snap, snap)])
        (tmp_path / "sessions.csv").write_text(text, encoding="utf-8")
        load, where = lambda: read_observations(tmp_path), f"{tmp_path / 'sessions.csv'}: "
    with pytest.raises(ValueError) as info:
        load()
    assert type(info.value) is error
    assert str(info.value).startswith(f"{where}line {line}: ")
    assert fragment in str(info.value)

class TestSnapshotMeta:
    @pytest.mark.parametrize(
        "overrides, fragment",
        [
            ({"home_path": "\\x\n#sid=S-1-5"}, "home_path holds a line break"),
            ({"system_root": "C:\\WINDOWS\u2028"}, "system_root holds a line break"),
            ({"sids": (SID, "S-1\x1c")}, "sid 'S-1\\x1c' holds a line break"),
            ({"install_paths": {"App": "C:\\A\rB"}}, "install path 'App' holds a line break"),
            ({"sids": (SID, "")}, "SID must be non-empty"),
            ({"install_paths": {"": "C:\\x"}}, "install path name ''"),
            ({"install_paths": {"A=B": "C:\\x"}}, "install path name 'A=B'"),
            ({"install_paths": {"A%B": "C:\\x"}}, "install path name 'A%B'"),
            ({"install_paths": {"App ": "C:\\x"}}, "install path name 'App '"),
            ({"capture_time": TimePoint(t("2010-04-14T16:45:00Z"), 60)}, "capture_time"),
        ],
    )
    def test_refuses_what_its_metadata_lines_cannot_hold(self, overrides, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            xp_meta(**overrides)


# Characters that carry structure in the snapshot format: every line break
# str.splitlines knows, then CSV separators and quotes, the metadata marks,
# the template variable mark and whitespace.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_MARKS = ",\"#=% \t\x00\\aZ9\u00c4"
_PLAIN = hs.text(
    alphabet=hs.sampled_from(list(_MARKS)) | hs.characters(exclude_characters=_BREAKS),
    max_size=5,
)
_ANY = hs.text(alphabet=hs.sampled_from(list(_BREAKS + _MARKS)) | hs.characters(), max_size=5)
_T0 = t("2010-04-01T00:00:00Z")


@hs.composite
def snapshot_parts(draw):
    """Keyword arguments for a SnapshotMeta and rows for its records.  At
    most one text is drawn from every character, line breaks included, or
    else the capture time may be minute-granular; so most examples get as
    far as the round trip while each refusal still comes up."""
    odd = draw(hs.integers(0, 16))
    places = iter(range(16))

    def text(plain=_PLAIN):
        return draw(_ANY if next(places) == odd else plain)

    capture = _T0 + draw(hs.integers(0, 86400))
    stamp = hs.integers(_T0 - 86400, capture + 60)
    meta = dict(
        system_root=text(),
        home_drive=text(),
        home_path=text(),
        sids=tuple(text(_PLAIN.filter(bool)) for _ in range(draw(hs.integers(0, 2)))),
        last_access_enabled=draw(hs.booleans()),
        capture_time=TimePoint(capture, 60 if odd == 16 else 1),
        install_paths={
            text(hs.sampled_from(("App", "Office", "Internet Explorer"))): text()
            for _ in range(draw(hs.integers(0, 2)))
        },
    )
    rows = []
    for _ in range(draw(hs.integers(0, 4))):
        kind = draw(hs.sampled_from(RecordKind))
        prefix = draw(hs.sampled_from(("C:\\", "HKEY_USERS\\", "")))
        if kind is RecordKind.REGKEY:
            stamps = (draw(stamp), None, None)
        else:
            stamps = tuple(draw(hs.none() | stamp) for _ in range(3))
        precisions = draw(hs.sampled_from(((1, 1, 1), (60, 60, 60), (1, 60, 1))))
        rows.append((kind, prefix + text(), stamps, precisions))
    return meta, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(parts=snapshot_parts())
def test_a_snapshot_round_trips_or_is_refused(parts):
    meta, rows = parts
    try:
        snap = Snapshot.build(
            SnapshotMeta(**meta),
            [
                ArtifactRecord(
                    kind,
                    path,
                    *(None if s is None else TimePoint(s, p) for s, p in zip(stamps, precisions)),
                )
                for kind, path, stamps, precisions in rows
            ],
        )
    except ValueError:  # a record or metadata value the model refuses
        return
    try:
        text = save_snapshot(snap)
    except SnapshotFormatError:  # a record one row cannot hold
        return
    assert parse_snapshot(text) == snap



# --- the one-pass row check against the eager parse --------------------------

HEADER_ROW = "kind,path,modified,accessed,created,precision_s"


def eager_parse(text):
    """The reference for ``parse_snapshot``: its metadata block and header,
    then every row through ``read_csv`` and ``Snapshot.build``, building every
    record at once."""
    lines = text.splitlines()
    start = lines.index(HEADER_ROW) + 1
    meta = parse_snapshot("\n".join(lines[:start])).meta
    records = read_csv(lines[start:], _parse_row, SnapshotFormatError, first_line=start + 1)
    return Snapshot.build(meta, records)


@hs.composite
def saved_snapshot(draw):
    """The saved text of a random snapshot, and its capture time: files and
    keys, some under HKEY_USERS, paths with a comma or a quote now and then,
    times up to the capture time, a precision from a second to a day."""
    capture = _T0 + draw(hs.integers(0, 86400))
    stamp = hs.integers(_T0 - 400 * 86400, capture)
    records = {}
    for _ in range(draw(hs.integers(1, 6))):
        kind = draw(hs.sampled_from(RecordKind))
        prefix = draw(hs.sampled_from(("C:\\", f"{HKU}\\", "HKEY_USERS\\")))
        name = draw(hs.text(hs.sampled_from(list("ab\\ .\u00c4")), min_size=1, max_size=6))
        name += draw(hs.sampled_from(("",) * 8 + (",", '"')))
        precision = draw(hs.sampled_from((1, 60, 3600, 86400)))
        if kind is RecordKind.REGKEY:
            stamps = [draw(stamp), None, None]
        else:
            stamps = [draw(hs.none() | stamp) for _ in range(3)]
            stamps[0] = draw(stamp) if stamps == [None] * 3 else stamps[0]
        points = [None if s is None else TimePoint(s - s % precision, precision) for s in stamps]
        rec = ArtifactRecord(kind, prefix + name, *points)
        records[rec.key] = rec
    meta = xp_meta(capture=format_timestamp(capture))
    return save_snapshot(Snapshot.build(meta, records.values())), capture


def _rewrite_cell(rows, i, column, value):
    cells = next(csv.reader([rows[i]]))
    cells[column] = value(cells[column])
    out = io.StringIO()
    csv.writer(out, lineterminator="").writerow(cells)
    rows[i] = out.getvalue()


# In the order they are made: those that rewrite a cell come before those
# that leave a row the csv reader may not split.
MUTATIONS = (
    "quoted-comma", "precision=", "precision=0", "precision=01", "precision= 5", "precision=86401",
    "year=1600", "year=9999", "feb-30", "clock=24:00:00", "clock=23:60:00", "clock=23:59:60",
    "after-capture", "capture-9999", "accessed", "no-timestamps", "duplicate-in-another-case",
    "no-sid", "upper-kind", "nul", "dropped-column", "char", "blank-line",
)


def mutate(draw, mutation, head, rows, capture):
    """Make ``mutation`` to a random row of ``rows`` (or to ``head``): each is
    a way a row is refused, or accepted by the eager parse alone."""
    name, _, value = mutation.partition("=")
    i = draw(hs.integers(0, len(rows) - 1))
    column = draw(hs.integers(2, 4))  # a timestamp cell, given a canonical time if empty
    earlier = format_timestamp(capture - draw(hs.integers(0, 86400)))
    at = draw(hs.integers(0, len(rows[i])))
    if name == "quoted-comma":
        _rewrite_cell(rows, i, 1, lambda path: path + ",x")
    elif name == "precision":
        _rewrite_cell(rows, i, 5, lambda _: value)
    elif name == "year":
        _rewrite_cell(rows, i, column, lambda cell: value + (cell or earlier)[4:])
    elif name == "feb-30":
        _rewrite_cell(rows, i, column, lambda cell: (cell or earlier)[:5] + "02-30T00:00:00Z")
    elif name == "clock":
        _rewrite_cell(rows, i, column, lambda cell: (cell or earlier)[:11] + value + "Z")
    elif name == "after-capture":
        _rewrite_cell(rows, i, column, lambda _: format_timestamp(capture + 1))
    elif name == "capture-9999":
        head[:] = [
            "#capture_time=9999-12-31T23:59:59Z" if line.startswith("#capture_time=") else line
            for line in head
        ]
        clock = draw(hs.sampled_from(("23:59:59", "23:59:00", "23:00:00", "00:00:00")))
        _rewrite_cell(rows, i, column, lambda _: f"9999-12-31T{clock}Z")
    elif name == "accessed":  # on a key, which has none
        _rewrite_cell(rows, i, 0, lambda _: "regkey")
        _rewrite_cell(rows, i, 3, lambda _: earlier)
    elif name == "no-timestamps":
        for column in (2, 3, 4):
            _rewrite_cell(rows, i, column, lambda _: "")
    elif name == "duplicate-in-another-case":
        rows.append(rows[i])
        _rewrite_cell(rows, -1, 1, str.swapcase)
    elif name == "no-sid":
        head[:] = [line for line in head if not line.startswith("#sid=")]
    elif name == "upper-kind":
        _rewrite_cell(rows, i, 0, str.upper)
    elif name == "nul":  # in the path cell
        at = rows[i].index(",") + 1 + draw(hs.integers(0, 2))
        rows[i] = rows[i][:at] + "\x00" + rows[i][at:]
    elif name == "dropped-column":
        rows[i] = rows[i].rsplit(",", 1)[0]
    elif name == "char":
        char = draw(hs.sampled_from(list(',"\x00 Z9T:-a\u00c4')))
        rows[i] = rows[i][:at] + char + rows[i][at + 1:]
    elif name == "blank-line":
        rows.insert(i, "")


@hs.composite
def snapshot_text(draw, first):
    """Saved snapshot text with mutation ``first`` (unless None) and perhaps
    one more made to it, and the names of those made."""
    text, capture = draw(saved_snapshot())
    lines = text.splitlines()
    start = lines.index(HEADER_ROW) + 1
    head, rows = lines[:start], lines[start:]
    names = [first] if first else []
    names += draw(hs.lists(hs.sampled_from(MUTATIONS), max_size=1))
    for name in sorted(names, key=MUTATIONS.index):
        mutate(draw, name, head, rows, capture)
    return "\n".join(head + rows) + "\n", names


def assert_agrees(text):
    """The same records in the same order, every one of them built without
    error, or the same refusal naming the same line."""
    try:
        expected = eager_parse(text)
    except SnapshotFormatError as exc:
        with pytest.raises(SnapshotFormatError) as info:
            parse_snapshot(text)
        assert str(info.value) == str(exc)
        return
    snap = parse_snapshot(text)
    assert type(snap.records) is not dict  # taken by the one-pass check, not the eager parse
    assert snap.meta == expected.meta
    assert len(snap) == len(expected)
    assert list(snap) == list(expected)
    assert snap.records == expected.records


@pytest.mark.parametrize("first", [None, *MUTATIONS])
@settings(derandomize=True, database=None, deadline=None, max_examples=10)
@given(data=hs.data())
def test_parse_agrees_with_the_eager_parse(first, data):
    text, _ = data.draw(snapshot_text(first))
    assert_agrees(text)


_EDGE_ROWS = [
    *(f"file,C:\\x,{cell},,,{precision}" for precision in (1, 60, 86400) for cell in (
        "1600-12-31T23:59:59Z", "1601-01-01T00:00:00Z", "9999-12-30T00:00:00Z",
        "9999-12-30T23:59:59Z", "9999-12-31T00:00:00Z", "9999-12-31T23:59:00Z",
        "9999-12-31T23:59:59Z",
    )),
    # case folds ASCII letters only: the Kelvin sign is no K
    *(f"{kind},C:\\x,2010-04-13T09:00:00Z,,,1" for kind in (
        "FILE", "Regkey", '"file"', "reg\u212aey", "fi le",
    )),
]


@pytest.mark.parametrize("row", _EDGE_ROWS)
def test_edge_rows_agree_with_the_eager_parse(row):
    """A time near either end of the range, at a precision that may carry it
    past the end, or an odd kind cell."""
    text = SNAPSHOT_TEXT.replace("2010-04-14T16:45:00Z", "9999-12-31T23:59:59Z")
    assert_agrees(text + row + "\n")


def test_a_parsed_record_is_built_when_first_looked_up(monkeypatch):
    """A plain row is built on its first lookup, a quoted one alone on load."""
    built = []
    build = evidence._build_record
    monkeypatch.setattr(evidence, "_build_record", lambda *args: built.append(1) or build(*args))
    text = SNAPSHOT_TEXT + 'file,"C:\\Users\\Smith, J.docx",2010-04-13T09:00:00Z,,,1\n'
    snap = parse_snapshot(text)
    assert type(snap.records) is not dict and len(snap) == 3 and built == []
    rec = snap.get(RecordKind.FILE, "c:\\windows\\prefetch\\IEXPLORE.EXE-27122324.pf")
    assert rec == frec("C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf", "2010-04-12T14:30:37Z")
    assert snap.get(RecordKind.FILE, rec.path) is rec
    assert len(built) == 1
    quoted = snap.get(RecordKind.FILE, "C:\\Users\\Smith, J.docx")
    assert quoted == frec("C:\\Users\\Smith, J.docx", "2010-04-13T09:00:00Z")
    assert len(built) == 1


# --- which refusal a snapshot with several faults gets -----------------------

LATE = "2011-01-01T00:00:00Z"  # after SNAPSHOT_TEXT's capture time
ROW = "file,C:\\Dir\\{},2010-04-13T09:00:00Z,,,1\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            SNAPSHOT_TEXT + "file,C:\\a,2010-04-13T09:00:00Z,,\n" + ROW.format("b\x00"),
            "line 11: a cell holds NUL",
        ),
        (
            SNAPSHOT_TEXT + ROW.format("a") + ROW.format("A") + ROW.format("b")[:-2] + "x\n",
            "line 12: precision_s must be an integer, got 'x'",
        ),
        (
            SNAPSHOT_TEXT + f"file,C:\\late,{LATE},,,1\n" + ROW.format("a") + ROW.format("A"),
            "duplicate record for path 'C:\\\\Dir\\\\A'",
        ),
        (
            SNAPSHOT_TEXT.replace(f"#sid={SID}\n", "") + f"file,C:\\late,,{LATE},{LATE},1\n",
            "'C:\\\\late' has a accessed time after the capture time",
        ),
        (
            SNAPSHOT_TEXT + f'file,"C:\\q, r",{LATE},,,1\n' + f"file,C:\\p,{LATE},,,1\n",
            "'C:\\\\q, r' has a modified time after the capture time",
        ),
    ],
    ids=[
        "nul-after-short-row", "bad-row-after-duplicate", "duplicate-after-late-record",
        "late-record-without-sid", "quoted-late-before-plain-late",
    ],
)
def test_the_first_refusal_of_the_eager_parse_wins(text, message):
    with pytest.raises(SnapshotFormatError) as info:
        eager_parse(text)
    assert str(info.value) == message
    assert_agrees(text)


def reference_build(meta, records):
    """The records table ``Snapshot.build`` makes, as a dict, by its own
    separate checks: the first duplicate path, then, by record, a time after
    the capture time, then HKEY_USERS keys with no SID."""
    table = {}
    for rec in records:
        key = rec.key
        if key in table:
            raise SnapshotFormatError(f"duplicate record for path {rec.path!r}")
        table[key] = rec
    cap_hi = meta.capture_time.hi
    has_user_hive = False
    for (kind, folded), rec in table.items():
        for field in FIELDS:
            point = rec.timestamp(field)
            if point is not None and point.epoch_s > cap_hi:
                raise SnapshotFormatError(
                    f"{rec.path!r} has a {field} time after the capture time"
                )
        if kind is RecordKind.REGKEY and folded.startswith("hkey_users\\"):
            has_user_hive = True
    if has_user_hive and not meta.sids:
        raise SnapshotFormatError(
            "snapshot contains HKEY_USERS keys but no #sid metadata"
        )
    return table


@hs.composite
def record_lists(draw):
    """A meta with or without SIDs, and records whose paths often differ
    only in case, under HKEY_USERS or not, with times that may pass the
    capture time on any field."""
    capture = _T0 + draw(hs.integers(0, 86400))
    stamp = hs.integers(capture - 86400, capture + 2)
    records = []
    for _ in range(draw(hs.integers(0, 6))):
        kind = draw(hs.sampled_from(RecordKind))
        prefix = draw(hs.sampled_from(("C:\\", "HKEY_USERS\\", "hkey_users\\", f"{HKU}\\")))
        path = prefix + draw(hs.text(hs.sampled_from("aAb"), min_size=1, max_size=2))
        precision = draw(hs.sampled_from((1, 60)))
        stamps = [draw(stamp), None, None]
        if kind is RecordKind.FILE:
            stamps = [draw(hs.none() | stamp) for _ in FIELDS]
            if stamps == [None] * 3:
                stamps[draw(hs.integers(0, 2))] = draw(stamp)
        points = [None if s is None else TimePoint(s, precision) for s in stamps]
        records.append(ArtifactRecord(kind, path, *points))
    sids = draw(hs.sampled_from(((), (SID,))))
    return xp_meta(capture=format_timestamp(capture), sids=sids), records


@settings(derandomize=True, database=None, deadline=None, max_examples=500)
@given(case=record_lists())
def test_build_agrees_with_the_reference_build(case):
    meta, records = case
    try:
        expected = reference_build(meta, records)
    except SnapshotFormatError as exc:
        with pytest.raises(SnapshotFormatError) as info:
            Snapshot.build(meta, iter(records))
        assert str(info.value) == str(exc)
        return
    snap = Snapshot.build(meta, iter(records))
    assert snap.meta is meta
    assert list(snap.records.items()) == list(expected.items())


def test_a_refused_file_is_not_parsed_again(monkeypatch):
    """A file of plain rows that is refused as a whole builds no record."""
    calls = []
    for name in ("_parse_row", "_build_record"):
        original = getattr(evidence, name)
        monkeypatch.setattr(evidence, name, lambda *a, f=original: calls.append(f) or f(*a))
    rows = [ROW.format(f"File{i}.txt") for i in range(200)]
    rows[-1] = ROW.format("FILE0.TXT")
    text = SNAPSHOT_TEXT[: SNAPSHOT_TEXT.index(HEADER_ROW)] + HEADER_ROW + "\n" + "".join(rows)
    with pytest.raises(SnapshotFormatError) as info:
        parse_snapshot(text)
    assert str(info.value) == "duplicate record for path 'C:\\\\Dir\\\\FILE0.TXT'"
    assert calls == []


# --- rows at the edge of a scan block ----------------------------------------

BLOCK_EDGE_ROWS = {
    "refused": "file,C:\\Dir\\bad,2010-04-13T09:00:00Z,,,x",
    "open-quote": 'file,"C:\\Dir\\open,2010-04-13T09:00:00Z,,,1',
    "quoted": 'file,"C:\\Dir\\a, b",2010-04-13T09:00:00Z,,,1',
    "blank": "",
    # What the scan's path class ``[^,]`` takes and no plain path holds: a
    # quote, a NUL, and a line break, across which a match runs from the
    # first line of these two into the second.
    "quoted-no-comma": 'file,"C:\\Dir\\q",2010-04-13T09:00:00Z,,,1',
    "inner-quote": 'file,C:\\Dir\\say "hi",2010-04-13T09:00:00Z,,,1',
    "nul": "file,C:\\Dir\\n\x00l,2010-04-13T09:00:00Z,,,1",
    "line-break": "file,C:\\a\nC:\\b,2010-04-13T09:00:00Z,,,1",
}


def body_text(rows):
    return SNAPSHOT_TEXT[: SNAPSHOT_TEXT.index(HEADER_ROW)] + HEADER_ROW + "\n" + "".join(rows)


@pytest.mark.parametrize("at", [254, 255, 256, 257, 1022, 1023, 1024, 1025])
@pytest.mark.parametrize("row", BLOCK_EDGE_ROWS.values(), ids=BLOCK_EDGE_ROWS)
def test_a_row_at_a_scan_block_edge_agrees_with_the_eager_parse(row, at):
    """Rows are scanned in blocks, two of which end after rows 256 and 1,024:
    a row on either side of those edges gets the eager parse's refusal, on
    its own line, or the eager parse's record, as do the plain rows around
    it."""
    assert 256 % evidence._BLOCK_ROWS == 0
    rows = [ROW.format(f"File{i}.txt") for i in range(1100)]
    rows[at] = row + "\n"
    assert_agrees(body_text(rows))


@pytest.mark.parametrize("count", [1023, 1024, 1025, 2048, 2049])
def test_quoted_rows_across_scan_blocks_agree_with_the_eager_parse(count):
    """A body that ends at, or just past, a block's end, with a quoted row
    on each side of the block edges after rows 1,024 and 2,048."""
    rows = [ROW.format(f"File{i}.txt") for i in range(count)]
    for at in (1022, 1023, 1024, 2047, 2048):
        if at < count:
            rows[at] = f'file,"C:\\Dir\\{at}, q",2010-04-13T09:00:00Z,,,1\n'
    assert_agrees(body_text(rows))


def test_a_scan_that_misses_a_row_raises(monkeypatch):
    """A scan giving one tuple fewer than its block has rows is an error,
    not a row skipped: here one that finds nothing on a blank line."""
    skipping = evidence._PLAIN_ROW.pattern.replace("|.*)$", "|.+)$")
    monkeypatch.setattr(evidence, "_PLAIN_ROW", re.compile(skipping, evidence._PLAIN_ROW.flags))
    rows = [ROW.format(f"File{i}.txt") for i in range(3)]
    rows[1] = "\n"
    with pytest.raises(ValueError) as info:
        parse_snapshot(body_text(rows))
    assert type(info.value) is ValueError


class TestTimeKeys:
    """Pinned keys of the values ``Snapshot.stored`` holds: rows kept as text
    and built records."""

    @staticmethod
    def stored_rows(*rows: str) -> list:
        text = save_snapshot(Snapshot.build(xp_meta(), [])) + "".join(f"{row}\n" for row in rows)
        return list(parse_snapshot(text).stored.values())

    @staticmethod
    def keys_of(keys, i):
        return tuple(column[i] for column in keys)

    def test_a_row_with_an_empty_precision_keys_as_a_record_at_one_second(self):
        [row] = self.stored_rows("file,C:\\a.dat,2010-04-12T14:30:37Z,,2010-04-10T08:00:00Z,")
        record = frec("C:\\A.dat", m="2010-04-12T14:30:37Z", c="2010-04-10T08:00:00Z")
        assert type(row) is str
        index, keys, paths = time_keys([None, row, record, None], {})
        assert index == {None: 0, row: 1, record: 2}
        want = ("2010-04-12T14:30:37Z", "", "2010-04-10T08:00:00Z")
        assert self.keys_of(keys, 1) == self.keys_of(keys, 2) == want
        assert self.keys_of(keys, 0) == ("", "", "")
        assert paths == [None, "C:\\a.dat", "C:\\A.dat"]

    def test_a_row_at_sixty_seconds_keys_its_precision(self):
        [row] = self.stored_rows(f"regkey,{HKU}\\Software\\X,2010-04-12T14:30:00Z,,,60")
        index, keys, paths = time_keys([row], {})
        assert self.keys_of(keys, index[row]) == (("2010-04-12T14:30:00Z", 60), "", "")
        assert paths[index[row]] == f"{HKU}\\Software\\X"

    def test_a_record_mixing_precisions_keys_each_field_at_its_own(self):
        record = ArtifactRecord(
            RecordKind.FILE, "C:\\b.dat",
            modified=pt("2010-04-12T14:30:37Z"), accessed=pt("2010-04-12T14:30:00Z", 60),
        )
        index, keys, _ = time_keys([record], {})
        assert self.keys_of(keys, index[record]) == (
            "2010-04-12T14:30:37Z", ("2010-04-12T14:30:00Z", 60), ""
        )

    def test_a_row_text_shared_by_two_snapshots_gets_one_index(self):
        rows = ["file,C:\\a.dat,2010-04-12T14:30:37Z,,,", "file,C:\\b.dat,,2010-04-12T14:30:38Z,,"]
        first, second = self.stored_rows(*rows), self.stored_rows(*rows)
        assert first == second and first[0] is not second[0]
        index, keys, paths = time_keys([*first, *second], {})
        assert list(index) == [None, *first]
        assert all(len(column) == 3 for column in keys) and paths == [None, "C:\\a.dat", "C:\\b.dat"]
