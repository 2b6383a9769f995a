import io

import pytest

from conftest import HKU, SID, frec, krec, pt, snap_of, t, xp_meta
from tracesig import (
    ArtifactRecord,
    RecordKind,
    Snapshot,
    SnapshotFormatError,
    TimePoint,
    fold_path,
    format_timestamp,
    parse_snapshot,
    parse_timestamp,
    save_snapshot,
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
        ],
    )
    def test_rejects_non_canonical_forms(self, bad):
        with pytest.raises(SnapshotFormatError):
            parse_timestamp(bad)


class TestTimePoint:
    def test_interval_bounds(self):
        p = TimePoint(1271082637)
        assert (p.lo, p.hi) == (1271082637, 1271082637)
        minute = TimePoint(1271082600, 60)
        assert (minute.lo, minute.hi) == (1271082600, 1271082659)

    def test_precision_must_be_positive(self):
        with pytest.raises(ValueError):
            TimePoint(0, 0)

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

    def test_accepts_file_object(self):
        snap = parse_snapshot(io.StringIO(SNAPSHOT_TEXT))
        assert len(snap) == 2

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
