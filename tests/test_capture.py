import pytest

from tracesig import (
    CaptureFormatError,
    TraceNameSet,
    filter_by_process,
    intersect_runs,
    parse_capture,
    unique_traces,
)
from tracesig.data import fixture_text

ROW = "4:04:19.3559769 PM,iexplore.exe,2936,RegQueryKey,HKCU\\Software\\Microsoft,SUCCESS,Query: Name"


class TestParseCapture:
    def test_bundled_fixture_has_40_events(self):
        log = parse_capture(fixture_text("capture_40rows.csv"))
        assert len(log) == 40

    def test_header_row_skipped(self):
        text = "Time of Day,Process Name,PID,Operation,Path,Result,Detail\n" + ROW + "\n"
        assert len(parse_capture(text)) == 1

    def test_no_header_is_fine(self):
        assert len(parse_capture(ROW + "\n")) == 1

    def test_quoted_commas_stay_in_cell(self):
        text = '4:04:19 PM,iexplore.exe,2936,ReadFile,"C:\\a,b.txt",SUCCESS,"Offset: 0, Length: 12"\n'
        log = parse_capture(text)
        assert log.events[0].path == "C:\\a,b.txt"
        assert log.events[0].detail == "Offset: 0, Length: 12"

    def test_extra_trailing_columns_ignored(self):
        log = parse_capture(ROW + ",extra,more\n")
        assert log.events[0].detail == "Query: Name"

    def test_short_row_rejected_with_line_number(self):
        with pytest.raises(CaptureFormatError, match="line 2"):
            parse_capture(ROW + "\n1,2,3\n")

    def test_bad_pid(self):
        with pytest.raises(CaptureFormatError, match="PID"):
            parse_capture(ROW.replace(",2936,", ",abc,"))

    def test_unbalanced_quote(self):
        with pytest.raises(CaptureFormatError, match="quote"):
            parse_capture('4:04 PM,"iexplore.exe,2936,Op,P,R,D\n')

    def test_empty_process_name(self):
        with pytest.raises(CaptureFormatError, match="process"):
            parse_capture(ROW.replace("iexplore.exe", ""))


@pytest.fixture(scope="module")
def log():
    return parse_capture(fixture_text("capture_40rows.csv"))


class TestFilterAndTraces:
    def test_filter_is_case_insensitive(self, log):
        kept = filter_by_process(log, ["IEXPLORE.EXE"])
        assert len(kept) == 22
        assert all(e.process_name.lower() == "iexplore.exe" for e in kept)

    def test_filter_rejects_empty_selection(self, log):
        with pytest.raises(ValueError):
            filter_by_process(log, [])

    def test_unique_counts_with_and_without_filter(self, log):
        assert len(unique_traces(log)) == 14
        kept = filter_by_process(log, ["iexplore.exe", "explorer.exe"])
        assert len(unique_traces(kept)) == 12

    def test_unique_traces_fold_case_variants(self):
        text = (
            "t,p.exe,1,Op,C:\\Dir\\File.txt,OK,d\n"
            "t,p.exe,1,Op,c:\\dir\\FILE.TXT,OK,d\n"
        )
        assert len(unique_traces(parse_capture(text))) == 1


class TestIntersectRuns:
    def test_common_names_survive(self):
        a = TraceNameSet.of(["C:\\x", "C:\\y", "C:\\z"])
        b = TraceNameSet.of(["c:\\X", "c:\\Z"])
        got = intersect_runs([a, b])
        assert sorted(got) == ["c:\\x", "c:\\z"]

    def test_single_run_passes_through(self):
        a = TraceNameSet.of(["C:\\x"])
        assert sorted(intersect_runs([a])) == ["c:\\x"]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            intersect_runs([])
