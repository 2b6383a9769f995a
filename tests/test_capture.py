import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from tracesig.capture import (
    CaptureFormatError,
    TraceNameSet,
    _parse_event,
    filter_by_process,
    intersect_runs,
    parse_capture,
    unique_traces,
)
from tracesig.data import fixture_text
from tracesig.evidence import fold_path, read_csv

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
        assert parse_capture(text) == (("iexplore.exe", "C:\\a,b.txt"),)

    def test_extra_trailing_columns_ignored(self):
        log = parse_capture(ROW + ",extra,more\n")
        assert log == (("iexplore.exe", "HKCU\\Software\\Microsoft"),)

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

    def test_empty_path(self):
        with pytest.raises(CaptureFormatError, match="line 2: capture event needs a path"):
            parse_capture(ROW + "\n" + ROW.replace("HKCU\\Software\\Microsoft", "") + "\n")


@pytest.fixture(scope="module")
def log():
    return parse_capture(fixture_text("capture_40rows.csv"))


class TestFilterAndTraces:
    def test_filter_is_case_insensitive(self, log):
        kept = filter_by_process(log, ["IEXPLORE.EXE"])
        assert len(kept) == 22
        assert all(process.lower() == "iexplore.exe" for process, _path in kept)

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


def reference_capture(text):
    """``parse_capture`` as one ``read_csv`` over every row after the header."""
    lines = text.splitlines()
    header = read_csv(lines[:1], list, CaptureFormatError)
    skip = 1 if header and "Process Name" in header[0] else 0
    return tuple(read_csv(lines[skip:], _parse_event, CaptureFormatError, first_line=skip + 1))


def outcome(parse, text):
    try:
        return parse(text)
    except CaptureFormatError as exc:
        return type(exc), str(exc)


HEADER = "Time of Day,Process Name,PID,Operation,Path,Result,Detail"
LIMIT = 131_072  # the csv reader's largest cell
PROCESSES = ["app.exe", "APP.EXE", "explorer.exe", "Svc Host.exe"]
PATHS = ["C:\\a.txt", "c:\\A.TXT", "C:\\x,y.doc", 'C:\\say "hi".txt', "HKCU\\Software"]
OTHER = ["4:04 PM", "ReadFile", "SUCCESS", "Offset: 0, Length: 12", "", "x" * LIMIT]
# Cells that make a row, or the rows after it, unreadable: at a place in a
# row, what may go there.
DEFECTS = [
    (1, [""]),  # no process name
    (2, ["+7", " 7", "\u0667", "1_0", "-1", "x", "", "9" * 19]),  # PIDs int() may or may not read
    (4, [""]),  # no path
    (6, ["x" * (LIMIT + 1)]),  # one cell over the csv reader's limit
    (0, ["a\x00b"]),  # a NUL, which the csv reader refuses before any row
    (3, ['"open', '"a\nb"', '"a""b" c']),  # a quote open past the row, or out of place
]


def cell_text(draw, cell):
    """``cell`` as a CSV cell, quoted when it must be or at random."""
    if any(c in cell for c in ',"') or draw(hs.integers(0, 7)) == 0:
        return '"' + cell.replace('"', '""') + '"'
    return cell


@hs.composite
def capture_row(draw):
    """Seven cells or more, or a row short of a cell or more; half the rows
    carry a defect."""
    values = [OTHER, PROCESSES, ["7", "2936"], OTHER, PATHS, OTHER, OTHER]
    cells = [cell_text(draw, draw(hs.sampled_from(v))) for v in values]
    cells += [cell_text(draw, draw(hs.sampled_from(OTHER))) for _ in range(draw(hs.integers(0, 2)))]
    defect = draw(hs.integers(0, 2 * len(DEFECTS) + 1))
    if defect < len(DEFECTS):
        place, bad = DEFECTS[defect]
        cells[place] = draw(hs.sampled_from(bad))
    elif defect == len(DEFECTS):
        cells = cells[:draw(hs.sampled_from([0, 1, 5, 6]))]
    return ",".join(cells)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(data=hs.data())
def test_parse_capture_agrees_with_one_read_of_every_row(data):
    """The block scan gives the events one ``read_csv`` gives, or the same
    refusal, wherever a bad row lies against the scan's blocks."""
    plain = "4:04 PM,app.exe,{},ReadFile,C:\\plain.txt,SUCCESS{}"
    rows = [plain.format(7, ",D")] * data.draw(hs.sampled_from([0, 0, 0, 254, 255, 256, 300]))
    rows += data.draw(hs.lists(capture_row(), max_size=6))
    # After those, perhaps a row plain but for one defect: a NUL, an oversized
    # cell, a quote open past the row, a cell short, or a PID of no digits.
    late = data.draw(hs.sampled_from(
        [None, ",a\x00b", "," + "x" * (LIMIT + 1), ',"open', "", (",D", "x")]
    ))
    if late is not None:
        end, pid = (late, 7) if type(late) is str else late
        rows += [plain.format(pid, end), plain.format(7, ",D")]
    if data.draw(hs.booleans()):
        rows.insert(0, HEADER)
    text = "\n".join(rows) + data.draw(hs.sampled_from(["", "\n", "\r\n"]))
    got = outcome(parse_capture, text)
    assert got == outcome(reference_capture, text)
    if got and type(got[0]) is tuple:  # events, not a refusal
        wanted = data.draw(hs.lists(hs.sampled_from(PROCESSES), min_size=1))
        folded = {fold_path(p) for p in wanted}
        assert filter_by_process(got, wanted) == tuple(e for e in got if fold_path(e[0]) in folded)
        assert unique_traces(got) == TraceNameSet.of(path for _process, path in got)


PLAIN = "4:04 PM,app.exe,7,ReadFile,C:\\a.txt,SUCCESS,D"


@pytest.mark.parametrize(
    "bad, message",
    [
        # a quote opened on the last row of a block and closed on the next
        ({255: '4:04 PM,app.exe,7,"Read', 256: 'File",C:\\a.txt,SUCCESS,D'},
         "line 256: a quoted cell spans a line break"),
        # a refused row in one block, then a NUL in the next
        ({200: PLAIN.replace(",7,", ",x,"), 300: PLAIN + "\x00"}, "line 301: a cell holds NUL"),
        ({256: PLAIN.replace("app.exe", "")}, "line 257: capture event needs a process name"),
    ],
    ids=["quote-across-blocks", "nul-in-a-later-block", "first-row-of-a-block"],
)
def test_a_refusal_near_a_block_edge_is_the_whole_text_refusal(bad, message):
    rows = [bad.get(i, PLAIN) for i in range(400)]
    text = "\n".join(rows) + "\n"
    assert outcome(parse_capture, text) == outcome(reference_capture, text)
    with pytest.raises(CaptureFormatError, match=f"^{message}$"):
        parse_capture(text)


def test_a_pid_is_ascii_digits_after_an_optional_minus():
    with pytest.raises(CaptureFormatError, match=r"^line 1: PID must be an integer, got '\+7'$"):
        parse_capture(PLAIN.replace(",7,", ",+7,"))
    assert parse_capture(PLAIN.replace(",7,", ",-1,")) == (("app.exe", "C:\\a.txt"),)


@pytest.mark.parametrize("length", [LIMIT, LIMIT + 1])
def test_a_cell_at_the_csv_limit_is_read_and_one_over_it_refused(length):
    text = f"{ROW}\n4:04 PM,app.exe,7,ReadFile,C:\\a.txt,SUCCESS,{'x' * length}\n"
    assert outcome(parse_capture, text) == outcome(reference_capture, text)
    if length > LIMIT:
        with pytest.raises(CaptureFormatError, match="line 2: .*field larger than field limit"):
            parse_capture(text)


CLASS_ROWS = {
    # a match from the first line runs on into the second
    "line-break": ["junk", PLAIN],
    "quoted": ['4:04 PM,app.exe,7,ReadFile,"C:\\q.txt",SUCCESS,D'],
    "nul": [PLAIN.replace("a.txt", "n\x00l.txt")],
    "long-row": [PLAIN + ",x" * (LIMIT // 2)],  # short cells, a row over the cell limit
}


@pytest.mark.parametrize("at", [254, 255, 256, 257, 1022, 1023, 1024, 1025])
@pytest.mark.parametrize("lines", CLASS_ROWS.values(), ids=CLASS_ROWS)
def test_rows_the_scan_classes_let_in_agree_with_one_read(lines, at):
    """The scan's classes ``[^,]`` and ``.`` take a quote, a NUL and any
    length of cell, and ``[^,]`` a line break: such rows, on either side of
    a block edge, get the events or refusal of one ``read_csv``."""
    rows = [PLAIN] * 1100
    rows[at:at + len(lines)] = lines
    text = "\n".join(rows) + "\n"
    assert outcome(parse_capture, text) == outcome(reference_capture, text)
