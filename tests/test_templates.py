import dataclasses
import re

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from conftest import ADMIN, HKU, SID, frec, krec, snap_of, xp_meta
from tracesig import templates
from tracesig.evidence import RecordKind, Snapshot, fold_path
from tracesig.templates import (
    Binding,
    PathTemplate,
    TemplateSyntaxError,
    Var,
    generalize_path,
    instantiate,
    parse_template,
)

SID2 = "S-1-5-21-1417001333-573735546-682003330-1004"
ODD_SID = "S-1-5-21-ABC-1001"  # a SID not of the all-digit S-1-5-21-… shape


def gen(path, meta=None, kind=None):
    return generalize_path(path, meta or xp_meta(), kind).text


class TestParseTemplate:
    def test_literals_and_vars_tokenize(self):
        tokens = parse_template("%SystemRoot%\\Prefetch\\APP-%s.pf")
        assert tokens[0].name == "SystemRoot"
        assert tokens[1] == "\\Prefetch\\APP-"
        assert tokens[2].name == "s"
        assert tokens[3] == ".pf"

    def test_templates_share_one_var_per_name(self):
        first = parse_template("%SystemRoot%\\%s-%s.pf")
        second = parse_template("%SystemRoot%\\Prefetch\\%s.pf")
        assert first[0] is second[0] and first[2] is first[4] is second[2]

    def test_install_path_variable(self):
        (var,) = [t for t in parse_template("%InstallPath.Office%\\x") if not isinstance(t, str)]
        assert var.name == "InstallPath.Office"

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "C:\\100%",
            "%Unknown%\\x",
            "%SystemRoot%%s",
            "%InstallPath.%\\x",
            "%InstallPath.NoClose",
        ],
    )
    def test_malformed_templates_rejected(self, bad):
        with pytest.raises(TemplateSyntaxError):
            parse_template(bad)

    def test_error_names_the_template(self):
        with pytest.raises(TemplateSyntaxError, match="Unknown"):
            parse_template("%Unknown%\\x")

    def test_path_template_properties(self):
        tpl = PathTemplate(f"HKEY_USERS\\%SID%\\Software\\%s", RecordKind.REGKEY)
        assert tpl.uses_sid
        assert [tok.name for tok in tpl.tokens if isinstance(tok, Var)] == ["SID", "s"]


class TestGeneralize:
    def test_prefetch_hash_becomes_s(self):
        assert (
            gen("C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf")
            == "%SystemRoot%\\Prefetch\\IEXPLORE.EXE-%s.pf"
        )

    def test_profile_prefix(self):
        assert (
            gen("C:\\Documents and Settings\\Administrator\\Cookies\\index.dat")
            == "%HomeDrive%\\%HomePath%\\Cookies\\index.dat"
        )

    def test_prefix_needs_segment_boundary(self):
        # C:\WINDOWS2 shares the letters but is a different directory
        assert gen("C:\\WINDOWS2\\foo.dll") == "C:\\WINDOWS2\\foo.dll"

    def test_install_path_prefix_wins_when_longer(self):
        meta = xp_meta(install_paths={"InternetExplorer": "C:\\Program Files\\Internet Explorer"})
        assert (
            gen("C:\\Program Files\\Internet Explorer\\iexplore.exe", meta)
            == "%InstallPath.InternetExplorer%\\iexplore.exe"
        )

    def test_sid_segment(self):
        assert gen(f"{HKU}\\Software\\Microsoft\\CTF\\TIP") == (
            "HKEY_USERS\\%SID%\\Software\\Microsoft\\CTF\\TIP"
        )

    def test_unknown_sid_left_alone(self):
        other = "S-1-5-21-9-9-9-999"
        assert gen(f"HKEY_USERS\\{other}\\Software") == f"HKEY_USERS\\{other}\\Software"

    def test_a_second_different_sid_stays_literal(self):
        meta = xp_meta(sids=(SID, SID2))
        assert gen(f"{HKU}\\Software\\{SID2}\\{SID.lower()}", meta) == (
            f"HKEY_USERS\\%SID%\\Software\\{SID2}\\%SID%"
        )

    def test_braced_guid_any_segment(self):
        path = f"{HKU}\\Software\\{{A8ECF8E4-795C-4552-B5A4-024AE3036EAB}}\\iexplore"
        assert gen(path) == "HKEY_USERS\\%SID%\\Software\\{%s}\\iexplore"

    def test_dashed_guid_collapses_whole(self):
        assert (
            gen(f"{HKU}\\Soft\\2CEDBFBC-DBA8-43AA-B1FD-CC8E6316E3E2")
            == "HKEY_USERS\\%SID%\\Soft\\%s"
        )

    def test_log_counter_becomes_i(self):
        assert (
            gen("C:\\Documents and Settings\\Administrator\\Tracing\\uccapi-1.uccapilog")
            == "%HomeDrive%\\%HomePath%\\Tracing\\uccapi-%i.uccapilog"
        )

    def test_short_hex_run_untouched(self):
        # five hex-or-dash characters sit under the six-char floor
        assert gen("C:\\x\\AB-CD.pf") == "C:\\x\\AB-CD.pf"
        assert gen("C:\\x\\ABCDE.dat") == "C:\\x\\ABCDE.dat"
        assert gen("C:\\x\\ABCDE1.dat") == "C:\\x\\%s.dat"

    @pytest.mark.parametrize(
        "path, expected",
        [
            ("C:\\WINDOWS\\decade.txt", "%SystemRoot%\\decade.txt"),
            ("C:\\x\\accede.ini", "C:\\x\\accede.ini"),
            ("C:\\x\\ABCDEF.dat", "C:\\x\\ABCDEF.dat"),
            ("C:\\x\\backed-faded.log", "C:\\x\\backed-faded.log"),
            ("C:\\x\\cache-decade01.dat", "C:\\x\\cache-%s.dat"),
        ],
    )
    def test_hex_run_needs_a_digit(self, path, expected):
        assert gen(path) == expected

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("cafe-1a2b3c.dat", "cafe-%s.dat"),
            ("a-000000.dat", "a-%s.dat"),
            ("1a2b3c-4d5e6f.bin", "%s-%s.bin"),
            ("2cedbfbc-dba8-43aa-b1fd-cc8e6316e3e2.dat", "%s.dat"),
        ],
    )
    def test_each_dash_piece_is_judged_alone_except_a_guid(self, name, expected):
        assert gen(f"C:\\app\\{name}") == f"C:\\app\\{expected}"

    @pytest.mark.parametrize("run", ["deadbeef", "cafebabedeadbeef", "abcdef" * 5 + "ab", "fade" * 10])
    def test_hash_length_hex_run_needs_no_digit(self, run):
        assert gen(f"C:\\x\\{run}.bin") == "C:\\x\\%s.bin"

    def test_empty_metadata_prefix_is_skipped(self):
        meta = xp_meta(system_root="\\", home_drive="", install_paths={"App": ""})
        assert gen("\\x\\y.txt", meta) == "\\x\\y.txt"
        assert gen(f"C:{xp_meta().home_path}\\y.txt", meta) == f"C:{xp_meta().home_path}\\y.txt"

    def test_hex_needs_clean_boundaries(self):
        # letters butt up against the run, so nothing is replaced
        assert gen("C:\\x\\deadbeefQ.dat") == "C:\\x\\deadbeefQ.dat"

    def test_non_final_segment_hex_untouched(self):
        assert gen("C:\\cache\\deadbeef01\\readme.txt") == "C:\\cache\\deadbeef01\\readme.txt"

    def test_plain_path_is_all_literal(self):
        assert gen("C:\\Program Files\\App\\app.ini") == "C:\\Program Files\\App\\app.ini"

    def test_kind_inferred_from_hive_prefix(self):
        assert generalize_path("HKEY_LOCAL_MACHINE\\X", xp_meta()).kind is RecordKind.REGKEY
        assert generalize_path("C:\\x.txt", xp_meta()).kind is RecordKind.FILE


# an ordinary word: shorter than a hex run, or holding a letter past f
ORDINARY_WORDS = hs.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=10).filter(
    lambda w: len(w) < 6 or not set(w) <= set("abcdef")
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(ORDINARY_WORDS, ORDINARY_WORDS, hs.text("0123456789abcdef", min_size=6, max_size=12))
def test_generalized_name_matches_no_sibling_with_another_word(word, other, token):
    assume(word != other)
    path, sibling = f"C:\\app\\{word}-{token}.dat", f"C:\\app\\{other}-{token}.dat"
    snap = snap_of([frec(p, m="2010-04-01T10:00:00Z") for p in (path, sibling)])
    tpl = generalize_path(path, snap.meta)
    assert [rec.path for rec, _ in instantiate(tpl, snap)] == [path]


class TestInstantiate:
    def test_case_insensitive_match_preserves_record_case(self):
        snap = snap_of([frec("C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.PF", m="2010-04-12T14:30:37Z")])
        tpl = PathTemplate("%SystemRoot%\\prefetch\\iexplore.exe-%s.pf", RecordKind.FILE)
        [(rec, binding)] = instantiate(tpl, snap)
        assert rec.path == "C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.PF"
        assert binding.sid is None

    def test_sid_binds_per_declared_identity(self):
        meta = xp_meta(sids=(SID, SID2))
        snap = snap_of(
            [
                krec(f"HKEY_USERS\\{SID}\\Software\\A", "2010-04-12T14:30:00Z"),
                krec(f"HKEY_USERS\\{SID2}\\Software\\A", "2010-04-12T14:31:00Z"),
            ],
            meta=meta,
        )
        tpl = PathTemplate("HKEY_USERS\\%SID%\\Software\\A", RecordKind.REGKEY)
        hits = instantiate(tpl, snap)
        assert sorted(b.sid for _, b in hits) == sorted([SID, SID2])

    def test_fixed_binding_pins_sid(self):
        meta = xp_meta(sids=(SID, SID2))
        snap = snap_of(
            [
                krec(f"HKEY_USERS\\{SID}\\Software\\A", "2010-04-12T14:30:00Z"),
                krec(f"HKEY_USERS\\{SID2}\\Software\\A", "2010-04-12T14:31:00Z"),
            ],
            meta=meta,
        )
        tpl = PathTemplate("HKEY_USERS\\%SID%\\Software\\A", RecordKind.REGKEY)
        hits = instantiate(tpl, snap, fixed=Binding(sid=SID2))
        assert [b.sid for _, b in hits] == [SID2]

    def test_sid_shaped_strangers_do_not_match(self):
        snap = snap_of([krec("HKEY_USERS\\S-1-5-18\\Software\\A", "2010-04-12T14:30:00Z")])
        tpl = PathTemplate("HKEY_USERS\\%SID%\\Software\\A", RecordKind.REGKEY)
        assert instantiate(tpl, snap) == []

    def test_undefined_install_path_matches_nothing(self):
        snap = snap_of([frec("C:\\Program Files\\Office\\word.exe", m="2010-04-12T14:30:37Z")])
        tpl = PathTemplate("%InstallPath.Office%\\word.exe", RecordKind.FILE)
        assert instantiate(tpl, snap) == []

    def test_kind_gates_matches(self):
        snap = snap_of([frec("C:\\WINDOWS\\x", m="2010-04-12T14:30:37Z")])
        tpl = PathTemplate("%SystemRoot%\\x", RecordKind.REGKEY)
        assert instantiate(tpl, snap) == []

    def test_results_sorted_by_folded_path(self):
        snap = snap_of(
            [
                frec("C:\\WINDOWS\\Prefetch\\B-AAAAAA01.pf", m="2010-04-12T14:30:37Z"),
                frec("C:\\WINDOWS\\Prefetch\\A-AAAAAA01.pf", m="2010-04-12T14:30:37Z"),
            ]
        )
        tpl = PathTemplate("%SystemRoot%\\Prefetch\\%s.pf", RecordKind.FILE)
        hits = instantiate(tpl, snap)
        assert [r.path for r, _ in hits] == [
            "C:\\WINDOWS\\Prefetch\\A-AAAAAA01.pf",
            "C:\\WINDOWS\\Prefetch\\B-AAAAAA01.pf",
        ]


class TestRoundTrip:
    CONCRETES = [
        "C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf",
        "C:\\Documents and Settings\\Administrator\\Cookies\\index.dat",
        f"{HKU}\\Software\\Microsoft\\Internet Explorer\\Main",
        f"{HKU}\\Software\\{{A8ECF8E4-795C-4552-B5A4-024AE3036EAB}}\\iexplore",
        "C:\\Documents and Settings\\Administrator\\Tracing\\uccapi-3.uccapilog",
    ]

    @pytest.mark.parametrize("path", CONCRETES)
    def test_generalized_template_matches_its_source(self, path):
        meta = xp_meta()
        tpl = generalize_path(path, meta)
        if tpl.kind is RecordKind.FILE:
            snap = snap_of([frec(path, m="2010-04-12T14:30:37Z")], meta=meta)
        else:
            snap = snap_of([krec(path, "2010-04-12T14:30:00Z")], meta=meta)
        hits = instantiate(tpl, snap)
        assert [r.path for r, _ in hits] == [path]


# --- instantiate against the linear scan it replaced -------------------------


def linear_pattern(tpl, meta, fixed_sid):
    """The regex ``instantiate`` built before it searched by prefix, with an
    unbound %SID% taking any listed SID; None where it cannot expand."""
    parts = []
    sid_seen = False
    for token in tpl.tokens:
        if isinstance(token, str):
            parts.append(re.escape(token))
            continue
        name = token.name
        if name == "SystemRoot":
            parts.append(re.escape(meta.system_root.rstrip("\\")))
        elif name == "HomeDrive":
            parts.append(re.escape(meta.home_drive.rstrip("\\")))
        elif name == "HomePath":
            parts.append(re.escape(meta.home_path.strip("\\")))
        elif name.startswith("InstallPath."):
            prefix = meta.install_paths.get(name[len("InstallPath."):])
            if prefix is None:
                return None
            parts.append(re.escape(prefix.rstrip("\\")))
        elif name == "SID":
            if fixed_sid is not None:
                parts.append(re.escape(fixed_sid))
            elif sid_seen:
                parts.append(r"(?P=sid)")
            elif not meta.sids:
                return None
            else:
                parts.append(f"(?P<sid>{'|'.join(map(re.escape, meta.sids))})")
                sid_seen = True
        elif name == "s":
            parts.append(r"[0-9A-Za-z-]+")
        else:
            parts.append(r"[0-9]+")
    return re.compile("".join(parts), re.IGNORECASE | re.ASCII)


def linear_instantiate(tpl, snap, fixed=None):
    """Every record of the snapshot tried in turn, then sorted by folded path."""
    fixed_sid = fixed.sid if fixed is not None else None
    pattern = linear_pattern(tpl, snap.meta, fixed_sid)
    if pattern is None:
        return []
    out = []
    for rec in snap.records.values():
        if rec.kind is not tpl.kind:
            continue
        match = pattern.fullmatch(rec.path)
        if match is None:
            continue
        sid = fixed_sid if fixed_sid is not None else match.groupdict().get("sid")
        if fixed_sid is None and sid is not None:  # the first listed SID spelled so
            sid = next(s for s in snap.meta.sids if fold_path(s) == fold_path(sid))
        out.append((rec, Binding(sid=sid)))
    out.sort(key=lambda pair: fold_path(pair[0].path))
    return out


# Template pieces, each with concrete spellings a record path may use: mixed
# case, non-ASCII letters, strangers' SIDs and text a variable must refuse.
CONCRETE = {
    "%SystemRoot%": ["C:\\WINDOWS", "c:\\windows", "D:\\WINDOWS"],
    "%HomeDrive%\\%HomePath%": [
        "C:\\Documents and Settings\\Administrator",
        "c:\\DOCUMENTS AND SETTINGS\\administrator",
    ],
    "%InstallPath.App%": ["C:\\Program Files\\App", "c:\\program files\\\u00c4pp"],
    "%InstallPath.Gone%": ["C:\\Gone"],
    "%SID%": [SID, SID.lower(), SID2, ODD_SID, ODD_SID.lower(), "S-1-5-18"],
    "%s": ["1A2B3C", "x-9", "ff00", "Z", "\u00c4"],
    "%i": ["12", "7", "0042", "x"],
    "APP-%s.pf": ["APP-1A2B3C.pf", "app-1a2b3c.PF", "APP-.pf"],
    "log-%i.log": ["log-12.log", "LOG-3.LOG"],
    "C:": ["C:", "c:"],
    "WINDOWS": ["WINDOWS", "windows"],
    "Prefetch": ["Prefetch", "PREFETCH"],
    "\u00c4pp": ["\u00c4pp", "\u00e4PP", "\u00c4PP"],
    "\u00df": ["\u00df", "SS", "\u1e9e"],
    "HKEY_USERS": ["HKEY_USERS", "hkey_users"],
    "Software": ["Software", "SOFTWARE"],
}

METAS = [
    xp_meta(sids=(SID, SID2), install_paths={"App": "C:\\Program Files\\App\\"}),
    xp_meta(
        system_root="c:\\windows\\",
        sids=(SID2, ODD_SID),
        install_paths={"App": "C:\\PROGRAM FILES\\\u00c4pp"},
    ),
]


@hs.composite
def instantiate_cases(draw):
    shape = hs.lists(hs.sampled_from(sorted(CONCRETE)), min_size=1, max_size=4)
    kinds = hs.sampled_from(RecordKind)
    tpl_pieces, tpl_kind = draw(shape), draw(kinds)
    shapes = [(tpl_pieces, tpl_kind)] * draw(hs.integers(0, 8))
    shapes += draw(hs.lists(hs.tuples(shape, kinds), max_size=4))
    records = {}
    for pieces, kind in shapes:
        path = "\\".join(draw(hs.sampled_from(CONCRETE[p])) for p in pieces)
        if kind is RecordKind.FILE:
            rec = frec(path, m="2010-04-12T14:30:37Z")
        else:
            rec = krec(path, "2010-04-12T14:30:00Z")
        records.setdefault(rec.key, rec)
    fixed = draw(hs.sampled_from(
        [None, Binding(), Binding(SID), Binding(SID.lower()), Binding(SID2), Binding(ODD_SID),
         Binding("S-1-5-18")]
    ))
    tpl = PathTemplate("\\".join(tpl_pieces), tpl_kind)
    return tpl, snap_of(records.values(), meta=draw(hs.sampled_from(METAS))), fixed


@settings(max_examples=400, derandomize=True, deadline=None)
@given(instantiate_cases())
def test_instantiate_agrees_with_the_linear_scan(case):
    tpl, snap, fixed = case
    assert instantiate(tpl, snap, fixed=fixed) == linear_instantiate(tpl, snap, fixed=fixed)


# Path segments for every step of ``generalize_path``: SIDs, braced and bare
# GUIDs, hex runs, log counters, literal percent signs and plain words.
PATH_SEGMENTS = hs.one_of(
    hs.text("aBcF09-{}.%:Ssi", max_size=10),
    hs.sampled_from([
        SID, SID2.lower(), ODD_SID.lower(), "{01234567-89AB-cdef-0123-456789abcdef}",
        "0123abcd-ef01-2345-6789-abcdef012345", "app-12.log", "IEXPLORE.EXE-27122324.pf",
        "app-\u0663.log", "app-\uff11\uff12.log", "Program Files", "App", "%s", "%SID%",
    ]),
)
PATH_PREFIXES = [
    "", "C:\\WINDOWS", "c:\\windows\\", "C:\\Documents and Settings\\Administrator\\",
    "C:\\Program Files\\App\\", "C:\\Program Files\\\u00c4pp\\", "HKEY_USERS\\",
]


@hs.composite
def generalize_metas(draw):
    install = hs.sampled_from(
        ["C:\\Program Files\\App\\", "C:\\PROGRAM FILES\\\u00c4pp", "C:\\Program Files"]
    )
    names = hs.sampled_from(["App", "Office", "a\\b"])
    return xp_meta(
        system_root=draw(hs.sampled_from(["C:\\WINDOWS", "c:\\windows\\", "C:\\"])),
        home_path=draw(hs.sampled_from(["\\Documents and Settings\\Administrator", "\\", ""])),
        sids=tuple(draw(hs.lists(hs.sampled_from([SID, SID2, ODD_SID]), unique=True))),
        install_paths=draw(hs.dictionaries(names, install, max_size=2)),
    )


@settings(max_examples=500, derandomize=True, deadline=None)
@given(hs.sampled_from(PATH_PREFIXES), hs.lists(PATH_SEGMENTS, max_size=5), generalize_metas())
def test_generalized_template_finds_its_path(prefix, segments, meta):
    path = prefix + "\\".join(segments)
    try:
        tpl = generalize_path(path, meta)
    except TemplateSyntaxError:
        assert "%" in path or not path
        return
    # A snapshot holding an HKEY_USERS key must list a SID.
    assume(meta.sids or not fold_path(path).startswith("hkey_users\\"))
    if tpl.kind is RecordKind.FILE:
        rec = frec(path, m="2010-04-12T14:30:37Z")
    else:
        rec = krec(path, "2010-04-12T14:30:00Z")
    hits = instantiate(tpl, Snapshot.build(meta, [rec]))
    assert [r for r, _ in hits] == [rec]


# Directories ``generalize_path`` walks once per metadata object, among them
# the empty one, a prefix, one in two spellings and a SID under another SID;
# and the paths whose split into directory and name needs care: no
# backslash, a leading or trailing backslash, a path equal to a prefix.
MEMO_DIRS = [
    "", "C:", "C:\\a", "c:\\A", "C:\\WINDOWS", "c:\\windows\\", ADMIN, "C:\\Program Files\\App",
    f"HKEY_USERS\\{SID2}", f"HKEY_USERS\\{SID}\\{{01234567-89AB-cdef-0123-456789abcdef}}",
]
MEMO_PATHS = hs.one_of(
    hs.builds("{}\\{}".format, hs.sampled_from(MEMO_DIRS), PATH_SEGMENTS),
    hs.sampled_from([
        "x", "\\x", "\\", "", "C:\\a\\", "C:\\WINDOWS", "c:\\Windows", ADMIN,
        "C:\\Program Files\\App", f"HKEY_USERS\\{SID2}\\{SID}", f"HKEY_USERS\\{SID}\\{SID2}",
    ]),
    hs.builds("".join, hs.tuples(
        hs.sampled_from(PATH_PREFIXES), hs.lists(PATH_SEGMENTS, max_size=4).map("\\".join)
    )),
)


def generalized_text(path, meta):
    try:
        return generalize_path(path, meta).text
    except TemplateSyntaxError:
        return None


def walked_text(path, meta):
    """The text of a walk of every segment of ``path``, as a template."""
    if "%" in path:
        return None
    try:
        text, _sid = templates._walk(path, templates._MetaText(meta), last=True)
        return PathTemplate(text, RecordKind.FILE).text
    except TemplateSyntaxError:
        return None


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(hs.lists(MEMO_PATHS, min_size=1, max_size=8), generalize_metas())
def test_directory_memo_gives_the_text_of_a_full_walk(paths, meta):
    """Under one metadata object every directory is walked once; each later
    path in it reads the memo.  Its text is the one a copy of the metadata
    gives, whose fresh ``_MetaText`` has an empty memo, and the one a walk of
    every segment of the path gives."""
    fresh = [generalized_text(path, dataclasses.replace(meta)) for path in paths]
    assert fresh == [walked_text(path, meta) for path in paths]
    assert [generalized_text(path, meta) for path in paths] == fresh  # warming the memo
    assert [generalized_text(path, meta) for path in paths] == fresh  # memo warm


def test_generalized_text_and_tokens():
    meta = xp_meta(install_paths={"App": "C:\\Program Files\\App"})
    guid = "{01234567-89AB-cdef-0123-456789abcdef}"
    tpl = generalize_path(f"{ADMIN}\\{guid}\\Cache\\x-1a2b3c.dat", meta)
    assert tpl.text == "%HomeDrive%\\%HomePath%\\{%s}\\Cache\\x-%s.dat"
    assert [t for t in tpl.tokens if isinstance(t, str)] == ["\\", "\\{", "}\\Cache\\x-", ".dat"]
    tpl = generalize_path("C:\\Program Files\\App\\app-12.log", meta)
    assert tpl.text == "%InstallPath.App%\\app-%i.log"
    for name in ("100%.txt", "a%sb.txt"):
        path = f"{ADMIN}\\My Documents\\{name}"
        with pytest.raises(TemplateSyntaxError, match=re.escape(repr(path))):
            generalize_path(path, meta)


# --- parse_template against the character loop it replaced -------------------

_CLOSED_VARS = ("SystemRoot", "HomeDrive", "HomePath", "SID")
_INLINE_VARS = ("s", "i")


def reference_parse_template(text):
    """The character loop ``parse_template`` was before it became one regex scan."""
    if not text:
        raise TemplateSyntaxError("empty template")
    tokens = []
    literal = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "%":
            literal.append(ch)
            i += 1
            continue
        var = None
        for name in _CLOSED_VARS:
            if text.startswith(f"%{name}%", i):
                var = Var(name)
                i += len(name) + 2
                break
        if var is None and text.startswith("%InstallPath.", i):
            end = text.find("%", i + 1)
            name = text[i + len("%InstallPath."):end] if end != -1 else ""
            if end == -1 or not name or "%" in name:
                raise TemplateSyntaxError(
                    f"malformed install-path variable at position {i} in {text!r}"
                )
            var = Var(f"InstallPath.{name}")
            i = end + 1
        if var is None:
            for name in _INLINE_VARS:
                if text.startswith(f"%{name}", i):
                    var = Var(name)
                    i += 2
                    break
        if var is None:
            raise TemplateSyntaxError(
                f"unknown variable at position {i} in template {text!r}"
            )
        if literal:
            tokens.append("".join(literal))
            literal = []
        elif tokens and isinstance(tokens[-1], Var):
            raise TemplateSyntaxError(
                f"adjacent variables without a separator in template {text!r}"
            )
        tokens.append(var)
    if literal:
        tokens.append("".join(literal))
    return tuple(tokens)


def parse_outcome(parse, text):
    try:
        return parse(text)
    except TemplateSyntaxError as exc:
        return str(exc)


# Pieces of every variable, whole and broken, and the literals between them.
TEMPLATE_FRAGMENTS = hs.sampled_from([
    "%SystemRoot%", "%HomeDrive%", "%HomePath%", "%SID%", "%InstallPath.", "%InstallPath.App%",
    "%InstallPath.a\\b%", "%s", "%i", "%S", "%", "S", "ID%", "InstallPath", ".", "\\",
    "a", "b", "x", "Root%",
])


@settings(max_examples=1500, derandomize=True, deadline=None)
@given(hs.lists(TEMPLATE_FRAGMENTS, max_size=8).map("".join))
def test_parse_template_agrees_with_the_character_loop(text):
    assert parse_outcome(parse_template, text) == parse_outcome(reference_parse_template, text)
