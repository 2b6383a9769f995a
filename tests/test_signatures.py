import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from conftest import ADMIN, frec, snap_of, xp_meta
from tracesig.capture import TraceNameSet
from tracesig.categorize import (
    CategoryLabel,
    RunObservation,
    TraceCategory,
    build_update_matrix,
    categorize_matrix,
)
from tracesig.data import signature_text
from tracesig.evidence import RecordKind, fold_path
from tracesig.signatures import (
    CoreTrace,
    Signature,
    SignatureFormatError,
    SupportingTrace,
    bundled_signature,
    bundled_signature_names,
    derive_signature,
    load_signature,
    save_signature,
    _document,
)
from tracesig.templates import PathTemplate, TemplateSyntaxError, instantiate, parse_template

MINIMAL = {
    "schema": 1,
    "action": "app.open",
    "platform": "windows-xp-sp3",
    "window_s": 60,
    "core": [
        {"kind": "file", "template": "%SystemRoot%\\Prefetch\\APP.EXE-%s.pf", "field": "modified"}
    ],
    "supporting": [],
}


def sig_json(**overrides):
    data = {**MINIMAL, **overrides}
    return json.dumps(data)


class TestSignatureModel:
    def test_weak_means_at_most_one_core_trace(self):
        tpl = PathTemplate("C:\\a", RecordKind.FILE)
        tp2 = PathTemplate("C:\\b", RecordKind.FILE)
        one = Signature("x", "p", (CoreTrace(tpl, "modified"),))
        two = Signature("x", "p", (CoreTrace(tpl, "modified"), CoreTrace(tp2, "modified")))
        assert one.weak and not two.weak
        assert Signature("x", "p", ()).weak

    def test_duplicate_core_templates_rejected(self):
        dup = CoreTrace(PathTemplate("C:\\A", RecordKind.FILE), "modified")
        dup2 = CoreTrace(PathTemplate("c:\\a", RecordKind.FILE), "accessed")
        with pytest.raises(ValueError, match="duplicate"):
            Signature("x", "p", (dup, dup2))

    def test_window_floor(self):
        tpl = PathTemplate("C:\\a", RecordKind.FILE)
        with pytest.raises(ValueError, match="window"):
            Signature("x", "p", (CoreTrace(tpl, "modified"),), window_s=0)

    def test_template_in_core_and_supporting_rejected(self):
        core = CoreTrace(PathTemplate("C:\\app\\cache-%s.dat", RecordKind.FILE), "modified")
        support = SupportingTrace(
            PathTemplate("C:\\APP\\cache-%s.dat", RecordKind.FILE),
            "modified",
            TraceCategory(CategoryLabel.AU1, confounded=True),
        )
        with pytest.raises(ValueError, match="both core and supporting"):
            Signature("x", "p", (core,), (support,))
        other_kind = PathTemplate("C:\\app\\cache-%s.dat", RecordKind.REGKEY)
        Signature("x", "p", (core,), (SupportingTrace(other_kind, "modified", support.category),))

    def test_supporting_never_category_rejected(self):
        tpl = PathTemplate("C:\\a", RecordKind.FILE)
        with pytest.raises(ValueError):
            SupportingTrace(tpl, "modified", TraceCategory(CategoryLabel.NEVER))


class TestLoadSignature:
    def test_minimal_loads(self):
        sig = load_signature(sig_json())
        assert sig.action == "app.open"
        assert sig.core[0].template.text == "%SystemRoot%\\Prefetch\\APP.EXE-%s.pf"
        assert sig.weak

    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            ({"schema": 2}, "schema"),
            ({"extra_key": 1}, "extra_key"),
            ({"action": ""}, "action"),
            ({"window_s": "60"}, "window_s"),
            ({"window_s": True}, "window_s"),
            ({"core": {"kind": "file"}}, "core"),
            ({"schema": True}, "^schema must be an integer"),
            ({"platform": 5}, "^platform must be a string"),
            ({"core": [5]}, r"^core\[0\] must be a JSON object"),
            (
                {"core": [{"kind": "regkey", "template": "HKEY_LOCAL_MACHINE\\X", "field": "accessed"}]},
                r"^core\[0\]: a regkey has no accessed time, only modified$",
            ),
        ],
    )
    def test_top_level_validation(self, mutate, fragment):
        with pytest.raises(SignatureFormatError, match=fragment):
            load_signature(sig_json(**mutate))

    def test_not_json(self):
        with pytest.raises(SignatureFormatError, match="JSON"):
            load_signature("kind,template\n")

    def test_bad_template_is_named(self):
        bad = sig_json(core=[{"kind": "file", "template": "%Nope%\\x", "field": "modified"}])
        with pytest.raises(SignatureFormatError, match="%Nope%"):
            load_signature(bad)

    def test_unknown_kind(self):
        bad = sig_json(core=[{"kind": "mailbox", "template": "C:\\x", "field": "modified"}])
        with pytest.raises(SignatureFormatError, match="mailbox"):
            load_signature(bad)

    def test_kind_of_wrong_json_type(self):
        bad = sig_json(core=[{"kind": [], "template": "C:\\x", "field": "modified"}])
        with pytest.raises(SignatureFormatError, match=r"core\[0\]: unknown kind \[\]"):
            load_signature(bad)

    def test_template_of_wrong_json_type(self):
        bad = sig_json(core=[{"kind": "file", "template": 5, "field": "modified"}])
        with pytest.raises(SignatureFormatError, match=r"core\[0\]: template must be a string"):
            load_signature(bad)

    def test_unknown_entry_key_carries_position(self):
        bad = sig_json(
            core=[
                {"kind": "file", "template": "C:\\x", "field": "modified"},
                {"kind": "file", "template": "C:\\y", "field": "modified", "color": 1},
            ]
        )
        with pytest.raises(SignatureFormatError, match=r"core\[1\]"):
            load_signature(bad)

    def test_supporting_needs_known_category(self):
        bad = sig_json(
            supporting=[{"kind": "file", "template": "C:\\x", "field": "accessed", "category": "XX"}]
        )
        with pytest.raises(SignatureFormatError, match="XX"):
            load_signature(bad)

    def test_category_of_wrong_json_type(self):
        bad = sig_json(
            supporting=[{"kind": "file", "template": "C:\\x", "field": "accessed", "category": []}]
        )
        with pytest.raises(SignatureFormatError, match=r"supporting\[0\]: unknown category \[\]"):
            load_signature(bad)

    def test_confounded_must_be_boolean(self):
        bad = sig_json(
            supporting=[
                {"kind": "file", "template": "C:\\x", "field": "accessed",
                 "category": "IU", "confounded": 1}
            ]
        )
        with pytest.raises(SignatureFormatError, match="confounded"):
            load_signature(bad)

    def test_template_in_core_and_supporting(self):
        entry = {"kind": "file", "template": "C:\\app\\cache-%s.dat", "field": "modified"}
        bad = sig_json(core=[entry], supporting=[{**entry, "category": "AU1", "confounded": True}])
        with pytest.raises(SignatureFormatError, match="both core and supporting"):
            load_signature(bad)

    def test_unknown_field_name(self):
        bad = sig_json(core=[{"kind": "file", "template": "C:\\x", "field": "changed"}])
        with pytest.raises(SignatureFormatError, match="changed"):
            load_signature(bad)


class TestCanonicalBytes:
    @pytest.mark.parametrize("name", ["ie8_open", "msn2009_open", "ff36_open"])
    def test_bundled_files_are_canonical(self, name):
        text = signature_text(name)
        assert save_signature(load_signature(text)) == text

    def test_bundled_names_listed(self):
        assert bundled_signature_names() == ["ff36_open", "ie8_open", "msn2009_open"]

    def test_unknown_bundled_name(self):
        with pytest.raises(KeyError, match="nonesuch"):
            bundled_signature("nonesuch")

    def test_entry_order_is_normalized(self):
        a = {"kind": "file", "template": "C:\\a", "field": "modified"}
        b = {"kind": "file", "template": "C:\\b", "field": "modified"}
        assert save_signature(load_signature(sig_json(core=[a, b]))) == save_signature(
            load_signature(sig_json(core=[b, a]))
        )


# Pieces that a text-level rewrite of the JSON layout could trip over: quotes,
# escapes, separators, the joints between entries and the list ends, non-ASCII
# and control characters.
_SIG_TEXT = hs.lists(
    hs.sampled_from(['"', "\\", "}]", "},", "{", "[{", ", ", '": "', "},\n      {", "é", "\u2603",
                     "\U0001f600", "\x00", "\n", "\x1f", "\x7f", "%SID%", "%s"])
    | hs.text(hs.characters(exclude_characters="%"), min_size=1, max_size=4),
    min_size=1,
    max_size=6,
).map("".join)


def _parses(text: str) -> bool:
    try:
        parse_template(text)
    except TemplateSyntaxError:  # e.g. two variables with no separator
        return False
    return True


@hs.composite
def any_signature(draw):
    entries = draw(hs.lists(
        hs.tuples(
            hs.sampled_from(list(RecordKind)),
            _SIG_TEXT.filter(_parses),
            hs.sampled_from(["modified", "accessed", "created"]),
            hs.sampled_from([label for label in CategoryLabel if label is not CategoryLabel.NEVER]),
            hs.booleans(),
        ),
        max_size=12,
        unique_by=lambda e: (e[0], fold_path(e[1])),
    ))
    split = draw(hs.integers(0, len(entries)))
    core, supporting = [], []
    for kind, text, field, label, confounded in entries:
        field = field if kind is RecordKind.FILE else "modified"
        template = PathTemplate(text, kind)
        if len(core) < split:
            core.append(CoreTrace(template, field))
        else:
            supporting.append(SupportingTrace(template, field, TraceCategory(label, confounded)))
    return Signature(
        draw(_SIG_TEXT), draw(hs.text()), tuple(core), tuple(supporting), draw(hs.integers(1, 10**6))
    )


@settings(max_examples=400, derandomize=True, deadline=None)
@given(sig=any_signature())
def test_save_signature_writes_the_indented_json_dump(sig):
    """The C-encoded layout gives the bytes of the pure-Python indented dump."""
    assert save_signature(sig) == json.dumps(_document(sig), indent=2) + "\n"


class TestDeriveSignature:
    @staticmethod
    def observations():
        """Two runs over a tiny world: one stable core trace, one first-run
        key, one background-confounded log, two prefetch files sharing a
        template, and one stale bystander."""
        meta = xp_meta()
        base = {
            "C:\\WINDOWS\\Prefetch\\APP.EXE-11112222.pf": "2010-04-01T08:00:00Z",
            "C:\\WINDOWS\\Prefetch\\APP.EXE-33334444.pf": "2010-04-01T08:00:00Z",
            "C:\\WINDOWS\\system32\\wbem.log": "2010-04-01T08:00:00Z",
            "C:\\stale.txt": "2010-04-01T08:00:00Z",
        }

        def snap(times):
            recs = [frec(p, m=iso) for p, iso in times.items()]
            return snap_of(recs, meta=meta)

        def at(run_iso, **upd):
            times = dict(base)
            times.update(upd)
            return snap(times)

        runs = []
        t0, t1 = "2010-04-01T10:00:00Z", "2010-04-01T14:00:00Z"
        b0 = at(t0)
        a0 = at(
            t0,
            **{
                "C:\\WINDOWS\\Prefetch\\APP.EXE-11112222.pf": t0,
                "C:\\WINDOWS\\Prefetch\\APP.EXE-33334444.pf": t0,
                "C:\\WINDOWS\\system32\\wbem.log": t0,
            },
        )
        b1 = a0
        a1 = at(
            t0,
            **{
                "C:\\WINDOWS\\Prefetch\\APP.EXE-11112222.pf": t1,
                "C:\\WINDOWS\\Prefetch\\APP.EXE-33334444.pf": t1,
                "C:\\WINDOWS\\system32\\wbem.log": t1,
            },
        )
        runs.append(RunObservation(0, 0, None, b0, a0))
        runs.append(RunObservation(1, 1, None, b1, a1))
        return runs

    @staticmethod
    def background_observations():
        meta = xp_meta()
        before = snap_of(
            [frec("C:\\WINDOWS\\system32\\wbem.log", m="2010-04-02T09:00:00Z")], meta=meta
        )
        after = snap_of(
            [frec("C:\\WINDOWS\\system32\\wbem.log", m="2010-04-02T09:05:00Z")], meta=meta
        )
        return [RunObservation(0, 0, None, before, after)]

    def matrices(self):
        obs = self.observations()
        names = TraceNameSet.of(
            [
                "C:\\WINDOWS\\Prefetch\\APP.EXE-11112222.pf",
                "C:\\WINDOWS\\Prefetch\\APP.EXE-33334444.pf",
                "C:\\WINDOWS\\system32\\wbem.log",
                "C:\\stale.txt",
            ]
        )
        action = build_update_matrix(obs, names)
        background = build_update_matrix(
            self.background_observations(), TraceNameSet.of(["C:\\WINDOWS\\system32\\wbem.log"])
        )
        return obs, action, background

    def test_core_collapses_to_one_template_and_confounds_move_out(self):
        obs, action, background = self.matrices()
        sig = derive_signature("app.open", action, background, obs[0].before.meta)
        assert [t.template.text for t in sig.core] == ["%SystemRoot%\\Prefetch\\APP.EXE-%s.pf"]
        assert sig.core[0].field == "modified"
        assert sig.weak
        [support] = sig.supporting
        assert support.template.text == "%SystemRoot%\\system32\\wbem.log"
        assert support.category.label is CategoryLabel.AU5
        assert support.category.confounded

    def test_never_updated_traces_vanish(self):
        obs, action, background = self.matrices()
        sig = derive_signature("app.open", action, background, obs[0].before.meta)
        texts = [t.template.text for t in sig.core + sig.supporting]
        assert not any("stale" in t for t in texts)

    def test_without_background_log_joins_core(self):
        obs, action, _ = self.matrices()
        sig = derive_signature("app.open", action, None, obs[0].before.meta)
        assert len(sig.core) == 2
        assert not sig.weak

    def test_weak_derivation_warns(self, caplog):
        obs, action, background = self.matrices()
        with caplog.at_level("WARNING", logger="tracesig"):
            derive_signature("app.open", action, background, obs[0].before.meta)
        assert any("corroborat" in r.message for r in caplog.records)

    def test_round_trips_through_text(self):
        obs, action, background = self.matrices()
        sig = derive_signature("app.open", action, background, obs[0].before.meta, platform="xp")
        text = save_signature(sig)
        assert save_signature(load_signature(text)) == text
        assert load_signature(text).platform == "xp"


    def test_shortcut_launches_are_read_from_accessed(self):
        # sessions 0,0,1,1 launched through the shortcut on runs 1 and 3; its
        # modified time moves on run 0 alone, so that field is Irregular
        lnk = f"{ADMIN}\\Desktop\\App.lnk"
        meta = xp_meta()
        times = {"m": "2010-04-01T08:00:00Z", "a": "2010-04-01T08:00:00Z"}
        obs = []
        for run, (session, launch) in enumerate([(0, None), (0, lnk), (1, None), (1, lnk)]):
            before = snap_of([frec(lnk, m=times["m"], a=times["a"])], meta=meta)
            now = f"2010-04-01T1{run}:00:00Z"
            if run == 0:
                times["m"] = now
            if launch:
                times["a"] = now
            after = snap_of([frec(lnk, m=times["m"], a=times["a"])], meta=meta)
            obs.append(RunObservation(run, session, launch, before, after))
        matrix = build_update_matrix(obs, TraceNameSet.of([lnk]))
        sig = derive_signature("app.open", matrix, None, obs[0].before.meta)
        [entry] = sig.supporting
        assert entry.template.text == "%HomeDrive%\\%HomePath%\\Desktop\\App.lnk"
        assert entry.category.label is CategoryLabel.UB
        assert entry.field == "accessed"


class TestTemplateCollision:
    """Two always-updated files share a generalized name; background touches one."""

    CLEAN = "C:\\app\\cache-a1b2c3d4.dat"
    NOISY = "C:\\app\\cache-ffee0099.dat"
    TIMES = ["2010-04-01T08:00:00Z", "2010-04-01T10:00:00Z", "2010-04-02T10:00:00Z"]

    def derive(self, updates, background=True):
        """``updates`` maps each path to the fields ("m", "a") every run changes."""

        def snap(run):
            def at(path, field):
                return self.TIMES[run] if field in updates[path] else self.TIMES[0]

            return snap_of([frec(p, m=at(p, "m"), a=at(p, "a")) for p in updates])

        obs = [RunObservation(i, i, None, snap(i), snap(i + 1)) for i in range(2)]
        action = build_update_matrix(obs, TraceNameSet.of(list(updates)))
        bg = None
        if background:
            bg_obs = [
                RunObservation(
                    0, 0, None,
                    snap_of([frec(self.NOISY, m="2010-04-03T09:00:00Z")]),
                    snap_of([frec(self.NOISY, m="2010-04-03T09:05:00Z")]),
                )
            ]
            bg = build_update_matrix(bg_obs, TraceNameSet.of([self.NOISY]))
        return derive_signature("app.open", action, bg, obs[0].before.meta)

    def test_confounded_sibling_keeps_the_clean_trace_literal(self):
        sig = self.derive({self.CLEAN: "ma", self.NOISY: "ma"})
        assert [(t.template.text, t.field) for t in sig.core] == [(self.CLEAN, "modified")]
        [support] = sig.supporting
        assert support.template.text == "C:\\app\\cache-%s.dat"
        assert support.category == TraceCategory(CategoryLabel.AU1, confounded=True)
        assert load_signature(save_signature(sig)) == sig

    def test_clean_siblings_share_one_template(self):
        sig = self.derive({self.CLEAN: "ma", self.NOISY: "m"}, background=False)
        assert [(t.template.text, t.field) for t in sig.core] == [("C:\\app\\cache-%s.dat", "modified")]
        assert sig.supporting == ()

    def test_siblings_with_different_core_fields_stay_literal(self):
        sig = self.derive({self.CLEAN: "ma", self.NOISY: "a"}, background=False)
        assert sorted((t.template.text, t.field) for t in sig.core) == [
            (self.CLEAN, "modified"),
            (self.NOISY, "accessed"),
        ]

    def test_a_never_updated_sibling_keeps_the_template_out_of_the_core(self):
        sig = self.derive({self.CLEAN: "ma", self.NOISY: ""}, background=False)
        assert [t.template.text for t in sig.core] == [self.CLEAN]
        assert sig.supporting == ()


# Sibling names that generalize onto shared templates, and what the runs do to
# each: update modified and/or accessed on every run, update modified only
# from the second run on (irregular), or never update.
SIBLINGS = [
    f"C:\\app\\{stem}-{token}.{ext}"
    for stem in ("cache", "index")
    for token in ("a1b2c3d4", "ffee0099", "0badf00d")
    for ext in ("dat", "bin")
]
BEHAVIOURS = ("ma", "m", "a", "", "late")
RUN_TIMES = ["2010-04-01T08:00:00Z", "2010-04-01T10:00:00Z", "2010-04-01T12:00:00Z", "2010-04-02T10:00:00Z"]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(
    world=hs.dictionaries(
        hs.sampled_from(SIBLINGS),
        hs.tuples(hs.sampled_from(BEHAVIOURS), hs.booleans()),
        min_size=1,
        max_size=8,
    )
)
def test_core_templates_resolve_only_to_clean_always_traces(world):
    """On every observed snapshot, a derived core template resolves only to
    traces classified as always updated and unconfounded."""

    def snap(run):
        def at(path, field):
            behaviour = world[path][0]
            fires = field in behaviour or (behaviour == "late" and field == "m" and run >= 2)
            return RUN_TIMES[run] if fires and run else RUN_TIMES[0]

        return snap_of([frec(p, m=at(p, "m"), a=at(p, "a")) for p in world])

    snaps = [snap(run) for run in range(4)]
    obs = [RunObservation(i, i, None, snaps[i], snaps[i + 1]) for i in range(3)]
    names = TraceNameSet.of(list(world))
    action = build_update_matrix(obs, names)
    noisy = [p for p, (_, confounded) in world.items() if confounded]
    bg_before = snap_of([frec(p, m="2010-04-03T09:00:00Z") for p in noisy])
    bg_after = snap_of([frec(p, m="2010-04-03T09:05:00Z") for p in noisy])
    background = build_update_matrix([RunObservation(0, 0, None, bg_before, bg_after)], names)

    sig = derive_signature("app.open", action, background, snaps[0].meta)
    analyses = categorize_matrix(action, background)
    clean = {
        trace
        for trace, analysis in analyses.items()
        if analysis.category.is_always and not analysis.category.confounded
    }
    for core in sig.core:
        for observed in snaps:
            for record, _ in instantiate(core.template, observed):
                assert fold_path(record.path) in clean, (core.template.text, record.path)
