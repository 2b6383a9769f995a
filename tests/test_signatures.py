import json

import pytest

from conftest import ADMIN, frec, snap_of, xp_meta
from tracesig import (
    CategoryLabel,
    CoreTrace,
    PathTemplate,
    RecordKind,
    RunObservation,
    Signature,
    SignatureFormatError,
    SupportingTrace,
    TraceCategory,
    bundled_signature,
    bundled_signature_names,
    build_update_matrix,
    derive_signature,
    load_signature,
    save_signature,
)
from tracesig.capture import TraceNameSet
from tracesig.data import signature_text

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
        runs.append(RunObservation(0, 0, True, None, b0, a0))
        runs.append(RunObservation(1, 1, True, None, b1, a1))
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
        return [RunObservation(0, 0, True, None, before, after)]

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
        sig = derive_signature("app.open", action, background, obs[0].before)
        assert [t.template.text for t in sig.core] == ["%SystemRoot%\\Prefetch\\APP.EXE-%s.pf"]
        assert sig.core[0].field == "modified"
        assert sig.weak
        [support] = sig.supporting
        assert support.template.text == "%SystemRoot%\\system32\\wbem.log"
        assert support.category.label is CategoryLabel.AU5
        assert support.category.confounded

    def test_never_updated_traces_vanish(self):
        obs, action, background = self.matrices()
        sig = derive_signature("app.open", action, background, obs[0].before)
        texts = [t.template.text for t in sig.core + sig.supporting]
        assert not any("stale" in t for t in texts)

    def test_without_background_log_joins_core(self):
        obs, action, _ = self.matrices()
        sig = derive_signature("app.open", action, None, obs[0].before)
        assert len(sig.core) == 2
        assert not sig.weak

    def test_weak_derivation_warns(self, caplog):
        obs, action, background = self.matrices()
        with caplog.at_level("WARNING", logger="tracesig"):
            derive_signature("app.open", action, background, obs[0].before)
        assert any("corroborat" in r.message for r in caplog.records)

    def test_round_trips_through_text(self):
        obs, action, background = self.matrices()
        sig = derive_signature("app.open", action, background, obs[0].before, platform="xp")
        text = save_signature(sig)
        assert save_signature(load_signature(text)) == text
        assert load_signature(text).platform == "xp"
