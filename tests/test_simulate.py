import hashlib
import json
from pathlib import Path

import pytest

from conftest import pt, t, xp_meta
from tracesig import (
    Always,
    Background,
    CategoryLabel,
    FirstRunOfSession,
    Probability,
    RecordKind,
    Scenario,
    ScenarioError,
    ScriptStep,
    UpdateRule,
    UsageBased,
    draw_latency,
    draw_uniform,
    load_scenario,
    planted_categories,
    run_scenario,
    write_scenario_outputs,
)
from tracesig.data import fixture_text
from tracesig.simulate import _draw, _fnv1a64, _mix64


class TestDeterministicDraws:
    def test_mix64_matches_published_vectors(self):
        # splitmix64 outputs for starting states 0 and 1
        assert _mix64(0) == 0xE220A8397B1DCDAF
        assert _mix64(1) == 0x910A2DEC89025CC1
        assert _mix64(0xFFFFFFFFFFFFFFFF) == 0xE4D971771B652C20

    def test_fnv1a64_matches_published_vectors(self):
        assert _fnv1a64(b"") == 0xCBF29CE484222325
        assert _fnv1a64(b"a") == 0xAF63DC4C8601EC8C
        assert _fnv1a64(b"foobar") == 0x85944171F73967E8

    def test_draw_chain_is_frozen(self):
        assert _draw(7, "C:\\x", 0, 0) == 0xC06EAE774969E000

    def test_latency_range_and_values(self):
        assert draw_latency(7, "C:\\x", 0) == 38
        assert draw_latency(7, "C:\\x", 1) == 26
        seen = [draw_latency(42, "C:\\t.log", r) for r in range(8)]
        assert seen == [14, 42, 25, 27, 41, 2, 33, 5]
        assert all(0 <= v <= 45 for v in seen)

    def test_trace_name_is_case_folded(self):
        assert draw_latency(7, "C:\\x", 0) == draw_latency(7, "c:\\X", 0)

    def test_uniform_in_unit_interval(self):
        values = [draw_uniform(7, "C:\\x", r) for r in range(50)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert len(set(values)) > 40  # far from degenerate

    def test_purposes_are_independent_streams(self):
        assert _draw(7, "C:\\x", 0, 0) != _draw(7, "C:\\x", 0, 1)


class TestRuleValidation:
    def test_registry_rule_must_target_modified(self):
        with pytest.raises(ScenarioError, match="modified"):
            UpdateRule("HKEY_USERS\\K", RecordKind.REGKEY, "accessed", Always())

    def test_latency_ceiling(self):
        with pytest.raises(ScenarioError, match="latency"):
            UpdateRule("C:\\x", RecordKind.FILE, "modified", Always(), latency_s=46)

    def test_unknown_field(self):
        with pytest.raises(ScenarioError, match="field"):
            UpdateRule("C:\\x", RecordKind.FILE, "changed", Always())

    def test_probability_bounds(self):
        with pytest.raises(ScenarioError):
            Probability(0.0)
        with pytest.raises(ScenarioError):
            Probability(1.0)
        assert Probability(0.5).p == 0.5


def tiny_scenario(**script_overrides):
    meta = xp_meta(capture="2010-05-01T23:00:00Z")
    model = {
        "app.open": (
            UpdateRule("C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf", RecordKind.FILE, "modified", Always()),
            UpdateRule("C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf", RecordKind.FILE, "accessed", Always()),
            UpdateRule("HKEY_USERS\\S-1-5-21-1417001333-573735546-682003330-500\\Software\\App\\FirstFlag",
                       RecordKind.REGKEY, "modified", FirstRunOfSession()),
        ),
    }
    script = script_overrides.pop(
        "script",
        (
            ScriptStep(t("2010-05-01T09:00:00Z"), "app.open", 0),
            ScriptStep(t("2010-05-01T10:00:00Z"), "app.open", 0),
            ScriptStep(t("2010-05-01T14:00:00Z"), "app.open", 1),
        ),
    )
    return Scenario(seed=99, meta=meta, model=script_overrides.pop("model", model), script=script)


class TestScenarioValidation:
    def test_round_numbers_accepted(self):
        tiny_scenario()  # must not raise

    def test_empty_script(self):
        with pytest.raises(ScenarioError, match="script"):
            tiny_scenario(script=())

    def test_times_strictly_increasing(self):
        step = ScriptStep(t("2010-05-01T09:00:00Z"), "app.open", 0)
        with pytest.raises(ScenarioError, match="increasing"):
            tiny_scenario(script=(step, step))

    def test_undefined_action(self):
        with pytest.raises(ScenarioError, match="ghost"):
            tiny_scenario(script=(ScriptStep(t("2010-05-01T09:00:00Z"), "ghost", 0),))

    def test_capture_must_follow_last_step(self):
        late = ScriptStep(t("2010-05-01T22:59:30Z"), "app.open", 0)
        with pytest.raises(ScenarioError, match="capture"):
            tiny_scenario(script=(late,))

    def test_bad_action_name(self):
        model = {"no spaces": (UpdateRule("C:\\x", RecordKind.FILE, "modified", Always()),)}
        with pytest.raises(ScenarioError, match="no spaces"):
            tiny_scenario(model=model, script=(ScriptStep(t("2010-05-01T09:00:00Z"), "no spaces", 0),))

    def test_duplicate_rule(self):
        model = {
            "app.open": (
                UpdateRule("C:\\x", RecordKind.FILE, "modified", Always()),
                UpdateRule("c:\\X", RecordKind.FILE, "modified", Always()),
            )
        }
        with pytest.raises(ScenarioError, match="duplicate"):
            tiny_scenario(model=model)

    def test_conflicting_kinds(self):
        model = {
            "app.open": (
                UpdateRule("C:\\x", RecordKind.FILE, "accessed", Always()),
                UpdateRule("C:\\x", RecordKind.REGKEY, "modified", FirstRunOfSession()),
            )
        }
        with pytest.raises(ScenarioError, match="kind"):
            tiny_scenario(model=model)


class TestRunScenario:
    def test_observation_structure_and_firsts(self):
        result = run_scenario(tiny_scenario())
        obs = result.observations["app.open"]
        assert [o.run_index for o in obs] == [0, 1, 2]
        assert [o.first_of_session for o in obs] == [True, False, True]

    def test_baseline_preseeds_every_trace(self):
        sc = tiny_scenario()
        result = run_scenario(sc)
        first_before = result.observations["app.open"][0].before
        baseline = t("2010-05-01T09:00:00Z") - 86400
        pf = first_before.get(RecordKind.FILE, "C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf")
        assert pf.modified.epoch_s == baseline
        assert pf.accessed.epoch_s == baseline
        assert pf.created.epoch_s == baseline

    def test_fixed_latency_is_honored(self):
        model = {
            "app.open": (
                UpdateRule("C:\\x", RecordKind.FILE, "modified", Always(), latency_s=7),
            )
        }
        script = (ScriptStep(t("2010-05-01T09:00:00Z"), "app.open", 0),)
        result = run_scenario(tiny_scenario(model=model, script=script))
        rec = result.final.get(RecordKind.FILE, "C:\\x")
        assert rec.modified == pt("2010-05-01T09:00:07Z")

    def test_drawn_latency_stays_in_range(self):
        result = run_scenario(tiny_scenario())
        step_times = [t("2010-05-01T09:00:00Z"), t("2010-05-01T10:00:00Z"), t("2010-05-01T14:00:00Z")]
        for o, step_time in zip(result.observations["app.open"], step_times):
            rec = o.after.get(RecordKind.FILE, "C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf")
            assert 0 <= rec.modified.epoch_s - step_time <= 45

    def test_first_run_flag_key_updates_only_on_session_firsts(self):
        result = run_scenario(tiny_scenario())
        key = "HKEY_USERS\\S-1-5-21-1417001333-573735546-682003330-500\\Software\\App\\FirstFlag"
        times = []
        for o in result.observations["app.open"]:
            before = o.before.get(RecordKind.REGKEY, key).modified
            after = o.after.get(RecordKind.REGKEY, key).modified
            times.append(before != after)
        assert times == [True, False, True]

    def test_identical_scenarios_identical_results(self):
        assert run_scenario(tiny_scenario()) == run_scenario(tiny_scenario())


class TestPlantedTruth:
    def test_labels_for_mode_combinations(self):
        S = "S-1-5-21-1417001333-573735546-682003330-500"
        model = {
            "a.one": (
                UpdateRule("C:\\au1", RecordKind.FILE, "modified", Always()),
                UpdateRule("C:\\au1", RecordKind.FILE, "accessed", Always()),
                UpdateRule("C:\\au2", RecordKind.FILE, "modified", Always()),
                UpdateRule("C:\\au2", RecordKind.FILE, "accessed", Always()),
                UpdateRule("C:\\au2", RecordKind.FILE, "created", Probability(0.5)),
                UpdateRule("C:\\au3", RecordKind.FILE, "accessed", Always()),
                UpdateRule("C:\\au5", RecordKind.FILE, "modified", Always()),
                UpdateRule(f"HKEY_USERS\\{S}\\au4", RecordKind.REGKEY, "modified", Always()),
                UpdateRule(f"HKEY_USERS\\{S}\\fro", RecordKind.REGKEY, "modified", FirstRunOfSession()),
                UpdateRule("C:\\app.lnk", RecordKind.FILE, "accessed", UsageBased("C:\\app.lnk")),
                UpdateRule("C:\\cookie", RecordKind.FILE, "accessed", Probability(0.5)),
                UpdateRule("C:\\ambient.log", RecordKind.FILE, "modified", Background()),
            ),
        }
        sc = tiny_scenario(model=model, script=(ScriptStep(t("2010-05-01T09:00:00Z"), "a.one", 0),))
        planted = planted_categories(sc)["a.one"]
        labels = {trace: cat.label for trace, cat in planted.items()}
        assert labels == {
            "C:\\au1": CategoryLabel.AU1,
            "C:\\au2": CategoryLabel.AU2,
            "C:\\au3": CategoryLabel.AU3,
            "C:\\au5": CategoryLabel.AU5,
            f"HKEY_USERS\\{S}\\au4": CategoryLabel.AU4,
            f"HKEY_USERS\\{S}\\fro": CategoryLabel.FRO,
            "C:\\app.lnk": CategoryLabel.UB,
            "C:\\cookie": CategoryLabel.IU,
            "C:\\ambient.log": CategoryLabel.AU5,
        }
        assert planted["C:\\ambient.log"].confounded
        assert not planted["C:\\au1"].confounded

    def test_shared_trace_confounds_both_actions(self):
        rule = lambda: UpdateRule("C:\\shared", RecordKind.FILE, "modified", Always())
        model = {"a.one": (rule(),), "a.two": (rule(),)}
        script = (
            ScriptStep(t("2010-05-01T09:00:00Z"), "a.one", 0),
            ScriptStep(t("2010-05-01T10:00:00Z"), "a.two", 0),
        )
        planted = planted_categories(tiny_scenario(model=model, script=script))
        assert planted["a.one"]["C:\\shared"].confounded
        assert planted["a.two"]["C:\\shared"].confounded


class TestScenarioJson:
    def test_demo_scenario_loads(self):
        sc = load_scenario(fixture_text("demo_scenario.json"))
        assert sc.seed == 20100501
        assert set(sc.model) == {"app.open", "web.browse"}
        assert len(sc.script) == 10

    def base(self):
        return json.loads(fixture_text("demo_scenario.json"))

    def test_unknown_top_level_key(self):
        data = self.base()
        data["comment"] = "hi"
        with pytest.raises(ScenarioError, match="comment"):
            load_scenario(json.dumps(data))

    def test_unknown_mode(self):
        data = self.base()
        data["model"]["app.open"][0]["mode"] = "sometimes"
        with pytest.raises(ScenarioError, match="sometimes"):
            load_scenario(json.dumps(data))

    def test_kind_of_wrong_json_type(self):
        data = self.base()
        data["model"]["app.open"][0]["kind"] = []
        with pytest.raises(ScenarioError, match=r"unknown kind \[\]"):
            load_scenario(json.dumps(data))

    def test_bad_probability_encoding(self):
        data = self.base()
        data["model"]["app.open"][0]["mode"] = {"probability": "0.5"}
        with pytest.raises(ScenarioError):
            load_scenario(json.dumps(data))

    def test_bad_time(self):
        data = self.base()
        data["script"][0]["time"] = "yesterday"
        with pytest.raises(ScenarioError, match="time"):
            load_scenario(json.dumps(data))

    def test_unknown_step_key(self):
        data = self.base()
        data["script"][0]["mood"] = "calm"
        with pytest.raises(ScenarioError, match="mood"):
            load_scenario(json.dumps(data))

    def test_iso_and_epoch_times_agree(self):
        data = self.base()
        iso_sc = load_scenario(json.dumps(data))
        data["script"][0]["time"] = iso_sc.script[0].time
        assert load_scenario(json.dumps(data)).script[0].time == iso_sc.script[0].time


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()):
        h.update(rel.encode())
        h.update(b"\0")
        h.update((root / rel).read_bytes())
        h.update(b"\0")
    return h.hexdigest()


class TestOutputTree:
    def test_demo_outputs_are_byte_stable(self, tmp_path):
        sc = load_scenario(fixture_text("demo_scenario.json"))
        write_scenario_outputs(run_scenario(sc), tmp_path / "one")
        write_scenario_outputs(run_scenario(sc), tmp_path / "two")
        assert tree_digest(tmp_path / "one") == tree_digest(tmp_path / "two")
        # frozen at the first verified run; any change to the simulator,
        # snapshot serialization or output layout must be deliberate
        assert (
            tree_digest(tmp_path / "one")
            == "02eff7206f641868414c7ff8d5fb737c4161efa26dd79f37d705b10341b0bd7c"
        )

    def test_tree_layout(self, tmp_path):
        sc = load_scenario(fixture_text("demo_scenario.json"))
        write_scenario_outputs(run_scenario(sc), tmp_path)
        assert (tmp_path / "final.csv").exists()
        assert len(list((tmp_path / "steps").glob("step*.csv"))) == 10
        assert (tmp_path / "obs" / "app.open" / "sessions.csv").exists()
        planted = json.loads((tmp_path / "planted.json").read_text())
        assert set(planted) == {"app.open", "web.browse"}
