import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import SID, pt, t, xp_meta
from tracesig.capture import TraceNameSet
from tracesig.categorize import (
    CategoryLabel,
    TraceCategory,
    build_update_matrices,
    build_update_matrix,
)
from tracesig.data import fixture_text
from tracesig.evidence import KIND_FIELDS, RecordKind
from tracesig.matching import Verdict, match_signature
from tracesig.signatures import derive_signature
from tracesig.simulate import (
    Always,
    Background,
    FirstRunOfSession,
    Probability,
    Scenario,
    ScenarioError,
    ScriptStep,
    UpdateRule,
    UsageBased,
    _draw,
    _fnv1a64,
    _mix64,
    draw_latency,
    draw_uniform,
    load_scenario,
    oracle_compare,
    planted_categories,
    run_scenario,
    write_scenario_outputs,
)


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
        runs = build_update_matrix(obs, TraceNameSet.of([])).runs
        assert [r.first_of_session for r in runs] == [True, False, True]

    def test_each_step_starts_from_the_previous_snapshot(self):
        result = run_scenario(tiny_scenario())
        obs = result.observations["app.open"]
        assert [o.after for o in obs] == list(result.snapshots)
        assert all(b.before is a.after for a, b in zip(obs, obs[1:]))

    def test_baseline_preseeds_every_trace(self):
        result = run_scenario(tiny_scenario())
        first_before = result.observations["app.open"][0].before
        first_step = t("2010-05-01T09:00:00Z")
        baselines = []
        for rec in first_before:
            times = {rec.timestamp(f) for f in KIND_FIELDS[rec.kind]}
            assert len(times) == 1  # every field of a trace holds its one baseline
            baseline = times.pop().epoch_s
            assert first_step - 86400 <= baseline <= first_step - 3600
            baselines.append(baseline)
        assert len(baselines) == 2
        assert len(set(baselines)) == 2  # each trace draws its own

    def test_fixed_latency_is_honored(self):
        model = {
            "app.open": (
                UpdateRule("C:\\x", RecordKind.FILE, "modified", Always(), latency_s=7),
            )
        }
        script = (ScriptStep(t("2010-05-01T09:00:00Z"), "app.open", 0),)
        result = run_scenario(tiny_scenario(model=model, script=script))
        rec = result.snapshots[-1].get(RecordKind.FILE, "C:\\x")
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

    def test_usage_based_plants_ub_only_on_a_shortcut(self):
        step = (ScriptStep(t("2010-05-01T09:00:00Z"), "a.one", 0),)
        lnk = "C:\\app.lnk"
        model = {
            "a.one": (
                UpdateRule(lnk, RecordKind.FILE, "accessed", UsageBased(lnk)),
                UpdateRule(lnk, RecordKind.FILE, "modified", Always()),
            )
        }
        planted = planted_categories(tiny_scenario(model=model, script=step))
        assert planted["a.one"][lnk].label is CategoryLabel.UB
        model = {"a.one": (UpdateRule("C:\\app.exe", RecordKind.FILE, "accessed", UsageBased(lnk)),)}
        with pytest.raises(ScenarioError, match="no planted category.*accessed=UsageBased"):
            run_scenario(tiny_scenario(model=model, script=step))

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

    @pytest.mark.parametrize(
        "own, other, label",
        [
            # on another field, the two modes merge
            (("modified", Always()), ("accessed", Background()), CategoryLabel.AU1),
            # on the same field, the action's own mode wins
            (("modified", Always()), ("modified", Background()), CategoryLabel.AU5),
            (("modified", Probability(0.5)), ("modified", Background()), CategoryLabel.IU),
        ],
    )
    def test_background_rule_of_another_action_on_a_planted_trace(self, own, other, label):
        rule = lambda field, mode: UpdateRule("C:\\shared", RecordKind.FILE, field, mode)
        model = {"a.one": (rule(*own),), "a.two": (rule(*other),)}
        script = (ScriptStep(t("2010-05-01T09:00:00Z"), "a.one", 0),)
        planted = planted_categories(tiny_scenario(model=model, script=script))
        assert planted["a.one"]["C:\\shared"] == TraceCategory(label, confounded=True)


class TestBackgroundTwin:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_background_only_twin_is_not_detected(self, seed):
        """A signature derived for app.open, with web.browse as background,
        detects app.open but not the same machine where only web.browse ran."""
        sc = replace(load_scenario(fixture_text("demo_scenario.json")), seed=seed)
        result = run_scenario(sc)
        obs, ambient = result.observations["app.open"], result.observations["web.browse"]
        names = TraceNameSet.of(path for _, path in obs[0].before.records)
        matrix, background = build_update_matrices([obs, ambient], names)
        sig = derive_signature("app.open", matrix, background)
        assert match_signature(sig, result.snapshots[-1]).verdict is Verdict.DETECTED
        twin = replace(sc, script=tuple(s for s in sc.script if s.action == "web.browse"))
        assert match_signature(sig, run_scenario(twin).snapshots[-1]).verdict is not Verdict.DETECTED


class TestOracleCompare:
    def test_irregular_draws_covering_every_session_first_are_an_artifact(self):
        # No rule plants IUI, but a probability rule on accessed can draw a
        # vector that hits every session's first run, which classifies as IUI.
        pf = "C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf"
        cookie = "C:\\Users\\u\\Cookies\\c.txt"
        model = {
            "app.open": (
                UpdateRule(pf, RecordKind.FILE, "modified", Always()),
                UpdateRule(cookie, RecordKind.FILE, "accessed", Probability(0.5)),
            )
        }
        script = tuple(
            ScriptStep(t(f"2010-05-01T{hour:02d}:00:00Z"), "app.open", session)
            for hour, session in ((9, 0), (10, 0), (14, 1), (15, 1))
        )
        sc = Scenario(seed=0, meta=xp_meta(capture="2010-05-01T23:00:00Z"), model=model, script=script)
        result = run_scenario(sc)
        obs = result.observations["app.open"]
        matrix = build_update_matrix(obs, TraceNameSet.of([pf, cookie]))
        assert matrix.vectors[cookie.lower()]["accessed"] == (True, True, True, False)
        sig = derive_signature("app.open", matrix, None)
        report = oracle_compare(result.planted["app.open"], sig, matrix)
        [entry] = report.disagreements()
        assert entry.trace == cookie and entry.planted.label is CategoryLabel.IU
        assert entry.classified.label is CategoryLabel.IUI
        assert report.artifacts() == [entry]
        assert report.clean

    def test_irregular_draws_firing_on_every_run_are_an_artifact(self):
        # A probability rule's draws can fire on every run; the all-true
        # vector then reads as always updated, which no classifier can tell
        # from a planted Always trace.  Seed 1 draws four hits in four runs.
        pf = "C:\\WINDOWS\\Prefetch\\APP.EXE-0BADF00D.pf"
        log = "C:\\Users\\u\\app.log"
        model = {
            "app.open": (
                UpdateRule(pf, RecordKind.FILE, "modified", Always()),
                UpdateRule(log, RecordKind.FILE, "modified", Probability(0.5)),
            )
        }
        script = tuple(
            ScriptStep(t(f"2010-05-01T{hour:02d}:00:00Z"), "app.open", session)
            for hour, session in ((9, 0), (10, 0), (14, 1), (15, 1))
        )
        sc = Scenario(seed=1, meta=xp_meta(capture="2010-05-01T23:00:00Z"), model=model, script=script)
        result = run_scenario(sc)
        matrix = build_update_matrix(result.observations["app.open"], TraceNameSet.of([pf, log]))
        assert matrix.vectors[log.lower()]["modified"] == (True, True, True, True)
        sig = derive_signature("app.open", matrix, None)
        report = oracle_compare(result.planted["app.open"], sig, matrix)
        [entry] = report.disagreements()
        assert entry.trace == log and entry.planted.label is CategoryLabel.IU
        assert entry.classified.in_core
        assert report.artifacts() == [entry]
        assert report.clean
        assert (report.core_expected, report.core_actual) == (1, 2)

    def test_core_keys_sharing_one_template_leave_the_report_clean(self):
        # two GUID-named keys generalize to one {%s} template: two planted
        # core traces, one derived core template, and nothing disagrees
        keys = [
            f"HKEY_USERS\\{SID}\\Software\\App\\Ext\\{{{guid}}}"
            for guid in ("2CEDBFBC-DBA8-43AA-B1FD-CC8E6316E3E2", "E2E2DD38-D088-4134-82B7-F2BA38496583")
        ]
        model = {
            "app.open": tuple(UpdateRule(key, RecordKind.REGKEY, "modified", Always()) for key in keys)
        }
        script = tuple(
            ScriptStep(t(f"2010-05-01T{hour:02d}:00:00Z"), "app.open", session)
            for hour, session in ((9, 0), (10, 0), (14, 1), (15, 1))
        )
        sc = Scenario(seed=0, meta=xp_meta(capture="2010-05-01T23:00:00Z"), model=model, script=script)
        result = run_scenario(sc)
        obs = result.observations["app.open"]
        matrix = build_update_matrix(obs, TraceNameSet.of(keys))
        sig = derive_signature("app.open", matrix, None)
        assert [c.template.text for c in sig.core] == [
            "HKEY_USERS\\%SID%\\Software\\App\\Ext\\{%s}"
        ]
        report = oracle_compare(result.planted["app.open"], sig, matrix)
        assert (report.core_expected, report.core_actual) == (2, 1)
        assert report.disagreements() == []
        assert report.clean


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

    @pytest.mark.parametrize(
        "section, key, value, fragment",
        [
            ("meta", "sids", "S-1-5", "meta.sids"),
            ("meta", "sids", [5], "meta.sids"),
            ("meta", "system_root", 5, "meta.system_root"),
            ("meta", "home_drive", ["C:"], "meta.home_drive"),
            ("meta", "home_path", None, "meta.home_path"),
            ("meta", "last_access_enabled", "false", "meta.last_access_enabled"),
            ("meta", "install_paths", {"App": 5}, "meta.install_paths"),
            ("rule", "latency_s", "5", "latency_s"),
            ("rule", "latency_s", True, "latency_s"),
            ("rule", "trace", 5, "trace"),
            ("step", "action", [], "action"),
            ("step", "launch", 5, "launch"),
            ("top", "seed", True, "^seed must be an integer"),
            ("step", "session", "0", r"^script\[0\]: session must be an integer"),
            ("rule", "mode", {"probability": True}, r"mode\.probability must be a number"),
            ("meta", "last_acess_enabled", False, r"^meta: unknown keys \['last_acess_enabled'\]"),
            ("rule", "field", "changed", r"^model\['app.open'\]\[0\]: unknown timestamp field"),
            ("rule", "mode", {"probability": 1.5}, r"^model\['app.open'\]\[0\]: mode: probability"),
            ("rule", "mode", 5, r"^model\['app.open'\]\[0\]: mode must be a JSON object"),
            ("meta", "home_path", "\\x\n#sid=S-1-5", "^meta: home_path holds a line break"),
            ("meta", "sids", [""], "^meta: a SID must be non-empty"),
            ("meta", "install_paths", {"A=B": "C:\\x"}, "^meta: install path name 'A=B'"),
            ("rule", "trace", "", r"^model\['app.open'\]\[0\]: trace '' is empty"),
            ("rule", "trace", "C:\\a\nb.txt", r"^model\['app.open'\]\[0\]: trace .* line break"),
        ],
    )
    def test_value_of_wrong_json_type(self, section, key, value, fragment):
        data = self.base()
        target = {
            "top": data,
            "meta": data["meta"],
            "rule": data["model"]["app.open"][0],
            "step": data["script"][0],
        }[section]
        target[key] = value
        with pytest.raises(ScenarioError, match=fragment):
            load_scenario(json.dumps(data))

    @pytest.mark.parametrize(
        "key, value, fragment",
        [
            ("system_root", "C:\\WINDOWS ", "system_root"),
            ("sids", [f" {SID}"], f"sid ' {SID}'"),
            ("install_paths", {"App": "\tC:\\App"}, "install path 'App'"),
        ],
    )
    def test_meta_value_with_outer_whitespace(self, key, value, fragment):
        data = self.base()
        data["meta"][key] = value
        with pytest.raises(ScenarioError, match=f"^meta: {fragment} has outer whitespace"):
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

    @pytest.mark.parametrize(
        "section, index, value, message",
        [
            ("script", 0, -(10**13), "script[0]: timestamp -10000000000000 is before 1601"),
            ("script", 3, "0001-01-01T00:00:00Z", "script[3]: timestamp -62135596800 is before 1601"),
            ("meta", None, "0001-01-01T00:00:00Z", "meta.capture_time: timestamp -62135596800"),
            ("meta", None, 10**12, "meta.capture_time: timestamp 1000000000000 ends after 9999"),
            ("script", 0, "1601-01-01T12:00:00Z", "script[0]: the baseline a day before it"),
        ],
    )
    def test_time_out_of_range_names_its_place(self, section, index, value, message):
        data = self.base()
        if section == "meta":
            data["meta"]["capture_time"] = value
        else:
            data["script"][index]["time"] = value
        with pytest.raises(ScenarioError) as info:
            load_scenario(json.dumps(data))
        assert str(info.value).startswith(message)

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
            == "4c45cd98c49ecee8f41ec4346e65184bbe17ef3839e81c935a92516c8a46757c"
        )

    def test_a_second_write_is_refused_and_changes_nothing(self, tmp_path):
        sc = load_scenario(fixture_text("demo_scenario.json"))
        write_scenario_outputs(run_scenario(sc), tmp_path)
        before = tree_digest(tmp_path)
        shorter = replace(sc, script=sc.script[:4])
        with pytest.raises(FileExistsError, match="already holds final.csv"):
            write_scenario_outputs(run_scenario(shorter), tmp_path)
        assert tree_digest(tmp_path) == before

    @pytest.mark.parametrize("name", ["final.csv", "planted.json", "steps", "obs"])
    def test_each_earlier_output_is_refused(self, tmp_path, name):
        (tmp_path / name).mkdir()
        with pytest.raises(FileExistsError, match=f"already holds {name}"):
            write_scenario_outputs(run_scenario(load_scenario(fixture_text("demo_scenario.json"))), tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_tree_layout(self, tmp_path):
        sc = load_scenario(fixture_text("demo_scenario.json"))
        write_scenario_outputs(run_scenario(sc), tmp_path)
        assert (tmp_path / "final.csv").exists()
        assert len(list((tmp_path / "steps").glob("step*.csv"))) == 10
        assert (tmp_path / "obs" / "app.open" / "sessions.csv").exists()
        planted = json.loads((tmp_path / "planted.json").read_text())
        assert set(planted) == {"app.open", "web.browse"}
