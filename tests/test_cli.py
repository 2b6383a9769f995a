import hashlib
import json

import pytest

from conftest import FROZEN_FILTERED_TRACES
from tracesig import cli
from tracesig.cli import main
from tracesig.data import fixture_text, signature_text


@pytest.fixture
def capture_file(tmp_path):
    path = tmp_path / "capture.csv"
    path.write_text(fixture_text("capture_40rows.csv"), encoding="utf-8")
    return str(path)


@pytest.fixture
def ie8_snapshot(tmp_path):
    path = tmp_path / "ie8.csv"
    path.write_text(fixture_text("ie8_2010-04-12.csv"), encoding="utf-8")
    return str(path)


class TestUsage:
    def test_no_arguments_is_a_usage_error(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "tracesig" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestTraces:
    def test_filtered_names_are_frozen(self, capture_file, capsys):
        rc = main(["traces", "--capture", capture_file, "--process", "iexplore.exe,explorer.exe"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == FROZEN_FILTERED_TRACES

    def test_unfiltered_count(self, capture_file, capsys):
        assert main(["traces", "--capture", capture_file]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 14

    def test_intersection_across_runs(self, capture_file, tmp_path, capsys):
        second = tmp_path / "second.csv"
        second.write_text(
            "t,x.exe,1,Op,C:\\WINDOWS\\Prefetch\\IEXPLORE.EXE-27122324.pf,OK,d\n",
            encoding="utf-8",
        )
        rc = main(["traces", "--capture", capture_file, "--capture", str(second)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == [
            "c:\\windows\\prefetch\\iexplore.exe-27122324.pf"
        ]

    def test_output_file(self, capture_file, tmp_path, capsys):
        out = tmp_path / "names.txt"
        assert main(["traces", "--capture", capture_file, "-o", str(out)]) == 0
        capsys.readouterr()
        assert len(out.read_text(encoding="utf-8").splitlines()) == 14

    def test_bad_capture_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("only,three,cells\n", encoding="utf-8")
        assert main(["traces", "--capture", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_capture_file(self, capsys):
        assert main(["traces", "--capture", "/nonexistent/x.csv"]) == 2
        assert "error:" in capsys.readouterr().err


class TestMatch:
    def test_detection_exits_zero(self, ie8_snapshot, capsys):
        rc = main(["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: Detected" in out
        assert "event interval: [2010-04-12T14:29:37Z, 2010-04-12T14:30:26Z]" in out

    def test_clean_negative_exits_one(self, ie8_snapshot, capsys):
        rc = main(["match", "--bundled", "msn2009_open", "--snapshot", ie8_snapshot])
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict: Missing" in out

    def test_signature_file_and_bundled_mix(self, ie8_snapshot, tmp_path, capsys):
        sig_file = tmp_path / "msn.sig"
        sig_file.write_text(signature_text("msn2009_open"), encoding="utf-8")
        rc = main(
            ["match", "--bundled", "ie8_open", "--signature", str(sig_file),
             "--snapshot", ie8_snapshot]
        )
        out = capsys.readouterr().out
        assert rc == 0  # one hit among the two
        assert out.count("action:") == 2

    def test_requires_some_signature(self, ie8_snapshot, capsys):
        assert main(["match", "--snapshot", ie8_snapshot]) == 2
        assert "at least one" in capsys.readouterr().err

    def test_unknown_bundled_name(self, ie8_snapshot, capsys):
        assert main(["match", "--bundled", "nonesuch", "--snapshot", ie8_snapshot]) == 2
        assert "error:" in capsys.readouterr().err

    def test_weak_signature_warns(self, tmp_path, capsys):
        snap = tmp_path / "ff.csv"
        snap.write_text(fixture_text("ff36_2010-04-14.csv"), encoding="utf-8")
        rc = main(["match", "--bundled", "ff36_open", "--snapshot", str(snap)])
        captured = capsys.readouterr()
        assert rc == 0
        assert "weak: yes" in captured.out
        assert "corroborate" in captured.err

    def test_structured_format(self, ie8_snapshot, capsys):
        rc = main(
            ["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot,
             "--format", "structured"]
        )
        assert rc == 0
        [payload] = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "detected"
        assert payload["event_interval"]["lo_iso"] == "2010-04-12T14:29:37Z"
        assert payload["event_interval"]["hi_iso"] == "2010-04-12T14:30:26Z"
        assert len(payload["core"]) == 5
        assert payload["supporting"]["UB"]["total"] == 4
        assert payload["weak"] is False

    def test_window_override_changes_verdict(self, ie8_snapshot, capsys):
        rc = main(
            ["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot, "--window", "5"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "verdict: Inconsistent" in out

    def test_now_is_display_only(self, ie8_snapshot, capsys):
        rc = main(
            ["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot,
             "--now", "2010-04-14T16:45:00Z"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "report time: 2010-04-14T16:45:00Z" in out
        assert "verdict: Detected" in out

    def test_snapshot_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a snapshot\n", encoding="utf-8")
        assert main(["match", "--bundled", "ie8_open", "--snapshot", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_supporting_templates_counted_with_one_folding_rule(self, tmp_path, capsys):
        # Two IU templates that differ only in the case of a non-ASCII letter
        # are distinct paths; the tally's hits and totals must agree on that.
        sig_file = tmp_path / "x.sig"
        sig_file.write_text(json.dumps({
            "schema": 1, "action": "x.open", "platform": "test", "window_s": 60,
            "core": [{"kind": "file", "template": "C:\\core.dat", "field": "modified"}],
            "supporting": [
                {"kind": "file", "template": path, "field": "modified", "category": "IU"}
                for path in ("C:\\\u00c4.dat", "C:\\\u00e4.dat")
            ],
        }), encoding="utf-8")
        snap = tmp_path / "snap.csv"
        snap.write_text(
            "#system_root=C:\\WINDOWS\n#home_drive=C:\n#home_path=\\Documents and Settings\\x\n"
            "#last_access_enabled=true\n#capture_time=2010-04-14T16:45:00Z\n"
            "kind,path,modified,accessed,created,precision_s\n"
            "file,C:\\core.dat,2010-04-14T12:00:00Z,,,1\n"
            "file,C:\\\u00c4.dat,2010-04-14T12:00:10Z,,,1\n"
            "file,C:\\\u00e4.dat,2010-04-14T12:00:20Z,,,1\n",
            encoding="utf-8",
        )
        args = ["match", "--signature", str(sig_file), "--snapshot", str(snap)]
        assert main(args) == 0
        assert "supporting: IU 2/2" in capsys.readouterr().out
        assert main(args + ["--format", "structured"]) == 0
        [payload] = json.loads(capsys.readouterr().out)
        assert payload["supporting"] == {"IU": {"hits": 2, "total": 2}}


class TestExitCodes:
    """A malformed input exits 2 and a crash exits 3; neither reads as a verdict."""

    def test_signature_kind_of_wrong_json_type(self, ie8_snapshot, tmp_path, capsys):
        data = json.loads(signature_text("ie8_open"))
        data["core"][0]["kind"] = []
        sig_file = tmp_path / "bad.sig"
        sig_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(["match", "--signature", str(sig_file), "--snapshot", ie8_snapshot]) == 2
        assert capsys.readouterr().err.startswith("error: core[0]: unknown kind []")

    def test_signature_category_of_wrong_json_type(self, ie8_snapshot, tmp_path, capsys):
        data = json.loads(signature_text("ie8_open"))
        data["supporting"][0]["category"] = []
        sig_file = tmp_path / "bad.sig"
        sig_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(["match", "--signature", str(sig_file), "--snapshot", ie8_snapshot]) == 2
        assert capsys.readouterr().err.startswith("error: supporting[0]: unknown category []")

    def test_scenario_kind_of_wrong_json_type(self, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        data["model"]["app.open"][0]["kind"] = []
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "x")]) == 2
        assert "unknown kind []" in capsys.readouterr().err

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capture_file, capsys):
        def boom(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_traces", boom)
        assert main(["traces", "--capture", capture_file]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"

    def test_mistyped_scenario_value_never_reads_as_a_verdict(self, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        data["model"]["app.open"][0]["latency_s"] = "5"
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "x")]) not in (0, 1)
        assert "error:" in capsys.readouterr().err


class TestSimulateDeriveRoundTrip:
    @pytest.fixture
    def sim_tree(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(fixture_text("demo_scenario.json"), encoding="utf-8")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scenario), "-o", str(out)]) == 0
        capsys.readouterr()
        return out

    def test_simulate_writes_the_tree(self, sim_tree):
        assert (sim_tree / "final.csv").exists()
        assert (sim_tree / "planted.json").exists()

    def test_derive_then_match_closes_the_loop(self, sim_tree, tmp_path, capsys):
        sig_file = tmp_path / "derived.sig"
        rc = main(
            ["derive", "--obs", str(sim_tree / "obs" / "app.open"),
             "--background", str(sim_tree / "obs" / "web.browse"),
             "--action", "app.open", "--platform", "sim", "-o", str(sig_file)]
        )
        capsys.readouterr()
        assert rc == 0
        text = sig_file.read_text(encoding="utf-8")
        assert json.loads(text)["action"] == "app.open"
        assert len(json.loads(text)["core"]) == 3

        rc = main(["match", "--signature", str(sig_file), "--snapshot", str(sim_tree / "final.csv")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "verdict: Detected" in out

    def test_inspect_emits_the_matrix(self, sim_tree, capsys):
        rc = main(["inspect", "--obs", str(sim_tree / "obs" / "app.open")])
        out = capsys.readouterr().out
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "trace,field,run0,run1,run2,run3,run4,run5,run6"
        flag_rows = [l for l in lines if "FirstRun" in l]
        assert flag_rows and flag_rows[0].endswith("1,0,1,0,1,0,0")

    # sha256 of each output on the bundled demo scenario, frozen when these
    # outputs were last changed on purpose.
    GOLDEN = {
        "derive_background": "384a8e6963bf803e86961f46d339f2cbf6ee2ddb99a55e956e079e5553df93cb",
        "derive_alone": "764ca59fbef4157b00c99669d8353e40cb394c219307583465f57441cf4eb450",
        "inspect": "94764ffd1eb645521ca0fa00a442330c4352e130f4bfb4a45ec04ddc4e3ad5c7",
    }

    def test_demo_outputs_are_byte_stable(self, sim_tree, tmp_path, capsys):
        obs = sim_tree / "obs"
        derive = ["derive", "--obs", str(obs / "app.open"), "--action", "app.open", "--platform", "sim"]
        calls = {
            "derive_background": derive + ["--background", str(obs / "web.browse")],
            "derive_alone": derive,
            "inspect": ["inspect", "--obs", str(obs / "app.open")],
        }
        digests = {}
        for name, argv in calls.items():
            out = tmp_path / f"{name}.out"
            assert main(argv + ["-o", str(out)]) == 0
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        capsys.readouterr()
        assert digests == self.GOLDEN

    def test_bad_scenario_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["simulate", "--scenario", str(bad), "-o", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err.startswith("error:")
