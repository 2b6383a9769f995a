import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import FROZEN_FILTERED_TRACES, frec, snap_of
import tracesig
from tracesig import categorize, cli
from tracesig.categorize import RunObservation, write_observations
from tracesig.cli import main
from tracesig.data import fixture_text, signature_text
from tracesig.evidence import ArtifactRecord
from tracesig.signatures import load_signature


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

    @pytest.mark.parametrize("processes", [",", " ", " , ", ""])
    def test_a_process_list_of_no_names_is_refused(self, capture_file, processes, capsys):
        assert main(["traces", "--capture", capture_file, "--process", processes]) == 2
        assert capsys.readouterr() == ("", "error: at least one process name is required\n")

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

    def test_bad_capture_file_is_named(self, capture_file, tmp_path, capsys):
        bad = tmp_path / "b.csv"
        bad.write_text("t,x.exe,1,Op,C:\\x,OK,d\nt,x.exe,notapid,Op,C:\\y,OK,d\n", encoding="utf-8")
        assert main(["traces", "--capture", capture_file, "--capture", str(bad)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: line 2: PID must be an integer, got 'notapid'\n"

    def test_names_with_outer_spaces_reach_derive_and_inspect(self, tmp_path, capsys):
        """NTFS allows a name to start or end with a space; ``traces`` writes it
        as it is, and ``--traces`` reads it back as written."""
        evil = "C:\\a\\evil.exe "
        times = ["2010-04-01T10:00:00Z", "2010-04-01T11:00:00Z", "2010-04-01T12:00:00Z"]
        snaps = [snap_of([frec(evil, m=t), frec("C:\\a\\calm.exe", m=times[0])]) for t in times]
        obs = tmp_path / "obs"
        write_observations(obs, [RunObservation(i, i, None, snaps[i], snaps[i + 1]) for i in range(2)])
        capture, names = tmp_path / "capture.csv", tmp_path / "names.txt"
        capture.write_text(
            "Time of Day,Process Name,PID,Operation,Path,Result,Detail\n"
            f"14:30:01.0,app.exe,1,CreateFile,{evil},SUCCESS,\n"
            "14:30:01.1,app.exe,1,CreateFile,C:\\a\\calm.exe,SUCCESS,\n",
            encoding="utf-8",
        )
        assert main(["traces", "--capture", str(capture), "-o", str(names)]) == 0
        assert names.read_text(encoding="utf-8") == "c:\\a\\calm.exe\nc:\\a\\evil.exe \n"
        derive = ["derive", "--obs", str(obs), "--action", "a"]
        assert main(derive + ["-o", str(tmp_path / "all.sig")]) == 0
        assert main(derive + ["--traces", str(names), "-o", str(tmp_path / "named.sig")]) == 0
        sig = (tmp_path / "named.sig").read_text(encoding="utf-8")
        assert sig == (tmp_path / "all.sig").read_text(encoding="utf-8")
        assert [t.template.text for t in load_signature(sig).core] == [evil]
        capsys.readouterr()
        assert main(["inspect", "--obs", str(obs), "--traces", str(names)]) == 0
        assert f"{evil},modified,1,1" in capsys.readouterr().out.splitlines()

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

    def test_inapplicable_exits_one_with_its_note(self, tmp_path, capsys):
        sig_file = tmp_path / "ff.sig"
        sig_file.write_text(
            signature_text("ff36_open").replace('"modified"', '"accessed"'), encoding="utf-8"
        )
        snap = tmp_path / "ff.csv"
        snap.write_text(
            fixture_text("ff36_2010-04-14.csv").replace(
                "#last_access_enabled=true", "#last_access_enabled=false"
            ),
            encoding="utf-8",
        )
        rc = main(["match", "--signature", str(sig_file), "--snapshot", str(snap)])
        assert rc == 1
        assert capsys.readouterr().out == (
            "action: ff36_open\n"
            "platform: windows_xp\n"
            "verdict: Inapplicable\n"
            "window: 60s\n"
            "weak: yes\n"
            "note: core relies on accessed times, which the source system did not maintain\n"
        )

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

    def test_a_now_before_the_year_1000_prints_zero_padded(self, ie8_snapshot, capsys):
        rc = main(
            ["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot,
             "--now", "0999-01-02T03:04:05Z"]
        )
        assert rc == 0
        assert "report time: 0999-01-02T03:04:05Z\n" in capsys.readouterr().out

    @pytest.mark.parametrize("window", [50_000_000_000, 100_000_000_000, 10**30])
    @pytest.mark.parametrize("source", ["--window", "window_s"])
    def test_a_window_past_the_timestamp_range_clips_the_interval_at_1601(
        self, ie8_snapshot, tmp_path, window, source, capsys
    ):
        if source == "--window":
            args = ["--bundled", "ie8_open", "--window", str(window)]
        else:
            sig = json.loads(signature_text("ie8_open"))
            sig["window_s"] = window
            path = tmp_path / "wide.sig"
            path.write_text(json.dumps(sig), encoding="utf-8")
            args = ["--signature", str(path)]
        assert main(["match", *args, "--snapshot", ie8_snapshot]) == 0
        out = capsys.readouterr().out
        assert "event interval: [1601-01-01T00:00:00Z, 2010-04-12T14:30:26Z]\n" in out
        assert main(["match", *args, "--snapshot", ie8_snapshot, "--format", "structured"]) == 0
        [payload] = json.loads(capsys.readouterr().out)
        assert payload["window_s"] == window
        assert payload["event_interval"] == {
            "lo": -11644473600, "hi": 1271082626,
            "lo_iso": "1601-01-01T00:00:00Z", "hi_iso": "2010-04-12T14:30:26Z",
        }

    def test_snapshot_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a snapshot\n", encoding="utf-8")
        assert main(["match", "--bundled", "ie8_open", "--snapshot", str(bad)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_snapshot_names_its_file(self, tmp_path, capsys):
        snap = tmp_path / "snap.csv"
        snap.write_bytes(fixture_text("ie8_2010-04-12.csv").encode("utf-8") + b"\xff")
        assert main(["match", "--bundled", "ie8_open", "--snapshot", str(snap)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {snap} is not UTF-8 text: ")

    def test_non_canonical_now_is_a_usage_error(self, ie8_snapshot, capsys):
        rc = main(
            ["match", "--bundled", "ie8_open", "--snapshot", ie8_snapshot,
             "--now", "2010-4-12T1:2:3Z"]
        )
        assert rc == 2
        assert capsys.readouterr().err == "error: unparseable timestamp '2010-4-12T1:2:3Z'\n"

    @staticmethod
    def fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
        src = str(Path(tracesig.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        return subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
        )

    def test_module_entry_point_runs_the_cli(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("not a snapshot\n", encoding="utf-8")
        proc = self.fresh_interpreter(
            "-m", "tracesig.cli", "match", "--bundled", "ie8_open", "--snapshot", str(bad)
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")

    def test_the_cli_imports_the_simulator_only_on_use(self):
        script = """
import json, sys
import tracesig.cli
loaded_by_cli = "tracesig.simulate" in sys.modules
hashlib_loaded = "hashlib" in sys.modules
from tracesig import load_scenario, oracle_compare, run_scenario, write_scenario_outputs
import tracesig.simulate as sim
same = [load_scenario is sim.load_scenario, oracle_compare is sim.oracle_compare,
        run_scenario is sim.run_scenario, write_scenario_outputs is sim.write_scenario_outputs]
star = {}
exec("from tracesig import *", star)
try:
    tracesig.no_such_name
    unknown = "bound"
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded_by_cli": loaded_by_cli, "hashlib": hashlib_loaded, "same": same,
                  "unknown": unknown,
                  "unbound": [name for name in tracesig.__all__ if name not in star]}))
"""
        proc = self.fresh_interpreter("-c", script)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {
            "loaded_by_cli": False,
            "hashlib": False,
            "same": [True] * 4,
            "unknown": "module 'tracesig' has no attribute 'no_such_name'",
            "unbound": [],
        }

    # (exit code, sha256 of the text output, sha256 of --format structured)
    # for each bundled signature against each bundled snapshot fixture, frozen
    # when these outputs were last changed on purpose.
    GOLDEN = {
        ("ff36_open", "ff36_2010-04-14.csv"): (
            0,
            "194d2da38123e880d5ea2a3194e787c7a7921ccf3165a6574ca26d438f486872",
            "078c83419704ee466f67e02f2592cf9a109dd75b0f1e243f033577ccf3085baa",
        ),
        ("ie8_open", "ff36_2010-04-14.csv"): (
            1,
            "cac4785cb39c042d8de67f1ea31b46d2089e01cd556153fe828d168681551a37",
            "450ddb7fbf9fdacb1617d247e55bec7bc9d27cb9503f39ba3fb2296add5cace0",
        ),
        ("msn2009_open", "ff36_2010-04-14.csv"): (
            1,
            "aa79aba9edfa339bb265093a509d37335ae334efc880ad806cc043883e9d56ea",
            "2e1ff5bf8f42c2ca12e2444454cfd71580f388d1727ea8b15f7d93d4af6c1137",
        ),
        ("ff36_open", "ie8_2010-04-12.csv"): (
            1,
            "98a4b210353d7ecda093194853168b0ac420f324e38f0deee56238bcfe999a06",
            "0c6f91cf5ac5413c7265608c2e4b6fcaf7c2f5c97948480fe0734e26511d6bfa",
        ),
        ("ie8_open", "ie8_2010-04-12.csv"): (
            0,
            "a56dfb016ee888e38e1c59d7a33e23745ccc97d4444e858ca12872ede4885682",
            "0a2543314e704fe88ff007d80c19569f4c86e7d8d4c065ec6d011ea3fd6574d5",
        ),
        ("msn2009_open", "ie8_2010-04-12.csv"): (
            1,
            "aa79aba9edfa339bb265093a509d37335ae334efc880ad806cc043883e9d56ea",
            "2e1ff5bf8f42c2ca12e2444454cfd71580f388d1727ea8b15f7d93d4af6c1137",
        ),
        ("ff36_open", "ie8_2010-04-14.csv"): (
            1,
            "98a4b210353d7ecda093194853168b0ac420f324e38f0deee56238bcfe999a06",
            "0c6f91cf5ac5413c7265608c2e4b6fcaf7c2f5c97948480fe0734e26511d6bfa",
        ),
        ("ie8_open", "ie8_2010-04-14.csv"): (
            0,
            "394b1fa1d83ef098a063749280f6e570da7cfbdad1b9534888974dc86cd6e571",
            "4306ec9213eb5d39bdbccfaa730c6ff6ea5fbc30f6b95776d4651e9c433e4b44",
        ),
        ("msn2009_open", "ie8_2010-04-14.csv"): (
            1,
            "aa79aba9edfa339bb265093a509d37335ae334efc880ad806cc043883e9d56ea",
            "2e1ff5bf8f42c2ca12e2444454cfd71580f388d1727ea8b15f7d93d4af6c1137",
        ),
        ("ff36_open", "msn2009_2010-04-14_1949.csv"): (
            1,
            "98a4b210353d7ecda093194853168b0ac420f324e38f0deee56238bcfe999a06",
            "0c6f91cf5ac5413c7265608c2e4b6fcaf7c2f5c97948480fe0734e26511d6bfa",
        ),
        ("ie8_open", "msn2009_2010-04-14_1949.csv"): (
            1,
            "09d68326dff0367417ad43e4cdd6d6e54a07018df4d7fd43b55b0a27ff8ef8f2",
            "465d62ca82843dfc7479666a3f01b24b6ce7e52a612def5b63b49d108d0941af",
        ),
        ("msn2009_open", "msn2009_2010-04-14_1949.csv"): (
            0,
            "8eb75e49c45ed19132f1a78ffa71e079fc4fbd5dbba488e8dda9579b6c172da9",
            "7a87d01c64c20056df8b44f0d2a0731b863d9da44cc6d4c7a373231b96b71b65",
        ),
        ("ff36_open", "msn2009_2010-04-14_1958.csv"): (
            1,
            "98a4b210353d7ecda093194853168b0ac420f324e38f0deee56238bcfe999a06",
            "0c6f91cf5ac5413c7265608c2e4b6fcaf7c2f5c97948480fe0734e26511d6bfa",
        ),
        ("ie8_open", "msn2009_2010-04-14_1958.csv"): (
            1,
            "09d68326dff0367417ad43e4cdd6d6e54a07018df4d7fd43b55b0a27ff8ef8f2",
            "465d62ca82843dfc7479666a3f01b24b6ce7e52a612def5b63b49d108d0941af",
        ),
        ("msn2009_open", "msn2009_2010-04-14_1958.csv"): (
            0,
            "3d9771b94f13b01f21b2598a19d76bc88d397d18e5af4b972e70a4f3b8ce0ac2",
            "743b35c7231bb2ed82d85afeaf20fb5556871aa790bf016232d5537d1a7c8d5c",
        ),
    }

    @pytest.mark.parametrize("sig, fixture", sorted(GOLDEN))
    def test_bundled_outputs_are_byte_stable(self, sig, fixture, tmp_path, capsys):
        snap = tmp_path / fixture
        snap.write_text(fixture_text(fixture), encoding="utf-8")
        seen = []
        for fmt in ("text", "structured"):
            out = tmp_path / f"{fmt}.out"
            rc = main(["match", "--bundled", sig, "--snapshot", str(snap), "--format", fmt,
                       "-o", str(out)])
            seen.append((rc, hashlib.sha256(out.read_bytes()).hexdigest()))
        capsys.readouterr()
        rc, text_digest, structured_digest = self.GOLDEN[(sig, fixture)]
        assert seen == [(rc, text_digest), (rc, structured_digest)]

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

    def test_signature_template_in_core_and_supporting(self, ie8_snapshot, tmp_path, capsys):
        data = json.loads(signature_text("ie8_open"))
        data["supporting"].append({**data["core"][0], "category": "AU1", "confounded": True})
        sig_file = tmp_path / "bad.sig"
        sig_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(["match", "--signature", str(sig_file), "--snapshot", ie8_snapshot]) == 2
        assert "is both core and supporting" in capsys.readouterr().err

    def test_scenario_kind_of_wrong_json_type(self, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        data["model"]["app.open"][0]["kind"] = []
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "x")]) == 2
        assert "unknown kind []" in capsys.readouterr().err

    def test_signature_template_of_wrong_json_type(self, ie8_snapshot, tmp_path, capsys):
        data = json.loads(signature_text("ie8_open"))
        data["core"][0]["template"] = 5
        sig_file = tmp_path / "bad.sig"
        sig_file.write_text(json.dumps(data), encoding="utf-8")
        assert main(["match", "--signature", str(sig_file), "--snapshot", ie8_snapshot]) == 2
        assert capsys.readouterr().err.startswith("error: core[0]: template must be a string")

    @pytest.mark.parametrize(
        "section, key, value",
        [
            ("rule", "latency_s", "5"),
            ("meta", "sids", "S-1-5"),
            ("meta", "system_root", 5),
            ("meta", "home_drive", 5),
            ("meta", "home_path", 5),
            ("meta", "last_access_enabled", "false"),
        ],
    )
    def test_scenario_value_of_wrong_json_type(self, section, key, value, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        target = data["meta"] if section == "meta" else data["model"]["app.open"][0]
        target[key] = value
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "x")]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "new, message",
        [
            (
                "0001-01-01T00:00:00Z,1\n",
                "error: line 9: timestamp -62135596800 is before 1601-01-01T00:00:00Z\n",
            ),
            (
                "2009-11-03T09:12:44Z,99999999999999999999\n",
                "error: line 9: precision_s must lie in [1, 86400], got 99999999999999999999\n",
            ),
        ],
    )
    def test_snapshot_timestamp_out_of_range(self, new, message, tmp_path, capsys):
        text = fixture_text("ie8_2010-04-12.csv").replace("2009-11-03T09:12:44Z,1\n", new, 1)
        snap = tmp_path / "snap.csv"
        snap.write_text(text, encoding="utf-8")
        assert main(["match", "--bundled", "ie8_open", "--snapshot", str(snap)]) == 2
        assert capsys.readouterr().err == message

    def test_scenario_step_out_of_range(self, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        data["script"][0]["time"] = -(10**13)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        assert main(["simulate", "--scenario", str(scenario), "-o", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == "error: script[0]: timestamp -10000000000000 is before 1601-01-01T00:00:00Z\n"

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

    def test_simulate_into_an_earlier_output_exits_2(self, sim_tree, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        assert main(["simulate", "--scenario", str(scenario), "-o", str(sim_tree)]) == 2
        assert capsys.readouterr().err == f"error: {sim_tree} already holds final.csv; choose another directory\n"

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

    def test_derive_names_a_bad_sessions_row(self, sim_tree, capsys):
        sessions = sim_tree / "obs" / "app.open" / "sessions.csv"
        lines = sessions.read_text(encoding="utf-8").splitlines()
        lines[1] = "x" + lines[1][1:]
        sessions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        rc = main(["derive", "--obs", str(sessions.parent), "--action", "app.open"])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {sessions}: line 2: run must be an integer, got 'x'\n"

    def test_inspect_refuses_a_directory_without_run_files(self, tmp_path, capsys):
        (tmp_path / "sessions.csv").write_text("run,session,launch_method\n", encoding="utf-8")
        assert main(["inspect", "--obs", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"error: no runNNN_before/after.csv pairs in {tmp_path}\n"

    def test_inspect_refuses_an_oversized_sessions_cell(self, sim_tree, capsys):
        sessions = sim_tree / "obs" / "app.open" / "sessions.csv"
        lines = sessions.read_text(encoding="utf-8").splitlines()
        lines[1] += "x" * 200_000  # past the csv module's cell limit
        sessions.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["inspect", "--obs", str(sessions.parent)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {sessions}: line 2: ")

    def test_derive_names_a_bad_run_file(self, sim_tree, capsys):
        run = sim_tree / "obs" / "app.open" / "run001_before.csv"
        text = run.read_text(encoding="utf-8")
        run.write_text(text.replace("\nfile,", "\nfiel,", 1), encoding="utf-8")
        rc = main(["derive", "--obs", str(run.parent), "--action", "app.open"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {run}: line ")
        assert err.endswith(": unknown record kind 'fiel'\n")

    @pytest.mark.parametrize(
        "first, second",
        [
            ("app.open/run001_after.csv", "app.open/run002_before.csv"),
            ("app.open/run000_after.csv", "web.browse/run000_before.csv"),
        ],
    )
    def test_derive_names_the_first_of_two_equal_bad_run_files(self, sim_tree, first, second, capsys):
        obs = sim_tree / "obs"
        first, second = obs / first, obs / second
        assert first.read_bytes() == second.read_bytes()
        bad = first.read_text(encoding="utf-8").replace("\nfile,", "\nfiel,", 1)
        for path in (second, first):
            path.write_text(bad, encoding="utf-8")
        rc = main(["derive", "--obs", str(obs / "app.open"), "--background", str(obs / "web.browse"),
                   "--action", "app.open"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {first}: line ")
        assert err.endswith(": unknown record kind 'fiel'\n")

    def test_derive_parses_each_distinct_run_text_once(self, sim_tree, monkeypatch, capsys):
        """``--obs`` and ``--background`` share their parses."""
        obs = sim_tree / "obs"
        runs = list(obs.glob("*/run*.csv"))
        texts = []
        parse = categorize.parse_snapshot
        monkeypatch.setattr(categorize, "parse_snapshot", lambda text: texts.append(text) or parse(text))
        rc = main(["derive", "--obs", str(obs / "app.open"), "--background", str(obs / "web.browse"),
                   "--action", "app.open"])
        capsys.readouterr()
        assert rc == 0
        assert len(texts) == len({path.read_bytes() for path in runs}) < len(runs)

    def test_derive_refuses_background_runs_of_another_system(self, sim_tree, tmp_path, capsys):
        ambient = tmp_path / "ambient"
        shutil.copytree(sim_tree / "obs" / "web.browse", ambient)
        for path in ambient.glob("run*.csv"):
            text = path.read_text(encoding="utf-8")
            text = re.sub("(?m)^#home_path=.*$", r"#home_path=\\Documents and Settings\\other", text)
            text = re.sub("(?m)^#sid=.*$", "#sid=S-1-5-21-1-2-3-1004", text)
            path.write_text(text, encoding="utf-8")
        derive = ["derive", "--obs", str(sim_tree / "obs" / "app.open"), "--action", "app.open"]
        assert main(derive + ["--background", str(ambient)]) == 2
        assert capsys.readouterr().err == (
            "error: --background snapshots describe another system than --obs: "
            "home_path, sids differ\n"
        )

    @staticmethod
    def other_systems(obs):
        """Give one ``--obs`` run file another home path and every
        ``--background`` run file another SID."""
        run = obs / "app.open" / "run001_before.csv"
        run.write_text(run.read_text(encoding="utf-8").replace(
            "#home_path=\\Documents and Settings\\demo", "#home_path=\\Documents and Settings\\other"
        ), encoding="utf-8")
        for path in (obs / "web.browse").glob("run*.csv"):
            text = re.sub("(?m)^#sid=.*$", "#sid=S-1-5-21-1-2-3-1004", path.read_text(encoding="utf-8"))
            path.write_text(text, encoding="utf-8")

    @pytest.mark.parametrize("bad", ["app.open/run003_after.csv", "web.browse/run002_after.csv"])
    def test_a_malformed_run_file_is_named_before_any_metadata_mismatch(self, sim_tree, bad, capsys):
        """The first malformed run file in run order, ``--obs`` then
        ``--background``, is named, although an earlier ``--obs`` file holds
        another home path and every ``--background`` file another SID."""
        obs = sim_tree / "obs"
        self.other_systems(obs)
        bad = obs / bad
        bad.write_text(bad.read_text(encoding="utf-8").replace("\nfile,", "\nfiel,", 1), encoding="utf-8")
        rc = main(["derive", "--obs", str(obs / "app.open"), "--background", str(obs / "web.browse"),
                   "--action", "app.open"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line ")
        assert err.endswith(": unknown record kind 'fiel'\n")

    def test_a_directory_s_own_runs_are_checked_before_background_against_obs(self, sim_tree, capsys):
        obs = sim_tree / "obs"
        self.other_systems(obs)
        rc = main(["derive", "--obs", str(obs / "app.open"), "--background", str(obs / "web.browse"),
                   "--action", "app.open"])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: observations use inconsistent snapshot metadata: home_path differ\n"
        )

    def test_derive_names_a_non_utf8_run_file(self, sim_tree, capsys):
        run = sim_tree / "obs" / "app.open" / "run000_after.csv"
        with run.open("ab") as handle:
            handle.write(b"\xff")
        rc = main(["derive", "--obs", str(run.parent), "--action", "app.open"])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {run} is not UTF-8 text: ")

    def test_byte_order_marks_leave_the_derived_signature_alone(self, sim_tree, tmp_path, capsys):
        obs = sim_tree / "obs" / "app.open"
        derive = ["derive", "--obs", str(obs), "--action", "app.open", "--platform", "sim"]
        plain, marked = tmp_path / "plain.sig", tmp_path / "marked.sig"
        assert main(derive + ["-o", str(plain)]) == 0
        for path in obs.iterdir():  # every run snapshot and sessions.csv
            path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert main(derive + ["-o", str(marked)]) == 0
        capsys.readouterr()
        assert marked.read_bytes() == plain.read_bytes()

    def test_runs_captured_at_other_times_derive_the_same_signature(self, sim_tree, tmp_path, capsys):
        obs = sim_tree / "obs" / "app.open"
        derive = ["derive", "--obs", str(obs), "--action", "app.open", "--platform", "sim"]
        plain, later = tmp_path / "plain.sig", tmp_path / "later.sig"
        assert main(derive + ["-o", str(plain)]) == 0
        for path in obs.glob("run*_after.csv"):
            text = path.read_text(encoding="utf-8")
            assert "#capture_time=2010-05-02T00:00:00Z\n" in text
            path.write_text(
                text.replace("#capture_time=2010-05-02T00:00:00Z", "#capture_time=2010-05-02T00:05:00Z"),
                encoding="utf-8",
            )
        assert main(derive + ["-o", str(later)]) == 0
        assert main(["inspect", "--obs", str(obs)]) == 0
        capsys.readouterr()
        assert later.read_bytes() == plain.read_bytes()

    def test_no_record_is_built_without_traces(self, sim_tree, monkeypatch, capsys):
        """The trace names come from the snapshots' keys and the diff reads row text."""
        built = []
        check = ArtifactRecord.__post_init__
        monkeypatch.setattr(ArtifactRecord, "__post_init__", lambda r: built.append(r) or check(r))
        obs = sim_tree / "obs"
        derive = ["derive", "--obs", str(obs / "app.open"), "--action", "app.open"]
        assert main(derive + ["--background", str(obs / "web.browse")]) == 0
        assert main(["inspect", "--obs", str(obs / "app.open")]) == 0
        capsys.readouterr()
        assert built == []

    def test_derive_leaves_out_traces_holding_a_percent_sign(self, tmp_path, capsys):
        data = json.loads(fixture_text("demo_scenario.json"))
        folder = "C:\\Documents and Settings\\demo\\My Documents"
        for name in ("100%.txt", "a%sb.txt"):
            rule = {"trace": f"{folder}\\{name}", "kind": "file", "field": "modified", "mode": "always"}
            data["model"]["app.open"].append(rule)
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(data), encoding="utf-8")
        out, sig_file = tmp_path / "sim", tmp_path / "derived.sig"
        assert main(["simulate", "--scenario", str(scenario), "-o", str(out)]) == 0
        capsys.readouterr()
        rc = main(
            ["derive", "--obs", str(out / "obs" / "app.open"),
             "--background", str(out / "obs" / "web.browse"),
             "--action", "app.open", "--platform", "sim", "-o", str(sig_file)]
        )
        err = capsys.readouterr().err
        assert rc == 0
        assert "My Documents" not in sig_file.read_text(encoding="utf-8")
        assert [line for line in err.splitlines() if line.startswith("WARNING")] == [
            "WARNING: 2 trace(s) hold a percent sign in their path, which no template can; "
            "leaving them out of the signature"
        ]

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
