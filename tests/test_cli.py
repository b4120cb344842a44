import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import btai
from btai.cli import main
from btai.scenario import shipped_scenario_path

S1 = str(shipped_scenario_path("scenario_1.yaml"))
CLASSIC = str(shipped_scenario_path("bt_classic_27.yaml"))
FAIL = str(shipped_scenario_path("scenario_failure.yaml"))


def cli_env(**extra):
    """The environment of a fresh interpreter that imports this btai."""
    src = str(Path(btai.__file__).resolve().parents[1])
    return dict(os.environ, **extra, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))


class TestRun:
    def test_goal_exit_zero(self, capsys):
        assert main(["run", S1]) == 0
        out = capsys.readouterr().out
        assert "outcome: Goal" in out

    def test_failure_exit_one(self, capsys):
        assert main(["run", FAIL]) == 1

    def test_timeout_exit_two(self, capsys):
        assert main(["run", S1, "--budget", "2"]) == 2

    def test_quiet_suppresses_report(self, capsys):
        main(["run", S1, "--quiet"])
        assert capsys.readouterr().out == ""

    def test_trace_out(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        main(["run", S1, "--quiet", "--trace-out", str(trace)])
        lines = trace.read_text().splitlines()
        assert lines
        record = json.loads(lines[0])
        assert record["tick"] == 0

    def test_bad_budget(self, capsys):
        assert main(["run", S1, "--budget", "0"]) == 3

    def test_negative_seed(self, capsys):
        assert main(["run", S1, "--seed", "-1"]) == 3

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_trace_to_a_pipe_is_a_stream(self, tmp_path):
        # a pipe cannot be cut to length: the trace goes out as a stream
        trace = tmp_path / "trace.jsonl"
        assert main(["run", S1, "--quiet", "--trace-out", str(trace)]) == 0
        proc = subprocess.run(
            [sys.executable, "-m", "btai.cli", "run", S1, "--trace-out", "/dev/stdout",
             "--quiet"], env=cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            timeout=120)
        assert proc.returncode == 0, proc.stderr  # Goal
        assert proc.stdout == trace.read_bytes()

    def test_unwritable_trace_path(self, tmp_path, capsys):
        trace = tmp_path / "missing" / "trace.jsonl"
        assert main(["run", S1, "--quiet", "--trace-out", str(trace)]) == 3
        assert "error" in capsys.readouterr().err


class TestGraph:
    def test_stdout(self, capsys):
        assert main(["graph", S1]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert out.count("[shape=") == 6

    def test_file_output(self, tmp_path, capsys):
        out_file = tmp_path / "tree.dot"
        assert main(["graph", S1, "--out", str(out_file)]) == 0
        assert out_file.read_text().startswith("digraph")


class TestValidate:
    def test_ok(self, capsys):
        assert main(["validate", S1]) == 0
        assert "6 bt nodes" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["validate", "/no/such/file.yaml"]) == 3
        assert "error" in capsys.readouterr().err

    def test_invalid_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("format: wrong\n")
        assert main(["validate", str(bad)]) == 3


class TestCountNodes:
    def test_counts_and_ratio(self, capsys):
        assert main(["count-nodes", S1, CLASSIC]) == 0
        out = capsys.readouterr().out
        assert "6 nodes" in out
        assert "27 nodes" in out
        assert "ratio: 0.2222" in out
        assert "compression: 0.7778" in out


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 3

    def test_no_args(self, capsys):
        assert main([]) == 3


class TestNonAsciiNames:
    """A stdout that cannot encode a name prints it escaped: the exit code
    stays the command's own and no traceback is printed."""

    @pytest.fixture
    def umlaut_scenario(self, tmp_path):
        text = Path(S1).read_text(encoding="utf-8")
        text = (text.replace("mobile-manipulation-nominal", "m\u00f6bile")
                .replace("isAt", "ist\u00dcber").replace("moveTo(table)", "zum-T\u00fcsch"))
        path = tmp_path / "umlaut.yaml"
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize("command, extra", [
        ("run", []), ("graph", []), ("validate", []), ("count-nodes", [S1])])
    def test_ascii_stdout(self, umlaut_scenario, command, extra):
        proc = subprocess.run(
            [sys.executable, "-m", "btai.cli", command, str(umlaut_scenario), *extra],
            env=cli_env(PYTHONIOENCODING="ascii"), capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr  # run reaches its goal
        assert b"Traceback" not in proc.stderr
        if command == "graph":
            assert b"ist\\xdcber" in proc.stdout
        else:
            assert b"m\\xf6bile" in proc.stdout
