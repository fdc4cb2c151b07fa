from __future__ import annotations

import io
import json
import subprocess
import sys

import pytest

from conftest import TWO_DIAMONDS_EDGES, two_diamonds_graph
from zforcing import CorpusSummary, complete_graph, path_graph, to_graph6
from zforcing import cli, solver
from zforcing.cli import main


def run_cli(capsys, argv, stdin: str | None = None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


class ClosedPipe(io.StringIO):
    """A stream whose reader went away, over the descriptor of target."""

    def __init__(self, target):
        super().__init__()
        self.target = target

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.target.fileno()


@pytest.fixture
def edges_file(tmp_path):
    lines = ["8 11"] + [f"{u} {v}" for u, v in TWO_DIAMONDS_EDGES]
    path = tmp_path / "two_diamonds.txt"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.txt"
    path.write_text("4 3\n1 2\n1 3\n1 4\n")
    return str(path)


@pytest.fixture
def p4_file(tmp_path):
    path = tmp_path / "p4.txt"
    path.write_text("4 3\n1 2\n2 3\n3 4\n")
    return str(path)


class TestSolve:
    def test_psd(self, capsys, edges_file):
        code, doc, _ = run_cli(capsys, ["solve", "--rule", "psd", "--edges", edges_file])
        assert code == 0
        assert doc["command"] == "solve"
        assert doc["value"] == 3
        assert doc["witness"] == [1, 2, 6]
        assert doc["tested"] == 40
        assert "minimum_sets" not in doc

    def test_complete_24_finishes(self, capsys):
        code, doc, _ = run_cli(
            capsys, ["solve", "--rule", "psd", "--graph6", to_graph6(complete_graph(24))])
        assert code == 0
        assert doc["value"] == 23
        assert doc["witness"] == list(range(1, 24))

    def test_cap_lists_sets(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["solve", "--edges", edges_file, "--cap", "5"])
        assert code == 0
        assert len(doc["minimum_sets"]) == 5
        assert doc["minimum_sets"][0] == [1, 2, 6]

    def test_cap_above_sys_maxsize(self, capsys):
        _, capped, _ = run_cli(capsys, ["solve", "--graph6", "A_", "--cap", "1000"])
        code, doc, err = run_cli(capsys, ["solve", "--graph6", "A_",
                                          "--cap", "99999999999999999999"])
        assert (code, err) == (0, "")
        assert doc["minimum_sets"] == capped["minimum_sets"] == [[1], [2]]

    def test_cap_searches_once(self, capsys, monkeypatch):
        calls = []
        search = solver._search_min
        monkeypatch.setattr(solver, "_search_min",
                            lambda *args: calls.append(args) or search(*args))
        code, doc, _ = run_cli(capsys, ["solve", "--rule", "psd", "--cap", "3",
                                        "--graph6", to_graph6(complete_graph(12))])
        assert code == 0
        assert doc["value"] == 11
        assert doc["minimum_sets"] == [list(range(1, 12)), list(range(1, 11)) + [12],
                                       list(range(1, 10)) + [11, 12]]
        assert len(calls) == 1

    def test_bad_cap(self, capsys, edges_file):
        code, doc, err = run_cli(
            capsys, ["solve", "--edges", edges_file, "--cap", "0"])
        assert code == 2
        assert doc is None
        assert "error:" in err

    def test_bad_cap_rejected_before_search(self, capsys, monkeypatch):
        calls = []
        search = solver._search_min
        monkeypatch.setattr(solver, "_search_min",
                            lambda *args: calls.append(args) or search(*args))
        g = complete_graph(12)
        code, doc, err = run_cli(capsys, ["solve", "--cap", "0", "--graph6", to_graph6(g)])
        assert (code, doc, err) == (2, None, "error: cap must be at least 1\n")
        with pytest.raises(ValueError, match="cap must be at least 1"):
            solver.all_minimum_sets(g, "psd", cap=0)
        assert calls == []

    def test_graph6_takes_precedence(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["solve", "--graph6", "A_", "--edges", edges_file])
        assert code == 0
        assert doc["n"] == 2

    def test_stdin_edge_list(self, capsys, monkeypatch, edges_file):
        text = open(edges_file).read()
        code, doc, _ = run_cli(capsys, ["solve"], stdin=text, monkeypatch=monkeypatch)
        assert code == 0
        assert doc["n"] == 8
        assert doc["value"] == 3


class TestTraceAndList:
    def test_greedy_trace(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["trace", "--blue", "2,4,6", "--edges", edges_file])
        assert code == 0
        assert doc["schedule"] == "greedy"
        assert doc["tau"] == 3
        assert doc["all_blue"] is True
        assert doc["steps"][0] == [
            {"source": 4, "target": 3}, {"source": 4, "target": 5}]
        assert doc["expansion"][0] == [2, 4, 6]
        assert doc["expansion"][-1] == list(range(1, 9))

    def test_lex_trace(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["trace", "--blue", "2,4,6", "--schedule", "lex",
                     "--edges", edges_file])
        assert code == 0
        assert doc["tau"] == 5
        assert all(len(step) == 1 for step in doc["steps"])

    def test_trace_stalls_quietly(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["trace", "--rule", "standard", "--blue", "2,4,6",
                     "--edges", edges_file])
        assert code == 0
        assert doc["tau"] == 0
        assert doc["all_blue"] is False

    def test_list_command(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["list", "--blue", "2,4,6", "--edges", edges_file])
        assert code == 0
        assert doc["command"] == "list"
        assert doc["schedule"] == "lex"
        assert doc["steps"][0] == [{"source": 4, "target": 3}]

    def test_list_rejects_non_forcing(self, capsys, edges_file):
        code, doc, err = run_cli(
            capsys, ["list", "--rule", "standard", "--blue", "2,4,6",
                     "--edges", edges_file])
        assert code == 2
        assert "error:" in err

    def test_bad_blue_spec(self, capsys, edges_file):
        code, _, err = run_cli(
            capsys, ["trace", "--blue", "2,x", "--edges", edges_file])
        assert code == 2
        assert "error:" in err

    def test_empty_blue_list(self, capsys, edges_file):
        code, doc, err = run_cli(capsys, ["trace", "--blue", ",", "--edges", edges_file])
        assert (code, doc) == (2, None)
        assert err == "error: --blue must name at least one vertex\n"


class TestBundle:
    def test_frozen_document(self, capsys, edges_file):
        code, doc, _ = run_cli(
            capsys, ["bundle", "--blue", "2,4,6", "--x", "7",
                     "--edges", edges_file])
        assert code == 0
        assert doc["t_x"] == 2
        assert doc["paths"] == [[2], [4, 5, 7], [6]]
        assert doc["terminus"] == [2, 6, 7]

    def test_vertex_out_of_range(self, capsys, edges_file):
        code, _, err = run_cli(
            capsys, ["bundle", "--blue", "2,4,6", "--x", "9",
                     "--edges", edges_file])
        assert code == 2
        assert "error:" in err


class TestImproveConnectify:
    def test_connectify_star(self, capsys, star_file):
        code, doc, _ = run_cli(capsys, ["connectify", "--edges", star_file])
        assert code == 0
        assert doc["set"] == [4]
        assert doc["iterations"] == 1
        assert doc["complement_connected"] is True
        assert doc["steps"][0]["w_star"] == 4

    def test_improve_default_component(self, capsys, star_file):
        code, doc, _ = run_cli(
            capsys, ["improve", "--blue", "1", "--edges", star_file])
        assert code == 0
        assert doc["result"] == "step"
        assert doc["component"] == [2]
        assert doc["step"]["t"] == 3
        assert doc["step"]["s_prime"] == [4]

    def test_improve_refutation(self, capsys, p4_file):
        code, doc, _ = run_cli(
            capsys, ["improve", "--blue", "2,3", "--edges", p4_file])
        assert code == 0
        assert doc["result"] == "refutation"
        assert doc["refutation"] == {"y": 3, "smaller": [2]}

    def test_improve_named_component(self, capsys, p4_file):
        code, doc, _ = run_cli(
            capsys, ["improve", "--blue", "2,3", "--x", "4",
                     "--edges", p4_file])
        assert code == 0
        assert doc["component"] == [4]
        assert doc["result"] == "refutation"
        assert doc["refutation"] == {"y": 2, "smaller": [3]}

    def test_improve_x_inside_s(self, capsys, p4_file):
        code, _, err = run_cli(
            capsys, ["improve", "--blue", "2,3", "--x", "2",
                     "--edges", p4_file])
        assert code == 2
        assert "error:" in err

    def test_improve_blue_names_every_vertex(self, capsys, star_file):
        code, doc, err = run_cli(capsys, ["improve", "--blue", "1,2,3,4", "--edges", star_file])
        assert (code, doc) == (2, None)
        assert err == "error: g - s has no vertices\n"


class TestClawsPerfect:
    def test_claws(self, capsys, star_file):
        code, doc, _ = run_cli(capsys, ["claws", "--edges", star_file])
        assert code == 0
        assert doc["claw_free"] is False
        assert doc["claws"] == [{"center": 1, "leaves": [2, 3, 4]}]

    def test_claw_free(self, capsys, edges_file):
        code, doc, _ = run_cli(capsys, ["claws", "--edges", edges_file])
        assert code == 0
        assert doc["claw_free"] is True
        assert doc["claws"] == []

    def test_perfect_direct(self, capsys, p4_file):
        code, doc, _ = run_cli(capsys, ["perfect", "--edges", p4_file])
        assert code == 0
        assert doc["perfect"] is True

    def test_perfect_clawfree_shortcut(self, capsys, star_file):
        code, doc, _ = run_cli(
            capsys, ["perfect", "--mode", "clawfree", "--edges", star_file])
        assert code == 0
        assert doc["perfect"] is False

    def test_perfect_direct_size_cap(self, capsys):
        code, _, err = run_cli(
            capsys, ["perfect", "--graph6", to_graph6(path_graph(7))])
        assert code == 2
        assert "error:" in err


class TestVerify:
    def test_enumerate_frozen(self, capsys):
        code, doc, _ = run_cli(
            capsys, ["verify", "--mode", "theorem", "--enumerate", "4"])
        assert code == 0
        assert doc["total"] == 64
        assert doc["claw_free"] == 60
        assert doc["checked"] == 34
        assert doc["failures"] == []
        assert doc["source"] == "enumerate:4"

    def test_single_graph6(self, capsys):
        code, doc, _ = run_cli(
            capsys, ["verify", "--mode", "monotonicity", "--graph6",
                     to_graph6(complete_graph(3))])
        assert code == 0
        assert doc["total"] == 1
        assert doc["checked"] == 1

    def test_graph6_lines_from_file(self, capsys, tmp_path):
        lines = [to_graph6(two_diamonds_graph()), to_graph6(complete_graph(3))]
        path = tmp_path / "corpus.g6"
        path.write_text("\n".join(lines) + "\n")
        code, doc, _ = run_cli(
            capsys, ["verify", "--mode", "theorem", "--edges", str(path)])
        assert code == 0
        assert doc["total"] == 2
        assert doc["checked"] == 2
        assert doc["source"] == str(path)

    def test_graph6_lines_from_stdin(self, capsys, monkeypatch):
        text = to_graph6(path_graph(4)) + "\n"
        code, doc, _ = run_cli(
            capsys, ["verify", "--mode", "theorem"], stdin=text,
            monkeypatch=monkeypatch)
        assert code == 0
        assert doc["total"] == 1
        assert doc["source"] == "stdin"

    def test_stdin_is_streamed_line_by_line(self, capsys, monkeypatch):
        class LinesOnly:
            # no read(): verify must iterate its input, not slurp it
            def __init__(self, lines):
                self.lines = lines

            def __iter__(self):
                return iter(self.lines)

        good = [to_graph6(path_graph(4)) + "\n", "\n", to_graph6(complete_graph(3)) + "\n"]
        monkeypatch.setattr("sys.stdin", LinesOnly(good))
        code, doc, _ = run_cli(capsys, ["verify", "--mode", "theorem"])
        assert code == 0
        assert doc["total"] == 2
        monkeypatch.setattr("sys.stdin", LinesOnly(good + ["not graph6\n"]))
        code, doc, err = run_cli(capsys, ["verify", "--mode", "theorem"])
        assert code == 2
        assert doc is None
        assert "error:" in err

    def test_bad_graph6_line_is_usage_error(self, capsys, monkeypatch):
        code, _, err = run_cli(
            capsys, ["verify"], stdin="not graph6\n", monkeypatch=monkeypatch)
        assert code == 2
        assert "error:" in err

    def test_corollary_enumerate_7_is_usage_error(self, capsys):
        code, doc, err = run_cli(
            capsys, ["verify", "--mode", "corollary", "--enumerate", "7"])
        assert code == 2
        assert doc is None
        assert "error:" in err and "n <= 6" in err

    def test_theorem_enumerate_10_is_usage_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no graph may be generated")

        monkeypatch.setattr("zforcing.classes._class_levels", refuse)
        code, doc, err = run_cli(
            capsys, ["verify", "--mode", "theorem", "--enumerate", "10"])
        assert code == 2
        assert doc is None
        assert "error:" in err and "1..9" in err

    @pytest.mark.parametrize("mode, n, cap", [
        ("theorem", 0, 9), ("theorem", 10, 9), ("corollary", 0, 6), ("corollary", 7, 6),
        ("corollary", 8, 6), ("monotonicity", 0, 7), ("monotonicity", 8, 7)])
    def test_enumerate_refusals_name_the_cap(self, capsys, monkeypatch, mode, n, cap):
        def refuse(*args, **kwargs):
            raise AssertionError("no graph may be generated")

        monkeypatch.setattr("zforcing.classes._class_levels", refuse)
        code, doc, err = run_cli(capsys, ["verify", "--mode", mode, "--enumerate", str(n)])
        assert (code, doc) == (2, None)
        assert err == f"error: enumeration supports 1..{cap} vertices (n <= {cap}) " \
                      f"in {mode} mode, got {n}\n"

    def test_jobs_flag_is_gone(self, capsys):
        assert main(["verify", "--enumerate", "3", "--jobs", "2"]) == 2
        capsys.readouterr()

    def test_failures_flip_exit_code(self, capsys, monkeypatch):
        fake = CorpusSummary(mode="theorem", total=1, claw_free=1, checked=1,
                             failures=["A_"])
        monkeypatch.setattr("zforcing.verifier.run_corpus", lambda *a, **k: fake)
        code, doc, _ = run_cli(
            capsys, ["verify", "--graph6", "A_"])
        assert code == 1
        assert doc["failures"] == ["A_"]

    def test_errors_exit_2_with_document(self, capsys, monkeypatch):
        # F~~~w has 7 vertices, past the direct perfection check's cap, so
        # the graph raises: nothing is checked and the run is no success
        code, doc, err = run_cli(
            capsys, ["verify", "--mode", "corollary"], stdin="F~~~w\n",
            monkeypatch=monkeypatch)
        assert code == 2
        assert err == ""
        assert doc["checked"] == 0
        assert doc["failures"] == []
        assert doc["errors"] == ["F~~~w: ValueError: direct perfection check supports n <= 6 only"]

    def test_failures_outrank_errors(self, capsys, monkeypatch):
        fake = CorpusSummary(mode="theorem", total=2, claw_free=2, checked=1,
                             failures=["A_"], errors=["Bw: RuntimeError: broke"])
        monkeypatch.setattr("zforcing.verifier.run_corpus", lambda *a, **k: fake)
        code, doc, _ = run_cli(capsys, ["verify", "--graph6", "A_"])
        assert code == 1
        assert doc["errors"] == ["Bw: RuntimeError: broke"]


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["solve", "--frobnicate"]) == 2
        capsys.readouterr()

    def test_missing_required(self, capsys):
        assert main(["bundle", "--blue", "1"]) == 2
        capsys.readouterr()

    def test_missing_edges_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["solve", "--edges", str(tmp_path / "absent.txt")])
        assert code == 2
        assert "error:" in err

    def test_internal_error_exits_3(self, capsys, monkeypatch):
        def crash(args):
            raise AssertionError("lemma postcondition broke")

        monkeypatch.setitem(cli._HANDLERS, "solve", crash)
        code, doc, err = run_cli(
            capsys, ["solve", "--graph6", to_graph6(path_graph(3))])
        assert code == 3
        assert doc is None
        assert err.splitlines()[-1] == "internal error: AssertionError: lemma postcondition broke"

    def test_closed_stdout_exits_2(self, capsys, monkeypatch, tmp_path):
        with open(tmp_path / "out", "w") as target:
            monkeypatch.setattr("sys.stdout", ClosedPipe(target))
            code = main(["verify", "--mode", "theorem", "--enumerate", "5"])
        assert code == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"

    def test_crash_on_closed_stderr_exits_3(self, monkeypatch, tmp_path):
        def crash(args):
            raise AssertionError("lemma postcondition broke")

        monkeypatch.setitem(cli._HANDLERS, "solve", crash)
        with open(tmp_path / "err", "w") as target:
            monkeypatch.setattr("sys.stderr", ClosedPipe(target))
            assert main(["solve", "--graph6", to_graph6(path_graph(3))]) == 3

    def test_closed_stdout_is_quiet_at_exit(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "zforcing.cli", "verify", "--mode", "theorem",
             "--enumerate", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()  # no reader is left when the document is written
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.decode() == "error: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("argv", [
        ["verify", "--mode", "theorem", "--enumerate", "5"],
        ["solve", "--graph6", "@"],
        ["solve", "--graph6", "bad!"],
    ], ids=["verify", "solve", "bad-input"])
    def test_closed_shared_pipe_exits_2(self, argv):
        # stderr writes to stdout's pipe, so the error line has no reader
        # either; exit 120 would mean a failed flush at interpreter exit
        proc = subprocess.Popen([sys.executable, "-m", "zforcing.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2


class TestDeterminism:
    def test_identical_runs_modulo_elapsed(self, capsys, edges_file):
        outs = []
        for _ in range(2):
            main(["solve", "--edges", edges_file, "--cap", "3"])
            raw = capsys.readouterr().out
            outs.append("\n".join(line for line in raw.splitlines()
                                  if "elapsed_ms" not in line))
        assert outs[0] == outs[1]

    def test_verify_runs_identical_modulo_elapsed(self, capsys):
        outs = []
        for _ in range(2):
            main(["verify", "--enumerate", "3"])
            raw = capsys.readouterr().out
            outs.append("\n".join(line for line in raw.splitlines()
                                  if "elapsed_ms" not in line))
        assert outs[0] == outs[1]
