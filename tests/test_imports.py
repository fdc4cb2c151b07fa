"""The package's import graph: its public names resolve lazily to the same
objects as before, and a cold CLI command loads only the modules it runs."""
from __future__ import annotations

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import zforcing

SRC = Path(__file__).resolve().parent.parent / "src"

# every public name of the package, by the module it comes from
HOMES = {
    "graphs": ["Claw", "Graph", "bits", "complete_graph", "components", "cycle_graph",
               "enumerate_graphs", "find_claws", "format_edge_list", "from_edge_list",
               "graph_from_edge_mask", "has_claw", "induced_subgraph", "is_claw_free",
               "is_connected", "mask_of", "parse_edge_list", "parse_graph6", "path_graph",
               "reach", "star_graph", "to_graph6"],
    "forcing": ["Chronology", "ChronologyError", "ColorState", "Force", "Rule", "apply_step",
                "check_chronology", "chronological_list", "closure", "closure_mask",
                "expansion_sequence", "is_forcing_set", "make_chronology",
                "restrict_chronology", "valid_forces"],
    "bundles": ["ComponentHistory", "PathBundle", "build_bundle", "component_history",
                "terminus"],
    "solver": ["SolverReport", "all_minimum_sets", "forcing_number"],
    "reconnection": ["MinimalityRefutation", "ReconnectionStep", "boundary_set",
                     "connected_complement_set", "connected_complement_trace", "find_pivot",
                     "first_saturation_time", "improve_component"],
    "verifier": ["CorpusSummary", "EqualityReport", "MirrorReport", "check_equality",
                 "is_zz_perfect_direct", "mirror_check", "run_corpus",
                 "run_corpus_enumerated"],
}


def test_all_is_unchanged():
    names = sorted([*HOMES, *(name for names in HOMES.values() for name in names)])
    assert len(names) == 67
    assert zforcing.__all__ == names


def test_names_are_their_home_objects():
    for module, names in HOMES.items():
        home = importlib.import_module(f"zforcing.{module}")
        assert getattr(zforcing, module) is home
        for name in names:
            assert getattr(zforcing, name) is getattr(home, name), name
    assert set(zforcing.__all__) <= set(dir(zforcing))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError):
        zforcing.no_such_name


def test_star_import():
    ns: dict = {}
    exec("from zforcing import *", ns)
    assert set(ns) - {"__builtins__"} == set(zforcing.__all__)
    assert ns["Graph"] is zforcing.graphs.Graph


def loaded_by(argv: list[str]) -> set[str]:
    """The zforcing modules a fresh interpreter holds after main(argv)."""
    script = ("import contextlib, io, sys\n"
              "from zforcing.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = main({argv!r})\n"
              "assert code == 0, code\n"
              "print(' '.join(m for m in sys.modules if m.startswith('zforcing.')))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    return {m.removeprefix("zforcing.") for m in out}


@pytest.mark.parametrize("argv, runs, skipped", [
    (["solve", "--graph6", "Cr"], {"solver"}, {"verifier", "classes", "reconnection", "bundles"}),
    (["trace", "--graph6", "Cr", "--blue", "1,2"], set(),
     {"verifier", "classes", "reconnection", "bundles", "solver"}),
    (["verify", "--graph6", "Cr"], {"verifier", "solver"},
     {"classes", "reconnection", "bundles"}),
], ids=["solve", "trace", "verify-graph6"])
def test_cold_command_loads_only_what_it_runs(argv, runs, skipped):
    loaded = loaded_by(argv)
    assert {"cli", "documents", "graphs", "forcing", *runs} <= loaded
    assert not skipped & loaded


def test_verify_loads_the_class_module():
    assert {"verifier", "classes"} <= loaded_by(["verify", "--enumerate", "3"])
