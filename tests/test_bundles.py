from __future__ import annotations

import random
import subprocess
import sys

import pytest

from conftest import TWO_DIAMONDS_EDGES, two_diamonds_graph
from naive import comps_of
from zforcing import (
    Chronology,
    Force,
    Graph,
    Rule,
    all_minimum_sets,
    bits,
    build_bundle,
    chronological_list,
    closure,
    component_history,
    enumerate_graphs,
    make_chronology,
    mask_of,
    parse_graph6,
    path_graph,
    terminus,
    valid_forces,
)
from zforcing.classes import _class_levels, _graph_classes, _rows_of_key
from zforcing.forcing import _least, _walk

B0 = mask_of([1, 3, 5])

# the 4-cycle 0-2-1-3 with a hand-built chronology that no rule admits:
# 0 forces 2 and then 3, so the force into x = 1's component at step two
# comes from 0, which no longer ends a path
C4 = "C]"
C4_STEPS = ((0, 2), (0, 3), (2, 1))


def random_list(g, b, rule, rng):
    """A chronological list built by choosing a random valid force each step."""
    blue = b
    order = []
    while blue != g.full_mask:
        force = rng.choice(sorted(valid_forces(g, blue, rule)))
        order.append(force)
        blue |= 1 << force.target
    return chronological_list(g, b, rule, replay=order)


class TestComponentHistory:
    def test_two_diamonds_greedy(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        hist = component_history(two_diamonds, chron, 6)
        assert hist.t_x == 2
        assert hist.comps == (mask_of([4, 6, 7]), mask_of([6, 7]))

    def test_initial_vertex_is_degenerate(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        hist = component_history(two_diamonds, chron, 3)
        assert hist.t_x == 0
        assert hist.comps == ()

    @pytest.mark.parametrize("x", [3, -1])
    def test_vertex_outside_graph_rejected(self, x):
        g = path_graph(3)
        chron, _ = closure(g, mask_of([0]), Rule.STANDARD)
        with pytest.raises(ValueError, match=f"^vertex {x} outside the graph$"):
            component_history(g, chron, x)

    def test_unforced_vertex_rejected(self):
        g = path_graph(3)
        partial = make_chronology(g, mask_of([0]), [[Force(0, 1)]], Rule.STANDARD)
        with pytest.raises(ValueError):
            component_history(g, partial, 2)

    def test_history_shrinks(self, two_diamonds):
        chron = chronological_list(two_diamonds, B0, Rule.PSD)
        for x in bits(two_diamonds.full_mask & ~B0):
            hist = component_history(two_diamonds, chron, x)
            for earlier, later in zip(hist.comps, hist.comps[1:]):
                assert later & ~earlier == 0


class TestBuildBundle:
    def test_two_diamonds_greedy(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        bundle = build_bundle(two_diamonds, chron, 6)
        assert bundle.t_x == 2
        assert bundle.paths == ((1,), (3, 4, 6), (5,))
        assert bundle.vertex_mask == mask_of([1, 3, 4, 5, 6])

    def test_two_diamonds_alternate_chronology(self, two_diamonds):
        # same run with the step-two force into vertex 0 coming from 2
        steps = [
            [Force(3, 2), Force(3, 4)],
            [Force(2, 0), Force(4, 6)],
            [Force(5, 7)],
        ]
        chron = make_chronology(two_diamonds, B0, steps, Rule.PSD)
        bundle = build_bundle(two_diamonds, chron, 6)
        assert bundle.paths == ((1,), (3, 4, 6), (5,))
        assert terminus(two_diamonds, chron, bundle) == mask_of([1, 5, 6])

    def test_path_graph_single_chain(self):
        g = path_graph(3)
        chron = chronological_list(g, mask_of([0]), Rule.STANDARD)
        bundle = build_bundle(g, chron, 2)
        assert bundle.paths == ((0, 1, 2),)

    def test_paths_follow_graph_edges(self, two_diamonds):
        rng = random.Random(7)
        chron = random_list(two_diamonds, B0, Rule.PSD, rng)
        for x in bits(two_diamonds.full_mask):
            bundle = build_bundle(two_diamonds, chron, x)
            for path in bundle.paths:
                for u, v in zip(path, path[1:]):
                    assert two_diamonds.has_edge(u, v)

    def test_path_end_check_never_fires(self):
        # every class to five vertices, every nonempty blue set, both
        # rules, the greedy closure and (when it forces everything) the lex
        # list, and every vertex the run colours
        for n in range(1, 6):
            for g, _ in _graph_classes(n):
                for b in range(1, 1 << n):
                    for rule in Rule:
                        chron, states = closure(g, b, rule)
                        chrons = [chron]
                        if states[-1] == g.full_mask:
                            chrons.append(chronological_list(g, b, rule))
                        for chron in chrons:
                            for x in bits(states[-1]):
                                build_bundle(g, chron, x)

    def test_path_end_check_fires_on_a_hand_built_chronology(self):
        chron = Chronology(1, tuple(frozenset([Force(*f)]) for f in C4_STEPS), Rule.PSD)
        with pytest.raises(AssertionError,
                           match="^every force into x's component must come from a path end$"):
            build_bundle(parse_graph6(C4), chron, 1)


class TestTerminus:
    def test_two_diamonds_greedy(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        bundle = build_bundle(two_diamonds, chron, 6)
        assert terminus(two_diamonds, chron, bundle) == mask_of([1, 5, 6])

    def test_x_in_terminus_when_forced(self, two_diamonds):
        chron = chronological_list(two_diamonds, B0, Rule.PSD)
        for x in bits(two_diamonds.full_mask & ~B0):
            bundle = build_bundle(two_diamonds, chron, x)
            t = terminus(two_diamonds, chron, bundle)
            assert t >> x & 1

    def test_size_law_exhaustive(self):
        # every minimum psd set, the lex list plus seeded random lists,
        # every target vertex: the terminus keeps one vertex per path and
        # is itself a minimum psd forcing set; cutting the list after step
        # t_x changes neither the bundle nor its terminus
        rng = random.Random(41)
        for n in range(2, 5):
            for g in enumerate_graphs(n, connected_only=True):
                for witness in all_minimum_sets(g, Rule.PSD):
                    lists = [chronological_list(g, witness, Rule.PSD)]
                    lists.append(random_list(g, witness, Rule.PSD, rng))
                    for chron in lists:
                        for x in range(g.n):
                            bundle = build_bundle(g, chron, x)
                            assert len(bundle.paths) == witness.bit_count()
                            t = terminus(g, chron, bundle)
                            assert t.bit_count() == witness.bit_count()
                            cut = chron._replace(steps=chron.steps[:bundle.t_x])
                            assert build_bundle(g, cut, x) == bundle
                            assert terminus(g, cut, bundle) == t

    def test_terminus_vertices_end_paths(self, two_diamonds):
        # each terminus member is the last vertex of its own path
        chron = chronological_list(two_diamonds, B0, Rule.PSD)
        for x in bits(two_diamonds.full_mask):
            bundle = build_bundle(two_diamonds, chron, x)
            t = terminus(two_diamonds, chron, bundle)
            last = {p[-1] for p in bundle.paths}
            # a path endpoint may still source forces outside the bundle,
            # but terminus members never source inside it
            assert set(bits(t)) <= set(v for p in bundle.paths for v in p)
            assert len(last) == len(bundle.paths)

    def test_size_check_survives_optimize(self):
        # a bundle with one path listed twice breaks the one-vertex-per-path
        # law; python -O strips assert statements, not this check
        script = f"""
import sys
from zforcing import PathBundle, Rule, build_bundle, closure, from_edge_list, terminus
g = from_edge_list(8, [(u - 1, v - 1) for u, v in {TWO_DIAMONDS_EDGES!r}])
chron, _ = closure(g, {B0}, Rule.PSD)
good = build_bundle(g, chron, 6)
bad = PathBundle(good.x, good.t_x, good.paths + good.paths[:1])
print(sys.flags.optimize)
try:
    print(terminus(g, chron, bad))
except AssertionError as exc:
    print("AssertionError:", exc)
"""
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        optimize, result = run.stdout.splitlines()
        assert optimize == "1"
        assert result.startswith("AssertionError:")

    def test_reconnection_step_check_survives_optimize(self):
        # the graph of test_wrong_saturation_time_raises with its walk ended
        # one step early: x cannot force w* there, and the check must still
        # fire under python -O
        script = """
import sys
from zforcing import from_edge_list, improve_component, mask_of, reconnection
g = from_edge_list(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
least, calls = reconnection._least, []
def short(*coloring):
    calls.append(0)
    return least(*coloring) if len(calls) < 3 else []
reconnection._least = short
print(sys.flags.optimize)
try:
    print(improve_component(g, mask_of([0, 3]), mask_of([4])))
except AssertionError as exc:
    print("AssertionError:", exc)
"""
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["1", "AssertionError: x must force w* at step t"]

    def test_rewired_set_check_survives_optimize(self):
        # the graph of test_rewired_set_that_does_not_force_raises, whose
        # stubbed terminus {0, 3} does not psd-force
        script = """
import sys
from zforcing import from_edge_list, improve_component, mask_of, reconnection
g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
reconnection.terminus = lambda *args: mask_of([0, 3])
print(sys.flags.optimize)
try:
    print(improve_component(g, mask_of([0, 1]), mask_of([2])))
except AssertionError as exc:
    print("AssertionError:", exc)
"""
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == ["1", "AssertionError: s' must be a psd forcing set"]

    def test_path_end_check_survives_optimize(self):
        script = f"""
import sys
from zforcing import Chronology, Force, Rule, build_bundle, parse_graph6
steps = tuple(frozenset([Force(*f)]) for f in {C4_STEPS!r})
print(sys.flags.optimize)
try:
    print(build_bundle(parse_graph6({C4!r}), Chronology(1, steps, Rule.PSD), 1))
except AssertionError as exc:
    print("AssertionError:", exc)
"""
        run = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                             text=True, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [
            "1", "AssertionError: every force into x's component must come from a path end"]


class TestHistoryMatchesSetReference:
    @staticmethod
    def _assert_history_matches(g, chron):
        states = [chron.initial]
        for step in chron.steps:
            blue = states[-1]
            for f in step:
                blue |= 1 << f.target
            states.append(blue)
        refs = [comps_of(g, set(range(g.n)) - set(bits(blue))) for blue in states]
        for x in bits(states[-1] & ~chron.initial):
            hist = component_history(g, chron, x)
            assert hist.t_x == next(t for t, blue in enumerate(states) if blue >> x & 1)
            for t in range(hist.t_x):
                ref = next(c for c in refs[t] if x in c)
                assert set(bits(hist.comps[t])) == ref

    def test_components_agree_with_reference(self, two_diamonds):
        self._assert_history_matches(two_diamonds, chronological_list(two_diamonds, B0, Rule.PSD))
        # every coloring of every class with n <= 6, under both rules, along
        # the greedy run (multi-force steps) and the lex run, for every x
        # either run forces
        for n, level in enumerate(_class_levels(6), 1):
            full = (1 << n) - 1
            for key, _ in level:
                g = Graph(n, _rows_of_key(key))
                for blue in range(full):
                    for rule in Rule:
                        self._assert_history_matches(g, closure(g, blue, rule)[0])
                        lex = _walk(g.adj, blue, full, rule is Rule.PSD, _least)
                        steps = tuple(frozenset(step) for step in lex)
                        self._assert_history_matches(g, Chronology(blue, steps, rule))
