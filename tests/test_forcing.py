from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from conftest import graphs, two_diamonds_graph
from naive import (naive_chronological_list, naive_closure, naive_greedy_chronology,
                   naive_valid_forces)
from zforcing import (
    ChronologyError,
    ColorState,
    Force,
    Graph,
    Rule,
    apply_step,
    bits,
    build_bundle,
    check_chronology,
    chronological_list,
    closure,
    closure_mask,
    enumerate_graphs,
    expansion_sequence,
    from_edge_list,
    is_forcing_set,
    make_chronology,
    mask_of,
    path_graph,
    reach,
    restrict_chronology,
    star_graph,
    valid_forces,
)
from zforcing.classes import _class_levels, _rows_of_key
from zforcing import forcing
from zforcing.forcing import _close, _forces, _is_tree, _least

# 1-based vertex sets from the worked example, shifted once here
B0 = mask_of([1, 3, 5])        # {2, 4, 6}


def _subset_masks(n):
    return range(1 << n)


@st.composite
def forests_with_chords(draw, max_n: int = 16):
    """A random forest on up to max_n vertices, each vertex joined to an
    earlier one or not, plus up to two more edges."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=-1, max_value=v - 1))
        if u >= 0:
            edges.add((u, v))
    if n >= 2:
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            edges.add((min(u, v), max(u, v)))
    return from_edge_list(n, sorted(edges))


class TestValidForces:
    def test_two_diamonds_frozen(self, two_diamonds):
        assert valid_forces(two_diamonds, B0, Rule.PSD) == {
            Force(3, 2), Force(3, 4),
        }
        # 4 has two white neighbours outside any component split
        assert valid_forces(two_diamonds, B0, Rule.STANDARD) == set()

    def test_star_center(self):
        g = star_graph(3)
        assert valid_forces(g, mask_of([0]), Rule.PSD) == {
            Force(0, 1), Force(0, 2), Force(0, 3),
        }
        assert valid_forces(g, mask_of([0]), Rule.STANDARD) == set()

    def test_path_end(self):
        g = path_graph(4)
        for rule in Rule:
            assert valid_forces(g, mask_of([0]), rule) == {Force(0, 1)}

    def test_standard_subset_of_psd_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for blue in _subset_masks(n):
                    std = valid_forces(g, blue, Rule.STANDARD)
                    psd = valid_forces(g, blue, Rule.PSD)
                    assert std <= psd

    def test_matches_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for blue in _subset_masks(n):
                    bset = set(bits(blue))
                    for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
                        got = {(f.source, f.target) for f in valid_forces(g, blue, rule)}
                        assert got == naive_valid_forces(g, bset, name)

    @given(graphs(max_n=7), st.integers(min_value=0))
    def test_matches_reference_random(self, g, seed):
        blue = seed % (1 << g.n)
        bset = set(bits(blue))
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            got = {(f.source, f.target) for f in valid_forces(g, blue, rule)}
            assert got == naive_valid_forces(g, bset, name)

    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("blue", [1 << 3, -1])
    def test_blue_outside_graph_rejected(self, rule, blue):
        with pytest.raises(ValueError, match="^blue set mentions vertices outside the graph$"):
            valid_forces(path_graph(3), blue, rule)

    def test_sources_split_only_the_parts_they_need(self, monkeypatch):
        # P5 with 2 blue has white parts {0, 1} and {3, 4}; source 2 sees
        # both, so the kernel splits each off once and lists its force into
        # each, in target order. With no source it splits nothing
        reach, calls = forcing.reach, []

        def counted(*args):
            calls.append(0)
            return reach(*args)

        monkeypatch.setattr(forcing, "reach", counted)
        adj, blue, white = path_graph(5).adj, 1 << 2, 0b11011
        assert list(_forces(adj, blue, white, True, 1 << 2)) == [(2, 1 << 1, 0b11), (2, 1 << 3, 0b11000)]
        assert len(calls) == 2
        assert list(_forces(adj, blue, white, True, 0)) == []
        assert len(calls) == 2


class TestLeast:
    def test_matches_least_of_every_force(self):
        # every coloring of every class with n <= 6, under both rules: the
        # kernel's (source, target) pairs strictly increase, the lex pick is
        # the first of them, and for n <= 5 they are the naive oracle's
        # forces in sorted order
        seen = 0
        for n, level in enumerate(_class_levels(6), 1):
            full = (1 << n) - 1
            for key, _ in level:
                adj = _rows_of_key(key)
                g = Graph(n, adj)
                for blue in range(full + 1):
                    for psd, name in ((False, "standard"), (True, "psd")):
                        pairs = [(u, t.bit_length() - 1) for u, t, _ in _forces(adj, blue, full ^ blue, psd)]
                        assert all(a < b for a, b in zip(pairs, pairs[1:]))
                        assert _least(adj, blue, full ^ blue, psd) == [Force(*p) for p in pairs[:1]]
                        if n <= 5:
                            assert pairs == sorted(naive_valid_forces(g, set(bits(blue)), name))
                        seen += 1
        assert seen == 22_580


class TestApplyStep:
    def test_applies_and_advances_time(self, two_diamonds):
        state = ColorState(B0, 0)
        out = apply_step(two_diamonds, state, [Force(3, 2), Force(3, 4)], Rule.PSD)
        assert out.blue == B0 | mask_of([2, 4])
        assert out.time == 1

    def test_rejects_empty(self, two_diamonds):
        with pytest.raises(ValueError):
            apply_step(two_diamonds, ColorState(B0, 0), [], Rule.PSD)

    def test_rejects_invalid_force(self, two_diamonds):
        with pytest.raises(ValueError):
            apply_step(two_diamonds, ColorState(B0, 0), [Force(1, 0)], Rule.PSD)

    def test_rejects_duplicate_targets(self):
        g = path_graph(3)
        state = ColorState(mask_of([0, 2]), 0)
        with pytest.raises(ValueError):
            apply_step(g, state, [Force(0, 1), Force(2, 1)], Rule.STANDARD)


class TestClosure:
    def test_two_diamonds_trace(self, two_diamonds):
        chron, expansion = closure(two_diamonds, B0, Rule.PSD)
        assert chron.tau == 3
        assert list(chron.steps) == [
            frozenset({Force(3, 2), Force(3, 4)}),
            frozenset({Force(1, 0), Force(4, 6)}),
            frozenset({Force(5, 7)}),
        ]
        assert expansion == (
            B0,
            B0 | mask_of([2, 4]),
            mask_of(range(7)),
            mask_of(range(8)),
        )
        assert expansion_sequence(chron) == expansion

    def test_duplicate_target_keeps_smallest_source(self):
        g = path_graph(3)
        chron, _ = closure(g, mask_of([0, 2]), Rule.STANDARD)
        assert list(chron.steps) == [frozenset({Force(0, 1)})]

    def test_already_blue(self):
        g = path_graph(2)
        chron, expansion = closure(g, g.full_mask, Rule.STANDARD)
        assert chron.tau == 0
        assert expansion == (g.full_mask,)

    def test_matches_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for blue in _subset_masks(n):
                    for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
                        _, expansion = closure(g, blue, rule)
                        expected = naive_closure(g, set(bits(blue)), name)
                        assert set(bits(expansion[-1])) == expected
                        assert closure_mask(g, blue, rule) == mask_of(expected)

    @staticmethod
    def _assert_greedy_steps(g, blue):
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            chron, expansion = closure(g, blue, rule)
            expect = naive_greedy_chronology(g, set(bits(blue)), name)
            assert [set(step) for step in chron.steps] == expect
            masks = [blue]
            for step in expect:
                masks.append(masks[-1] | mask_of(w for _, w in step))
            assert expansion == tuple(masks)

    def test_steps_match_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n, connected_only=True):
                for blue in _subset_masks(n):
                    self._assert_greedy_steps(g, blue)

    @given(graphs(max_n=9), st.integers(min_value=0))
    def test_steps_match_reference(self, g, seed):
        self._assert_greedy_steps(g, seed % (1 << g.n))

    @given(graphs(max_n=7), st.integers(min_value=0))
    def test_closure_mask_agrees(self, g, seed):
        # closure and closure_mask share one kernel, so the set reference
        # is the independent opinion
        blue = seed % (1 << g.n)
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            _, expansion = closure(g, blue, rule)
            assert closure_mask(g, blue, rule) == expansion[-1]
            assert closure_mask(g, blue, rule) == mask_of(naive_closure(g, set(bits(blue)), name))

    @pytest.mark.parametrize("rule", list(Rule))
    @pytest.mark.parametrize("blue", [1 << 3, -1])
    def test_blue_outside_graph_rejected(self, rule, blue):
        with pytest.raises(ValueError, match="^blue set mentions vertices outside the graph$"):
            closure(path_graph(3), blue, rule)

    @given(graphs(max_n=9), st.integers(min_value=0), st.integers(min_value=0))
    def test_close_stops_once_goal_is_blue(self, g, seed, goal_seed):
        # the stop mask moves where the closure ends, never whether the goal
        # lies inside it; goals are drawn at random and from inside the
        # closure, so both answers come up
        blue = seed % (1 << g.n)
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            psd = rule is Rule.PSD
            full = mask_of(naive_closure(g, set(bits(blue)), name))
            assert _close(g.adj, blue, g.full_mask, psd) == full
            for goal in (goal_seed % (1 << g.n), goal_seed & full):
                out = _close(g.adj, blue, g.full_mask, psd, goal)
                assert (not goal & ~out) == (not goal & ~full)
                assert not out & ~full and not blue & ~out

    def test_close_stops_at_goal(self):
        # along a path from an end each round colors one vertex, under both
        # rules: the one source has a lone white neighbor, so no part is split
        # off. The run ends the round the goal turns blue
        adj = path_graph(6).adj
        for psd in (False, True):
            assert _close(adj, 1, 63, psd, 1 << 2) == 0b111
            assert _close(adj, 1, 63, psd, 0) == 1
        # the square of P6 from {0, 1}: each round colors one vertex, and
        # every white part holds a triangle, under both rules
        square = from_edge_list(6, [(i, j) for i in range(6) for j in (i + 1, i + 2) if j < 6])
        for psd in (False, True):
            assert _close(square.adj, 0b11, 63, psd, 1 << 3) == 0b1111
            assert _close(square.adj, 0b11, 63, psd, 0) == 0b11

    def test_close_matches_reference_exhaustive(self):
        # every coloring of every class with n <= 6, under both rules: the
        # full closure is the naive one, and with a one-vertex goal the goal
        # is reached exactly when the naive closure holds it
        seen = 0
        for n, level in enumerate(_class_levels(6), 1):
            full = (1 << n) - 1
            for key, _ in level:
                adj = _rows_of_key(key)
                g = Graph(n, adj)
                for blue in range(full + 1):
                    for psd, name in ((False, "standard"), (True, "psd")):
                        ref = mask_of(naive_closure(g, set(bits(blue)), name))
                        assert _close(adj, blue, full, psd) == ref
                        for v in range(n):
                            out = _close(adj, blue, full, psd, 1 << v)
                            assert out >> v & 1 == ref >> v & 1
                            assert not out & ~ref and not blue & ~out
                        seen += 1
        assert seen == 22_580

    @given(forests_with_chords(), st.integers(min_value=0), st.integers(min_value=0))
    def test_close_on_sparse_graphs(self, g, seed, goal_seed):
        # trees and forests with up to two extra edges leave tree parts of
        # three or more vertices, which psd closures color whole
        blue = seed % (1 << g.n)
        goal = goal_seed % (1 << g.n)
        for psd, name in ((False, "standard"), (True, "psd")):
            ref = mask_of(naive_closure(g, set(bits(blue)), name))
            assert _close(g.adj, blue, g.full_mask, psd) == ref
            out = _close(g.adj, blue, g.full_mask, psd, goal)
            assert (not goal & ~out) == (not goal & ~ref)
            assert not out & ~ref and not blue & ~out

    def test_tree_parts_forced_in_one_round(self, monkeypatch):
        # P6 from vertex 2: 2 sees the white parts {0, 1} and {3, 4, 5}, so
        # one psd round splits both off and colors each tree part whole,
        # while the standard rule forces nothing. From an end no part is
        # split off, and both rules take a round per vertex
        forces, rounds = forcing._forces, []

        def counted(*args):
            rounds.append(0)
            return forces(*args)

        monkeypatch.setattr(forcing, "_forces", counted)
        adj = path_graph(6).adj
        for blue, psd, expect, rounds_run in ((1 << 2, True, 63, 1), (1 << 2, False, 1 << 2, 1),
                                              (1, True, 63, 5), (1, False, 63, 5)):
            rounds.clear()
            assert _close(adj, blue, 63, psd) == expect
            assert len(rounds) == rounds_run

    def test_is_tree_matches_edge_count(self):
        # every connected vertex set of every class with n <= 6
        for n, level in enumerate(_class_levels(6), 1):
            for key, _ in level:
                adj = _rows_of_key(key)
                for part in range(1, 1 << n):
                    if reach(adj, part & -part, part) != part:
                        continue
                    edges = sum((adj[v] & part).bit_count() for v in bits(part)) // 2
                    assert _is_tree(adj, part) == (edges == part.bit_count() - 1)

    def test_is_forcing_set(self, two_diamonds):
        assert is_forcing_set(two_diamonds, B0, Rule.PSD)
        assert not is_forcing_set(two_diamonds, B0, Rule.STANDARD)
        assert not is_forcing_set(two_diamonds, 0, Rule.PSD)


class TestChronologicalList:
    def test_lex_least_each_step(self, two_diamonds):
        chron = chronological_list(two_diamonds, B0, Rule.PSD)
        assert chron.tau == 5
        forces = chron.forces()
        assert all(len(step) == 1 for step in chron.steps)
        assert forces[0] == Force(3, 2)
        assert forces[1] == Force(1, 0)
        assert expansion_sequence(chron)[-1] == two_diamonds.full_mask

    def test_replay_roundtrip(self, two_diamonds):
        lex = chronological_list(two_diamonds, B0, Rule.PSD)
        again = chronological_list(two_diamonds, B0, Rule.PSD, replay=lex.forces())
        assert again.steps == lex.steps

    def test_replay_rejects_invalid(self, two_diamonds):
        with pytest.raises(ChronologyError) as info:
            chronological_list(two_diamonds, B0, Rule.PSD,
                               replay=[Force(3, 2), Force(5, 7)])
        assert info.value.step == 2

    def test_replay_checks_the_source(self):
        # P4 from its ends: 3 forces 2, so a replayed 0 -> 2 is still not
        # valid; nor is a force with an end far outside the graph
        g = path_graph(4)
        for bad in (Force(0, 2), Force(3, 1), Force(1 << 70, 1), Force(0, 1 << 70)):
            with pytest.raises(ChronologyError) as info:
                chronological_list(g, mask_of([0, 3]), Rule.PSD, replay=[bad])
            assert str(info.value) == f"force {bad} not valid at step 1"

    def test_replay_rejects_a_force_past_the_end(self, two_diamonds):
        lex = chronological_list(two_diamonds, B0, Rule.PSD)
        with pytest.raises(ChronologyError) as info:
            chronological_list(two_diamonds, B0, Rule.PSD,
                               replay=lex.forces() + [Force(0, 1)])
        assert info.value.step == lex.tau + 1
        assert str(info.value) == f"force {Force(0, 1)} not valid at step {lex.tau + 1}"

    def test_replay_takes_any_iterable(self, two_diamonds):
        lex = chronological_list(two_diamonds, B0, Rule.PSD)
        for replay in (list(lex.forces()), tuple(lex.forces()), iter(lex.forces())):
            assert chronological_list(two_diamonds, B0, Rule.PSD, replay=replay) == lex

    def test_replay_rejects_incomplete(self, two_diamonds):
        with pytest.raises(ChronologyError):
            chronological_list(two_diamonds, B0, Rule.PSD, replay=[Force(3, 2)])

    def test_non_forcing_set_rejected(self, two_diamonds):
        with pytest.raises(ChronologyError):
            chronological_list(two_diamonds, B0, Rule.STANDARD)

    def test_errors_pinned(self, two_diamonds):
        # both paths find the stall in their walk and name it after a
        # closure; both report it alike, and neither takes stray bits
        for replay in (None, [Force(3, 2)]):
            with pytest.raises(ChronologyError) as info:
                chronological_list(two_diamonds, B0, Rule.STANDARD, replay=replay)
            assert type(info.value) is ChronologyError
            assert str(info.value) == "initial set does not force the whole graph"
            assert info.value.step is None
            with pytest.raises(ValueError) as info:
                chronological_list(two_diamonds, B0 | 1 << 8, Rule.PSD, replay=replay)
            assert type(info.value) is ValueError
            assert str(info.value) == "blue set mentions vertices outside the graph"

    @staticmethod
    def _check_against_reference(g, b, rule, name):
        expected = naive_chronological_list(g, set(bits(b)), name)
        if b | mask_of(t for _, t in expected) != g.full_mask:
            # replaying the stalled list names the stall, not the short list
            for replay in (None, [Force(u, t) for u, t in expected]):
                with pytest.raises(ChronologyError) as info:
                    chronological_list(g, b, rule, replay=replay)
                assert str(info.value) == "initial set does not force the whole graph"
                assert info.value.step is None
            return
        chron = chronological_list(g, b, rule)
        assert [(f.source, f.target) for f in chron.forces()] == expected
        replay = [Force(u, t) for u, t in expected]
        assert chronological_list(g, b, rule, replay=replay).steps == chron.steps
        for i, (u, t) in enumerate(expected):
            # t is still white at step i + 1, so it cannot be the source
            bad = replay[:i] + [Force(t, u)] + replay[i + 1:]
            with pytest.raises(ChronologyError) as info:
                chronological_list(g, b, rule, replay=bad)
            assert info.value.step == i + 1

    def test_matches_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n, connected_only=True):
                for b in _subset_masks(n):
                    for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
                        self._check_against_reference(g, b, rule, name)

    @given(graphs(max_n=9), st.integers(min_value=0))
    def test_matches_reference_random(self, g, seed):
        b = seed % (1 << g.n)
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            self._check_against_reference(g, b, rule, name)

    def test_final_blue_independent_of_schedule(self):
        # one force at a time must end where the all-at-once closure ends
        for n in range(1, 5):
            for g in enumerate_graphs(n, connected_only=True):
                for rule in Rule:
                    b = mask_of([0])
                    if not is_forcing_set(g, b, rule):
                        continue
                    chron = chronological_list(g, b, rule)
                    assert expansion_sequence(chron)[-1] == closure_mask(g, b, rule)


class TestRestriction:
    def test_path_restriction_keeps_step_count(self):
        g = path_graph(4)
        chron = chronological_list(g, mask_of([0]), Rule.STANDARD)
        inner = restrict_chronology(chron, mask_of([1, 2]))
        assert inner == [frozenset(), frozenset({Force(1, 2)}), frozenset()]

    def test_two_diamonds_restriction(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        kept = restrict_chronology(chron, mask_of([3, 4, 5, 6, 7]))
        assert kept == [
            frozenset({Force(3, 4)}),
            frozenset({Force(4, 6)}),
            frozenset({Force(5, 7)}),
        ]


class TestChronologyConstruction:
    def test_make_and_check(self, two_diamonds):
        steps = [
            [Force(3, 2), Force(3, 4)],
            [Force(1, 0), Force(4, 6)],
            [Force(5, 7)],
        ]
        chron = make_chronology(two_diamonds, B0, steps, Rule.PSD)
        check_chronology(two_diamonds, chron)
        assert chron.tau == 3

    def test_make_rejects_out_of_order(self, two_diamonds):
        steps = [[Force(5, 7)]]
        with pytest.raises(ChronologyError) as info:
            make_chronology(two_diamonds, B0, steps, Rule.PSD)
        assert info.value.step == 1

    def test_make_rejects_initial_outside_graph(self):
        # checked before any step, so a chronology with no steps is refused too
        g = path_graph(4)
        for initial in (1 << 9, -1):
            for steps in ([], [[Force(0, 1)]]):
                with pytest.raises(ChronologyError,
                                   match="^blue set mentions vertices outside the graph$") as info:
                    make_chronology(g, initial, steps, Rule.PSD)
                assert info.value.step is None

    def test_relaxed_schedules_all_end_at_closure(self):
        # arbitrary nonempty random subsets of the valid forces each step
        rng = random.Random(20260822)
        for n in range(2, 6):
            for g in enumerate_graphs(n, connected_only=True):
                for rule in Rule:
                    blue = mask_of([0])
                    final = closure_mask(g, blue, rule)
                    for _ in range(3):
                        cur = blue
                        while True:
                            valid = valid_forces(g, cur, rule)
                            if not valid:
                                break
                            take = rng.sample(sorted(valid), rng.randint(1, len(valid)))
                            seen, step = set(), []
                            for f in take:
                                if f.target not in seen:
                                    seen.add(f.target)
                                    step.append(f)
                            cur = apply_step(g, ColorState(cur, 0), step, rule).blue
                        assert cur == final


class TestPlainPairs:
    # every entry point that takes supplied forces stores them as Force
    # records, so plain (source, target) pairs build the same chronology
    STEPS = [[(3, 2), (3, 4)], [(1, 0), (4, 6)], [(5, 7)]]
    H = mask_of([0, 1, 2, 3, 4])

    def _assert_same(self, g, chron, ref):
        assert chron == ref
        assert all(type(f) is Force for step in chron.steps for f in step)
        assert restrict_chronology(chron, self.H) == restrict_chronology(ref, self.H)
        for x in range(g.n):
            assert build_bundle(g, chron, x) == build_bundle(g, ref, x)

    def test_replay(self, two_diamonds):
        lex = chronological_list(two_diamonds, B0, Rule.PSD)
        pairs = [tuple(f) for f in lex.forces()]
        chron = chronological_list(two_diamonds, B0, Rule.PSD, replay=pairs)
        self._assert_same(two_diamonds, chron, lex)

    def test_make_chronology(self, two_diamonds):
        ref = make_chronology(two_diamonds, B0,
                              [[Force(*f) for f in s] for s in self.STEPS], Rule.PSD)
        chron = make_chronology(two_diamonds, B0, self.STEPS, Rule.PSD)
        self._assert_same(two_diamonds, chron, ref)

    def test_apply_step(self, two_diamonds):
        state = ColorState(B0, 0)
        assert (apply_step(two_diamonds, state, self.STEPS[0], Rule.PSD)
                == apply_step(two_diamonds, state, [Force(*f) for f in self.STEPS[0]], Rule.PSD))

    def test_bad_pair_names_its_step(self, two_diamonds):
        # 0 is still white at step 2, so it cannot be the source
        bad = [[(3, 2), (3, 4)], [(0, 1)]]
        for steps in (bad, [[Force(*f) for f in s] for s in bad]):
            with pytest.raises(ChronologyError) as info:
                make_chronology(two_diamonds, B0, steps, Rule.PSD)
            assert info.value.step == 2
            assert str(info.value) == ("step 2: forces not valid at time 1: "
                                       "[Force(source=0, target=1)]")
        for replay in ([(3, 2), (0, 1)], [Force(3, 2), Force(0, 1)]):
            with pytest.raises(ChronologyError) as info:
                chronological_list(two_diamonds, B0, Rule.PSD, replay=replay)
            assert info.value.step == 2
            assert str(info.value) == f"force {Force(0, 1)} not valid at step 2"
        with pytest.raises(ValueError, match=r"^forces not valid at time 0: \[Force"):
            apply_step(two_diamonds, ColorState(B0, 0), [(0, 1)], Rule.PSD)

    def test_negative_target_is_not_valid(self, two_diamonds):
        with pytest.raises(ChronologyError) as info:
            chronological_list(two_diamonds, B0, Rule.PSD, replay=[(3, -1)])
        assert info.value.step == 1
        assert str(info.value) == f"force {Force(3, -1)} not valid at step 1"

    def test_non_pair_is_a_type_error(self, two_diamonds):
        # a supplied force must unpack into Force(source, target)
        with pytest.raises(TypeError):
            chronological_list(two_diamonds, B0, Rule.PSD, replay=[(3, 2, 0)])
        with pytest.raises(TypeError):
            make_chronology(two_diamonds, B0, [[(3, 2, 0)]], Rule.PSD)
        with pytest.raises(TypeError):
            apply_step(two_diamonds, ColorState(B0, 0), [(3, 2, 0)], Rule.PSD)
