from __future__ import annotations

import functools
import hashlib
import random

import pytest

from conftest import mk
from naive import naive_improve
from zforcing import reconnection
from zforcing import (
    MinimalityRefutation,
    ReconnectionStep,
    Rule,
    all_minimum_sets,
    bits,
    boundary_set,
    chronological_list,
    closure,
    components,
    connected_complement_set,
    connected_complement_trace,
    cycle_graph,
    enumerate_graphs,
    find_pivot,
    first_saturation_time,
    forcing_number,
    from_edge_list,
    graph_from_edge_mask,
    improve_component,
    is_connected,
    is_forcing_set,
    mask_of,
    path_graph,
    reach,
    star_graph,
)


@functools.cache
def sparse_traces():
    """(graph, trace) for 60 random recursive trees with n = 16..40, every
    other one with one extra edge, and vertex 0 (where the solver's witness
    sits) moved to an inner vertex so each trace takes steps."""
    rng = random.Random(1717)
    out = []
    for i in range(60):
        n = rng.randrange(16, 41)
        parent = [rng.randrange(v) for v in range(1, n)]
        label = list(range(n))
        rng.shuffle(label)
        inner = rng.choice([v for v in range(n) if parent.count(v) + (v > 0) >= 2])
        at = label.index(0)
        label[at], label[inner] = label[inner], 0
        edges = {(label[v], label[p]) for v, p in enumerate(parent, 1)}
        if i % 2:
            u, v = rng.sample(range(n), 2)
            while (u, v) in edges or (v, u) in edges:
                u, v = rng.sample(range(n), 2)
            edges.add((u, v))
        g = from_edge_list(n, sorted(edges))
        out.append((g, connected_complement_trace(g)))
    return out


def naive_step(g, s, c):
    return naive_improve(g, set(bits(s)), set(bits(c)))


class TestPieces:
    def test_boundary(self):
        g = path_graph(4)
        assert boundary_set(g, mask_of([1, 2]), mask_of([0])) == mask_of([1])
        assert boundary_set(g, mask_of([1, 2]), mask_of([3])) == mask_of([2])

    def test_pivot_least_qualifying(self):
        g = cycle_graph(4)
        assert find_pivot(g, mask_of([0, 2]), mask_of([1])) == 0

    def test_pivot_sees_past_own_boundary(self):
        # the rest of s counts as outside: 1 pivots through its neighbor 0
        g = path_graph(3)
        assert find_pivot(g, mask_of([0, 1]), mask_of([2])) == 1

    def test_pivot_missing(self):
        # boundary plus component swallow the whole graph
        g = path_graph(2)
        with pytest.raises(ValueError):
            find_pivot(g, mask_of([0]), mask_of([1]))

    def test_out_of_range_inputs_rejected(self):
        g = path_graph(4)
        f = chronological_list(g, mask_of([0]), Rule.PSD)
        for s in (1 << 9, -1):
            for helper in (boundary_set, find_pivot):
                with pytest.raises(ValueError, match="s mentions vertices outside the graph"):
                    helper(g, s, mask_of([1]))
        for x in (9, -1):
            with pytest.raises(ValueError, match=f"vertex {x} outside the graph"):
                first_saturation_time(g, f, x, 0)

    def test_saturation_never_reached(self):
        # the middle of a path has two white neighbours and forces nothing
        g = path_graph(3)
        f, _ = closure(g, mask_of([1]), Rule.STANDARD)
        assert f.steps == ()
        with pytest.raises(ValueError,
                           match="^closed neighborhood never saturates; not a forcing run$"):
            first_saturation_time(g, f, 1, 0)

    def test_saturation_time(self):
        g = path_graph(3)
        f = chronological_list(g, mask_of([1]), Rule.PSD)
        assert first_saturation_time(g, f, 1, mask_of([0])) == 2
        assert first_saturation_time(g, f, 1, mask_of([0, 2])) == 0


class TestImproveComponent:
    def test_middle_of_path(self):
        g = path_graph(3)
        step = improve_component(g, mask_of([1]), mask_of([0]))
        assert isinstance(step, ReconnectionStep)
        assert step.x == 1
        assert step.t == 2
        assert step.w_star == 2
        assert step.s_prime == mask_of([2])

    def test_cycle_opposite_pair(self):
        g = cycle_graph(4)
        step = improve_component(g, mask_of([0, 2]), mask_of([1]))
        assert step.boundary == mask_of([0, 2])
        assert step.x == 0
        assert step.t == 2
        assert step.w_star == 3
        assert step.s_prime == mask_of([2, 3])

    def test_star_center_moves_to_leaf(self):
        g = star_graph(3)
        step = improve_component(g, mask_of([0]), mask_of([1]))
        assert step.t == 3
        assert step.w_star == 3
        assert step.s_prime == mask_of([3])

    def test_refutation_for_non_minimum_set(self):
        g = path_graph(4)
        out = improve_component(g, mask_of([1, 2]), mask_of([0]))
        assert isinstance(out, MinimalityRefutation)
        assert out.y == 2
        assert out.smaller == mask_of([1])
        assert is_forcing_set(g, out.smaller, Rule.PSD)

    def test_precondition_errors(self):
        g4 = path_graph(4)
        with pytest.raises(ValueError, match="graph must be connected"):
            improve_component(mk(2, []), 1, 2)
        with pytest.raises(ValueError, match="s is not a psd forcing set"):
            improve_component(cycle_graph(4), mask_of([0]), mask_of([1, 2, 3]))
        with pytest.raises(ValueError, match="component is empty"):
            improve_component(g4, mask_of([1, 2]), 0)
        with pytest.raises(ValueError, match="component overlaps s"):
            improve_component(g4, mask_of([1, 2]), mask_of([0, 1]))
        with pytest.raises(ValueError, match="c is not a component of g - s"):
            improve_component(g4, mask_of([1, 2]), mask_of([0, 3]))
        with pytest.raises(ValueError, match="g - s is already connected"):
            improve_component(path_graph(3), mask_of([0]), mask_of([1, 2]))

    def test_forcing_checked_before_component(self):
        # s = {0} does not force C4, and {2} is not a component of C4 - s
        with pytest.raises(ValueError, match="s is not a psd forcing set"):
            improve_component(cycle_graph(4), mask_of([0]), mask_of([2]))

    def test_s_outside_graph_rejected(self):
        g4 = path_graph(4)
        for s in (mask_of([1, 9]), -1):
            with pytest.raises(ValueError, match="blue set mentions vertices outside the graph"):
                improve_component(g4, s, mask_of([0]))

    def test_wrong_saturation_time_raises(self, monkeypatch):
        # triangle 0-1-2 with a pendant 3 on 1 and 4 on 0: from s = {0, 3}
        # and c = {4}, x = 0 saturates at t = 3. A lex pick that gives out
        # after two forces ends the walk one step early: step t's target is
        # then 1, and 0 -> 1 is not a valid force, since 0 sees 1 and 2 in
        # one white component. On both exits of the walk the check reads
        # E[t - 1]; E[t] would hold w* blue already. It asks only about x's
        # forces
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
        s, c = mask_of([0, 3]), mask_of([4])
        forces, seen, asked = reconnection._forces, [], []

        def recorded(adj, blue, white, psd, sources):
            seen.append(blue)
            asked.append(sources)
            return forces(adj, blue, white, psd, sources)

        monkeypatch.setattr(reconnection, "_forces", recorded)
        step = improve_component(g, s, c)
        assert step.t == 3
        assert seen == [mask_of([0, 1, 3, 4])]
        assert asked == [1 << step.x]
        least, calls = reconnection._least, []

        def short(*coloring):
            calls.append(0)
            return least(*coloring) if len(calls) < 3 else []

        monkeypatch.setattr(reconnection, "_least", short)
        seen.clear()
        asked.clear()
        with pytest.raises(AssertionError, match=r"x must force w\* at step t"):
            improve_component(g, s, c)
        assert len(calls) == 3
        assert seen == [mask_of([0, 3, 4])]
        assert asked == [1 << step.x]

    def test_rewired_set_that_does_not_force_raises(self, monkeypatch):
        # from s = {0, 1} and c = {2}, x = 0 forces 2 and then 3; a terminus
        # of {0, 3} leaves the white 1 - 2 edge, which 0 sees twice and 3
        # not at all, so the s' check must fire even though it stops early
        g = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        monkeypatch.setattr(reconnection, "terminus", lambda *args: mask_of([0, 3]))
        with pytest.raises(AssertionError, match="s' must be a psd forcing set"):
            improve_component(g, mask_of([0, 1]), mask_of([2]))

    def _check_step(self, g, s, c, step):
        assert isinstance(step, ReconnectionStep)
        assert is_forcing_set(g, step.s_prime, Rule.PSD)
        assert step.s_prime.bit_count() == s.bit_count()
        assert step.s_prime & c == 0
        assert not step.s_prime >> step.x & 1
        grown = reach(g.adj, 1 << step.x, g.full_mask & ~step.s_prime)
        assert c & ~grown == 0
        assert grown != c

    def test_postconditions_exhaustive(self):
        # every connected graph up to n=5, every minimum psd set, every
        # complement component: the step keeps size, avoids c, and strictly
        # grows the region around the pivot
        for n in range(2, 6):
            for g in enumerate_graphs(n, connected_only=True):
                for s in all_minimum_sets(g, Rule.PSD):
                    comps = components(g, g.full_mask & ~s)
                    if len(comps) < 2:
                        continue
                    for c in comps:
                        self._check_step(g, s, c, improve_component(g, s, c))

    def test_matches_reference_exhaustive(self):
        # every connected graph up to n=5, every psd forcing set (the
        # minimum ones and the larger ones that reach the refutation branch)
        # and every complement component: the step is the one the whole lex
        # list gives
        refuted = 0
        for n in range(2, 6):
            for g in enumerate_graphs(n, connected_only=True):
                for s in range(1 << n):
                    if not is_forcing_set(g, s, Rule.PSD):
                        continue
                    comps = components(g, g.full_mask & ~s)
                    if len(comps) < 2:
                        continue
                    for c in comps:
                        out = improve_component(g, s, c)
                        refuted += isinstance(out, MinimalityRefutation)
                        assert tuple(out) == naive_step(g, s, c)
        assert refuted

    def test_postconditions_sampled(self):
        rng = random.Random(60822)
        tried = 0
        while tried < 120:
            g = graph_from_edge_mask(6, rng.getrandbits(15))
            if not is_connected(g):
                continue
            s = forcing_number(g, Rule.PSD).witness
            comps = components(g, g.full_mask & ~s)
            if len(comps) < 2:
                continue
            tried += 1
            c = max(comps, key=lambda m: m.bit_count())
            self._check_step(g, s, c, improve_component(g, s, c))
        # the n = 16..40 traces, where the step's own s' check stops its
        # closure once s is blue; _check_step closes s' in full
        for g, (_, steps) in sparse_traces():
            for st in steps:
                self._check_step(g, st.s, st.c, st)


class TestConnectedComplement:
    def test_star(self):
        g = star_graph(3)
        s, steps = connected_complement_trace(g)
        assert s == mask_of([3])
        assert len(steps) == 1
        assert connected_complement_set(g) == mask_of([3])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            connected_complement_trace(mk(3, [(1, 2)]))

    def test_preconditions_checked_once(self, monkeypatch):
        # the trace splits g - s once per round and tests connectivity once,
        # and its steps are still the ones improve_component returns
        g = from_edge_list(5, [(0, 1), (0, 2), (0, 4), (1, 2), (1, 3)])
        calls = {"components": 0, "is_connected": 0}
        for name in calls:
            def counted(*args, _real=getattr(reconnection, name), _name=name):
                calls[_name] += 1
                return _real(*args)
            monkeypatch.setattr(reconnection, name, counted)
        s, steps = connected_complement_trace(g)
        assert len(steps) == 2
        assert calls == {"components": 3, "is_connected": 1}
        monkeypatch.undo()
        assert steps == [improve_component(g, st.s, st.c) for st in steps]

    def test_exhaustive_small(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n, connected_only=True):
                s, steps = connected_complement_trace(g)
                assert s.bit_count() == forcing_number(g, Rule.PSD).value
                assert is_forcing_set(g, s, Rule.PSD)
                assert len(components(g, g.full_mask & ~s)) <= 1
                assert len(steps) <= g.n
                chain = [st.s for st in steps] + [s]
                for st, nxt in zip(steps, chain[1:]):
                    assert st.s_prime == nxt

    def test_trace_pinned_on_sparse_graphs(self):
        # the digest pins every returned set and step
        traces = [trace for _, trace in sparse_traces()]
        assert all(steps for _, steps in traces)
        digest = hashlib.sha256(repr(traces).encode()).hexdigest()
        assert digest == "a2187d14d8b342d811deb4be37318b2e22fbf9484476b075f504ea97d0076623"

    def test_steps_match_reference_on_sparse_graphs(self):
        for g, (_, steps) in sparse_traces():
            for st in steps:
                assert tuple(st) == naive_step(g, st.s, st.c)

    def test_saturation_time_is_walk_length(self, monkeypatch):
        # the step reads t off its own walk and never searches for it again
        def refuse(*args):
            raise AssertionError("first_saturation_time called")

        monkeypatch.setattr(reconnection, "first_saturation_time", refuse)
        for g, trace in sparse_traces():
            assert connected_complement_trace(g) == trace

    def test_boundary_set_once_per_step(self, monkeypatch):
        calls = []
        real = reconnection.boundary_set
        monkeypatch.setattr(reconnection, "boundary_set",
                            lambda *args: calls.append(args) or real(*args))
        for g, trace in sparse_traces():
            calls.clear()
            assert connected_complement_trace(g) == trace
            assert len(calls) == len(trace[1])

    def test_walk_stops_at_saturation_time(self, monkeypatch):
        # each step walks the lex run from s for exactly t steps, not the
        # whole list; most steps saturate well before the run ends
        walk = reconnection._walk
        walked = []

        def counted(*args):
            walked.append(0)
            for item in walk(*args):
                walked[-1] += 1
                yield item

        monkeypatch.setattr(reconnection, "_walk", counted)
        early = 0
        for g, (_, steps) in sparse_traces():
            for st in steps:
                walked.clear()
                assert improve_component(g, st.s, st.c) == st
                assert walked == [st.t]
                early += st.t < (g.full_mask & ~st.s).bit_count()
        assert early > 100
