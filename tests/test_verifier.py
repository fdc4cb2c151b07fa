from __future__ import annotations

import math

import pytest

from conftest import graph_classes, two_diamonds_graph
from naive import comps_of, naive_forcing_number, naive_search, naive_valid_forces
from zforcing import solver, verifier
from zforcing import (
    Force,
    Graph,
    check_equality,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    from_edge_list,
    induced_subgraph,
    is_claw_free,
    is_connected,
    is_zz_perfect_direct,
    mask_of,
    mirror_check,
    parse_graph6,
    path_graph,
    run_corpus,
    run_corpus_enumerated,
    star_graph,
    to_graph6,
)
from zforcing.classes import _canonical, _class_levels, _rows_of_key
from zforcing.documents import MODES
from zforcing.verifier import MirrorStep


class TestCheckEquality:
    def test_star_separates(self):
        rep = check_equality(star_graph(3))
        assert (rep.z, rep.z_plus) == (2, 1)
        assert not rep.equal
        assert not rep.claw_free
        assert rep.connected
        assert rep.graph6 == to_graph6(star_graph(3))

    def test_two_diamonds(self, two_diamonds):
        rep = check_equality(two_diamonds)
        assert (rep.z, rep.z_plus) == (3, 3)
        assert rep.equal and rep.claw_free and rep.connected

    def test_triangle(self):
        rep = check_equality(complete_graph(3))
        assert (rep.z, rep.z_plus, rep.equal) == (2, 2, True)

    def test_disconnected_still_reported(self):
        rep = check_equality(from_edge_list(3, [(1, 2)]))
        assert (rep.z, rep.z_plus) == (2, 2)
        assert not rep.connected


class TestMirrorCheck:
    def test_path_from_end(self):
        rep = mirror_check(path_graph(5), mask_of([0]))
        assert rep.passed
        assert len(rep.steps) == 4
        assert all(s.white_connected and s.standard_valid for s in rep.steps)

    def test_two_diamonds_witness(self, two_diamonds):
        assert mirror_check(two_diamonds, mask_of([0, 1, 5])).passed

    def test_middle_of_path_splits_white(self):
        # {1} does force a 3-path, but the white side splits immediately,
        # which is exactly what the complement-reconnection loop repairs
        rep = mirror_check(path_graph(3), mask_of([1]))
        assert not rep.passed
        assert rep.reason == "assertion failed at time 0"
        assert not rep.steps[0].white_connected
        assert not rep.steps[0].standard_valid

    def test_stalls_without_psd_force(self):
        rep = mirror_check(cycle_graph(4), mask_of([0]))
        assert not rep.passed
        assert rep.reason == "no psd force at time 0"

    def test_stalls_after_a_logged_step(self):
        # 0 forces 1; then 1 sees both white vertices of the edge 2-3
        g = from_edge_list(4, [(0, 1), (1, 2), (1, 3), (2, 3)])
        rep = mirror_check(g, mask_of([0]))
        assert not rep.passed
        assert rep.reason == "no psd force at time 1"
        assert rep.steps == (MirrorStep(0, Force(0, 1), True, True),)

    def test_flags_match_naive_oracle(self):
        # every initial set on every connected claw-free class with n <= 6:
        # each logged step is the lex least psd force, and its flags are
        # the oracle's white-set connectivity and standard-rule test
        seen = {False: 0, True: 0}
        for n in range(1, 7):
            for g, _ in graph_classes(n, claw_free=True):
                if not is_connected(g):
                    continue
                for s in range(1 << n):
                    rep = mirror_check(g, s)
                    blue = set(v for v in range(n) if s >> v & 1)
                    for t, step in enumerate(rep.steps):
                        white = set(range(n)) - blue
                        assert step.time == t
                        assert tuple(step.force) == min(naive_valid_forces(g, blue, "psd"))
                        assert step.white_connected == (len(comps_of(g, white)) == 1)
                        assert step.standard_valid == (
                            tuple(step.force) in naive_valid_forces(g, blue, "standard"))
                        seen[step.white_connected] += 1
                        blue.add(step.force.target)
                    ok = all(st.white_connected and st.standard_valid for st in rep.steps)
                    if not ok:
                        assert rep.reason == f"assertion failed at time {len(rep.steps) - 1}"
                    elif len(blue) < n:
                        assert not naive_valid_forces(g, blue, "psd")
                        assert rep.reason == f"no psd force at time {len(rep.steps)}"
                    assert rep.passed == (ok and len(blue) == n)
        assert seen[False] > 100 and seen[True] > 1000

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            mirror_check(star_graph(3), mask_of([0]))          # claw
        with pytest.raises(ValueError):
            mirror_check(from_edge_list(2, []), 1)             # disconnected
        with pytest.raises(ValueError):
            mirror_check(path_graph(3), mask_of([5]))          # out of range


class TestPerfection:
    def test_direct_small(self):
        assert is_zz_perfect_direct(complete_graph(4))
        assert is_zz_perfect_direct(path_graph(4))
        assert not is_zz_perfect_direct(star_graph(3))
        assert not is_zz_perfect_direct(star_graph(4))

    def test_size_cap(self):
        with pytest.raises(ValueError):
            is_zz_perfect_direct(path_graph(7))

    def test_matches_naive_on_every_class(self):
        # every induced subgraph solved by brute force under both rules,
        # disconnected subgraphs and ones with claws included
        perfect = classes = 0
        for n in range(1, 6):
            for g, _ in graph_classes(n):
                classes += 1
                subs = (induced_subgraph(g, smask)[0] for smask in range(1, g.full_mask + 1))
                expected = all(naive_forcing_number(h, "standard") == naive_forcing_number(h, "psd")
                               for h in subs)
                assert is_zz_perfect_direct(g) == expected
                perfect += expected
        assert 0 < perfect < classes

    def test_decides_connected_subgraphs_only(self, monkeypatch):
        # a disconnected subgraph differs exactly when a component does, and
        # the corollary (perfect iff claw-free) holds for every class here
        decide = verifier._numbers_differ

        def connected_only(h):
            assert is_connected(h), h
            return decide(h)

        monkeypatch.setattr(verifier, "_numbers_differ", connected_only)
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                assert is_zz_perfect_direct(g) == is_claw_free(g)


class TestRunCorpus:
    def test_theorem_stream(self, two_diamonds):
        stream = [two_diamonds, star_graph(3), path_graph(4)]
        summary = run_corpus(stream, "theorem")
        assert summary.total == 3
        assert summary.claw_free == 2
        assert summary.checked == 2
        assert summary.failures == []
        assert summary.informational == []

    def test_errors_recorded_not_fatal(self):
        summary = run_corpus([path_graph(7), path_graph(3)], "corollary")
        assert summary.total == 2
        assert len(summary.errors) == 1
        assert summary.errors[0].startswith(to_graph6(path_graph(7)))
        assert summary.failures == []

    def test_any_exception_recorded_not_fatal(self, monkeypatch):
        bad = star_graph(3)
        real = verifier.is_claw_free

        def flaky(g):
            if g == bad:
                raise RuntimeError("claw filter broke")
            return real(g)

        monkeypatch.setattr(verifier, "is_claw_free", flaky)
        summary = run_corpus([path_graph(3), bad, path_graph(4)], "theorem")
        assert summary.total == 3
        assert summary.checked == 2
        assert summary.errors == [f"{to_graph6(bad)}: RuntimeError: claw filter broke"]

    @pytest.mark.parametrize("mode, decision", [
        ("theorem", "_numbers_differ"),
        ("corollary", "is_zz_perfect_direct"),
        ("monotonicity", "_close"),
    ])
    def test_graph_that_raises_is_not_checked(self, monkeypatch, mode, decision):
        # each mode decides once per path; the second decision raises
        real = getattr(verifier, decision)
        calls = []

        def flaky(*args):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("decision broke")
            return real(*args)

        monkeypatch.setattr(verifier, decision, flaky)
        summary = run_corpus([path_graph(3), path_graph(5), path_graph(4)], mode)
        assert len(calls) == 3
        assert (summary.total, summary.claw_free, summary.checked) == (3, 3, 2)
        assert summary.failures == []
        assert summary.errors == [f"{to_graph6(path_graph(5))}: RuntimeError: decision broke"]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_corpus([], "nonsense")


class TestNumbersDiffer:
    def test_matches_naive_on_every_class(self):
        # claw graphs and disconnected ones included; the star K_{1,3} has
        # Z = 2 and Z+ = 1
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                z = naive_forcing_number(g, "standard")
                zp = naive_forcing_number(g, "psd")
                assert verifier._numbers_differ(g) == (z != zp)
        assert verifier._numbers_differ(star_graph(3))
        assert not verifier._numbers_differ(two_diamonds_graph())

    def test_matches_naive_at_seven(self):
        # n = 7 is where the bound, the tree-width check and the fort
        # list first prune much; a decision that stops seeing Z != Z+ fails.
        # The search runs on each class whole, as monotonicity mode runs it
        # on every class, disconnected ones included, and must give the
        # oracle's value, lex-least witness and tested count
        differ = 0
        for g, _ in graph_classes(7):
            numbers = []
            for rule in solver.Rule:
                k, combo, tried = naive_search(g, rule.value)
                z, witness, _ = solver._search_min(g.adj, g.n, rule)
                assert (z, witness, solver._tested(g.n, witness)) == (k, mask_of(combo), tried)
                numbers.append(k)
            z, zp = numbers
            assert verifier._numbers_differ(g) == (z != zp)
            differ += z != zp
        assert differ == 203

    def test_tree_width_bound_found_once(self, monkeypatch):
        # the psd step reads the bound the standard search returned and
        # computes none of its own, nor runs the tree-width check
        calls, checks = [], []
        real, check = solver._treewidth_bound, solver._exceeds_treewidth

        def counted(adj):
            calls.append(adj)
            return real(adj)

        def counted_check(adj, k):
            checks.append(k)
            return check(adj, k)

        monkeypatch.setattr(solver, "_treewidth_bound", counted)
        monkeypatch.setattr(solver, "_exceeds_treewidth", counted_check)
        for g in (complete_graph(7), cycle_graph(7)) + tuple(g for g, _ in graph_classes(6)):
            calls.clear()
            checks.clear()
            solver._search_min(g.adj, g.n, solver.Rule.STANDARD)
            searched, checked = len(calls), len(checks)
            verifier._numbers_differ(g)
            assert len(calls) == 2 * searched <= 2
            assert len(checks) == 2 * checked <= 2
        assert solver._search_min(complete_graph(7).adj, 7, solver.Rule.STANDARD)[2] == 6


class TestEnumeratedCorpus:
    def test_theorem_n4_frozen(self):
        summary = run_corpus_enumerated(4, "theorem")
        assert summary.total == 64
        assert summary.claw_free == 60
        assert summary.checked == 34
        assert summary.failures == []
        assert summary.errors == []

    def test_monotonicity_n4_frozen(self):
        summary = run_corpus_enumerated(4, "monotonicity")
        assert summary.total == 64
        assert summary.checked == 64
        assert summary.failures == []

    def test_corollary_n4_frozen(self):
        summary = run_corpus_enumerated(4, "corollary")
        assert summary.total == 64
        assert summary.claw_free == 60
        assert summary.checked == 64
        assert summary.failures == []

    def test_agrees_with_stream_runner(self):
        # the class run against the labeled run it replaces: every count,
        # and the same failures up to isomorphism (both lists are empty)
        for n in range(1, 7):
            modes = ("theorem", "corollary", "monotonicity") if n <= 5 \
                else ("theorem", "monotonicity")
            for mode in modes:
                classes = run_corpus_enumerated(n, mode)
                labeled = run_corpus(enumerate_graphs(n), mode)
                assert classes == labeled

    def test_class_failures_name_canonical_representatives(self, monkeypatch):
        # make the star K_{1,3} fail monotonicity: it is listed once, as
        # its representative, although it has four labeled copies
        real = verifier._close

        def stalled(adj, blue, full, psd):
            closed = real(adj, blue, full, psd)
            star = len(adj) == 4 and sorted(row.bit_count() for row in adj) == [1, 1, 1, 3]
            return closed >> 1 if star and psd else closed

        monkeypatch.setattr(verifier, "_close", stalled)
        summary = run_corpus_enumerated(4, "monotonicity")
        assert summary.total == 64
        assert len(summary.failures) == 1
        g = parse_graph6(summary.failures[0])
        key = _canonical(g.adj)[0]
        assert key == _canonical(star_graph(3).adj)[0]
        assert _rows_of_key(key) == g.adj

    @pytest.mark.parametrize("mode, n", [("theorem", 6), ("monotonicity", 5)])
    def test_failures_and_errors_name_representatives_in_key_order(self, monkeypatch, mode, n):
        # the walk decides each class on its own labeling; a class that fails
        # or raises there is decided again, and listed, as its representative
        only = verifier._MODES[mode].claw_free_only
        *_, keyed = _class_levels(n, only, only)
        *_, walked = _class_levels(n, only, only, False)
        chosen = [key for key, _ in keyed[2::5]]
        walk_keys = [_canonical(rows)[0] for rows, _ in walked]
        # the walk meets them out of key order, some labeled otherwise than their keys
        assert len(chosen) >= 4 and [key for key in walk_keys if key in chosen] != chosen
        assert any(key in chosen and rows != _rows_of_key(key)
                   for (rows, _), key in zip(walked, walk_keys))
        reps = [to_graph6(Graph(n, _rows_of_key(key))) for key in chosen]
        weight = sum(math.factorial(n) // aut for key, aut in keyed if key in chosen)

        def run(decision):
            if only:  # theorem's decision on the walk's classes is _numbers_differ
                monkeypatch.setattr(verifier, "_numbers_differ", decision)
            else:
                monkeypatch.setitem(verifier._MODES, mode, verifier._MODES[mode]._replace(
                    decide=lambda g, claw_free: decision(g)))
            return run_corpus_enumerated(n, mode)

        def fails(g):  # a labeling-invariant failure
            return _canonical(g.adj)[0] in chosen

        def raises(g):
            if _canonical(g.adj)[0] in chosen:
                raise RuntimeError("injected")
            return False

        clean = run(lambda g: False)
        failed = run(fails)
        assert failed.failures == reps
        assert (failed.checked, failed.errors) == (clean.checked, [])
        raised = run(raises)
        assert raised.errors == [f"{g6}: RuntimeError: injected" for g6 in reps]
        assert (raised.checked, raised.failures) == (clean.checked - weight, [])
        # the representative's outcome is the one recorded
        walk_only = run(lambda g: g.adj != _rows_of_key(_canonical(g.adj)[0]))
        assert (walk_only.checked, walk_only.failures, walk_only.errors) == (clean.checked, [], [])

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_corpus_enumerated(10, "theorem")
        with pytest.raises(ValueError):
            run_corpus_enumerated(8, "monotonicity")
        with pytest.raises(ValueError):
            run_corpus_enumerated(0, "theorem")
        with pytest.raises(ValueError):
            run_corpus_enumerated(4, "bogus")

    def test_theorem_counts_the_disconnected_claw_free_graphs(self):
        # theorem mode makes only the connected classes at n, and adds the
        # rest by the exponential transform of the lower levels
        for n in range(1, 8):
            full = sum(w for _, w in graph_classes(n, claw_free=True))
            assert run_corpus_enumerated(n, "theorem").claw_free == full

    def test_theorem_trusts_the_walk(self, monkeypatch):
        # the walk makes only connected claw-free classes, so neither
        # filter runs on them, and the counts stay the frozen ones
        def refuse(g):
            raise AssertionError("the walk's classes need no filter")

        monkeypatch.setattr(verifier, "is_claw_free", refuse)
        monkeypatch.setattr(verifier, "is_connected", refuse)
        claw_free = {1: 1, 2: 2, 3: 8, 4: 60, 5: 769, 6: 15272}
        connected = {1: 1, 2: 1, 3: 4, 4: 34, 5: 493, 6: 10738}
        for n in range(1, 7):
            summary = run_corpus_enumerated(n, "theorem")
            assert (summary.total, summary.claw_free, summary.checked) == \
                (1 << n * (n - 1) // 2, claw_free[n], connected[n])
            assert summary.failures == summary.errors == []

    def test_corollary_rejects_n7_up_front(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("no graph may be generated")

        monkeypatch.setattr("zforcing.classes._class_levels", refuse)
        with pytest.raises(ValueError, match="n <= 6"):
            run_corpus_enumerated(7, "corollary")


class TestModeRecords:
    """Each mode's decision, enumeration cap and class stream live in one
    record, and every refusal names that record's cap."""

    def test_one_record_per_documented_mode(self):
        assert tuple(verifier._MODES) == MODES
        caps = {mode: record.cap for mode, record in verifier._MODES.items()}
        assert caps == {"theorem": 9, "corollary": 6, "monotonicity": 7}
        assert [m for m, record in verifier._MODES.items() if record.claw_free_only] == ["theorem"]

    def test_theorem_skips_claws_and_disconnected_graphs(self):
        decide = verifier._MODES["theorem"].decide
        assert decide(star_graph(3), False) is None
        assert decide(from_edge_list(4, [(0, 1), (2, 3)]), True) is None
        assert decide(path_graph(4), True) is False

    @pytest.mark.parametrize("mode", MODES)
    def test_out_of_range_refused_before_generation(self, monkeypatch, mode):
        # one cap per mode: corollary refuses n = 8 naming 6, as it does n = 7
        def refuse(*args, **kwargs):
            raise AssertionError("no graph may be generated")

        monkeypatch.setattr("zforcing.classes._class_levels", refuse)
        cap = verifier._MODES[mode].cap
        for n in (0, cap + 1, cap + 2):
            with pytest.raises(ValueError, match=rf"supports 1\.\.{cap} vertices \(n <= {cap}\) "
                                                 rf"in {mode} mode, got {n}$"):
                run_corpus_enumerated(n, mode)
