from __future__ import annotations

import pytest

from conftest import two_diamonds_graph
from zforcing import (
    CorpusSummary,
    check_equality,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    from_edge_list,
    is_zz_perfect_direct,
    mask_of,
    mirror_check,
    path_graph,
    run_corpus,
    run_corpus_enumerated,
    star_graph,
    to_graph6,
)


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

    def test_stalls_without_psd_force(self):
        rep = mirror_check(cycle_graph(4), mask_of([0]))
        assert not rep.passed
        assert rep.reason == "no psd force at time 0"

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


class TestRunCorpus:
    def test_theorem_stream(self, two_diamonds):
        stream = [two_diamonds, star_graph(3), path_graph(4)]
        summary = run_corpus(stream, "theorem")
        assert summary.total == 3
        assert summary.claw_free == 2
        assert summary.checked == 2
        assert summary.failures == []
        assert summary.informational == []

    def test_solve_all_reports_skipped_inequalities(self, two_diamonds):
        stream = [two_diamonds, star_graph(3), path_graph(4)]
        summary = run_corpus(stream, "theorem", solve_all=True)
        assert summary.informational == [to_graph6(star_graph(3))]

    def test_errors_recorded_not_fatal(self):
        summary = run_corpus([path_graph(7), path_graph(3)], "corollary")
        assert summary.total == 2
        assert len(summary.errors) == 1
        assert summary.errors[0].startswith(to_graph6(path_graph(7)))
        assert summary.failures == []

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_corpus([], "nonsense")


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
        for n in range(1, 6):
            for mode in ("theorem", "corollary", "monotonicity"):
                fast = run_corpus_enumerated(n, mode)
                slow = run_corpus(enumerate_graphs(n), mode)
                assert fast == slow

    def test_jobs_do_not_change_the_answer(self):
        # jobs=2 splits the masks into chunks, most starting mid-range
        for mode in ("theorem", "corollary", "monotonicity"):
            lone = run_corpus_enumerated(5, mode)
            split = run_corpus_enumerated(5, mode, jobs=2)
            assert isinstance(split, CorpusSummary)
            assert split == lone

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            run_corpus_enumerated(8, "theorem")
        with pytest.raises(ValueError):
            run_corpus_enumerated(4, "bogus")
        with pytest.raises(ValueError):
            run_corpus_enumerated(4, "theorem", jobs=0)
