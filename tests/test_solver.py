from __future__ import annotations

import itertools
import math
import random
from types import SimpleNamespace

import pytest
from hypothesis import given

from conftest import TWO_DIAMONDS_EDGES, graph_classes, graphs, two_diamonds_graph
from naive import (comps_of, naive_forcing_number, naive_is_forcing,
                   naive_minimum_sets, naive_search, naive_search_by_component,
                   naive_treewidth)
from zforcing import (
    Rule,
    all_minimum_sets,
    bits,
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    forcing_number,
    from_edge_list,
    is_connected,
    is_forcing_set,
    mask_of,
    parse_graph6,
    path_graph,
    run_corpus_enumerated,
    star_graph,
)
from zforcing import solver
from zforcing.classes import _canonical
from zforcing.solver import _search_min


def _as_naive(report):
    return report.value, tuple(bits(report.witness)), report.tested


def _search(g, rule):
    """(value, witness, tested) of the search on one whole graph."""
    k, witness, _ = _search_min(g.adj, g.n, rule)
    return k, witness, solver._tested(g.n, witness)


class TestForcingNumber:
    def test_two_diamonds_both_rules(self, two_diamonds):
        for rule in Rule:
            report = forcing_number(two_diamonds, rule)
            assert report.value == 3
            assert report.witness == mask_of([0, 1, 5])
            assert report.tested == 40
            assert report.rule is rule

    def test_star(self):
        g = star_graph(3)
        assert forcing_number(g, Rule.STANDARD).value == 2
        psd = forcing_number(g, Rule.PSD)
        assert psd.value == 1
        assert psd.witness == mask_of([0])

    def test_families(self):
        for n in range(2, 7):
            assert forcing_number(path_graph(n), Rule.STANDARD).value == 1
            assert forcing_number(path_graph(n), Rule.PSD).value == 1
            assert forcing_number(complete_graph(n), Rule.STANDARD).value == n - 1
            assert forcing_number(complete_graph(n), Rule.PSD).value == n - 1
        for n in range(3, 7):
            assert forcing_number(cycle_graph(n), Rule.STANDARD).value == 2
            assert forcing_number(cycle_graph(n), Rule.PSD).value == 2

    def test_stars_grow_linearly(self):
        for k in range(2, 7):
            g = star_graph(k)
            assert forcing_number(g, Rule.STANDARD).value == k - 1
            assert forcing_number(g, Rule.PSD).value == 1

    def test_single_vertex(self):
        g = from_edge_list(1, [])
        for rule in Rule:
            report = forcing_number(g, rule)
            assert report.value == 1
            assert report.witness == 1
            assert report.tested == 1

    def test_witness_is_forcing(self, two_diamonds):
        for rule in Rule:
            report = forcing_number(two_diamonds, rule)
            assert is_forcing_set(two_diamonds, report.witness, rule)

    def test_disconnected_sums_components(self):
        g = from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
        std = forcing_number(g, Rule.STANDARD)
        assert std.value == 2
        assert std.witness == mask_of([0, 3])
        psd = forcing_number(g, Rule.PSD)
        assert psd.value == 2
        assert psd.witness == mask_of([0, 3])

    def test_matches_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
                    assert forcing_number(g, rule).value == naive_forcing_number(g, name)

    @given(graphs(min_n=1, max_n=5))
    def test_matches_reference_random(self, g):
        for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
            assert forcing_number(g, rule).value == naive_forcing_number(g, name)

    @given(graphs(min_n=1, max_n=6))
    def test_psd_never_above_standard(self, g):
        assert forcing_number(g, Rule.PSD).value <= forcing_number(g, Rule.STANDARD).value


class TestSearchOrder:
    """The search may visit sizes in any order, but its value, witness and
    tested count must be those of the size-ascending search."""

    def test_matches_reference_on_classes(self):
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                for rule in Rule:
                    k, combo, tried = naive_search(g, rule.value)
                    assert _search(g, rule) == (k, mask_of(combo), tried)
                    assert _as_naive(forcing_number(g, rule)) == \
                        naive_search_by_component(g, rule.value)

    @given(graphs(min_n=1, max_n=8))
    def test_matches_reference_random(self, g):
        for rule in Rule:
            assert _as_naive(forcing_number(g, rule)) == \
                naive_search_by_component(g, rule.value)

    def test_disconnected_sums_tested_per_component(self, two_diamonds):
        c5 = cycle_graph(5)
        g = from_edge_list(13, [(u, (u + 1) % 5) for u in range(5)]
                           + [(u + 4, v + 4) for u, v in TWO_DIAMONDS_EDGES])
        for rule in Rule:
            k1, combo1, t1 = naive_search(c5, rule.value)
            k2, combo2, t2 = naive_search(two_diamonds, rule.value)
            report = forcing_number(g, rule)
            assert report.value == k1 + k2
            assert report.witness == mask_of(combo1) | mask_of(combo2) << 5
            assert report.tested == t1 + t2

    def test_tested_is_the_size_then_lex_rank(self):
        for n in range(1, 9):
            order = itertools.chain.from_iterable(
                itertools.combinations(range(n), k) for k in range(1, n + 1))
            for pos, combo in enumerate(order, 1):
                assert solver._tested(n, mask_of(combo)) == pos, (n, combo)

    def test_complete_graphs_near_the_top(self):
        for n in (20, 24):
            g = complete_graph(n)
            for rule in Rule:
                report = forcing_number(g, rule)
                assert report.value == n - 1
                assert report.witness == mask_of(range(n - 1))
                assert report.tested == 2 ** n - n - 1


def _trees_and_unicyclic(seed, sizes, per_size):
    """For each n, per_size uniform random labeled trees (from Pruefer
    sequences), each also with one more edge."""
    rng = random.Random(seed)
    out = []
    for n in sizes:
        for _ in range(per_size):
            code = [rng.randrange(n) for _ in range(n - 2)]
            degree = [1 + code.count(v) for v in range(n)]
            edges = []
            for v in code:
                leaf = degree.index(1)
                edges.append((leaf, v))
                degree[leaf] -= 1
                degree[v] -= 1
            edges.append(tuple(v for v in range(n) if degree[v] == 1))
            u, v = rng.sample(range(n), 2)
            while (u, v) in edges or (v, u) in edges:
                u, v = rng.sample(range(n), 2)
            out.append(from_edge_list(n, edges))
            out.append(from_edge_list(n, edges + [(u, v)]))
    return out


def _plus_edge(g, rng):
    """g with one more edge, drawn uniformly from its non-edges."""
    u, v = rng.choice([(u, v) for u, v in itertools.combinations(range(g.n), 2)
                       if not g.has_edge(u, v)])
    return from_edge_list(g.n, g.edges() + [(u, v)])


# K4 beside a path on 6 vertices: n = 10 and m = 11, so b = 2 comes from the
# edge count, below the contraction's 3 but still at most tw = 3
K4_AND_P6 = from_edge_list(10, list(itertools.combinations(range(4), 2))
                           + [(v, v + 1) for v in range(4, 9)])


class TestPrunedScan:
    """The lex scan skips candidates that miss a fort, the complement of a
    failed closure of the same search; value, witness, tested and the
    minimum sets must not change."""

    @pytest.mark.parametrize("rule, sizes, per_size",
                             [(Rule.PSD, range(12, 21), 1),
                              (Rule.STANDARD, range(3, 11), 4)],
                             ids=["psd", "standard"])
    def test_matches_reference(self, rule, sizes, per_size):
        # trees, then one and two extra edges: from 10 edges up, m <= n + 1
        # sets b = 2 without the contraction, as on the disconnected K4_AND_P6
        graphs_ = _trees_and_unicyclic(9, sizes, per_size)
        rng = random.Random(9)
        graphs_ += [_plus_edge(g, rng) for g in graphs_[1::2] if g.n > 3]
        for g in graphs_ + [K4_AND_P6]:
            k, combo, tried = naive_search(g, rule.value)
            assert _search(g, rule) == (k, mask_of(combo), tried)
            got = [tuple(bits(m)) for m in all_minimum_sets(g, rule)]
            assert got == naive_minimum_sets(g, rule.value)

    def test_fewer_closures_than_tested(self, monkeypatch):
        # a 6-cycle on 4..9 with the path 0-1-2-3-4 hanging from it: cl({0})
        # is the path, so 1..4 need no closure at size 1, nor {0, 2}, {0, 3}
        # and {0, 4} at size 2; 8 closures for 15 candidates
        g = from_edge_list(10, [(0, 1), (1, 2), (2, 3), (3, 4)]
                           + [(4 + i, 4 + (i + 1) % 6) for i in range(6)])
        calls = []
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda *args: calls.append(args) or close(*args))
        report = forcing_number(g, Rule.PSD)
        assert (report.value, report.witness, report.tested) == (2, mask_of([0, 5]), 15)
        assert len(calls) < report.tested

    def test_no_closure_inside_an_earlier_failed_closure(self, monkeypatch):
        # such a candidate misses that closure's fort; the fort list spans
        # all the sizes of one search, so failed resets per search only
        close = solver._close
        failed = []

        def pinned(adj, blue, full, psd):
            assert not any(blue & ~closed == 0 for closed in failed), blue
            closed = close(adj, blue, full, psd)
            if closed != full:
                failed.append(closed)
            return closed

        monkeypatch.setattr(solver, "_close", pinned)
        forts = 0
        # 20 graphs: the tree-width check skips many size-b scans, and the
        # first 16 alone now fail 97 closures
        for g in _random_connected(11, 20, range(9, 12), (0.3, 0.7)):
            for rule in Rule:
                failed.clear()
                k, combo, tried = naive_search(g, rule.value)
                assert _search(g, rule) == (k, mask_of(combo), tried)
                forts += len(failed)
        assert forts > 100


def _reference_scan(g, k, rule):
    """Every size-k forcing set in lex order, closing every candidate."""
    return [mask_of(combo) for combo in itertools.combinations(range(g.n), k)
            if naive_is_forcing(g, set(combo), rule.value)]


def _can_start(g, blue, psd):
    """Whether blue is the whole graph, some blue vertex has exactly one
    white neighbour, or (psd) the white set is disconnected."""
    white = g.full_mask & ~blue
    return (not white
            or any((g.adj[u] & white).bit_count() == 1 for u in bits(blue))
            or psd and len(comps_of(g, set(bits(white)))) > 1)


class TestFirstForceFilter:
    """The lex scan drops, without a closure, every candidate that cannot
    make a first force or misses a stored fort; its stream of forcing sets
    must be that of a scan that closes every candidate."""

    def _check(self, g, rule):
        # one fort list across all sizes, descending as the search runs
        # them from n - 1, then ascending, where closures grow and stored
        # forts get dropped
        for sizes in (range(g.n, -1, -1), range(g.n + 1)):
            forts = []
            for k in sizes:
                got = list(solver._forcing_sets_of_size(g.adj, g.n, k, rule is Rule.PSD,
                                                        forts))
                assert got == _reference_scan(g, k, rule), (g, k, rule)
                # no stored fort contains another
                assert all(f & ~h and h & ~f for f, h in itertools.combinations(forts, 2))

    @pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
    def test_matches_unfiltered_scan_on_classes(self, rule):
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                self._check(g, rule)

    def test_whole_vertex_set_is_never_skipped(self):
        k1 = from_edge_list(1, [])
        for rule in Rule:
            assert list(solver._forcing_sets_of_size(k1.adj, 1, 1, rule is Rule.PSD, [])) \
                == [1]

    def test_disconnected_white_set_under_psd(self):
        # two paths 1-0-2 and 4-3-5: from {0, 3} each blue vertex has two
        # white neighbours, but the white set splits into four single
        # vertices, and the psd rule forces them all
        g = from_edge_list(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert not _can_start(g, mask_of([0, 3]), False)
        assert _can_start(g, mask_of([0, 3]), True)
        assert mask_of([0, 3]) in _reference_scan(g, 2, Rule.PSD)
        assert solver._tested(g.n, mask_of([0, 3])) == 6 + 3  # six singletons, then 01 02 03
        for rule in Rule:
            self._check(g, rule)

    @pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
    def test_matches_unfiltered_scan_on_trees_and_unicyclic(self, rule):
        for g in _trees_and_unicyclic(9, range(3, 10), 1):
            self._check(g, rule)

    def test_closures_only_where_a_force_can_start(self, monkeypatch):
        close = solver._close
        graphs_ = _random_connected(11, 16, range(9, 12), (0.3, 0.7))
        for g in graphs_:
            for rule in Rule:
                psd = rule is Rule.PSD

                def pinned(adj, blue, full, psd_):
                    assert psd_ is psd and _can_start(g, blue, psd)
                    return close(adj, blue, full, psd_)
                monkeypatch.setattr(solver, "_close", pinned)
                k, combo, tried = naive_search(g, rule.value)
                report = forcing_number(g, rule)
                assert (report.value, report.witness, report.tested) \
                    == (k, mask_of(combo), tried)


class TestForcingPrefix:
    """Each prefix {0..k - 1} is the first size-k candidate, and once one
    forces every larger one does, so the descent starts below the least
    forcing prefix, found by one growing closure, and no scan above size 2
    reaches it unless the scan is the one that finds Z."""

    @pytest.mark.parametrize("rule, skipped", [(Rule.STANDARD, 2453), (Rule.PSD, 2341)],
                             ids=["standard", "psd"])
    def test_no_scan_at_or_above_the_forcing_prefix_on_classes(self, monkeypatch, rule,
                                                               skipped):
        sizes = []
        scan = solver._forcing_sets_of_size
        monkeypatch.setattr(solver, "_forcing_sets_of_size",
                            lambda adj, n, k, *rest: sizes.append(k) or scan(adj, n, k, *rest))
        for n in range(1, 8):
            for g, _ in graph_classes(n):
                k0 = next(k for k in range(1, n + 1)
                          if naive_is_forcing(g, set(range(k)), rule.value))
                sizes.clear()
                z, _, bound = _search_min(g.adj, g.n, rule)
                # size 1 or 2 is scanned ascending; size b when the
                # tree-width check is due there and finds nothing
                assert all(k < k0 or k == z and (k <= 2 or k == bound) for k in sizes), \
                    (g, sizes)
                # sizes k0..n - 1, which a descent from n - 1 scanned once Z > 2
                skipped -= (n - k0) * (z > 2)
        assert not skipped

    def test_closes_only_where_a_scan_would_on_classes(self, monkeypatch):
        # on sparse classes sizes 1-2 store forts before the prefix grows,
        # and a grown prefix can fall inside one: it must not be closed
        close = solver._close
        failed = []

        def pinned(adj, blue, full, psd):
            assert _can_start(g, blue, psd), blue
            assert not any(blue & ~closed == 0 for closed in failed), blue
            closed = close(adj, blue, full, psd)
            if closed != full:
                failed.append(closed)
            return closed

        monkeypatch.setattr(solver, "_close", pinned)
        for n in range(1, 8):
            for g, _ in graph_classes(n):
                for rule in Rule:
                    failed.clear()
                    _search_min(g.adj, g.n, rule)

    def test_descent_scans_only_z_minus_1(self, monkeypatch):
        # K_{3,3} with its sides on the even and the odd ids: b = 3 and
        # Z = 4, cl({0, 1, 2}) = {0, 1, 2, 4}, and adding 3 forces; a
        # descent from n - 1 scanned sizes 5, 4 and 3
        g = from_edge_list(6, [(u, v) for u in (0, 2, 4) for v in (1, 3, 5)])
        sizes = []
        scan = solver._forcing_sets_of_size
        monkeypatch.setattr(solver, "_forcing_sets_of_size",
                            lambda adj, n, k, *rest: sizes.append(k) or scan(adj, n, k, *rest))
        assert _search_min(g.adj, g.n, Rule.STANDARD) == (4, mask_of(range(4)), 3)
        assert sizes == [3]
        assert _search(g, Rule.STANDARD) == (4, mask_of(range(4)), 42)


class TestAllMinimumSets:
    def test_two_diamonds_counts(self, two_diamonds):
        std = all_minimum_sets(two_diamonds, Rule.STANDARD)
        psd = all_minimum_sets(two_diamonds, Rule.PSD)
        assert len(std) == 8
        assert len(psd) == 20
        assert std[0] == psd[0] == mask_of([0, 1, 5])
        assert set(std) <= set(psd)

    def test_path_ends(self):
        assert all_minimum_sets(path_graph(4), Rule.STANDARD) == [
            mask_of([0]), mask_of([3]),
        ]
        assert all_minimum_sets(path_graph(4), Rule.PSD) == [
            mask_of([0]), mask_of([1]), mask_of([2]), mask_of([3]),
        ]

    def test_lex_order(self, two_diamonds):
        sets = all_minimum_sets(two_diamonds, Rule.PSD)
        keys = [tuple(bits(m)) for m in sets]
        assert keys == sorted(keys)

    def test_cap_truncates(self):
        g = complete_graph(3)
        assert all_minimum_sets(g, Rule.STANDARD) == [
            mask_of([0, 1]), mask_of([0, 2]), mask_of([1, 2]),
        ]
        assert all_minimum_sets(g, Rule.STANDARD, cap=2) == [
            mask_of([0, 1]), mask_of([0, 2]),
        ]

    def test_cap_above_the_set_count_lists_all(self, two_diamonds):
        # islice refuses a stop above sys.maxsize; C(n, Z) bounds the list
        for rule in Rule:
            assert all_minimum_sets(two_diamonds, rule, cap=10**20) \
                == all_minimum_sets(two_diamonds, rule)
        assert len(all_minimum_sets(two_diamonds, Rule.PSD, cap=10**20)) == 20

    def test_cap_validated(self, two_diamonds):
        with pytest.raises(ValueError):
            all_minimum_sets(two_diamonds, Rule.PSD, cap=0)

    def test_matches_reference_exhaustive(self):
        for n in range(1, 5):
            for g in enumerate_graphs(n):
                for rule, name in ((Rule.STANDARD, "standard"), (Rule.PSD, "psd")):
                    got = [tuple(bits(m)) for m in all_minimum_sets(g, rule)]
                    assert got == naive_minimum_sets(g, name)


def _random_connected(seed, count, sizes, density):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice(sizes)
        p = rng.uniform(*density)
        g = from_edge_list(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                               if rng.random() < p])
        if is_connected(g):
            out.append(g)
    return out


def _sparse_connected_classes(top):
    """One adjacency tuple per connected class with 3 <= n <= top and
    n <= m <= n + 1. Each tree on n vertices is one on n - 1 with a leaf
    added, and each such graph is a tree with one or two edges added."""
    def classes(rows):
        return list({_canonical(adj)[0]: adj for adj in rows}.values())

    def plus_leaf(adj):
        n = len(adj)
        return [adj[:v] + (adj[v] | 1 << n,) + adj[v + 1:] + (1 << v,) for v in range(n)]

    def plus_edge(adj):
        return [tuple(row | (w == u) << v | (w == v) << u for w, row in enumerate(adj))
                for u, v in itertools.combinations(range(len(adj)), 2) if not adj[u] >> v & 1]

    trees, out = [(0b10, 0b01)], []
    for _ in range(3, top + 1):
        trees = classes(a for t in trees for a in plus_leaf(t))
        unicyclic = classes(a for t in trees for a in plus_edge(t))
        out += unicyclic + classes(a for u in unicyclic for a in plus_edge(u))
    return out


@pytest.fixture(scope="module")
def exact_treewidths():
    """(class, exact tree-width) for every class with n <= 7."""
    return [(g, naive_treewidth(g)) for n in range(1, 8) for g, _ in graph_classes(n)]


class TestTreewidthBound:
    """The contraction-degeneracy bound is at most tw(G) <= Z+(G) <= Z(G),
    and the search stops its descent there."""

    def test_below_exact_treewidth_on_classes(self, exact_treewidths):
        assert sum(solver._treewidth_bound(g.adj) == tw for g, tw in exact_treewidths) > 1000
        for g, tw in exact_treewidths:
            assert solver._treewidth_bound(g.adj) <= tw

    def test_bound_pinned_on_classes(self, exact_treewidths):
        # the exact values beside the loose count above: b must not move
        bounds = [solver._treewidth_bound(g.adj) for g, _ in exact_treewidths]
        assert (len(bounds), sum(bounds)) == (1252, 3385)
        assert sum(b == tw for b, (_, tw) in zip(bounds, exact_treewidths)) == 1251

    def test_below_both_numbers_on_classes(self):
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                bound = solver._treewidth_bound(g.adj)
                assert bound <= naive_forcing_number(g, "psd") \
                    <= naive_forcing_number(g, "standard")

    def test_returned_bound_on_classes(self):
        # the min degree where sizes 1-2 end the search or edges are few
        by_min_degree = 0
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                for rule in Rule:
                    k, _, bound = _search_min(g.adj, g.n, rule)
                    assert type(bound) is int
                    assert bound <= naive_forcing_number(g, "psd")
                    if k <= 2 or sum(map(int.bit_count, g.adj)) < 20:
                        assert bound == min(map(int.bit_count, g.adj))
                        by_min_degree += k <= 2
        assert by_min_degree > 100

    def test_known_values(self):
        assert solver._treewidth_bound(from_edge_list(1, []).adj) == 0
        assert solver._treewidth_bound(path_graph(6).adj) == 1
        assert solver._treewidth_bound(cycle_graph(6).adj) == 2
        assert solver._treewidth_bound(complete_graph(7).adj) == 6
        grid = from_edge_list(16, [(4 * r + c, 4 * r + c + 1) for r in range(4) for c in range(3)]
                              + [(4 * r + c, 4 * r + c + 4) for r in range(3) for c in range(4)])
        assert solver._treewidth_bound(grid.adj) == 4  # the 4 x 4 grid's tree-width

    def test_matches_reference_on_dense_random_graphs(self):
        stopped = 0
        graphs_ = _random_connected(11, 16, range(9, 12), (0.3, 0.7))
        for g in graphs_:
            for rule in Rule:
                k, combo, tried = naive_search(g, rule.value)
                assert _search(g, rule) == (k, mask_of(combo), tried)
                stopped += k == solver._treewidth_bound(g.adj)
        assert stopped > len(graphs_)  # the bound ends most searches

    def test_no_closure_below_the_bound(self, monkeypatch):
        # K_{4,4} has Z+ = 4 = its bound, so the descent stops at size 4
        g = from_edge_list(8, [(u, v) for u in range(4) for v in range(4, 8)])
        assert solver._treewidth_bound(g.adj) == 4
        sizes = set()
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda adj, blue, *rest: sizes.add(blue.bit_count())
                            or close(adj, blue, *rest))
        assert forcing_number(g, Rule.PSD).value == 4
        assert min(sizes) == 4

    def test_not_computed_without_need(self, monkeypatch):
        # trees have fewer edges than vertices and K_{1,5} has Z = 4 but
        # too few edges for a bound of 4; psd trees have Z+ = 1 and
        # unicyclic graphs Z+ = 2. From 10 edges up, a graph with one or two
        # extra edges (n <= m <= n + 1) takes b = 2 from its edge count, the
        # value the contraction would give, so size 1 is never tried
        def refuse(*args):
            raise AssertionError("contraction run")
        graphs_ = _trees_and_unicyclic(5, range(3, 30), 1)
        trees, unicyclic = graphs_[::2], graphs_[1::2]
        rng = random.Random(5)
        two_extra = [_plus_edge(g, rng) for g in unicyclic if g.n > 3]
        real = solver._treewidth_bound
        monkeypatch.setattr(solver, "_treewidth_bound", refuse)
        monkeypatch.setattr(solver, "_exceeds_treewidth", refuse)
        for g in trees:
            assert forcing_number(g, Rule.PSD).value == 1
        assert forcing_number(star_graph(5), Rule.STANDARD).value == 4
        for g in unicyclic:
            assert forcing_number(g, Rule.PSD).value == 2
        sizes = set()
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda adj, blue, *rest: sizes.add(blue.bit_count())
                            or close(adj, blue, *rest))
        dense = [g for g in unicyclic + two_extra if g.edge_count >= 10]
        for g in dense:
            sizes.clear()
            assert _search_min(g.adj, g.n, Rule.PSD)[2] == 2 == real(g.adj)
            assert min(sizes) == 2
        assert len(dense) == 41

    def test_two_with_one_or_two_extra_edges(self, monkeypatch):
        # a connected graph with n <= m <= n + 1 has a cycle, so tw >= 2, and
        # at most two independent cycles, so no K4 minor (K4 has three) and
        # tw <= 2: the contraction gives the b = 2 that _search_min takes
        # from the edge count
        classes = _sparse_connected_classes(8)
        assert len(classes) == 471
        rng = random.Random(29)
        unicyclic = _trees_and_unicyclic(29, [rng.randint(4, 40) for _ in range(1000)], 1)[1::2]
        randoms = unicyclic + [_plus_edge(g, rng) for g in unicyclic]
        assert len(randoms) == 2000
        for adj in classes + [g.adj for g in randoms]:
            assert solver._treewidth_bound(adj) == 2
        # at m = n + 2 a K4 minor fits: K4 with two edges subdivided has
        # b = 3, and with all six subdivided it has the 10 edges that make
        # the search run the contraction, once
        k4 = list(itertools.combinations(range(4), 2))
        assert solver._treewidth_bound(
            from_edge_list(6, k4[1:5] + [(0, 4), (4, 1), (2, 5), (5, 3)]).adj) == 3
        subdivided = from_edge_list(10, [e for i, (u, v) in enumerate(k4)
                                         for e in ((u, 4 + i), (4 + i, v))])
        calls = []
        real = solver._treewidth_bound
        monkeypatch.setattr(solver, "_treewidth_bound",
                            lambda adj: calls.append(real(adj)) or calls[-1])
        assert real(K4_AND_P6.adj) == 3
        for g, bound, contracted in ((subdivided, 3, [3]), (K4_AND_P6, 2, [])):
            for rule in Rule:
                calls.clear()
                k, witness, got = _search_min(g.adj, g.n, rule)
                assert (got, calls) == (bound, contracted)
                value, combo, tried = naive_search(g, rule.value)
                assert (k, witness, solver._tested(g.n, witness)) == (value, mask_of(combo), tried)

    @pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
    def test_sizes_below_the_bound_skipped_on_classes(self, monkeypatch, rule):
        # the classes where b, known before any scan, skips sizes 1-2 that
        # the min degree does not: at least 10 and at least n edges,
        # min degree <= 2 and b > max(min degree, 1)
        skipping = []
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                least = min(map(int.bit_count, g.adj))
                if (g.edge_count >= max(10, n) and least <= 2
                        and solver._treewidth_bound(g.adj) > max(least, 1)):
                    skipping.append(g)
        assert len(skipping) == 16
        sizes = set()
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda adj, blue, *rest: sizes.add(blue.bit_count())
                            or close(adj, blue, *rest))
        for g in skipping:
            sizes.clear()
            k, combo, tried = naive_search(g, rule.value)
            assert _search(g, rule) == (k, mask_of(combo), tried)
            assert min(sizes) >= solver._treewidth_bound(g.adj)

    def test_closure_count_on_classes(self, monkeypatch):
        # every class with n <= 7 under both rules; trying sizes 1-2 before
        # b is known ran 19,658 closures, and the descent from n - 1 in
        # place of the growing prefix closure 16,170
        calls = []
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda *args: calls.append(None) or close(*args))
        classes = [g for n in range(1, 8) for g, _ in graph_classes(n)]
        for g in classes:
            for rule in Rule:
                _search_min(g.adj, g.n, rule)
        assert (len(classes), len(calls)) == (1252, 13614)


class TestExceedsTreewidth:
    """An elimination search within its budget, then the improved-graph
    contraction if the search runs out, decides tw(G) > k, and a proof at
    k = b ends the descent at size b + 1."""

    def test_fires_only_above_exact_treewidth(self, exact_treewidths):
        # and always above it: every pair is decided within the budget
        pairs = fired = 0
        for g, tw in exact_treewidths:
            for k in range(g.n):
                assert solver._exceeds_treewidth(g.adj, k) == (tw > k), (g, k)
                pairs += 1
                fired += tw > k
        assert len(exact_treewidths) == 1252 and (pairs, fired) == (8475, 3386)

    def test_known_values(self):
        g = parse_graph6("FNz~o")  # tree-width 5, contraction degeneracy 4
        assert solver._exceeds_treewidth(g.adj, 4)
        assert not solver._exceeds_treewidth(g.adj, 5)
        # tree-width 5, bound 4; the contraction proves tw > 4 only with a
        # join at a new neighbour of a merged vertex, not only at the merged one
        g = parse_graph6("HSkm^LT")
        assert solver._treewidth_bound(g.adj) == 4
        assert solver._contract(g.adj, 4) > 4
        assert solver._exceeds_treewidth(g.adj, 4)
        assert solver._exceeds_treewidth(complete_graph(7).adj, 5)
        assert not solver._exceeds_treewidth(complete_graph(7).adj, 6)
        assert not solver._exceeds_treewidth(from_edge_list(1, []).adj, 0)

    def test_never_fires_at_the_bound_near_complete(self, exact_treewidths):
        # tw(G) > b with n <= b + 2 would make G complete, whose b is n - 1,
        # so _search_min need not run the check there
        near = 0
        for g, tw in exact_treewidths:
            b = solver._treewidth_bound(g.adj)
            if g.n <= b + 2:
                near += 1
                assert tw <= b
                assert not solver._exceeds_treewidth(g.adj, b)
        assert near == 43

    def test_runs_only_above_n_minus_2(self, monkeypatch):
        # the corpus bench's calls: theorem and monotonicity for n = 1..6
        calls = []
        check = solver._exceeds_treewidth
        monkeypatch.setattr(solver, "_exceeds_treewidth",
                            lambda adj, k: calls.append((len(adj), k)) or check(adj, k))
        for mode in ("theorem", "monotonicity"):
            for n in range(1, 7):
                run_corpus_enumerated(n, mode)
        assert len(calls) == 35
        assert all(n > k + 2 for n, k in calls)

    # every connected class on 8 vertices on which the improved-graph
    # contraction, the check's fallback, fires at k = b, found by
    # enumerating n = 8 once, so that this suite need not
    FIRES_AT_EIGHT = (
        "G@\\r~w", "G@^vvo", "G@\\~vg", "G@\\~vk", "GDh~vo", "GDl~fS", "GD^fvw",
        "GD^f~w", "GBXzt{", "GBX|~o", "GBX|~s", "GBXz~o", "GBzd~w", "GBnf^w",
        "GBnnvo", "GB]~Vg", "GB]~Vk", "GB]~nW", "GB]~n[", "GB\\~Ns", "GS\\r}w",
        "GS\\v~w", "GIm~vk", "GI\\t|w", "GI\\t|{", "GI]|vk", "GI]|~c", "GI]|~k",
        "GMq|r{", "GMj\\~o", "GLj]~o", "GJY|}o", "GJuv^w", "GJm}Ns", "GJm}nW",
        "GJm}n[", "GJm~]w", "GJm~]{", "GJ]^nW", "GJ]^n[", "GJ~v~w", "GNz~v{",
        "Geqzvo", "Ges~Vg", "Ges~Vk", "G`ze}w", "G`zV]w", "G`zV~w", "G`\\r|w",
        "Gt\\~~w",
    )
    # the other 13 connected classes on 8 vertices with tw > b, on which the
    # contraction does not fire and only the search proves it, found the
    # same way
    FIRES_NEWLY_AT_EIGHT = (
        "G?Lruo", "GCrb`o", "G@Xucw", "G@Xs}c", "GD^fnW", "GBnnfs", "GT\\~Uk",
        "GRpk~k", "GRY^]w", "GIN\\vo", "GIm~vg", "GMj\\r{", "G]hky{",
    )

    def test_matches_naive_where_it_fires(self, monkeypatch):
        # the search and the decision against the oracle on graphs where the
        # check ends the descent, which it does once on n = 7
        graphs_ = [parse_graph6(s) for s in self.FIRES_AT_EIGHT + self.FIRES_NEWLY_AT_EIGHT]
        assert len({_canonical(g.adj)[0] for g in graphs_}) == 63
        for g in graphs_:
            assert naive_treewidth(g) > solver._treewidth_bound(g.adj)
        assert all(g.n == 8 and is_connected(g) for g in graphs_)
        fired = []
        check = solver._exceeds_treewidth
        monkeypatch.setattr(solver, "_exceeds_treewidth",
                            lambda adj, k: fired.append(check(adj, k)) or fired[-1])
        searches = 0
        for g in graphs_:
            numbers = []
            for rule in Rule:
                fired.clear()
                k, combo, tried = naive_search(g, rule.value)
                assert _search(g, rule) == (k, mask_of(combo), tried)
                assert fired == [True]
                searches += 1
                numbers.append(k)
            assert solver._numbers_differ(g) == (numbers[0] != numbers[1])
        assert searches == 126

    @pytest.mark.parametrize("rule, witness, tested",
                             [(Rule.STANDARD, 0b101111, 100), (Rule.PSD, 0b11111, 99)])
    def test_skips_the_size_z_minus_1_proof(self, monkeypatch, rule, witness, tested):
        # b = 4 and Z = Z+ = 5: the check proves tw > 4, so size 4 is never
        # searched; without it the smallest closure is of size 4
        g = parse_graph6("FNz~o")
        assert (g.n, g.edge_count, solver._treewidth_bound(g.adj)) == (7, 17, 4)
        sizes = set()
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda adj, blue, *rest: sizes.add(blue.bit_count())
                            or close(adj, blue, *rest))
        assert _search_min(g.adj, g.n, rule) == (5, witness, 5)
        report = forcing_number(g, rule)
        assert (report.value, report.witness, report.tested) == (5, witness, tested)
        assert min(sizes) == 5

    def test_contraction_once_the_search_gives_up(self, monkeypatch):
        # with no budget only the contraction can fire: it proves the 50
        # classes and none of the 13
        monkeypatch.setattr(solver, "math", SimpleNamespace(comb=lambda n, k: 0))
        for s in self.FIRES_AT_EIGHT + self.FIRES_NEWLY_AT_EIGHT:
            g = parse_graph6(s)
            fired = solver._exceeds_treewidth(g.adj, solver._treewidth_bound(g.adj))
            assert fired is (s in self.FIRES_AT_EIGHT), s

    def test_contraction_after_the_capped_search(self, monkeypatch):
        # a random connected graph with n = 40, 78 edges and b = 6: a search
        # with C(40, 6) states took 85 s to prove tw > 6; this one gives up
        # after 40^2 = 1,600, and the contraction proves it
        g = parse_graph6("goOAOA?@??@B?G?@?_???oG??G??H?C@OGB???A??A??G@?AGC_?OSG@??W???GA??"
                         "`??_?Oo?G?@?_UP_C??@????D????_?D`??????O?__?_OSOO????C_???A??????")
        assert (g.n, g.edge_count, solver._treewidth_bound(g.adj)) == (40, 78, 6)
        assert solver._exceeds_treewidth(g.adj, 6)
        monkeypatch.setattr(solver, "_contract", lambda adj, k: 0)
        assert not solver._exceeds_treewidth(g.adj, 6)

    def test_search_capped_at_n_squared(self):
        # six forcing chains grown on 25 vertices, with b = 5 and Z = 6: the
        # contraction does not fire, and a search with the C(25, 5) = 53,130
        # states of the scan proves tw > 5 after 710 states; at most
        # 25^2 = 625 are allowed, and the contraction proves nothing either
        g = parse_graph6("X??GcHAJOB?EA_G@_?h?_?_K_GWCA_?OgA??G?@O??_c?ACG?Co")
        assert (g.n, solver._treewidth_bound(g.adj), solver._contract(g.adj, 5)) == (25, 5, 5)
        assert not solver._exceeds_treewidth(g.adj, 5)

    @pytest.mark.parametrize("rule", list(Rule), ids=lambda r: r.value)
    def test_out_of_budget_proves_nothing(self, monkeypatch, rule):
        # b = 4 < tw = 5, and the search needs 8 of its min(C(8, 4), 8^2) = 64
        # states to prove it: with fewer it gives up, the contraction does
        # not fire on this graph either, size 4 is scanned as it would be
        # without the check, and the search stays exact
        g = parse_graph6("GD^fnW")
        assert (solver._treewidth_bound(g.adj), naive_treewidth(g)) == (4, 5)
        value, combo, tried = naive_search(g, rule.value)
        asked = []
        sizes = set()
        close = solver._close
        monkeypatch.setattr(solver, "_close",
                            lambda adj, blue, *rest: sizes.add(blue.bit_count())
                            or close(adj, blue, *rest))
        for budget, fires in ((math.comb(8, 4), True), (8, True), (7, False), (1, False)):
            with monkeypatch.context() as patched:
                patched.setattr(solver, "math", SimpleNamespace(
                    comb=lambda n, k: asked.append((n, k)) or budget))
                assert solver._exceeds_treewidth(g.adj, 4) is fires
                sizes.clear()
                k, witness, bound = _search_min(g.adj, g.n, rule)
            assert (k, witness, solver._tested(g.n, witness)) == (value, mask_of(combo), tried)
            assert (bound, min(sizes)) == ((5, 5) if fires else (4, 4))
        assert set(asked) == {(8, 4)}
