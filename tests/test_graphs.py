from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, strategies as st

from conftest import graph_classes, graphs, two_diamonds_graph
from naive import naive_canonical, naive_cells, naive_claws, naive_edge_mask
from zforcing import (
    Graph,
    bits,
    complete_graph,
    components,
    cycle_graph,
    enumerate_graphs,
    find_claws,
    format_edge_list,
    from_edge_list,
    graph_from_edge_mask,
    has_claw,
    induced_subgraph,
    is_claw_free,
    is_connected,
    mask_of,
    parse_edge_list,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from zforcing import classes
from zforcing.classes import _canonical, _carry, _cells, _class_levels, _rows_of_key, _triple_free
from zforcing.graphs import _claws


class TestGraphBasics:
    def test_validation(self):
        with pytest.raises(ValueError):
            from_edge_list(0, [])
        with pytest.raises(ValueError):
            from_edge_list(65, [])
        with pytest.raises(ValueError):
            from_edge_list(3, [(0, 3)])
        with pytest.raises(ValueError):
            from_edge_list(3, [(1, 1)])

    def test_duplicate_edges_collapse(self):
        g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1

    def test_degree_and_edges(self):
        g = two_diamonds_graph()
        assert g.n == 8
        assert g.edge_count == 11
        # 1-based labels 4 and 5 are the cut pair between the triangles
        assert g.degree(3) == 3
        assert g.degree(4) == 3
        assert g.has_edge(3, 4)
        assert not g.has_edge(0, 7)
        assert all(u < v for u, v in g.edges())

    def test_eq_hash(self):
        a = path_graph(3)
        b = from_edge_list(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != path_graph(4)


class TestMasks:
    def test_bits_mask_roundtrip(self):
        assert list(bits(0b101001)) == [0, 3, 5]
        assert mask_of([0, 3, 5]) == 0b101001
        assert mask_of([]) == 0


class TestGraph6:
    def test_known_encodings(self):
        k2 = parse_graph6("A_")
        assert k2.n == 2 and k2.has_edge(0, 1)
        e3 = parse_graph6("B?")
        assert e3.n == 3 and e3.edge_count == 0
        k3 = parse_graph6("Bw")
        assert k3 == complete_graph(3)

    def test_prefix_and_whitespace(self):
        assert parse_graph6(">>graph6<<A_\n") == complete_graph(2)

    def test_long_header(self):
        g = complete_graph(3)
        line = to_graph6(g)
        # hand-build the four-byte header form for the same n
        long_form = "~" + chr(63) + chr(63) + chr(63 + 3) + line[1:]
        assert parse_graph6(long_form) == g

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_graph6("")
        with pytest.raises(ValueError):
            parse_graph6("B")          # body too short
        with pytest.raises(ValueError):
            parse_graph6("Bww")        # body too long
        with pytest.raises(ValueError):
            parse_graph6("A" + chr(62))  # byte below printable range
        # n=2 has one data bit; the remaining five pad bits must be zero
        with pytest.raises(ValueError):
            parse_graph6("A" + chr(63 + 0b110000))

    def test_bit_order_matches_pair_order(self):
        # pair (1,2) is the third bit for n=3
        g = parse_graph6("B" + chr(63 + 0b001000))
        assert g.edges() == [(1, 2)]

    @pytest.mark.parametrize("n, header", [(63, "~??~"), (64, "~?@?")])
    def test_four_byte_header_roundtrip(self, n, header):
        g = cycle_graph(n)
        line = to_graph6(g)
        assert line[:4] == header
        assert parse_graph6(line) == g
        assert to_graph6(parse_graph6(line)) == line

    @given(graphs(max_n=7))
    def test_roundtrip(self, g):
        line = to_graph6(g)
        assert parse_graph6(line) == g
        # re-encoding is byte identical, so graph6 output is canonical
        assert to_graph6(parse_graph6(line)) == line


class TestEdgeListText:
    def test_parse_format_roundtrip(self):
        g = two_diamonds_graph()
        text = format_edge_list(g)
        assert text.splitlines()[0] == "8 11"
        assert parse_edge_list(text) == g

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n1 2\n1 2\n")
        with pytest.raises(ValueError):
            parse_edge_list("2 1\n0 1\n")   # labels are 1-based


class TestSubgraphsComponents:
    def test_induced_two_diamonds(self, two_diamonds):
        s = mask_of([4, 5, 6, 7])     # 1-based 5..8
        h, relabel = induced_subgraph(two_diamonds, s)
        assert h.n == 4
        assert relabel == {4: 0, 5: 1, 6: 2, 7: 3}
        assert h.edge_count == 5
        assert not h.has_edge(0, 3)   # 5 and 8 are not adjacent

    def test_induced_rejects_bits_past_the_mask_width(self):
        # bits at 64 and above are outside every graph, not silently dropped
        for s in (1 << 64 | 1, 1 << 64):
            with pytest.raises(ValueError, match="induced set mentions vertices outside"):
                induced_subgraph(path_graph(3), s)

    def test_components_sorted_by_least_member(self):
        g = from_edge_list(6, [(4, 5), (0, 1)])
        comps = components(g, g.full_mask)
        assert comps == [mask_of([0, 1]), mask_of([2]), mask_of([3]), mask_of([4, 5])]

    def test_components_within_mask(self, two_diamonds):
        # removing the cut pair 4,5 (1-based) leaves the two triangles
        white = two_diamonds.full_mask & ~mask_of([3, 4])
        comps = components(two_diamonds, white)
        assert comps == [mask_of([0, 1, 2]), mask_of([5, 6, 7])]

    def test_is_connected(self, two_diamonds):
        assert is_connected(two_diamonds)
        assert not is_connected(from_edge_list(3, [(0, 1)]))
        assert is_connected(from_edge_list(1, []))


class TestClaws:
    def test_star_is_one_claw(self):
        g = star_graph(3)
        assert find_claws(g) == [(0, (1, 2, 3))]
        assert has_claw(g)
        assert not is_claw_free(g)

    def test_two_diamonds_claw_free(self, two_diamonds):
        assert is_claw_free(two_diamonds)
        assert find_claws(two_diamonds) == []

    def test_claw_ordering(self):
        # K(1,4) centred at 0: four leaf triples, lexicographic
        g = star_graph(4)
        claws = find_claws(g)
        assert [c.leaves for c in claws] == [
            (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4),
        ]
        assert all(c.center == 0 for c in claws)

    def test_exhaustive_against_reference(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                expect = naive_claws(g)
                assert find_claws(g) == sorted(expect)
                assert has_claw(g) == bool(expect)
                centers = {c for c, _ in expect}
                assert [any(_claws(g.adj, 1 << v)) for v in range(n)] == [
                    v in centers for v in range(n)]

    def test_leaf_mask_matches_reference(self):
        # every class to six vertices, with the full masks, random masks,
        # and the neighbours of a vertex as centers with leaves outside them
        rng = random.Random(28)
        for n in range(1, 7):
            for g, _ in graph_classes(n):
                claws = naive_claws(g)
                masks = [(g.full_mask, -1)]
                masks += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(3)]
                masks += [(g.adj[v], ~g.adj[v]) for v in rng.sample(range(n), min(n, 2))]
                for centers, leaves in masks:
                    expect = sorted((c, trio) for c, trio in claws if centers >> c & 1
                                    and all(leaves >> v & 1 for v in trio))
                    assert list(_claws(g.adj, centers, leaves)) == expect

    @given(graphs(max_n=7))
    def test_has_claw_matches_enumeration(self, g):
        assert has_claw(g) == bool(find_claws(g))


class TestEnumeration:
    def test_counts_small(self):
        assert sum(1 for _ in enumerate_graphs(3)) == 8
        assert sum(1 for _ in enumerate_graphs(3, connected_only=True)) == 4
        assert sum(1 for _ in enumerate_graphs(4)) == 64
        assert sum(1 for _ in enumerate_graphs(4, connected_only=True)) == 38

    def test_order_is_edge_mask_ascending(self):
        for n in range(1, 6):
            seen = list(enumerate_graphs(n))
            assert [naive_edge_mask(g) for g in seen] == list(range(1 << (n * (n - 1) // 2)))
            for k, g in enumerate(seen):
                assert Graph(n, g.adj) == g  # symmetric rows, no self-loops
                assert graph_from_edge_mask(n, k) == g

    def test_range_check(self):
        with pytest.raises(ValueError):
            list(enumerate_graphs(0))
        with pytest.raises(ValueError):
            list(enumerate_graphs(8))


# isomorphism classes of graphs on n vertices (OEIS A000088)
CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# the claw-free classes among them
CLAW_FREE_CLASSES = {1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 85, 7: 302}


def aut_count(g: Graph) -> int:
    return _canonical(g.adj)[3]


class TestGraphClasses:
    def test_frozen_counts_and_weights_sum_to_labeled_count(self):
        for n, count in CLASSES.items():
            classes = list(graph_classes(n))
            assert len(classes) == count
            assert sum(w for _, w in classes) == 1 << (n * (n - 1) // 2)
            keys = [_canonical(g.adj)[0] for g, _ in classes]
            assert keys == sorted(set(keys))  # one per class, ascending
            for (g, w), key in zip(classes, keys):
                assert Graph(n, g.adj) == g
                assert g.adj == _rows_of_key(key)  # labeled by its own key
                assert w * aut_count(g) == math.factorial(n)

    def test_weights_count_labeled_copies(self):
        # every labeled graph lands on a class, each class as often as its weight
        for n in range(1, 6):
            seen: dict[tuple[int, ...], int] = {}
            for g in enumerate_graphs(n):
                key = _canonical(g.adj)[0]
                seen[key] = seen.get(key, 0) + 1
            assert seen == {_canonical(g.adj)[0]: w for g, w in graph_classes(n)}

    def test_automorphism_counts_of_known_graphs(self):
        for n in range(1, 7):
            assert aut_count(complete_graph(n)) == math.factorial(n)
            assert aut_count(from_edge_list(n, [])) == math.factorial(n)
        for n in range(3, 8):
            assert aut_count(cycle_graph(n)) == 2 * n
        for k in range(2, 7):
            assert aut_count(star_graph(k)) == math.factorial(k)
        for n in range(2, 8):
            assert aut_count(path_graph(n)) == 2

    @given(graphs(max_n=7), st.randoms(use_true_random=False))
    def test_key_survives_relabeling(self, g, rnd):
        perm = list(range(g.n))
        rnd.shuffle(perm)
        h = from_edge_list(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
        assert _canonical(h.adj)[0] == _canonical(g.adj)[0]
        assert aut_count(h) == aut_count(g)

    def test_claw_free_classes_are_the_claw_free_subset(self):
        # same keys, weights and order as filtering the full stream
        for n, count in CLAW_FREE_CLASSES.items():
            classes = list(graph_classes(n, claw_free=True))
            assert len(classes) == count
            assert classes == [(g, w) for g, w in graph_classes(n) if is_claw_free(g)]

    def test_claw_through_matches_the_center_search(self):
        # every claw-free class on up to 7 vertices: the masks the claw-free
        # walk takes are, once each, the neighbourhoods that make the new
        # vertex k the center of no claw, and the size bound keeps the
        # large ones
        for k in range(1, 8):
            for g, _ in graph_classes(k, claw_free=True):
                centerless = []
                for nbrs in range(1 << k):
                    child = tuple(row | 1 << k if nbrs >> v & 1 else row
                                  for v, row in enumerate(g.adj)) + (nbrs,)
                    if not any(_claws(child, 1 << k)):
                        centerless.append(nbrs)
                for least in range(k + 2):
                    walked = list(_triple_free(g.adj, least))
                    assert sorted(walked) == [m for m in centerless if m.bit_count() >= least]

    def test_claw_through_matches_reference(self):
        # every claw-free class on up to 6 vertices: on the walked masks the
        # leaf search finds a claw exactly when the child has one through
        # k, by the brute-force claws of the child
        for k in range(1, 7):
            for g, _ in graph_classes(k, claw_free=True):
                for nbrs in _triple_free(g.adj):
                    child = tuple(row | 1 << k if nbrs >> v & 1 else row
                                  for v, row in enumerate(g.adj)) + (nbrs,)
                    expect = any(k in (c, *trio) for c, trio in naive_claws(Graph(k + 1, child)))
                    assert any(_claws(child, nbrs, ~nbrs)) == expect

    def test_connected_last_level_is_the_connected_subset(self):
        # the lower levels stay whole: the next level grows from them
        for n in range(1, 8):
            *lower, last = _class_levels(n, True)
            connected = [(key, aut) for key, aut in last
                         if is_connected(Graph(n, _rows_of_key(key)))]
            assert list(_class_levels(n, True, True)) == [*lower, connected]

    @pytest.mark.parametrize("claw_free, top", [(False, 7), (True, 8)],
                             ids=["all", "claw_free_connected"])
    def test_keyless_last_level_is_the_keyed_one(self, claw_free, top):
        # without keys the last level is the walk's rows in walk order: the
        # same classes and |Aut| as the keyed level, and every |Aut| taken by
        # orbit-stabilizer on a twin cell is _canonical's
        twin_cells = 0
        for n in range(1, top + 1):
            *lower, keyed = _class_levels(n, claw_free, claw_free)
            *lower_walked, walked = _class_levels(n, claw_free, claw_free, False)
            assert lower_walked == lower
            found = []
            for rows, aut in walked:
                assert Graph(n, rows).adj == rows
                key, _, _, canonical_aut = _canonical(rows)
                assert aut == canonical_aut
                found.append((key, aut))
                cell = next(c for c in _cells(rows) if c >> n - 1 & 1)
                twin_cells += all(not (rows[v] ^ rows[n - 1]) & ~(1 << v | 1 << n - 1)
                                  for v in bits(cell))
            assert sorted(found) == keyed
        assert twin_cells  # children accepted on a twin cell, without _canonical

    @pytest.mark.parametrize("claw_free, top, at_six", [(False, 7, 87), (True, 8, 38)],
                             ids=["all", "claw_free_connected"])
    def test_degree_twin_children_skip_refinement(self, monkeypatch, claw_free, top, at_six):
        # a keyless last-level child whose degree-d vertices are all twins of
        # k is accepted before _cells: that set is k's cell and its orbit.
        # At n = 6 the parent refined 184 (all) and 62 (claw-free connected)
        refined = []
        cells = classes._cells
        monkeypatch.setattr(classes, "_cells", lambda adj: refined.append(adj) or cells(adj))
        for n in range(2, top + 1):
            refined.clear()
            list(_class_levels(n, claw_free, claw_free, False))
            last = [rows for rows in refined if len(rows) == n]
            if n == 6:
                assert len(last) == at_six
            for rows in last:
                d = rows[-1].bit_count()
                assert not all(not (row ^ rows[-1]) & ~(1 << v | 1 << n - 1)
                               for v, row in enumerate(rows) if row.bit_count() == d)

    def test_claw_free_levels_pinned_at_eight(self):
        # keys, |Aut| and order of every level up to n = 8, past the naive
        # oracles' reach; a change to the walk or its kernels must keep them
        digest = hashlib.sha256(repr(list(_class_levels(8, True))).encode()).hexdigest()
        assert digest == "dda4ad971b9f85a3bb954b1e71af485b648c23267c028e8c8abc3e76ea09c349"

    @pytest.mark.parametrize("args, expect", [
        ((8, True, True, False), "bfb5e710d6df7c865e8308a7f7969243cb80e16958f25db7228cf87cc433764e"),
        ((7, False, False, False), "82c28d5ec5550b336cae91bdd5de6c6d1d4e117c6156d0108d3c15496d5d1eac"),
    ], ids=["claw_free_connected_8", "all_7"])
    def test_keyless_walk_pinned(self, args, expect):
        # the keyless last level's rows, |Aut| and walk order, not only the
        # sorted classes that the keyed comparison above reads
        digest = hashlib.sha256(repr(list(_class_levels(*args))).encode()).hexdigest()
        assert digest == expect

    @pytest.mark.parametrize("claw_free, top", [(False, 7), (True, 8)],
                             ids=["all", "claw_free"])
    def test_levels_are_the_smaller_streams(self, claw_free, top):
        levels = list(_class_levels(top, claw_free))
        assert len(levels) == top
        for k, level in enumerate(levels, 1):
            graphs_k = [(Graph(k, _rows_of_key(key)), math.factorial(k) // aut)
                        for key, aut in level]
            assert graphs_k == list(graph_classes(k, claw_free))

    def test_claw_free_filter_drops_a_new_leaf(self):
        # K_{1,3} grows from the path P_3 by a vertex on the path's middle:
        # the new vertex is only a leaf, so a filter that asked whether it
        # is a center would keep the star
        keys = {_canonical(g.adj)[0] for g, _ in graph_classes(4, claw_free=True)}
        assert len(keys) == 10
        assert _canonical(star_graph(3).adj)[0] not in keys

    def test_graph_atlas_oracle(self):
        # the atlas holds every graph on 0..7 vertices; networkx decides
        # isomorphism, automorphisms and induced K_{1,3} on its own
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher
        claw = nx.star_graph(3)
        atlas: dict[int, list] = {n: [] for n in range(1, 8)}
        for h in nx.graph_atlas_g():
            if h.number_of_nodes() in atlas:
                atlas[h.number_of_nodes()].append(h)
        for n, graphs_n in atlas.items():
            classes = {_canonical(g.adj)[0]: g for g, _ in graph_classes(n)}
            keys = []
            claw_free = set()
            for h in graphs_n:
                g = from_edge_list(n, h.edges())
                key = _canonical(g.adj)[0]
                keys.append(key)
                autos = sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())
                assert aut_count(classes[key]) == autos
                if not GraphMatcher(h, claw).subgraph_is_isomorphic():
                    claw_free.add(key)
            assert len(set(keys)) == len(keys) == len(classes)  # distinct, all hit
            assert claw_free == {_canonical(g.adj)[0]
                                 for g, _ in graph_classes(n, claw_free=True)}


def twin_heavy(n: int):
    """Graphs on n vertices whose twin classes are large: K_n, the empty
    graph, K_{a,b} and, for even n, K_n minus a perfect matching."""
    yield complete_graph(n)
    yield from_edge_list(n, [])
    for a in range(1, n // 2 + 1):
        yield from_edge_list(n, [(u, v) for u in range(a) for v in range(a, n)])
    if n % 2 == 0:
        yield from_edge_list(n, [(u, v) for u, v in itertools.combinations(range(n), 2)
                                 if v != u + 1 or u % 2])


class TestCanonicalOracle:
    """_canonical keeps one labeling per coset of the group T that permutes
    twins; naive_canonical keeps every labeling that reaches the key. They
    must agree on the key, on |Aut|, and on the vertex orbits, which
    _canonical gives as the union, over its labelings, of the twin class of
    the vertex at each position."""

    @staticmethod
    def agree(g: Graph) -> None:
        key, labelings, twin, aut = _canonical(g.adj)
        want, everyone = naive_canonical(g)
        assert key == want
        assert aut == len(everyone)
        assert set(labelings) <= set(everyone)
        orbits = {mask_of(set(column)) for column in zip(*everyone)}
        assert orbits == {functools.reduce(operator.or_, map(twin.__getitem__, column))
                          for column in zip(*labelings)}

    def test_every_labeled_graph_to_five(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                self.agree(g)

    def test_every_class_to_seven(self):
        for n in range(1, 8):
            for g, _ in graph_classes(n):
                self.agree(g)

    def test_twin_heavy_families_at_eight(self):
        # every such graph on fewer vertices is one of the classes above
        for g in twin_heavy(8):
            self.agree(g)


class TestCellsOracle:
    """_cells starts from the degree split; naive_cells starts from one cell.
    Both must end in the same cells, in the same order."""

    @staticmethod
    def agree(g: Graph) -> None:
        assert [list(bits(c)) for c in _cells(g.adj)] == naive_cells(g)

    def test_every_labeled_graph_to_five(self):
        for n in range(1, 6):
            for g in enumerate_graphs(n):
                self.agree(g)

    def test_every_class_to_seven(self):
        for n in range(1, 8):
            for g, _ in graph_classes(n):
                self.agree(g)

    def test_twin_heavy_families_at_eight(self):
        for g in twin_heavy(8):
            self.agree(g)

    def test_regular_graphs_are_one_cell(self):
        for n in range(1, 9):
            regular = [complete_graph(n), from_edge_list(n, [])]
            if n >= 3:
                regular.append(cycle_graph(n))
            for g in regular:
                assert _cells(g.adj) == [(1 << n) - 1]
                self.agree(g)

    def test_one_vertex(self):
        assert _cells((0,)) == [1]
        self.agree(from_edge_list(1, []))


class TestCarriedGroup:
    """_class_levels reads a class's automorphisms from the call that
    canonicalized it as a child, moved into its key's ids by _carry. Each
    carried labeling, with its vertices moved inside the carried twin
    classes in every way, must give exactly the labelings naive_canonical
    finds on the graph labeled by the key, each once."""

    @staticmethod
    def agree(key: tuple[int, ...], carried) -> None:
        perms, twins = carried
        g = Graph(len(key), _rows_of_key(key))
        assert set(twins) == {c for c in set(_canonical(g.adj)[2]) if c & c - 1}
        groups = [list(bits(c)) for c in twins]
        expanded = []
        for perm in perms:
            for images in itertools.product(*map(itertools.permutations, groups)):
                t = list(range(g.n))
                for members, image in zip(groups, images):
                    for v, w in zip(members, image):
                        t[v] = w
                expanded.append(tuple(t[v] for v in perm))
        assert len(expanded) == len(set(expanded))  # one per coset of T
        assert set(expanded) == set(naive_canonical(g)[1])

    @pytest.mark.parametrize("claw_free", [False, True], ids=["all", "claw_free"])
    def test_every_class_to_six(self, monkeypatch, claw_free):
        # spy on what the walk carries; a level is carried when one follows
        carried, last = {}, []
        canonical, carry = classes._canonical, classes._carry

        def spy_canonical(adj, cells=None):
            last[:] = [canonical(adj, cells)]
            return last[0]

        def spy_carry(labelings, twin):
            key, labs, twins, _ = last[0]
            assert labs is labelings and twins is twin
            carried[key] = carry(labelings, twin)
            return carried[key]

        monkeypatch.setattr(classes, "_canonical", spy_canonical)
        monkeypatch.setattr(classes, "_carry", spy_carry)
        levels = list(_class_levels(7, claw_free))
        assert set(carried) == {key for level in levels[1:6] for key, _ in level}
        for key, group in carried.items():
            assert group[0][0] == tuple(range(len(key)))  # orbit marking maps nbrs by it as nbrs
            self.agree(key, group)

    def test_twin_heavy_families_at_eight(self):
        rnd = random.Random(8)
        for g in twin_heavy(8):
            perm = list(range(8))
            rnd.shuffle(perm)
            h = from_edge_list(8, [(perm[u], perm[v]) for u, v in g.edges()])
            for graph in (g, h):
                key, labelings, twin, _ = _canonical(graph.adj)
                self.agree(key, _carry(labelings, twin))


class TestClassCountTransforms:
    """A claw is connected, so a graph is claw-free exactly when each of its
    components is. In the claw-free stream as in the full one, the class
    counts are then the Euler transform of the connected class counts, and
    the labeled counts their exponential transform. A class made twice or
    missed, or a wrong |Aut|, breaks an identity unless it hits the
    connected and the disconnected classes alike."""

    @pytest.mark.parametrize("claw_free", [False, True], ids=["all", "claw_free"])
    def test_up_to_seven(self, claw_free):
        top = 7
        classes, labeled, conn_classes, conn_labeled = [1], [1], [0], [0]
        for n in range(1, top + 1):
            stream = list(graph_classes(n, claw_free))
            classes.append(len(stream))
            labeled.append(sum(w for _, w in stream))
            conn = [w for g, w in stream if is_connected(g)]
            conn_classes.append(len(conn))
            conn_labeled.append(sum(conn))
        for n in range(1, top + 1):
            b = [sum(d * conn_classes[d] for d in range(1, k + 1) if k % d == 0)
                 for k in range(n + 1)]
            assert n * classes[n] == sum(b[k] * classes[n - k] for k in range(1, n + 1))
            assert labeled[n] == sum(math.comb(n - 1, k - 1) * conn_labeled[k] * labeled[n - k]
                                     for k in range(1, n + 1))
        if claw_free:
            assert conn_classes[1:] == [1, 1, 2, 5, 14, 50, 191]
            assert labeled[1:] == [1, 2, 8, 60, 769, 15272, 429682]


class TestInputRejections:
    """One case per rejection: each raises ValueError with its message."""

    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: Graph(0, []), "vertex count 0 outside 1..64", id="graph-n-0"),
        pytest.param(lambda: Graph(65, [0] * 65), "vertex count 65 outside 1..64",
                     id="graph-n-65"),
        pytest.param(lambda: Graph(2, [0]), "1 adjacency rows for 2 vertices", id="graph-rows"),
        pytest.param(lambda: Graph(2, [0b100, 0]), "adjacency row of 0 mentions vertices >= 2",
                     id="graph-row-past-n"),
        pytest.param(lambda: Graph(2, [0b1, 0]), "self-loop at vertex 0", id="graph-self-loop"),
        pytest.param(lambda: Graph(2, [0b10, 0]), "asymmetric adjacency between 0 and 1",
                     id="graph-asymmetric"),
        pytest.param(lambda: graph_from_edge_mask(0, 0), "vertex count 0 outside 1..64",
                     id="edge-mask-n-0"),
        pytest.param(lambda: graph_from_edge_mask(65, 0), "vertex count 65 outside 1..64",
                     id="edge-mask-n-65"),
        pytest.param(lambda: graph_from_edge_mask(3, -1), "edge mask -1 out of range for n=3",
                     id="edge-mask-negative"),
        pytest.param(lambda: graph_from_edge_mask(3, 8), "edge mask 8 out of range for n=3",
                     id="edge-mask-too-wide"),
        pytest.param(lambda: parse_graph6("B\u00e9"), "graph6 line is not ascii",
                     id="graph6-non-ascii"),
        pytest.param(lambda: parse_graph6("~~??????"), "unsupported graph6 header",
                     id="graph6-eight-byte-header"),
        pytest.param(lambda: parse_graph6("?"), "graph6 vertex count 0 outside 1..64",
                     id="graph6-n-0"),
        pytest.param(lambda: parse_edge_list("x 1\n1 2\n"), "edge-list header 'x 1' is not 'n m'",
                     id="edges-header-not-int"),
        pytest.param(lambda: parse_edge_list("2 1 0\n1 2\n"),
                     "edge-list header '2 1 0' is not 'n m'", id="edges-header-three-fields"),
        pytest.param(lambda: parse_edge_list("3 1\n1 2 3\n"), "bad edge line '1 2 3'",
                     id="edges-line-three-fields"),
        pytest.param(lambda: parse_edge_list("2 1\n1 x\n"), "bad edge line '1 x'",
                     id="edges-line-not-int"),
        pytest.param(lambda: induced_subgraph(path_graph(3), 0), "induced set is empty",
                     id="induced-empty"),
        pytest.param(lambda: components(path_graph(3), 1 << 3),
                     "component set mentions vertices outside the graph", id="components-outside"),
        pytest.param(lambda: cycle_graph(2), "cycles need at least 3 vertices", id="cycle-2"),
        pytest.param(lambda: star_graph(0), "stars need at least one leaf", id="star-0"),
    ])
    def test_rejected(self, make, message):
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value).startswith(message)


class TestBuilders:
    def test_shapes(self):
        assert path_graph(5).edge_count == 4
        assert cycle_graph(5).edge_count == 5
        assert complete_graph(5).edge_count == 10
        assert star_graph(5).n == 6
        assert star_graph(5).degree(0) == 5

    def test_edge_mask_builder(self):
        g = graph_from_edge_mask(3, 0b101)
        assert g.edges() == [(0, 1), (1, 2)]
