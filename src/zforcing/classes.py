"""Isomorphism classes of small graphs, grown one vertex at a time.

Private to the verifier, which walks the classes on n vertices it decides
instead of every labeled graph: canonical keys by cell refinement with
twin pruning, and isomorph-free generation by canonical deletion.
"""
from __future__ import annotations

import itertools
import math
from typing import Iterator

from .graphs import Graph, _claws, bits, components, mask_of


def _cells(adj: tuple[int, ...]) -> list[int]:
    """Iterated degree refinement: the vertices split into ordered cells
    (masks) by degree, then by how many neighbours they have in each current
    cell, until no cell splits. Relabeling the graph relabels the cells and
    keeps their order. A later round's signature is the bytes of those
    counts: a count is at most 63, below 256, so bytes sort as the tuples
    of counts do. Vertices with equal counts in a round's cells have equal
    counts in the coarser cells of the round before, which are sums of
    them, so they already shared a cell: a round only splits cells, and a
    partition into single vertices is final."""
    sig = list(map(int.bit_count, adj))
    cells: list[int] = []
    while True:
        group: dict[int | bytes, int] = {}
        for v, s in enumerate(sig):
            group[s] = group.get(s, 0) | 1 << v
        if len(group) == len(cells):
            return cells
        cells = [group[s] for s in sorted(group)]
        if len(cells) == len(adj):
            return cells
        sig = [bytes(map(int.bit_count, map(a.__and__, cells))) for a in adj]


def _canonical(adj: tuple[int, ...], cells: list[int] | None = None
               ) -> tuple[tuple[int, ...], list[tuple[int, ...]], list[int], int]:
    """Canonical key of a graph, one labeling that reaches it per coset of
    the twin group T (below), each vertex's twin class (a mask), and |Aut|.

    A labeling fills positions 0..n-1 cell by cell, in cell order; its
    adjacency tuple holds, for each position, the mask of earlier positions
    adjacent to it. The key is the least such tuple, found one position at
    a time, keeping only the partial labelings whose prefix is least. The
    labelings that reach the key form one coset of Aut, since automorphisms
    preserve the cells. cells, if given, is _cells(adj).

    Twins are distinct vertices u, v with N(u) - v = N(v) - u. Each twin
    class lies in one cell, and every permutation inside it is an
    automorphism; call the group of these T. A vertex is placed only once
    its lower-numbered twins are: sorting the twins of a least partial
    labeling keeps its rows, so the least rows, and the key, stay the same,
    and exactly one labeling per T-coset is returned (tuples of the vertex
    at each position). So |Aut| is their number times the product of the
    class sizes' factorials, and every labeling that reaches the key is
    one returned with its vertices moved inside their twin classes."""
    twin = [1 << v for v in range(len(adj))]
    frontier: list[tuple[tuple[int, ...], int]] = [((), 0)]
    key = []
    for cell in cells or _cells(adj):
        if cell & cell - 1:
            members = list(bits(cell))
            for i, v in enumerate(members):
                for u in members[:i]:
                    if not (adj[u] ^ adj[v]) & ~(1 << u | 1 << v):
                        twin[u] |= 1 << v
                        twin[v] |= 1 << u
            members = [(v, 1 << v, twin[v] & ((1 << v) - 1)) for v in members]
        else:  # one vertex: no twins, and one candidate per partial labeling
            members = [(cell.bit_length() - 1, cell, 0)]
        for _ in members:
            best = -1
            nxt = []
            for placed, done in frontier:
                for v, bit, lower in members:
                    if done & bit or lower & ~done:
                        continue
                    a = adj[v]
                    row = 0
                    for j, u in enumerate(placed):
                        if a >> u & 1:
                            row |= 1 << j
                    if row == best:
                        nxt.append((placed + (v,), done | bit))
                    elif best < 0 or row < best:
                        best = row
                        nxt = [(placed + (v,), done | bit)]
            key.append(best)
            frontier = nxt
    aut = len(frontier) * math.prod(math.factorial(c.bit_count()) for c in set(twin))
    return tuple(key), [placed for placed, _ in frontier], twin, aut


def _rows_of_key(key: tuple[int, ...]) -> tuple[int, ...]:
    rows = list(key)
    for i, row in enumerate(key):
        for j in bits(row):
            rows[j] |= 1 << i
    return tuple(rows)


def _carry(labelings: list[tuple[int, ...]], twin: list[int]
           ) -> tuple[list[tuple[int, ...]], list[int]]:
    """_canonical's labelings and twin classes of a graph, moved into the ids
    of its key (the vertex at position p becomes p): the key's
    automorphisms, one per coset of its twin group, and its twin classes of
    two or more vertices."""
    inv = [0] * len(twin)
    for p, v in enumerate(labelings[0]):
        inv[v] = p
    return ([tuple(inv[v] for v in lab) for lab in labelings],
            [mask_of(inv[v] for v in bits(c)) for c in set(twin) if c & c - 1])


def _triple_free(rows: tuple[int, ...], least: int = 0) -> Iterator[int]:
    """Each mask over rows' vertices with no independent triple and at least
    least members, once. Masks without a triple are closed under subsets,
    so each is reached by adding its members in ascending order. A mask
    may gain only the vertices in free: those above its last member that
    complete no triple with a nonadjacent pair in it; and none once too
    few are left to reach least members."""
    stack = [(0, (1 << len(rows)) - 1)]  # a mask and its free vertices
    while stack:
        mask, free = stack.pop()
        need = least - mask.bit_count()
        if need <= 0:
            yield mask
        while free and free.bit_count() >= need:
            bit = free & -free
            free ^= bit
            row = rows[bit.bit_length() - 1]
            grown = free
            for u in bits(mask & ~row):  # u, v nonadjacent: a third vertex needs an edge to one
                grown &= row | rows[u]
            stack.append((mask | bit, grown))


def _class_levels(n: int, claw_free: bool = False, connected: bool = False,
                  keys: bool = True) -> Iterator[list[tuple[tuple[int, ...], int]]]:
    """The isomorphism classes on 1, 2, .., n vertices, one level at a
    time, each as its ascending list of (canonical key, |Aut|), by
    canonical deletion (McKay, "Isomorph-free exhaustive generation", J.
    Algorithms 26, 1998). Each class on k vertices gains a vertex k
    adjacent to one neighbourhood per orbit of Aut on vertex sets. The
    child is kept only when k is in the orbit of its canonical deletion
    vertex, the last vertex of largest degree in its canonical labeling, so
    each class arises once, from the class left by deleting that vertex. A
    neighbourhood that would not give k the largest degree is dropped
    first: the test reads only degrees, so it drops whole orbits. The
    cells refine the degrees and are filled in order, so a child is also
    dropped, before it is canonicalized, when k is not in the last cell of
    degree-d vertices.

    The parent's automorphisms come from the call that made it a child:
    _canonical returned its labelings L, one per coset of the twin group T,
    and the first, L0, gave its key K. _carry moves each L into K's ids as
    sigma = inv o L, where inv[L0[p]] = p, and sigma maps K onto itself: K
    has the edge (sigma p, sigma q) exactly when the child has (L p, L q),
    which holds exactly when K has (p, q). The relabeling carries the
    child's T to K's, so the sigmas are one per coset of K's T, and as T is
    normal in Aut, every automorphism is t o sigma for some t in T and
    carried sigma. So a neighbourhood's orbit is marked as, for each sigma,
    every mask with as many members as sigma(nbrs) in each twin class and
    the same members outside them. The first sigma is inv o L0, the
    identity, so its image of nbrs is nbrs. Only the level being extended
    keeps its labelings. The child's test needs no twin step: k is in the
    orbit of position p exactly when some returned L has a twin of k at p,
    and that twin is k itself, since p is the last position of k's cell and
    L places k after its twins, which have lower ids. A labeling fills the
    cells in order, so p is read from the cell sizes: the last cell of
    degree-d vertices ends there.

    With claw_free only the classes without an induced claw are made.
    Deleting a vertex of a claw-free graph leaves it claw-free, so they all
    grow from claw-free parents, and each claw of a child holds k. k is its
    center exactly when N(k) holds an independent triple, so only the masks
    of _triple_free are walked, none smaller than the degree test allows.
    As a leaf, k's claw has its center in N(k) and its other leaves,
    nonadjacent to k, outside it, where the leaf search looks before the
    child is canonicalized.

    With connected the last level keeps only its connected classes: the
    children whose N(k) meets every component of the parent. Automorphisms
    permute the components, so this test too drops whole orbits.

    Without keys the last level is (rows, |Aut|) in walk order, each child
    its parent's key plus k. A child whose cell of k is a twin class (one
    vertex counts) skips _canonical: cells are invariant and any permutation
    of a twin class is an automorphism, so the cell is k's orbit and holds
    position p. The automorphisms fixing k are the parent's fixing N(k), so
    |Aut| is the parent's over nbrs' orbit size (the masks its marking newly
    sets), times the cell's size. Most such children are settled before
    _cells: when every vertex of degree d is a twin of k, that set is one
    twin class, which refinement never splits, so it is the only cell of
    degree-d vertices, hence the last, and k's orbit, and the child is kept
    with the same |Aut| the twin cell would give."""
    level = [((0,), 1)]
    groups = {(0,): ([(0,)], [])}
    yield level
    for k in range(1, n):
        children = []
        kept = {}  # the next level's groups, if one follows
        ints = list(range(2 << k))  # one object per row value, shared by the level's children
        walk = not keys and k == n - 1  # the last level, on the walk's own labeling
        for key, order in level:
            rows = _rows_of_key(key)
            pairs = [(ints[row], ints[row | 1 << k]) for row in rows]  # each row without and with k
            degs = [row.bit_count() for row in rows]
            top = max(degs)
            at_top = mask_of(v for v, dv in enumerate(degs) if dv == top)
            auts, classes = groups[key]
            alone = ~sum(classes)
            comps = (components(Graph._unchecked(k, rows), (1 << k) - 1)
                     if connected and k == n - 1 else ())
            seen = bytearray(1 << k)
            for nbrs in _triple_free(rows, top) if claw_free else range(1 << k):
                d = nbrs.bit_count()
                if (seen[nbrs] or d < top or d == top and nbrs & at_top
                        or not all(map(nbrs.__and__, comps))):
                    continue
                orbit = 0  # nbrs' orbit: every mark is new, as it meets no orbit marked before
                for j, perm in enumerate(auts):
                    m = mask_of(perm[i] for i in bits(nbrs)) if j else nbrs  # auts[0] is the identity
                    marks = [m & alone]
                    for c in classes:
                        marks = [a | mask_of(t) for a in marks
                                 for t in itertools.combinations(bits(c), (m & c).bit_count())]
                    for mark in marks:
                        orbit += 1 - seen[mark]
                        seen[mark] = 1
                child = tuple(pair[nbrs >> v & 1] for v, pair in enumerate(pairs)) + (nbrs,)
                if claw_free and any(_claws(child, nbrs, ~nbrs)):
                    continue
                if walk:
                    same = [v for v, row in enumerate(child) if row.bit_count() == d]
                    if all(not (child[v] ^ nbrs) & ~(1 << v | 1 << k) for v in same):
                        children.append((child, order // orbit * len(same)))  # a twin degree class
                        continue
                cells = _cells(child)
                p = k  # becomes the last position of the last cell of degree-d vertices
                for last in reversed(cells):
                    if child[last.bit_length() - 1].bit_count() == d:
                        break
                    p -= last.bit_count()
                if not last >> k & 1:
                    continue
                if walk and all(not (child[v] ^ nbrs) & ~(1 << v | 1 << k) for v in bits(last)):
                    children.append((child, order // orbit * last.bit_count()))  # a twin cell
                    continue
                child_key, labelings, twin, aut = _canonical(child, cells)
                if any(lab[p] == k for lab in labelings):
                    children.append((child if walk else child_key, aut))
                    if k + 1 < n:
                        kept[child_key] = _carry(labelings, twin)
        level = children if walk else sorted(children)
        groups = kept
        yield level

