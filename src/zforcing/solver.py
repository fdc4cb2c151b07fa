"""Exact forcing numbers by exhaustive search over candidate sets.

Within one size k, candidate sets are tried in lexicographic order, and
the first whose closure colors everything is that size's witness. The
scan walks each (k - 1)-prefix P with every last vertex v > max(P). The
complement of a failed closure cl(T) is a fort: a set S that misses it
lies inside cl(T), so cl(S) is inside cl(T) and S does not force. This
holds under both rules: their closures are monotone and idempotent, since
a valid force stays valid when more vertices are blue, unless its target
is one of them. One search, for one graph and rule, keeps its forts in
a list across all its sizes. Each prefix P keeps only the last vertices
inside every stored fort that P misses, and is skipped if none is left.
A failed closure adds its fort and drops the stored forts that contain
it; it contains none, since the candidate meets each. A standard fort
need not bind psd sets, so each rule, and each search from a known size,
starts a fresh list.

A candidate P + v that cannot make a first force is its own closure, so
it is dropped with bit tests and no closure, unless it is the whole
vertex set. Let W be the complement of P. Under the standard rule P + v
has a force only if

- some u in P has exactly one neighbour in W, other than v;
- v is one of exactly two neighbours in W of some u in P; or
- v has exactly one neighbour in W.

Which members of P have one or two neighbours in W is found once per
prefix. The psd rule applies the standard rule inside each component of
the white set W - v, so when G[W - v] is connected the two rules agree.
Only a candidate that fails the standard test is checked for that, with
one BFS.

Sizes are visited in this order:

- First the bound is set: b = _treewidth_bound <= tw(G) for a graph with
  at least 10 edges and at least n + 2, b = 2 for one with at least 10
  and n or n + 1, the min degree for the rest. The contraction's b is at
  least the min degree, the first degree it records. A graph with as many
  edges as vertices has a cycle, so tw(G) >= 2; a connected one with
  fewer is a tree, whose b is at most 1. A connected graph with at most
  n + 1 edges has m - n + 1 <= 2 independent cycles; a minor has no
  more, and K4 has 3, so tw(G) <= 2 and the contraction would give 2.
  Its average degree 2m/n is below 3, so 2 is at least its min degree.
  On a disconnected input 2 is only a lower bound: K4 beside a path of 6
  vertices has tw = 3. A graph with fewer than 10 edges has b <= 3,
  since a minor of min degree 4 has at least 10 edges, so its b could
  skip only sizes 1 and 2, never a size of the descent below.
- Every size below the bound fails without a search, since
  min degree <= b <= tw(G) <= Z+(G) <= Z(G) (tree-width; see below).
- Sizes from the bound up to 2 are tried ascending, and the first success
  returns. Size 1 is tried only on a graph with n - 1 edges and, under
  the standard rule, no degree above 2. If {v} psd-forces G, v has
  exactly one neighbour in each component of G - v, as only v can force
  into it, each component is psd-forced from that neighbour alone, and
  so by induction G is a tree. A standard forcing set psd-forces, so a
  standard {v} makes G a tree too; each vertex forces at most once, so
  the forces from {v} make one chain through all n vertices, whose n - 1
  edges are all of the tree's: G is a path.
- Then one closure finds k0, the least k from max(b, 3) (max(b + 1, 3)
  when the check below is due at b, which decides size b) whose prefix
  P_k = {0..k - 1} forces. P_k is the first size-k candidate and lies in
  P_k+1, and a superset of a forcing set forces under both rules, so the
  sizes whose prefix forces form a run [k0, n], at each of which the scan
  would yield P_k first. Closure is monotone and idempotent, so
  P_k <= C <= cl(P_k) gives cl(P_k+1) = cl(C + k): C grows a vertex at a
  time, and C + k is closed only when it meets every stored fort and
  `_forces` finds a force in it. A failed closure stores its fort.
- Sizes then go down from k0 - 1 and stop at the first with no forcing
  set, or at the bound; Z is the last size that had one, or k0. Only
  size Z - 1 is searched in full, and not even that when Z = b.
- When the contraction gave b, size b + 1 forces and size b is next,
  `_exceeds_treewidth(adj, b)` runs once; if it proves tw(G) > b, the
  descent stops with Z = b + 1 and size b is never searched. It runs only
  when n > b + 2: tw(G) <= n - 1, and tw(G) = n - 1 only for K_n, whose b
  is n - 1. Its search visits at most C(n, b) states, the candidates of
  the scan it may replace, and at most n^2; out of budget it proves
  nothing, and the scan runs.

`_search_min` returns the bound it used with the size and witness: the
min degree when the graph has fewer than 10 edges or fewer edges than
vertices, 2 when it has n or n + 1, b + 1 when the check fired, b
otherwise. Each is at most tw(G) <= Z+(G).

tw(G) <= Z+(G): let S psd-force G and W be a component of G - S. The first
force into W is some u -> w with N(u) & W = {w}. Each component of W - w is
forced from S - u + w, so by induction on |W| it has a decomposition of
width <= |S| whose root bag holds S - u + w; hang each below a bag S + w.
A bag S joins these for every W. Deleting a vertex or contracting an edge
never raises tree-width, and min degree <= tree-width.

`_exceeds_treewidth(adj, k)` decides tw(G) <= k by a depth-first search
over elimination orderings. Eliminating a vertex joins its neighbours into
a clique and deletes it, and tw(G) is the least, over all orders, of the
most neighbours a vertex has when it goes. So each step eliminates a vertex
with at most k neighbours, and a branch succeeds once at most k + 1
vertices are alive. The graph reached depends only on the set eliminated,
so alive sets shown to fail are kept and not searched again. A vertex v
with at most k neighbours that form a clique, less at most one w, decides
its state alone: eliminating it leaves a subgraph or a minor (contract vw),
so when v's branch fails the state fails. A state costs O(nk) bit
operations besides its children, so with at most n^2 states the search
stays polynomial in time and memory.

The witness is the lexicographically least minimum set.
`tested` is the witness's 1-based rank among the nonempty vertex sets in
size-then-lex order, computed from the witness alone by `_tested`: the
number of candidates a size-ascending search would have tried, skipped
candidates included. It depends on the graph and the rule only.
Disconnected inputs are solved per component, and values and `tested`
are summed.
"""
from __future__ import annotations

import itertools
import math
import time
from typing import Iterator, NamedTuple

from .graphs import Graph, bits, components, induced_subgraph, mask_of, reach
from .forcing import Rule, _close, _forces, _rule


class SolverReport(NamedTuple):
    rule: Rule
    value: int
    witness: int
    tested: int
    elapsed_ms: float


def _forcing_sets_of_size(adj: tuple[int, ...], n: int, k: int, psd: bool,
                          forts: list[int]) -> Iterator[int]:
    """Yield every size-k forcing set of one whole graph, in lexicographic
    order. Candidates that miss a fort in forts, and candidates that cannot
    make a first force, are skipped; each failed closure adds its fort to
    forts. See the module docstring."""
    full = (1 << n) - 1
    if not k:  # the empty set forces the empty graph only, and a Graph has n >= 1
        return
    for prefix in itertools.combinations(range(n - 1), k - 1):
        start = prefix[-1] + 1 if prefix else 0
        base = mask_of(prefix)
        rest = full >> start << start
        for fort in forts:
            if not fort & base:
                rest &= fort
        if not rest:
            continue
        white = full ^ base
        ones = twos = 0  # prefix vertices' lone white neighbours and white pairs
        for u in prefix:
            inter = adj[u] & white
            if inter.bit_count() == 1:
                ones |= inter
            elif inter.bit_count() == 2:
                twos |= inter
        while rest:
            low = rest & -rest
            if not (ones & ~low or twos & low
                    or (adj[low.bit_length() - 1] & white).bit_count() == 1
                    or white == low):
                # no standard force; nor a psd one unless white - v splits
                left = white ^ low
                if not psd or reach(adj, left & -left, left) == left:
                    rest ^= low
                    continue
            closed = _close(adj, base | low, full, psd)
            if closed == full:
                yield base | low
                rest ^= low
            else:
                rest &= _store(forts, full ^ closed)


def _store(forts: list[int], fort: int) -> int:
    """Store a failed closure's fort, dropping the forts that contain it."""
    forts[:] = [f for f in forts if fort & ~f]
    forts.append(fort)
    return fort


def _search_min(adj: tuple[int, ...], n: int, rule: Rule) -> tuple[int, int, int]:
    """(size, witness mask, tree-width lower bound) for one whole graph, in
    the size order the module docstring gives. The bound is known before
    any size is scanned, and no size below it is; it is returned as the
    search used it. Above size 2 no size at or above k0, the least with a
    forcing prefix, is scanned, save b when the check finds nothing."""
    psd = rule is Rule.PSD
    forts: list[int] = []  # every size's failed closures prune every later size
    edges = sum(map(int.bit_count, adj)) // 2
    dense = edges >= max(10, n)  # a cycle, and enough edges for b >= 4; see above
    if not dense:
        bound = min(map(int.bit_count, adj))
    elif edges <= n + 1:  # if connected, one or two independent cycles: b = 2; see above
        bound = 2
    else:
        bound = _treewidth_bound(adj)
    least = 1 if edges == n - 1 and (psd or max(map(int.bit_count, adj)) <= 2) else 2
    for k in range(max(bound, least), min(n, 2) + 1):  # one vertex forces only trees, paths
        witness = next(_forcing_sets_of_size(adj, n, k, psd, forts), 0)
        if witness:
            return k, witness, bound
    full = (1 << n) - 1
    z, witness = n, full  # the full vertex set always forces
    due = dense and n > bound + 2  # the tree-width check runs at size bound
    start = max(bound + due, 3)
    closed = (1 << start - 1) - 1  # P_k <= closed <= cl(P_k) for each k below
    for k in range(start - 1, n - 1):
        closed |= 1 << k  # now P_k+1 <= closed <= cl(P_k+1)
        if all(f & closed for f in forts) and any(_forces(adj, closed, full ^ closed, psd)):
            closed = _close(adj, closed, full, psd)
            if closed != full:
                _store(forts, full ^ closed)
        if closed == full:
            z, witness = k + 1, (2 << k) - 1
            break
    for k in range(z - 1, max(bound - 1, 2), -1):
        if due and k == bound and _exceeds_treewidth(adj, k):
            bound += 1  # = z, so size z - 1 cannot force
            break
        found = next(_forcing_sets_of_size(adj, n, k, psd, forts), 0)
        if not found:
            break
        z, witness = k, found
    return z, witness, bound


def _numbers_differ(g: Graph) -> bool:
    """Whether Z(G) != Z+(G), deciding Z+ by psd tests at two sizes only.
    A standard forcing set is a psd forcing set, since every standard force
    is a psd force, so the lex-least standard witness of size Z psd-forces
    unless Z+ > Z. A superset of a psd forcing set is one too, so Z+ < Z
    exactly when some set of size Z - 1 psd-forces; none does when Z is at
    most the tree-width bound, since that is at most Z+."""
    z, witness, bound = _search_min(g.adj, g.n, Rule.STANDARD)
    if _close(g.adj, witness, g.full_mask, True) != g.full_mask:
        return True
    return z > bound and any(_forcing_sets_of_size(g.adj, g.n, z - 1, True, []))


def _treewidth_bound(adj: tuple[int, ...]) -> int:
    """A lower bound on tree-width, the contraction degeneracy with
    least-common-neighbour contraction (Bodlaender, Koster and Wolle, 2006):
    take a least-degree vertex, record its degree, and contract it into the
    neighbour it shares fewest neighbours with, or delete it if isolated;
    ties go to the lowest id. Every graph on the way is a minor of the
    input, so no degree recorded exceeds tw(G); return the largest."""
    rows = list(adj)
    deg = [row.bit_count() for row in rows]
    left = list(range(len(rows)))
    best = 0
    while len(left) > best + 1:  # no degree left can exceed best
        v = min(left, key=deg.__getitem__)
        best = max(best, deg[v])
        left.remove(v)
        nbrs = rows[v]
        if nbrs:
            u = min(bits(nbrs), key=lambda w: (rows[w] & nbrs).bit_count())
            for w in bits(nbrs):
                rows[w] = rows[w] & ~(1 << v) | 1 << u
                deg[w] = rows[w].bit_count()
            rows[u] = (rows[u] | nbrs) & ~(1 << u)
            deg[u] = rows[u].bit_count()
    return best


def _exceeds_treewidth(adj: tuple[int, ...], k: int) -> bool:
    """True only if tw(G) > k: the elimination search ends within its
    budget of C(n, k) states, and at most n^2, and finds no ordering of
    width <= k (see the module docstring). Out of budget it proves nothing
    and returns False."""
    budget = min(math.comb(len(adj), k), len(adj) ** 2)
    dead: set[int] = set()  # alive sets whose graph has tree-width > k

    def fits(rows: list[int], alive: int) -> bool:
        nonlocal budget
        if alive.bit_count() <= k + 1 or not budget:  # done, or not proven
            return True
        budget -= 1
        for v in bits(alive):
            nbrs = rows[v]
            if nbrs.bit_count() > k:
                continue
            if alive ^ 1 << v not in dead:
                new = rows[:]
                for w in bits(nbrs):
                    new[w] = (rows[w] | nbrs) & ~(1 << w | 1 << v)
                if fits(new, alive ^ 1 << v):
                    return True
            # v is (almost) simplicial: the non-edges among its neighbours are
            # none, or a star (m vertices, m - 1 non-edges, one vertex on all)
            misses = [c for w in bits(nbrs) if (c := (nbrs & ~rows[w]).bit_count() - 1)]
            if not misses or (sum(misses) == 2 * len(misses) - 2
                              and max(misses) == len(misses) - 1):
                break  # v's branch decided this state
        dead.add(alive)
        return False

    return not fits(list(adj), (1 << len(adj)) - 1)


def _tested(n: int, witness: int) -> int:
    """The witness's 1-based position among the nonempty subsets of n
    vertices in size-then-lex order. With its vertices v_0 < ... < v_{k-1},
    C(n - 1 - v_i, k - i) size-k sets come after it by sharing v_0 .. v_{i-1}
    and having a larger vertex than v_i next."""
    k = witness.bit_count()
    return (sum(math.comb(n, j) for j in range(1, k + 1))
            - sum(math.comb(n - 1 - v, k - i) for i, v in enumerate(bits(witness))))


def forcing_number(g: Graph, rule: "Rule | str") -> SolverReport:
    """Minimum forcing set size, with the lex-least witness. The witness of
    a disconnected graph is the union of per-component witnesses, which is
    again the lex-least minimum set."""
    rule = _rule(rule)
    start = time.perf_counter()
    value = witness = tested = 0
    for comp in components(g, g.full_mask):
        whole = comp == g.full_mask
        sub = g if whole else induced_subgraph(g, comp)[0]
        k, wit, _ = _search_min(sub.adj, sub.n, rule)
        value += k
        tested += _tested(sub.n, wit)
        if whole:
            witness = wit
        else:  # induced_subgraph keeps the old order of the ids
            back = list(bits(comp))
            witness |= mask_of(back[v] for v in bits(wit))
    elapsed_ms = (time.perf_counter() - start) * 1e3
    return SolverReport(rule, value, witness, tested, elapsed_ms)


def all_minimum_sets(g: Graph, rule: "Rule | str", cap: int = 1000) -> list[int]:
    """Up to cap minimum forcing sets, lexicographic order."""
    rule = _rule(rule)
    if cap < 1:
        raise ValueError("cap must be at least 1")
    return _minimum_sets(g, rule, forcing_number(g, rule).value, cap)


def _minimum_sets(g: Graph, rule: Rule, z: int, cap: int) -> list[int]:
    """all_minimum_sets for a caller that already knows Z and checked cap.
    There are at most C(n, Z) <= C(64, 32) minimum sets, so a larger cap
    reads them all, and the stop stays below sys.maxsize, as islice needs."""
    found = _forcing_sets_of_size(g.adj, g.n, z, rule is Rule.PSD, [])
    return list(itertools.islice(found, min(cap, math.comb(g.n, z))))
