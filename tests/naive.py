"""Slow reference implementations used only by the test suite.

Everything here works on plain sets and dicts, with no bit tricks and no
shared code with the package beyond the Graph container itself.  The point
is an independent second opinion: if zforcing and this module disagree on
any graph, one of them is wrong.
"""

from __future__ import annotations

import itertools

from zforcing import Graph


def naive_edge_mask(g: Graph) -> int:
    """Bit k set exactly when the k-th vertex pair in lexicographic order,
    (0,1),(0,2),..,(1,2),.., is an edge."""
    pairs = [(u, v) for u in range(g.n) for v in range(g.n) if u < v]
    return sum(1 << k for k, (u, v) in enumerate(pairs) if g.has_edge(u, v))


def nbrs(g: Graph) -> dict[int, set[int]]:
    return {v: {u for u in range(g.n) if g.adj[v] >> u & 1} for v in range(g.n)}


def comps_of(g: Graph, verts: set[int]) -> list[set[int]]:
    """Connected components of the subgraph induced on verts, as sets."""
    adj = nbrs(g)
    left = set(verts)
    out = []
    while left:
        seed = min(left)
        comp = {seed}
        frontier = [seed]
        while frontier:
            v = frontier.pop()
            for u in adj[v] & left - comp:
                comp.add(u)
                frontier.append(u)
        out.append(comp)
        left -= comp
    out.sort(key=min)
    return out


def naive_valid_forces(g: Graph, blue: set[int], rule: str) -> set[tuple[int, int]]:
    adj = nbrs(g)
    white = set(range(g.n)) - blue
    pairs = set()
    if rule == "standard":
        for u in blue:
            wn = adj[u] & white
            if len(wn) == 1:
                pairs.add((u, next(iter(wn))))
    else:
        for comp in comps_of(g, white):
            for u in blue:
                inside = adj[u] & comp
                if len(inside) == 1:
                    pairs.add((u, next(iter(inside))))
    return pairs


def naive_closure(g: Graph, initial: set[int], rule: str) -> set[int]:
    """Final blue set under repeated greedy application of every valid force."""
    blue = set(initial)
    while True:
        targets = {w for (_, w) in naive_valid_forces(g, blue, rule)}
        if not targets:
            return blue
        blue |= targets


def naive_greedy_chronology(g: Graph, initial: set[int], rule: str) -> list[set[tuple[int, int]]]:
    """The force set of each round of the greedy run: every valid target,
    each from its least source, until no force is left."""
    blue = set(initial)
    out = []
    while True:
        valid = naive_valid_forces(g, blue, rule)
        if not valid:
            return out
        step = {(min(u for u, t in valid if t == w), w) for _, w in valid}
        out.append(step)
        blue |= {w for _, w in step}


def naive_is_forcing(g: Graph, initial: set[int], rule: str) -> bool:
    return naive_closure(g, initial, rule) == set(range(g.n))


def naive_chronological_list(g: Graph, initial: set[int], rule: str) -> list[tuple[int, int]]:
    """One force per step, the least valid (source, target) pair each time,
    until everything is blue or no force is left."""
    blue = set(initial)
    out = []
    while True:
        valid = naive_valid_forces(g, blue, rule)
        if not valid:
            return out
        force = min(valid)
        out.append(force)
        blue.add(force[1])


def naive_improve(g: Graph, s: set[int], c: set[int]) -> tuple[int, ...]:
    """One reconnection step from the whole lex psd list: the pivot x, the
    first time t the blue set or c holds N[x], the list cut to its first
    t - 1 forces and then x -> w*, the path bundle toward w* and its
    terminus. Returns (s, c, boundary, x, t, w*, s') with the sets as
    bitmasks, or (y, s - y) when t is 0."""
    adj = nbrs(g)

    def mask(vs):
        return sum(1 << v for v in vs)

    boundary = {v for v in s if adj[v] & c}
    x = min(v for v in boundary if adj[v] - boundary - c)
    forces = naive_chronological_list(g, s, "psd")
    states = [set(s)]
    for _, w in forces:
        states.append(states[-1] | {w})
    t = next(t for t, blue in enumerate(states) if adj[x] | {x} <= blue | c)
    if t == 0:
        y = min(adj[x] - boundary - c)
        return y, mask(s - {y})
    w_star = forces[t - 1][1]
    run = forces[:t - 1] + [(x, w_star)]
    # one path from each vertex of s; a path grows when its end forces a
    # vertex of w*'s white component, which the first t - 1 steps share
    paths = [[v] for v in sorted(s)]
    for (u, w), blue in zip(run, states):
        comp = next(k for k in comps_of(g, set(range(g.n)) - blue) if w_star in k)
        for path in paths:
            if w in comp and path[-1] == u:
                path.append(w)
    on = {v for path in paths for v in path}
    sources = {u for u, w in run if u in on and w in on}
    return mask(s), mask(c), mask(boundary), x, t, w_star, mask(on - sources)


def naive_search(g: Graph, rule: str) -> tuple[int, tuple[int, ...], int]:
    """(size, lex-least minimum forcing set, candidates tried) for the whole
    graph, trying every vertex set in size-ascending, lexicographic order."""
    tried = 0
    for k in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            tried += 1
            if naive_is_forcing(g, set(combo), rule):
                return k, combo, tried
    raise AssertionError("unreachable: the full vertex set always forces")


def naive_search_by_component(g: Graph, rule: str) -> tuple[int, tuple[int, ...], int]:
    """naive_search on each connected component, summed. The witness is the
    union of the component witnesses, in the labels of g."""
    adj = nbrs(g)
    size, witness, tried = 0, [], 0
    for comp in comps_of(g, set(range(g.n))):
        order = sorted(comp)
        rows = [sum(1 << order.index(u) for u in adj[v]) for v in order]
        k, combo, t = naive_search(Graph(len(order), rows), rule)
        size += k
        witness.extend(order[i] for i in combo)
        tried += t
    return size, tuple(sorted(witness)), tried


def naive_forcing_number(g: Graph, rule: str) -> int:
    return naive_search(g, rule)[0]


def naive_minimum_sets(g: Graph, rule: str) -> list[tuple[int, ...]]:
    k = naive_forcing_number(g, rule)
    return [
        combo
        for combo in itertools.combinations(range(g.n), k)
        if naive_is_forcing(g, set(combo), rule)
    ]


def naive_claws(g: Graph) -> set[tuple[int, tuple[int, int, int]]]:
    """All claws as (center, sorted leaf triple), found by brute force."""
    adj = nbrs(g)
    found = set()
    for c in range(g.n):
        for trio in itertools.combinations(sorted(adj[c]), 3):
            a, b, d = trio
            if b not in adj[a] and d not in adj[a] and d not in adj[b]:
                found.add((c, trio))
    return found


def naive_cells(g: Graph) -> list[list[int]]:
    """Iterated degree refinement: start from one cell and split the vertices
    by how many neighbours they have in each current cell, ordering the new
    cells by those counts, until no cell splits."""
    adj = nbrs(g)
    cells = [list(range(g.n))]
    while True:
        sets = [set(cell) for cell in cells]
        sig = {v: tuple(len(adj[v] & cell) for cell in sets) for v in range(g.n)}
        order = sorted(set(sig.values()))
        if len(order) == len(cells):
            return cells
        cells = [[v for v in range(g.n) if sig[v] == s] for s in order]


def naive_canonical(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """(canonical key, every labeling that reaches it), by the frontier search
    without any pruning. A labeling lists the vertex at each position and
    fills the cells in order; its row at a position is the mask of earlier
    positions adjacent to it, and the key is the least tuple of rows. Every
    partial labeling whose rows so far are least is kept, so the labelings
    returned are one coset of Aut and there are |Aut| of them."""
    adj = [[u in near for u in range(g.n)] for near in nbrs(g).values()]
    frontier: list[tuple[int, ...]] = [()]
    key = []
    for cell in naive_cells(g):
        for _ in cell:
            best, nxt = None, []
            for placed in frontier:
                for v in cell:
                    if v in placed:
                        continue
                    row, bit = 0, 1
                    for u in placed:
                        if adj[v][u]:
                            row += bit
                        bit += bit
                    if row == best:
                        nxt.append(placed + (v,))
                    elif best is None or row < best:
                        best, nxt = row, [placed + (v,)]
            key.append(best)
            frontier = nxt
    return tuple(key), frontier


def naive_treewidth(g: Graph) -> int:
    """Exact tree-width by the elimination DP over vertex subsets: eliminating
    v after the set S costs the number of vertices outside S + v that v
    reaches through S, and tw(G) is the least over orders of the largest
    cost. best[S] is the least largest cost of eliminating S first."""
    adj = nbrs(g)

    def cost(s: frozenset[int], v: int) -> int:
        seen, frontier, out = {v}, [v], set()
        while frontier:
            for u in adj[frontier.pop()] - seen:
                seen.add(u)
                if u in s:
                    frontier.append(u)
                else:
                    out.add(u)
        return len(out)

    best = {frozenset(): -1}
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            s = frozenset(combo)
            best[s] = min(max(best[s - {v}], cost(s - {v}, v)) for v in s)
    return best[frozenset(range(g.n))]
