"""Bitmask graphs and small-graph utilities.

Vertices are 0-based ints and vertex sets are plain int bitmasks, so
membership, union, and complement are single machine operations. The hard
limit is 64 vertices; the exhaustive solvers built on top are only
practical well below that. External text formats (graph6, edge lists)
use 1-based labels at the boundary and nowhere else.
"""
from __future__ import annotations

import itertools
from typing import Iterable, Iterator, NamedTuple

MAX_VERTICES = 64

_G6_PREFIX = ">>graph6<<"


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def reach(adj: tuple[int, ...], seed: int, allowed: int) -> int:
    """Bitmask BFS: all vertices of `allowed` reachable from `seed & allowed`."""
    comp = seed & allowed
    frontier = comp
    while frontier:
        nxt = 0
        f = frontier
        while f:
            low = f & -f
            f ^= low
            nxt |= adj[low.bit_length() - 1]
        nxt &= allowed & ~comp
        comp |= nxt
        frontier = nxt
    return comp


class Claw(NamedTuple):
    center: int
    leaves: tuple[int, int, int]


class Graph:
    """Immutable simple graph: vertex count plus one adjacency bitmask per vertex.

    Construct through from_edge_list, parse_graph6, graph_from_edge_mask
    or the named builders; the constructor validates symmetry and rejects
    self-loops.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Iterable[int]):
        rows = tuple(adj)
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(rows) != n:
            raise ValueError(f"{len(rows)} adjacency rows for {n} vertices")
        full = (1 << n) - 1
        for v, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"adjacency row of {v} mentions vertices >= {n}")
            if row >> v & 1:
                raise ValueError(f"self-loop at vertex {v}")
            for u in bits(row):
                if not rows[u] >> v & 1:
                    raise ValueError(f"asymmetric adjacency between {v} and {u}")
        self.n = n
        self.adj = rows

    @classmethod
    def _unchecked(cls, n: int, rows: tuple[int, ...]) -> "Graph":
        # fast path for internal constructions that are correct by construction
        g = cls.__new__(cls)
        g.n = n
        g.adj = rows
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph on vertices 0..n-1. Duplicate edges collapse; self-loops
    and out-of-range endpoints raise ValueError."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    rows = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._unchecked(n, tuple(rows))


def graph_from_edge_mask(n: int, mask: int) -> Graph:
    """Decode an edge bitmask: bit k of mask is edge number k in the
    lexicographic pair order (0,1),(0,2),..,(0,n-1),(1,2),.."""
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
    if mask < 0 or mask >> (n * (n - 1) // 2):
        raise ValueError(f"edge mask {mask} out of range for n={n}")
    return next(_graphs_in_range(n, mask, mask + 1))


def _graphs_in_range(n: int, lo: int, hi: int) -> Iterator[Graph]:
    """The graphs of edge masks lo..hi-1, ascending. Consecutive masks share
    most edges, so each step flips only the pairs in mask ^ prev."""
    flips = [(i, 1 << j, j, 1 << i) for i, j in itertools.combinations(range(n), 2)]
    rows = [0] * n
    prev = 0
    for mask in range(lo, hi):
        m = mask ^ prev
        prev = mask
        while m:
            low = m & -m
            m ^= low
            i, bj, j, bi = flips[low.bit_length() - 1]
            rows[i] ^= bj
            rows[j] ^= bi
        yield Graph._unchecked(n, tuple(rows))


# ---------------------------------------------------------------------------
# graph6


def parse_graph6(line: str) -> Graph:
    """Decode one graph6 line. The optional >>graph6<< prefix is accepted;
    stray bytes, wrong body length, or nonzero padding bits are rejected, so
    re-encoding reproduces the input exactly, bar the prefix and a four-byte
    header for n <= 62, which re-encodes to the one-byte form."""
    s = line.strip()
    if s.startswith(_G6_PREFIX):
        s = s[len(_G6_PREFIX):]
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ValueError(f"graph6 line is not ascii: {exc}") from None
    if not data:
        raise ValueError("empty graph6 line")
    for b in data:
        if not 63 <= b <= 126:
            raise ValueError(f"graph6 byte {b} outside printable range 63..126")
    if data[0] == 126:  # '~': long vertex-count header
        if len(data) < 4 or data[1] == 126:
            raise ValueError("unsupported graph6 header")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"graph6 vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise ValueError(f"graph6 body has {len(body)} bytes, expected {need}")
    rows = [0] * n
    k = 0
    # upper triangle in column order, 6 bits per byte, high bit first
    for j in range(1, n):
        for i in range(j):
            byte = body[k // 6] - 63
            if byte >> (5 - k % 6) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    if need:
        pad = (body[-1] - 63) & ((1 << (6 * need - nbits)) - 1)
        if pad:
            raise ValueError("nonzero padding bits in graph6 body")
    return Graph._unchecked(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode in canonical graph6 form (shortest header, zero padding)."""
    n = g.n
    if n <= 62:
        out = [chr(n + 63)]
    else:
        out = ["~", chr(63 + (n >> 12)), chr(63 + (n >> 6 & 63)), chr(63 + (n & 63))]
    acc = 0
    fill = 0
    for j in range(1, n):
        col = g.adj[j]
        for i in range(j):
            acc = acc << 1 | (col >> i & 1)
            fill += 1
            if fill == 6:
                out.append(chr(acc + 63))
                acc = 0
                fill = 0
    if fill:
        out.append(chr((acc << (6 - fill)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# edge-list text format: "n m" header, then m lines "u v" with 1-based labels


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"edge-list header {lines[0]!r} is not 'n m'")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"edge-list header {lines[0]!r} is not 'n m'") from None
    if len(lines) - 1 != m:
        raise ValueError(f"edge-list declares {m} edges but has {len(lines) - 1} lines")
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        if not (1 <= u <= n and 1 <= v <= n):
            raise ValueError(f"edge ({u},{v}) outside labels 1..{n}")
        edges.append((u - 1, v - 1))
    return from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines += [f"{u + 1} {v + 1}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# structure queries


def induced_subgraph(g: Graph, s: int) -> tuple[Graph, dict[int, int]]:
    """Subgraph induced by the vertex mask s, with an old->new id mapping.
    New ids preserve the old order."""
    if s & ~g.full_mask:
        raise ValueError("induced set mentions vertices outside the graph")
    if not s:
        raise ValueError("induced set is empty")
    old = list(bits(s))
    index = {v: i for i, v in enumerate(old)}
    rows = []
    for v in old:
        row = 0
        for u in bits(g.adj[v] & s):
            row |= 1 << index[u]
        rows.append(row)
    return Graph._unchecked(len(old), tuple(rows)), index


def components(g: Graph, s: int) -> list[int]:
    """Connected components of the subgraph induced by mask s, as masks,
    sorted by least member."""
    if s & ~g.full_mask:
        raise ValueError("component set mentions vertices outside the graph")
    out = []
    rem = s
    while rem:
        comp = reach(g.adj, rem & -rem, s)
        out.append(comp)
        rem &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return reach(g.adj, 1, g.full_mask) == g.full_mask


def _claws(adj: tuple[int, ...], centers: int, leaves: int = -1) -> Iterator[Claw]:
    """The induced claws centered in the mask centers with all three leaves
    in the mask leaves: stars on four vertices, a center adjacent to three
    pairwise nonadjacent leaves. Centers ascending, leaf triples in
    lexicographic order."""
    while centers:
        low = centers & -centers
        centers ^= low
        center = low.bit_length() - 1
        rem = adj[center] & leaves
        if rem.bit_count() < 3:
            continue
        while rem:
            abit = rem & -rem
            rem ^= abit
            a = abit.bit_length() - 1
            others = rem & ~adj[a]
            while others:
                bbit = others & -others
                others ^= bbit
                b = bbit.bit_length() - 1
                last = others & ~adj[b]
                while last:
                    cbit = last & -last
                    last ^= cbit
                    yield Claw(center, (a, b, cbit.bit_length() - 1))


def find_claws(g: Graph) -> list[Claw]:
    """All induced claws, centers ascending, leaf triples in lexicographic
    order."""
    return list(_claws(g.adj, g.full_mask))


def has_claw(g: Graph) -> bool:
    return any(_claws(g.adj, g.full_mask))


def is_claw_free(g: Graph) -> bool:
    return not has_claw(g)


def enumerate_graphs(n: int, connected_only: bool = False) -> Iterator[Graph]:
    """All labeled simple graphs on n vertices in edge-mask ascending order
    (pair order as in graph_from_edge_mask). Only sensible for tiny n."""
    if not 1 <= n <= 7:
        raise ValueError(f"enumeration supports 1..7 vertices, got {n}")
    for g in _graphs_in_range(n, 0, 1 << (n * (n - 1) // 2)):
        if not connected_only or is_connected(g):
            yield g


# ---------------------------------------------------------------------------
# named builders


def path_graph(n: int) -> Graph:
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return from_edge_list(n, itertools.combinations(range(n), 2))


def star_graph(k: int) -> Graph:
    """K_{1,k}: center 0 with k leaves."""
    if k < 1:
        raise ValueError("stars need at least one leaf")
    return from_edge_list(k + 1, [(0, i) for i in range(1, k + 1)])
