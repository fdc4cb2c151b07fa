"""Equality checks and exhaustive small-graph corpus runs.

One engine judges a stream of graphs under one of three modes: `theorem`
demands equal standard and psd forcing numbers on every connected
claw-free graph, testing psd sets at sizes Z and Z - 1 only; `corollary`
demands that having equal numbers on every induced subgraph coincide
with claw-freeness; `monotonicity` demands the psd number never exceed
the standard one. Each mode is one record in _MODES: its decision, its
enumeration cap (9, 6 and 7) and whether enumeration makes only the
claw-free classes, as in theorem mode, which checks no other class.
run_corpus feeds the engine any stream of graphs, each counted once.
run_corpus_enumerated covers every labeled graph on n vertices but
solves one canonical representative per isomorphism class, counted
n!/|Aut| times, since forcing numbers, claw-freeness and connectivity do
not depend on the labeling. Theorem mode makes only the connected classes
at n, and tests neither claws nor connectivity on them again. As a claw
is connected, the labeled claw-free graphs on j vertices, a_j, c_j of
them connected, obey a_j = sum_i C(j-1, i-1) c_i a_{j-i}, i the size of
vertex 0's component, which gives a_n from the levels.
Failure lists carry graph6 strings in stream order: input order for
run_corpus, one canonical representative per class, in canonical-key
order, for run_corpus_enumerated. That run decides each class on the
walk's labeling, its parent's key plus the new vertex; the documents are
unchanged, as Z, Z+, claw-freeness and connectivity do not depend on the
labeling. A class that fails or raises there is re-keyed: decided again,
and listed, as its representative, and both lists are sorted by key.
Corollary mode decides each connected induced subgraph as theorem mode
decides a graph.
"""
from __future__ import annotations

import contextlib
import math
from types import SimpleNamespace
from typing import Callable, NamedTuple

from .graphs import Graph, induced_subgraph, is_claw_free, is_connected, parse_graph6, reach, to_graph6
from .forcing import Force, Rule, _close, _least, _walk
from .solver import _numbers_differ, _search_min, forcing_number


class EqualityReport(NamedTuple):
    graph6: str
    n: int
    z: int
    z_plus: int
    equal: bool
    claw_free: bool
    connected: bool


class MirrorStep(NamedTuple):
    time: int
    force: Force
    white_connected: bool
    standard_valid: bool


class MirrorReport(NamedTuple):
    passed: bool
    steps: tuple[MirrorStep, ...]
    reason: str = ""


class CorpusSummary(SimpleNamespace):
    """The one mutable record: a corpus run adds to it graph by graph."""

    def __init__(self, mode: str, total: int = 0, claw_free: int = 0,
                 checked: int = 0, failures: list[str] | None = None,
                 informational: list[str] | None = None,
                 errors: list[str] | None = None):
        super().__init__(
            mode=mode, total=total, claw_free=claw_free, checked=checked,
            failures=[] if failures is None else failures,
            informational=[] if informational is None else informational,
            errors=[] if errors is None else errors)

    def __reduce__(self):  # SimpleNamespace's own would call __init__ without mode
        return type(self), (self.mode,), vars(self)


def check_equality(g: Graph) -> EqualityReport:
    """Both forcing numbers plus the structural facts, no judgment."""
    z = forcing_number(g, Rule.STANDARD).value
    z_plus = forcing_number(g, Rule.PSD).value
    return EqualityReport(to_graph6(g), g.n, z, z_plus, z == z_plus,
                          is_claw_free(g), is_connected(g))


def mirror_check(g: Graph, s: int) -> MirrorReport:
    """Run the lex psd list from s and insist that, at every step, the
    white set induces a connected subgraph and the applied force is also a
    valid standard force. Claw-free connected graphs with s produced by
    the reconnection loop are expected to pass."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not is_claw_free(g):
        raise ValueError("graph has a claw")
    full = g.full_mask
    if s & ~full:
        raise ValueError("s mentions vertices outside the graph")
    blue = s
    log: list[MirrorStep] = []
    for t, [force] in enumerate(_walk(g.adj, s, full, True, _least)):
        white = full & ~blue
        white_connected = reach(g.adj, white & -white, white) == white
        standard_valid = g.adj[force.source] & ~blue == 1 << force.target
        log.append(MirrorStep(t, force, white_connected, standard_valid))
        if not (white_connected and standard_valid):
            return MirrorReport(False, tuple(log), f"assertion failed at time {t}")
        blue |= 1 << force.target
    if blue != full:
        return MirrorReport(False, tuple(log), f"no psd force at time {len(log)}")
    return MirrorReport(True, tuple(log))


def is_zz_perfect_direct(g: Graph) -> bool:
    """Equal forcing numbers on every nonempty induced subgraph, each
    decided as in theorem mode. Only connected ones are decided: Z and Z+
    both add over components and Z+ <= Z on each, so a disconnected H has
    Z(H) != Z+(H) exactly when one of its components does, and each
    component is itself a connected induced subgraph. Exponential in n, so
    capped at n <= 6."""
    if g.n > 6:
        raise ValueError("direct perfection check supports n <= 6 only")
    return not any(_numbers_differ(induced_subgraph(g, smask)[0])
                   for smask in range(1, g.full_mask + 1)
                   if reach(g.adj, smask & -smask, smask) == smask)


class _Mode(NamedTuple):
    decide: Callable[[Graph, bool], "bool | None"]  # failed, or None if not checked
    cap: int  # enumeration takes n = 1..cap
    claw_free_only: bool  # enumeration makes only the claw-free classes, connected at n


def _monotonicity_fails(g: Graph, claw_free: bool) -> bool:
    # Z+ > Z exactly when the standard witness does not psd-force
    witness = _search_min(g.adj, g.n, Rule.STANDARD)[1]
    return _close(g.adj, witness, g.full_mask, True) != g.full_mask


# decisions look their helpers up when called, so that tests can replace them
_MODES = {
    "theorem": _Mode(lambda g, claw_free: _numbers_differ(g)
                     if claw_free and is_connected(g) else None, 9, True),
    "corollary": _Mode(lambda g, claw_free: is_zz_perfect_direct(g) != claw_free, 6, False),
    "monotonicity": _Mode(_monotonicity_fails, 7, False),
}


def _mode(mode: str) -> _Mode:
    if mode not in _MODES:
        raise ValueError(f"unknown mode {mode!r}")
    return _MODES[mode]


def _run_weighted(weighted, mode: str, known: bool = False, represent=None) -> CorpusSummary:
    # known: every graph is connected and claw-free, as a claw_free_only walk
    # makes them, so neither is tested again and theorem's decision is _numbers_differ.
    # represent(g) is decided, and recorded, in place of a g whose decision fails or raises
    decide = (lambda g, claw_free: _numbers_differ(g)) if known else _mode(mode).decide
    summary = CorpusSummary(mode=mode)
    for g, weight in weighted:
        try:  # one bad graph must not end the run
            summary.total += weight
            claw_free = known or is_claw_free(g)
            if claw_free:
                summary.claw_free += weight
            failed = True  # until a decision returns
            if represent:
                with contextlib.suppress(Exception):
                    failed = decide(g, claw_free)
                if failed:
                    g = represent(g)
            if failed:
                failed = decide(g, claw_free)
            if failed is not None:  # checked only once its decision has returned
                summary.checked += weight
                if failed:
                    summary.failures.append(to_graph6(g))
        except Exception as exc:
            summary.errors.append(f"{to_graph6(g)}: {type(exc).__name__}: {exc}")
    return summary


def run_corpus(graphs, mode: str) -> CorpusSummary:
    """Sequential corpus run over any stream of Graphs. Any exception a
    graph raises is recorded in errors and does not abort the run."""
    return _run_weighted(((g, 1) for g in graphs), mode)


def run_corpus_enumerated(n: int, mode: str, jobs: int | None = None) -> CorpusSummary:
    """run_corpus over every labeled graph on n <= the mode's cap vertices,
    solving one representative per isomorphism class and counting it
    n!/|Aut| times. jobs is ignored; the slot remains so that three-argument
    callers of the former multiprocess engine keep working."""
    spec = _mode(mode)
    if not 1 <= n <= spec.cap:
        raise ValueError(f"enumeration supports 1..{spec.cap} vertices "
                         f"(n <= {spec.cap}) in {mode} mode, got {n}")
    from .classes import _canonical, _class_levels, _rows_of_key  # only enumeration needs them
    only = spec.claw_free_only  # such a mode decides only the connected claw-free classes
    a, c = [1], []  # labeled graphs in the stream on j vertices, and the connected ones
    for j, level in enumerate(_class_levels(n, only, only, False), 1):
        w = sum(math.factorial(j) // aut for _, aut in level)
        rest = sum(math.comb(j - 1, i - 1) * c[i - 1] * a[j - i] for i in range(1, j))
        c.append(w if only and j == n else w - rest)
        a.append(rest + c[-1])
    summary = _run_weighted(((Graph._unchecked(n, rows), math.factorial(n) // aut)
                             for rows, aut in level), mode, only,
                            lambda g: Graph._unchecked(n, _rows_of_key(_canonical(g.adj)[0])))
    for found in summary.failures, summary.errors:  # each begins with its graph6
        found.sort(key=lambda entry: _canonical(parse_graph6(entry.split(":")[0]).adj)[0])
    summary.total = 1 << (n * (n - 1) // 2)  # also the graphs a claw-free stream skips
    if only:
        summary.claw_free = a[n]  # the disconnected claw-free graphs included
    return summary
