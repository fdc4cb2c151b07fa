"""Equality checks and exhaustive small-graph corpus runs.

One engine, run_corpus, judges a stream of graphs under one of three
modes: `theorem` solves every connected claw-free graph and demands equal
standard and psd forcing numbers; `corollary` demands that having equal
numbers on every induced subgraph coincide with claw-freeness;
`monotonicity` demands the psd number never exceed the standard one.
run_corpus_enumerated feeds the same engine every labeled graph on n
vertices, decoded from consecutive edge masks, in one process or in
chunks across several. Failure lists carry graph6 strings, in stream
order; for enumerated corpora that is edge-mask order whatever the
number of processes.
"""
from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field

from .graphs import (Graph, _graphs_in_range, components, induced_subgraph,
                     is_claw_free, is_connected, to_graph6)
from .forcing import Force, Rule, valid_forces
from .solver import _search_min, forcing_number

MODES = ("theorem", "corollary", "monotonicity")


@dataclass(frozen=True)
class EqualityReport:
    graph6: str
    n: int
    z: int
    z_plus: int
    equal: bool
    claw_free: bool
    connected: bool


@dataclass(frozen=True)
class MirrorStep:
    time: int
    force: Force
    white_connected: bool
    standard_valid: bool


@dataclass(frozen=True)
class MirrorReport:
    passed: bool
    steps: tuple[MirrorStep, ...]
    reason: str = ""


@dataclass
class CorpusSummary:
    mode: str
    total: int = 0
    claw_free: int = 0
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    informational: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


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
    t = 0
    log: list[MirrorStep] = []
    while blue != full:
        white = full & ~blue
        white_connected = len(components(g, white)) <= 1
        valid = valid_forces(g, blue, Rule.PSD)
        if not valid:
            return MirrorReport(False, tuple(log), f"no psd force at time {t}")
        force = min(valid)
        standard_valid = g.adj[force.source] & white == 1 << force.target
        log.append(MirrorStep(t, force, white_connected, standard_valid))
        if not (white_connected and standard_valid):
            return MirrorReport(False, tuple(log), f"assertion failed at time {t}")
        blue |= 1 << force.target
        t += 1
    return MirrorReport(True, tuple(log))


def is_zz_perfect_direct(g: Graph) -> bool:
    """Equal forcing numbers on every nonempty induced subgraph, checked
    head-on. Exponential in n, so capped at n <= 6."""
    if g.n > 6:
        raise ValueError("direct perfection check supports n <= 6 only")
    for smask in range(1, g.full_mask + 1):
        sub, _ = induced_subgraph(g, smask)
        z, _, _ = _search_min(sub.adj, sub.n, Rule.STANDARD)
        zp, _, _ = _search_min(sub.adj, sub.n, Rule.PSD)
        if z != zp:
            return False
    return True


def _examine_one(g: Graph, mode: str, solve_all: bool,
                 summary: CorpusSummary) -> None:
    claw_free = is_claw_free(g)
    if claw_free:
        summary.claw_free += 1
    if mode == "theorem":
        if claw_free and is_connected(g):
            summary.checked += 1
            z, _, _ = _search_min(g.adj, g.n, Rule.STANDARD)
            zp, _, _ = _search_min(g.adj, g.n, Rule.PSD)
            if z != zp:
                summary.failures.append(to_graph6(g))
        elif solve_all:
            if forcing_number(g, Rule.STANDARD).value != forcing_number(g, Rule.PSD).value:
                summary.informational.append(to_graph6(g))
    elif mode == "corollary":
        summary.checked += 1
        if is_zz_perfect_direct(g) != claw_free:
            summary.failures.append(to_graph6(g))
    else:  # monotonicity
        summary.checked += 1
        z, _, _ = _search_min(g.adj, g.n, Rule.STANDARD)
        zp, _, _ = _search_min(g.adj, g.n, Rule.PSD)
        if zp > z:
            summary.failures.append(to_graph6(g))


def run_corpus(graphs, mode: str, solve_all: bool = False) -> CorpusSummary:
    """Sequential corpus run over any stream of Graphs. Per-graph solver
    errors are recorded and do not abort the run."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    summary = CorpusSummary(mode=mode)
    for g in graphs:
        summary.total += 1
        try:
            _examine_one(g, mode, solve_all, summary)
        except ValueError as exc:
            summary.errors.append(f"{to_graph6(g)}: {exc}")
    return summary


def _corpus_range(n: int, lo: int, hi: int, mode: str) -> CorpusSummary:
    return run_corpus(_graphs_in_range(n, lo, hi), mode)


def run_corpus_enumerated(n: int, mode: str, jobs: int = 1) -> CorpusSummary:
    """run_corpus over all labeled graphs on n vertices in edge-mask order,
    optionally split into chunks of consecutive masks across processes.
    The merged summary is identical for every jobs value."""
    if not 1 <= n <= 7:
        raise ValueError(f"enumeration supports 1..7 vertices, got {n}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    span = 1 << (n * (n - 1) // 2)
    if jobs == 1 or span < 4 * jobs:
        return _corpus_range(n, 0, span, mode)
    chunk = -(-span // (4 * jobs))
    ranges = [(n, lo, min(lo + chunk, span), mode) for lo in range(0, span, chunk)]
    with multiprocessing.Pool(processes=jobs) as pool:
        parts = pool.starmap(_corpus_range, ranges)
    merged = CorpusSummary(mode=mode)
    for part in parts:  # chunk order keeps failure lists deterministic
        merged.total += part.total
        merged.claw_free += part.claw_free
        merged.checked += part.checked
        merged.failures.extend(part.failures)
        merged.informational.extend(part.informational)
        merged.errors.extend(part.errors)
    return merged
