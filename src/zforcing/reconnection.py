"""Rewiring a psd forcing set so its complement becomes connected.

Given a connected graph, a psd forcing set s, and a component c of g - s,
one enlargement step picks a boundary vertex x of c that also sees the
rest of the graph and walks the lex psd run from s only up to the first
time t it has all of x's neighborhood blue or inside c. It keeps that
run's first t - 1 forces, then has x itself force at step t and stops:
the bundle toward x's target is blue by step t and reads no later step.
Its terminus is a same-size psd forcing set whose removal leaves x's
side strictly larger than c. If the saturation time is 0, s was not
minimum and a strictly smaller forcing set falls out instead. Iterating
the step from a minimum set yields a minimum psd forcing set with
connected complement.
"""
from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, bits, components, is_connected, reach
from .forcing import (Chronology, Force, Rule, _close, _forces, _least, _walk,
                      expansion_sequence, is_forcing_set)
from .bundles import build_bundle, terminus
from .solver import _search_min


class ReconnectionStep(NamedTuple):
    s: int
    c: int
    boundary: int
    x: int
    t: int
    w_star: int
    s_prime: int


class MinimalityRefutation(NamedTuple):
    """Witness that s was not minimum: removing y leaves a forcing set."""

    y: int
    smaller: int


def boundary_set(g: Graph, s: int, c: int) -> int:
    """Members of s with a neighbor in c."""
    if s & ~g.full_mask:
        raise ValueError("s mentions vertices outside the graph")
    out = 0
    for v in bits(s):
        if g.adj[v] & c:
            out |= 1 << v
    return out


def find_pivot(g: Graph, s: int, c: int) -> int:
    """Least boundary vertex of c that is also adjacent to a vertex outside
    the boundary and outside c. One exists whenever g is connected and
    g - s has another component besides c."""
    return _pivot(g, boundary_set(g, s, c), c)


def _pivot(g: Graph, s0: int, c: int) -> int:
    """find_pivot for a caller that already has the boundary set s0."""
    outside = g.full_mask & ~(s0 | c)
    for x in bits(s0):
        if g.adj[x] & outside:
            return x
    raise ValueError("no pivot: boundary plus component sees nothing else")


def first_saturation_time(g: Graph, f, x: int, c: int) -> int:
    """Least t with N[x] contained in E[t] union c."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside the graph")
    closed = g.adj[x] | 1 << x
    for t, state in enumerate(expansion_sequence(f)):
        if not closed & ~(state | c):
            return t
    raise ValueError("closed neighborhood never saturates; not a forcing run")


def improve_component(g: Graph, s: int, c: int) -> "ReconnectionStep | MinimalityRefutation":
    """One component-enlargement step; see the module docstring.

    Preconditions: g connected, s a psd forcing set, c a component of
    g - s, and g - s disconnected.
    """
    if not is_connected(g):
        raise ValueError("graph must be connected")
    if not is_forcing_set(g, s, Rule.PSD):
        raise ValueError("s is not a psd forcing set")
    if not c:
        raise ValueError("component is empty")
    if c & s:
        raise ValueError("component overlaps s")
    white = g.full_mask & ~s
    if reach(g.adj, c & -c, white) != c:
        raise ValueError("c is not a component of g - s")
    if c == white:  # c is a component of g - s, so it is the only one
        raise ValueError("g - s is already connected")
    return _improve(g, s, c)


def _improve(g: Graph, s: int, c: int) -> "ReconnectionStep | MinimalityRefutation":
    """improve_component past its checks."""
    s0 = boundary_set(g, s, c)
    x = _pivot(g, s0, c)
    # steps is f, the lex psd list from s cut at the step that leaves N[x]
    # blue or inside c, so t is its length; no later step changes its first
    # t steps
    unsaturated = (g.adj[x] | 1 << x) & ~(s | c)
    steps = []
    blue = s  # E[t], however the walk ends
    if unsaturated:
        for step in _walk(g.adj, s, g.full_mask, True, _least):
            steps.append(frozenset(step))
            blue |= 1 << step[0].target
            if not unsaturated & ~blue:
                break
    t = len(steps)

    if t == 0:
        # every neighbor of x is already in s or c, yet x also sees past the
        # boundary; dropping that neighbor keeps a forcing set one smaller
        outside = g.full_mask & ~(s0 | c)
        y_mask = g.adj[x] & outside
        y = (y_mask & -y_mask).bit_length() - 1
        smaller = s & ~(1 << y)
        # s forces, so smaller does exactly when its closure reaches s; see
        # the s' check below
        if s & ~_close(g.adj, smaller, g.full_mask, True, s):
            raise AssertionError("dropping y must leave a psd forcing set")
        return MinimalityRefutation(y, smaller)

    # the single force at step t colors the last white vertex of N[x]
    # outside c, so its target is a neighbor of x
    (step_force,) = steps[t - 1]
    w_star = step_force.target
    if not g.adj[x] >> w_star & 1 or c >> w_star & 1:
        raise AssertionError("w* must be a neighbor of x outside c")

    # f' keeps f's first t - 1 forces, so its states up to t - 1 are f's,
    # then x forces w* and f' ends: the bundle toward w* reads only steps
    # 1..t, and every later force targets a vertex outside it. Step t colored
    # only w*, so E[t - 1] is E[t] without it
    before = blue & ~(1 << w_star)
    if not any(target >> w_star & 1 for _, target, _ in
               _forces(g.adj, before, g.full_mask & ~before, True, 1 << x)):
        raise AssertionError("x must force w* at step t")

    f_prime = Chronology(s, tuple(steps[: t - 1]) + (frozenset([Force(x, w_star)]),), Rule.PSD)
    bundle = build_bundle(g, f_prime, w_star)
    s_prime = terminus(g, f_prime, bundle)

    # s forces: improve_component checks it, connected_complement_trace starts
    # from a search witness, and every later s is an s' that passed here.
    # psd closure is monotone and idempotent, so s inside cl(s') gives
    # V = cl(s) inside cl(cl(s')) = cl(s'), and cl(s') = V holds s: s' forces
    # exactly when its closure, stopped once s is blue, holds s
    if s & ~_close(g.adj, s_prime, g.full_mask, True, s):
        raise AssertionError("s' must be a psd forcing set")
    if s_prime.bit_count() != s.bit_count():
        raise AssertionError("s' must be as large as s")
    if s_prime & c:
        raise AssertionError("s' must avoid c")
    if s_prime >> x & 1:
        raise AssertionError("s' must avoid x")
    grown = reach(g.adj, 1 << x, g.full_mask & ~s_prime)
    if c & ~grown or grown == c:
        raise AssertionError("x's component of g - s' must strictly contain c")
    return ReconnectionStep(s, c, s0, x, t, w_star, s_prime)


def connected_complement_trace(g: Graph) -> tuple[int, list[ReconnectionStep]]:
    """Minimum psd forcing set with connected complement, with the steps
    that got there. Starts from the solver witness and repeatedly enlarges
    around the largest component (ties to the least member), which
    strictly grows each round, so at most n steps happen."""
    if not is_connected(g):
        raise ValueError("graph must be connected")
    s = _search_min(g.adj, g.n, Rule.PSD)[1]  # the whole graph is one component
    steps: list[ReconnectionStep] = []
    for _ in range(g.n):
        comps = components(g, g.full_mask & ~s)
        if len(comps) <= 1:
            return s, steps
        c = max(comps, key=lambda m: m.bit_count())  # list is least-member sorted
        # g is connected, s forces and c is a component of a split g - s
        result = _improve(g, s, c)
        # a minimum set can never trigger the refutation branch
        if not isinstance(result, ReconnectionStep):
            raise AssertionError("a minimum psd forcing set was refuted")
        steps.append(result)
        s = result.s_prime
    raise AssertionError("component enlargement failed to terminate")


def connected_complement_set(g: Graph) -> int:
    return connected_complement_trace(g)[0]
