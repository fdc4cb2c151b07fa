"""Path bundles: how the forces of a chronology chain toward one vertex.

Fix a chronology F from an initial blue set B and a vertex x forced at
step t_x. While x is still white it lives in a shrinking component of the
white subgraph; the bundle starts one path at every vertex of B and
extends a path whenever its current endpoint forces a vertex of that
component. The terminus collects the bundle vertices that perform no
force in the restriction of F to the bundle, one per path.
"""
from __future__ import annotations

from typing import NamedTuple

from .graphs import Graph, bits, mask_of, reach
from .forcing import Chronology, expansion_sequence, restrict_chronology


class ComponentHistory(NamedTuple):
    """comps[t] is the component of the white subgraph holding x at time t,
    for t = 0..t_x-1. Empty when x starts blue (t_x = 0)."""

    x: int
    t_x: int
    comps: tuple[int, ...]


class PathBundle(NamedTuple):
    x: int
    t_x: int
    paths: tuple[tuple[int, ...], ...]

    @property
    def vertex_mask(self) -> int:
        m = 0
        for path in self.paths:
            m |= mask_of(path)
        return m


def component_history(g: Graph, f: Chronology, x: int) -> ComponentHistory:
    """x's white component at times 0..t_x-1. White sets only shrink, so
    comps[t] is found inside comps[t - 1], and only if step t colored some."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside the graph")
    states = expansion_sequence(f)
    t_x = next((t for t, blue in enumerate(states) if blue >> x & 1), None)
    if t_x is None:
        raise ValueError(f"vertex {x} is never forced by this chronology")
    comp = reach(g.adj, 1 << x, g.full_mask & ~states[0])
    comps = []
    for blue in states[:t_x]:
        if comp & blue:
            comp = reach(g.adj, 1 << x, comp & ~blue)
        comps.append(comp)
    return ComponentHistory(x, t_x, tuple(comps))


def build_bundle(g: Graph, f: Chronology, x: int) -> PathBundle:
    """One path per initial blue vertex, extended through the component
    history of x up to the step that forces x.

    On a valid chronology every force into x's white component comes from a
    path end, under either rule: a path end that forces into the component
    has no other neighbour there; a vertex forced into another component
    has no neighbour in x's; and x's component only shrinks, so every blue
    neighbour of it is a path end. An AssertionError reports a chronology
    that breaks this, as it does a path that extends twice in one step or
    an x that does not end exactly one path."""
    hist = component_history(g, f, x)
    paths = [[v] for v in bits(f.initial)]
    endpoint_of = {v: i for i, v in enumerate(bits(f.initial))}
    for s in range(1, hist.t_x + 1):
        comp = hist.comps[s - 1]
        snapshot = dict(endpoint_of)
        moved: set[int] = set()
        for force in sorted(f.steps[s - 1]):
            if not comp >> force.target & 1:
                continue
            i = snapshot.get(force.source)
            if i is None:
                raise AssertionError("every force into x's component must come from a path end")
            # one extension per path per step: a source has a unique psd
            # target inside a single white component
            if i in moved:
                raise AssertionError("a path extends twice in one step")
            moved.add(i)
            del endpoint_of[force.source]
            endpoint_of[force.target] = i
            paths[i].append(force.target)
    if hist.t_x and sum(p[-1] == x for p in paths) != 1:
        raise AssertionError("x must end exactly one path")
    return PathBundle(x, hist.t_x, tuple(tuple(p) for p in paths))


def terminus(g: Graph, f: Chronology, bundle: PathBundle) -> int:
    """Mask of bundle vertices that source no force in the restriction of
    the chronology to the bundle. Always one vertex per path."""
    q = bundle.vertex_mask
    sources = 0
    for step in restrict_chronology(f, q):
        for force in step:
            sources |= 1 << force.source
    members = q & ~sources
    if members.bit_count() != len(bundle.paths):
        raise AssertionError("the terminus must hold one vertex per path")
    return members
