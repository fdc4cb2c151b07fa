"""Color change rules, force chronologies, and closures.

Both rules act on a blue/white coloring of a graph. Under the standard
rule a blue vertex with exactly one white neighbor forces that neighbor.
Under the positive semidefinite (psd) rule the white set is first split
into the components of the subgraph it induces; a blue vertex u forces a
white vertex w when w is u's only neighbor inside w's component. Both
rules are one kernel, `_forces`, a lex-first search that lists forces in
(source, target) order and splits off a white component only when a
source with two or more white neighbors needs it. It is the one kernel
that lists forces: closures, `valid_forces` and every chronology read it.
Every chronology comes from one walk, `_walk`, that hands each step's
pick the current coloring: the greedy pick forces every target the
kernel lists, the lex pick, `_least`, takes its first force, and the
replay pick asks it about its force's source alone. A chronology records
the set of forces applied at each time step, and its expansion sequence
records the blue set after each step. A psd closure colors a forced
component that induces a tree whole (`_close` proves it); every
chronology still takes such a part force by force.
"""
from __future__ import annotations

import enum
from itertools import islice
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .graphs import Graph, _reach_near, mask_of


class Rule(enum.Enum):
    STANDARD = "standard"
    PSD = "psd"


def _rule(rule: "Rule | str") -> Rule:
    return rule if isinstance(rule, Rule) else Rule(rule)


class Force(NamedTuple):
    source: int
    target: int


class ColorState(NamedTuple):
    blue: int
    time: int = 0


class ChronologyError(ValueError):
    """A force sequence violates the rule; `step` is the 1-based offender."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class Chronology(NamedTuple):
    """Per-step force sets. steps[t] holds the forces applied going from
    time t to time t+1; every step is nonempty."""

    initial: int
    steps: tuple[frozenset[Force], ...]
    rule: Rule

    @property
    def tau(self) -> int:
        return len(self.steps)

    def forces(self) -> list[Force]:
        """All forces in step order, sorted inside each step."""
        out: list[Force] = []
        for step in self.steps:
            out.extend(sorted(step))
        return out


def expansion_sequence(chron: Chronology) -> tuple[int, ...]:
    """Blue masks after 0..tau steps; index t is the blue set at time t."""
    states = [chron.initial]
    blue = chron.initial
    for step in chron.steps:
        for force in step:
            blue |= 1 << force.target
        states.append(blue)
    return tuple(states)


def _forces(adj: Sequence[int], blue: int, white: int, psd: bool,
            sources: int = -1) -> Iterator[tuple[int, int, int]]:
    """Yield (source, target bit, part) for every valid force from a blue
    vertex in `sources`, in lex order: sources ascending, and each source's
    targets ascending. A lone white neighbor is a force under either rule,
    and its part is 0. Under psd a source with more white neighbors forces
    each one that is alone in its white component, and its part is that
    component. Each component is split off once per call, when a source
    first needs it; once one is the whole white set the standard rule
    decides, and splitting stops."""
    comps: list[int] = []
    b = blue & sources
    while b:
        low = b & -b
        b ^= low
        u = low.bit_length() - 1
        inter = adj[u] & white
        if not inter & (inter - 1):
            if inter:
                yield u, inter, 0
            continue
        rem = inter if psd else 0
        while rem:
            w = rem & -rem
            for comp in comps:
                if comp & w:
                    break
            else:
                comp = _reach_near(adj, w, white)[0]
                comps.append(comp)
                psd = comp != white
            # each component is met at its least neighbor of u, so targets
            # come in ascending order
            if inter & comp == w:
                yield u, w, comp
            rem &= ~comp


def _is_tree(adj: Sequence[int], part: int) -> bool:
    """Whether the connected vertex set `part` induces a tree, that is has
    |part| - 1 edges; the count stops at the first edge past that."""
    room = 2 * (part.bit_count() - 1)
    rest = part
    while rest:
        low = rest & -rest
        rest ^= low
        room -= (adj[low.bit_length() - 1] & part).bit_count()
        if room < 0:
            return False
    return True


def _close(adj: Sequence[int], blue: int, full: int, psd: bool,
           goal: int | None = None) -> int:
    """Blue mask after applying every valid force each round, until `goal`
    (by default `full`, giving the final blue mask) is blue or no force is
    left. Closure is monotone, so goal lies inside the result exactly when it
    lies inside the full closure, and the result lies inside that closure.
    Under psd a forced part P that `_forces` split off turns blue whole when
    it induces a tree: the forced w splits P - w into branches that each hold
    exactly one neighbor of w, induce a tree and have only blue neighbors
    outside, so by induction each turns blue."""
    if goal is None:
        goal = full
    while goal & ~blue:
        newly = 0
        for _, target, part in _forces(adj, blue, full ^ blue, psd):
            # test a part once, on its first force, and only if goal stays white in it
            whole = not newly & part and goal & part & ~target and _is_tree(adj, part)
            newly |= part if whole else target
        if not newly:
            break
        blue |= newly
    return blue


def _walk(adj: Sequence[int], blue: int, full: int, psd: bool,
          pick: Callable[[Sequence[int], int, int, bool], list[Force]]) -> Iterator[list[Force]]:
    """Apply one step of forces, with distinct targets, at a time until
    pick returns none, as it must once `full` is blue, and yield each
    step. pick reads the current coloring (adj, blue, white, psd) and
    asks `_forces` there for every force, the first, or one source's."""
    while True:
        step = pick(adj, blue, full & ~blue, psd)
        if not step:
            return
        yield step
        for _, t in step:
            blue |= 1 << t


def _least(adj: Sequence[int], blue: int, white: int, psd: bool) -> list[Force]:
    """The lex-least (source, target) force, or none: the kernel's first."""
    for u, t, _ in _forces(adj, blue, white, psd):
        return [Force(u, t.bit_length() - 1)]
    return []


def _greedy(adj: Sequence[int], blue: int, white: int, psd: bool) -> list[Force]:
    """Every target once, from its least source, the first one seen."""
    first: dict[int, int] = {}
    for u, t, _ in _forces(adj, blue, white, psd):
        first.setdefault(t, u)
    return [Force(u, t.bit_length() - 1) for t, u in first.items()]


def valid_forces(g: Graph, blue: int, rule: "Rule | str") -> set[Force]:
    """Every force the rule admits at this coloring."""
    psd = _rule(rule) is Rule.PSD
    full = g.full_mask
    if blue & ~full:
        raise ValueError("blue set mentions vertices outside the graph")
    return {Force(u, t.bit_length() - 1)
            for u, t, _ in _forces(g.adj, blue, full & ~blue, psd)}


def apply_step(g: Graph, state: ColorState, chosen: Iterable[Force],
               rule: "Rule | str") -> ColorState:
    """Apply one step's worth of forces. The chosen set must be a nonempty
    subset of the currently valid forces with pairwise distinct targets."""
    rule = _rule(rule)
    chosen = {Force(*f) for f in chosen}
    if not chosen:
        raise ValueError("empty force step")
    valid = valid_forces(g, state.blue, rule)
    bad = chosen - valid
    if bad:
        raise ValueError(f"forces not valid at time {state.time}: {sorted(bad)}")
    targets = {f.target for f in chosen}
    if len(targets) != len(chosen):
        raise ValueError("duplicate targets within one step")
    return ColorState(state.blue | mask_of(targets), state.time + 1)


def closure(g: Graph, initial: int, rule: "Rule | str") -> tuple[Chronology, tuple[int, ...]]:
    """Greedy maximal run: at each step apply every valid force, resolving
    duplicate targets in favor of the smallest source id, until no force
    remains. Returns the chronology and its expansion sequence."""
    rule = _rule(rule)
    if initial & ~g.full_mask:
        raise ValueError("blue set mentions vertices outside the graph")
    steps = _walk(g.adj, initial, g.full_mask, rule is Rule.PSD, _greedy)
    chron = Chronology(initial, tuple(frozenset(step) for step in steps), rule)
    return chron, expansion_sequence(chron)


def closure_mask(g: Graph, initial: int, rule: "Rule | str") -> int:
    """Final blue mask of the closure, without the chronology."""
    if initial & ~g.full_mask:
        raise ValueError("blue set mentions vertices outside the graph")
    return _close(g.adj, initial, g.full_mask, _rule(rule) is Rule.PSD)


def is_forcing_set(g: Graph, b: int, rule: "Rule | str") -> bool:
    return closure_mask(g, b, rule) == g.full_mask


def chronological_list(g: Graph, b: int, rule: "Rule | str",
                       replay: Iterable[Force] | None = None) -> Chronology:
    """One force per step until everything is blue. Without `replay` the
    lexicographically least (source, target) valid force is picked each
    step; with `replay` the given forces are validated and applied in
    order and must themselves finish the run."""
    rule = _rule(rule)
    full = g.full_mask
    if b & ~full:
        raise ValueError("blue set mentions vertices outside the graph")
    # the replayed force last pulled; _walk asks once more when all is blue
    pulled: list[Force] = []
    if replay is None:
        pick = _least
    else:
        rest = iter(replay)

        def pick(adj, blue, white, psd):
            pulled[:] = [Force(*f) for f in islice(rest, 1)]
            # a force with an end outside the graph is never valid, and a
            # shift by that end could raise
            if not pulled or not all(0 <= v < len(adj) for v in pulled[0]):
                return []
            u, w = pulled[0]
            forces = _forces(adj, blue, white, psd, 1 << u)
            return pulled[:] if any(t >> w & 1 for _, t, _ in forces) else []
    steps = [frozenset(step) for step in _walk(g.adj, b, full, rule is Rule.PSD, pick)]
    if len(steps) == (full & ~b).bit_count() and not pulled:
        return Chronology(b, tuple(steps), rule)
    # an initial set that does not force is named before the replayed force
    # at fault; the closure runs only on this error path
    if not is_forcing_set(g, b, rule):
        raise ChronologyError("initial set does not force the whole graph")
    if not pulled:
        raise ChronologyError("replayed forces stop before the graph is blue")
    step = len(steps) + 1
    raise ChronologyError(f"force {pulled[0]} not valid at step {step}", step=step)


def restrict_chronology(f: Chronology, h: int) -> list[frozenset[Force]]:
    """Per-step force subsets with both endpoints inside the mask h. The
    step count is preserved; steps may come back empty."""
    out = []
    for step in f.steps:
        out.append(frozenset(fc for fc in step
                             if h >> fc.source & 1 and h >> fc.target & 1))
    return out


def make_chronology(g: Graph, initial: int, steps: Iterable[Iterable[Force]],
                    rule: "Rule | str") -> Chronology:
    """Validate externally supplied per-step force sets and wrap them."""
    rule = _rule(rule)
    chron = Chronology(initial, tuple(frozenset(Force(*f) for f in s) for s in steps), rule)
    check_chronology(g, chron)
    return chron


def check_chronology(g: Graph, chron: Chronology) -> None:
    """Raise ChronologyError unless every step is a nonempty set of forces
    valid at its own time with pairwise distinct targets."""
    if chron.initial & ~g.full_mask:
        raise ChronologyError("blue set mentions vertices outside the graph")
    state = ColorState(chron.initial, 0)
    for i, step in enumerate(chron.steps):
        try:
            state = apply_step(g, state, step, chron.rule)
        except ValueError as exc:
            raise ChronologyError(f"step {i + 1}: {exc}", step=i + 1) from None
