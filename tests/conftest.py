from __future__ import annotations

import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from zforcing import Graph, from_edge_list, graph_from_edge_mask
from zforcing.classes import _class_levels, _rows_of_key

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# interpreters that tests start import the package from this checkout too
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parent.parent / "src"),
                  os.environ.get("PYTHONPATH")]))

# Two triangles joined through a 4-cycle; the running example used across
# the forcing, bundle and CLI tests.  Labels here are 1-based as they would
# be written down; mk() shifts to the package's 0-based ids.
TWO_DIAMONDS_EDGES = [
    (1, 2), (1, 3), (2, 3), (2, 4), (3, 4),
    (4, 5), (5, 6), (5, 7), (6, 7), (6, 8), (7, 8),
]


def mk(n: int, edges_1b) -> Graph:
    return from_edge_list(n, [(u - 1, v - 1) for u, v in edges_1b])


def two_diamonds_graph() -> Graph:
    return mk(8, TWO_DIAMONDS_EDGES)


@pytest.fixture
def two_diamonds() -> Graph:
    return two_diamonds_graph()


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 6):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    m = n * (n - 1) // 2
    mask = draw(st.integers(min_value=0, max_value=(1 << m) - 1))
    return graph_from_edge_mask(n, mask)


def graph_classes(n: int, claw_free: bool = False):
    """One graph per isomorphism class on n vertices, labeled by its
    canonical key, with its number of labeled copies n!/|Aut|, in ascending
    key order: the last level of _class_levels(n, claw_free)."""
    *_, level = _class_levels(n, claw_free)
    labeled = math.factorial(n)
    for key, aut in level:
        yield Graph._unchecked(n, _rows_of_key(key)), labeled // aut
