"""Exact standard and positive semidefinite zero forcing on small graphs.

Every public name is imported from its home module on first use (PEP
562), so importing the package, or running one CLI command, compiles only
the modules that are used.
"""

import importlib

_EXPORTS = {
    "graphs": """Claw Graph bits complete_graph components cycle_graph
        enumerate_graphs find_claws format_edge_list from_edge_list
        graph_from_edge_mask has_claw induced_subgraph is_claw_free
        is_connected mask_of parse_edge_list parse_graph6 path_graph reach
        star_graph to_graph6""",
    "forcing": """Chronology ChronologyError ColorState Force Rule apply_step
        check_chronology chronological_list closure closure_mask
        expansion_sequence is_forcing_set make_chronology
        restrict_chronology valid_forces""",
    "bundles": """ComponentHistory PathBundle build_bundle component_history
        terminus""",
    "solver": "SolverReport all_minimum_sets forcing_number",
    "reconnection": """MinimalityRefutation ReconnectionStep boundary_set
        connected_complement_set connected_complement_trace find_pivot
        first_saturation_time improve_component""",
    "verifier": """CorpusSummary EqualityReport MirrorReport check_equality
        is_zz_perfect_direct mirror_check run_corpus run_corpus_enumerated""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted([*_EXPORTS, *_HOME])


def __getattr__(name):
    if name in _EXPORTS:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
