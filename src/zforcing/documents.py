"""Output documents.

Every CLI subcommand emits one JSON-compatible dict with 1-based vertex
labels, built from the records the library returns; the test suite's
parsers rebuild those records, so emitted documents round-trip. Key
order is fixed by construction, which keeps rendered output
byte-identical for identical inputs; the only exceptions are elapsed_ms
fields, which carry wall time and sit outside the determinism contract.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from .graphs import Claw, bits
from .forcing import Chronology, Force, Rule

if TYPE_CHECKING:
    from .bundles import PathBundle
    from .reconnection import ReconnectionStep
    from .solver import SolverReport
    from .verifier import CorpusSummary

# The verify modes, kept here rather than in verifier so that the CLI can
# offer them without compiling the verifier.
MODES = ("theorem", "corollary", "monotonicity")


def labels_of(mask: int) -> list[int]:
    return [v + 1 for v in bits(mask)]


def mask_from_labels(labels, n: int) -> int:
    mask = 0
    for lab in labels:
        if not 1 <= lab <= n:
            raise ValueError(f"label {lab} outside 1..{n}")
        mask |= 1 << (lab - 1)
    return mask


def _force_doc(f: Force) -> dict:
    return {"source": f.source + 1, "target": f.target + 1}


def _steps_doc(steps) -> list[list[dict]]:
    return [[_force_doc(f) for f in sorted(step)] for step in steps]


# ---------------------------------------------------------------------------
# solve


def solve_document(n: int, report: SolverReport, minimum_sets=None) -> dict:
    doc = {
        "command": "solve",
        "n": n,
        "rule": report.rule.value,
        "value": report.value,
        "witness": labels_of(report.witness),
        "tested": report.tested,
        "elapsed_ms": report.elapsed_ms,
    }
    if minimum_sets is not None:
        doc["minimum_sets"] = [labels_of(m) for m in minimum_sets]
    return doc


# ---------------------------------------------------------------------------
# trace / list


def trace_document(command: str, n: int, chron: Chronology, expansion,
                   schedule: str) -> dict:
    return {
        "command": command,
        "n": n,
        "rule": chron.rule.value,
        "schedule": schedule,
        "initial": labels_of(chron.initial),
        "steps": _steps_doc(chron.steps),
        "expansion": [labels_of(state) for state in expansion],
        "tau": chron.tau,
        "all_blue": expansion[-1].bit_count() == n,
    }


# ---------------------------------------------------------------------------
# bundle


def bundle_document(n: int, initial: int, schedule: str, bundle: PathBundle,
                    terminus_mask: int) -> dict:
    return {
        "command": "bundle",
        "n": n,
        "rule": Rule.PSD.value,
        "schedule": schedule,
        "initial": labels_of(initial),
        "x": bundle.x + 1,
        "t_x": bundle.t_x,
        "paths": [[v + 1 for v in path] for path in bundle.paths],
        "terminus": labels_of(terminus_mask),
    }


# ---------------------------------------------------------------------------
# claws


def claws_document(n: int, claws: list[Claw]) -> dict:
    return {
        "command": "claws",
        "n": n,
        "claw_free": not claws,
        "claws": [{"center": c.center + 1, "leaves": [v + 1 for v in c.leaves]}
                  for c in claws],
    }


# ---------------------------------------------------------------------------
# improve / connectify


def _step_doc(step: ReconnectionStep) -> dict:
    return {
        "s": labels_of(step.s),
        "component": labels_of(step.c),
        "boundary": labels_of(step.boundary),
        "x": step.x + 1,
        "t": step.t,
        "w_star": step.w_star + 1,
        "s_prime": labels_of(step.s_prime),
    }


def improve_document(n: int, s: int, c: int, result) -> dict:
    from .reconnection import MinimalityRefutation
    doc = {"command": "improve", "n": n, "s": labels_of(s),
           "component": labels_of(c)}
    if isinstance(result, MinimalityRefutation):
        doc["result"] = "refutation"
        doc["refutation"] = {"y": result.y + 1, "smaller": labels_of(result.smaller)}
    else:
        doc["result"] = "step"
        doc["step"] = _step_doc(result)
    return doc


def connectify_document(n: int, final: int, steps, complement_connected: bool,
                        elapsed_ms: float) -> dict:
    return {
        "command": "connectify",
        "n": n,
        "rule": Rule.PSD.value,
        "set": labels_of(final),
        "complement_connected": complement_connected,
        "iterations": len(steps),
        "steps": [_step_doc(s) for s in steps],
        "elapsed_ms": elapsed_ms,
    }


# ---------------------------------------------------------------------------
# perfect / verify


def perfect_document(n: int, mode: str, perfect: bool) -> dict:
    return {"command": "perfect", "n": n, "mode": mode, "perfect": perfect}


def verify_document(summary: CorpusSummary, source: str, jobs: int | None = None,
                    elapsed_ms: float = 0.0) -> dict:
    # jobs is ignored: corpus runs use one process. The slot remains so
    # that four-argument callers keep working.
    return {
        "command": "verify",
        "mode": summary.mode,
        "source": source,
        "total": summary.total,
        "claw_free": summary.claw_free,
        "checked": summary.checked,
        "failures": list(summary.failures),
        "informational": list(summary.informational),
        "errors": list(summary.errors),
        "elapsed_ms": elapsed_ms,
    }
