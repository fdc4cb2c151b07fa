"""Parsers for the CLI's output documents, used only by the test suite.

Each parse_*_document rebuilds the records its document was rendered
from, so the tests can check that every emitted document round-trips.
"""
from __future__ import annotations

from zforcing import (Chronology, Claw, CorpusSummary, Force, MinimalityRefutation,
                      PathBundle, ReconnectionStep, Rule, SolverReport)
from zforcing.documents import mask_from_labels


def _force_from_doc(d: dict) -> Force:
    return Force(d["source"] - 1, d["target"] - 1)


def _step_from_doc(d: dict, n: int) -> ReconnectionStep:
    return ReconnectionStep(mask_from_labels(d["s"], n),
                            mask_from_labels(d["component"], n),
                            mask_from_labels(d["boundary"], n),
                            d["x"] - 1, d["t"], d["w_star"] - 1,
                            mask_from_labels(d["s_prime"], n))


def parse_solve_document(doc: dict):
    n = doc["n"]
    report = SolverReport(Rule(doc["rule"]), doc["value"],
                          mask_from_labels(doc["witness"], n),
                          doc["tested"], doc["elapsed_ms"])
    sets = doc.get("minimum_sets")
    if sets is not None:
        sets = [mask_from_labels(s, n) for s in sets]
    return n, report, sets


def parse_trace_document(doc: dict):
    n = doc["n"]
    steps = tuple(frozenset(_force_from_doc(d) for d in step)
                  for step in doc["steps"])
    chron = Chronology(mask_from_labels(doc["initial"], n), steps,
                       Rule(doc["rule"]))
    return n, chron, doc["schedule"]


def parse_bundle_document(doc: dict):
    n = doc["n"]
    bundle = PathBundle(doc["x"] - 1, doc["t_x"],
                        tuple(tuple(v - 1 for v in path) for path in doc["paths"]))
    return n, mask_from_labels(doc["initial"], n), bundle, \
        mask_from_labels(doc["terminus"], n)


def parse_claws_document(doc: dict):
    claws = [Claw(d["center"] - 1, tuple(v - 1 for v in d["leaves"]))
             for d in doc["claws"]]
    return doc["n"], claws


def parse_improve_document(doc: dict):
    n = doc["n"]
    s = mask_from_labels(doc["s"], n)
    c = mask_from_labels(doc["component"], n)
    if doc["result"] == "refutation":
        r = doc["refutation"]
        return n, s, c, MinimalityRefutation(r["y"] - 1,
                                             mask_from_labels(r["smaller"], n))
    return n, s, c, _step_from_doc(doc["step"], n)


def parse_connectify_document(doc: dict):
    n = doc["n"]
    return n, mask_from_labels(doc["set"], n), \
        [_step_from_doc(d, n) for d in doc["steps"]]


def parse_perfect_document(doc: dict):
    return doc["n"], doc["mode"], doc["perfect"]


def parse_verify_document(doc: dict) -> CorpusSummary:
    return CorpusSummary(mode=doc["mode"], total=doc["total"],
                         claw_free=doc["claw_free"], checked=doc["checked"],
                         failures=list(doc["failures"]),
                         informational=list(doc["informational"]),
                         errors=list(doc["errors"]))
