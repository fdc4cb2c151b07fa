from __future__ import annotations

import json

import pytest

from conftest import two_diamonds_graph
from parsers import (
    parse_bundle_document,
    parse_claws_document,
    parse_connectify_document,
    parse_improve_document,
    parse_perfect_document,
    parse_solve_document,
    parse_trace_document,
    parse_verify_document,
)
from zforcing import Rule, closure, forcing_number, mask_of
from zforcing.documents import (
    bundle_document,
    claws_document,
    connectify_document,
    improve_document,
    labels_of,
    mask_from_labels,
    perfect_document,
    solve_document,
    trace_document,
    verify_document,
)
from zforcing import (
    build_bundle,
    connected_complement_trace,
    find_claws,
    improve_component,
    path_graph,
    run_corpus_enumerated,
    star_graph,
    terminus,
)

B0 = mask_of([1, 3, 5])


class TestLabels:
    def test_roundtrip(self):
        assert labels_of(mask_of([0, 2, 7])) == [1, 3, 8]
        assert mask_from_labels([1, 3, 8], 8) == mask_of([0, 2, 7])

    def test_range_check(self):
        with pytest.raises(ValueError):
            mask_from_labels([9], 8)
        with pytest.raises(ValueError):
            mask_from_labels([0], 8)


class TestRoundTrips:
    def test_solve(self, two_diamonds):
        report = forcing_number(two_diamonds, Rule.PSD)
        doc = solve_document(8, report, [report.witness])
        n, back, sets = parse_solve_document(json.loads(json.dumps(doc)))
        assert n == 8
        assert back == report
        assert sets == [report.witness]

    def test_trace(self, two_diamonds):
        chron, expansion = closure(two_diamonds, B0, Rule.PSD)
        doc = trace_document("trace", 8, chron, expansion, "greedy")
        n, back, schedule = parse_trace_document(json.loads(json.dumps(doc)))
        assert (n, schedule) == (8, "greedy")
        assert back == chron

    def test_bundle(self, two_diamonds):
        chron, _ = closure(two_diamonds, B0, Rule.PSD)
        bundle = build_bundle(two_diamonds, chron, 6)
        term = terminus(two_diamonds, chron, bundle)
        doc = bundle_document(8, B0, "greedy", bundle, term)
        n, initial, back, back_term = parse_bundle_document(json.loads(json.dumps(doc)))
        assert (n, initial) == (8, B0)
        assert back == bundle
        assert back_term == term

    def test_improve_step_shape(self):
        g = star_graph(3)
        step = improve_component(g, mask_of([0]), mask_of([1]))
        doc = improve_document(4, mask_of([0]), mask_of([1]), step)
        n, s, c, back = parse_improve_document(json.loads(json.dumps(doc)))
        assert (n, s, c) == (4, mask_of([0]), mask_of([1]))
        assert back == step

    def test_improve_refutation_shape(self):
        g = path_graph(4)
        out = improve_component(g, mask_of([1, 2]), mask_of([0]))
        doc = improve_document(4, mask_of([1, 2]), mask_of([0]), out)
        assert doc["result"] == "refutation"
        _, _, _, back = parse_improve_document(json.loads(json.dumps(doc)))
        assert back == out

    def test_connectify(self):
        g = star_graph(3)
        final, steps = connected_complement_trace(g)
        doc = connectify_document(4, final, steps, True, 0.0)
        n, back_final, back_steps = parse_connectify_document(json.loads(json.dumps(doc)))
        assert (n, back_final) == (4, final)
        assert back_steps == steps

    def test_claws(self, two_diamonds):
        g = star_graph(4)
        claws = find_claws(g)
        assert len(claws) == 4
        doc = claws_document(5, claws)
        assert doc["claw_free"] is False
        assert (5, claws) == parse_claws_document(json.loads(json.dumps(doc)))
        doc = claws_document(8, find_claws(two_diamonds))
        assert doc["claw_free"] is True
        assert (8, []) == parse_claws_document(json.loads(json.dumps(doc)))

    def test_perfect(self):
        for mode, perfect in (("direct", True), ("clawfree", False)):
            doc = perfect_document(6, mode, perfect)
            assert parse_perfect_document(json.loads(json.dumps(doc))) == (6, mode, perfect)

    def test_verify(self):
        summary = run_corpus_enumerated(3, "theorem")
        doc = verify_document(summary, "enumerate:3", elapsed_ms=12.5)
        assert "jobs" not in doc
        back = parse_verify_document(json.loads(json.dumps(doc)))
        assert back == summary
