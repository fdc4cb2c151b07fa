"""The contract every public result record keeps: keyword construction,
a `Name(field=value, ...)` repr in field order, equality and hash by value,
and read-only fields. CorpusSummary is the one mutable record."""
from __future__ import annotations

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from parsers import parse_verify_document
from zforcing import (Chronology, Claw, ColorState, ComponentHistory,
                      CorpusSummary, EqualityReport, Force, MinimalityRefutation,
                      MirrorReport, PathBundle, ReconnectionStep, Rule,
                      SolverReport)
from zforcing.documents import verify_document
from zforcing.verifier import MirrorStep

SRC = Path(__file__).resolve().parent.parent / "src"

# one sample per record, keyword arguments in field order
SAMPLES = [
    (ColorState, {"blue": 5, "time": 2}),
    (Chronology, {"initial": 1, "steps": (frozenset([Force(0, 1)]),
                                          frozenset([Force(1, 2), Force(0, 3)])),
                  "rule": Rule.PSD}),
    (ComponentHistory, {"x": 3, "t_x": 2, "comps": (12, 8)}),
    (PathBundle, {"x": 2, "t_x": 1, "paths": ((0, 2), (1,))}),
    (SolverReport, {"rule": Rule.STANDARD, "value": 2, "witness": 3,
                    "tested": 7, "elapsed_ms": 0.25}),
    (ReconnectionStep, {"s": 3, "c": 4, "boundary": 1, "x": 0, "t": 2,
                        "w_star": 5, "s_prime": 34}),
    (MinimalityRefutation, {"y": 4, "smaller": 6}),
    (EqualityReport, {"graph6": "Bw", "n": 3, "z": 1, "z_plus": 1,
                      "equal": True, "claw_free": True, "connected": True}),
    (MirrorStep, {"time": 0, "force": Force(0, 1), "white_connected": True,
                  "standard_valid": False}),
    (MirrorReport, {"passed": False,
                    "steps": (MirrorStep(0, Force(0, 1), True, False),),
                    "reason": "assertion failed at time 0"}),
    (Force, {"source": 1, "target": 2}),
    (Claw, {"center": 0, "leaves": (1, 2, 3)}),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


@pytest.mark.parametrize("cls, kwargs", SAMPLES, ids=IDS)
class TestFrozenRecord:
    def test_keyword_construction(self, cls, kwargs):
        rec = cls(**kwargs)
        for name, value in kwargs.items():
            assert getattr(rec, name) == value
        assert rec == cls(*kwargs.values())

    def test_repr_lists_fields_in_order(self, cls, kwargs):
        fields = ", ".join(f"{name}={value!r}" for name, value in kwargs.items())
        assert repr(cls(**kwargs)) == f"{cls.__name__}({fields})"

    def test_equality_and_hash_by_value(self, cls, kwargs):
        a, b = cls(**kwargs), cls(**dict(kwargs))
        assert a is not b and a == b
        assert hash(a) == hash(b) == hash(tuple(kwargs.values()))
        first, value = next(iter(kwargs.items()))
        other = cls(**{**kwargs, first: (not value) if isinstance(value, bool) else None})
        assert a != other

    def test_copies_and_pickles(self, cls, kwargs):
        rec = cls(**kwargs)
        assert copy.copy(rec) == pickle.loads(pickle.dumps(rec)) == rec

    def test_fields_are_read_only(self, cls, kwargs):
        rec = cls(**kwargs)
        for name, value in kwargs.items():
            with pytest.raises(AttributeError):
                setattr(rec, name, value)
        assert rec == cls(**kwargs)


class TestDefaults:
    def test_color_state_starts_at_time_zero(self):
        assert ColorState(blue=1) == ColorState(1, 0)

    def test_mirror_report_reason_defaults_empty(self):
        assert MirrorReport(passed=True, steps=()).reason == ""

    def test_record_properties(self):
        chron = Chronology(1, (frozenset([Force(0, 1)]),
                               frozenset([Force(1, 2), Force(0, 3)])), Rule.PSD)
        assert chron.tau == 2
        assert chron.forces() == [Force(0, 1), Force(0, 3), Force(1, 2)]
        assert PathBundle(2, 1, ((0, 2), (1,))).vertex_mask == 0b111


class TestCorpusSummary:
    def test_defaults_and_repr(self):
        s = CorpusSummary(mode="theorem")
        assert repr(s) == ("CorpusSummary(mode='theorem', total=0, claw_free=0, "
                           "checked=0, failures=[], informational=[], errors=[])")

    def test_is_mutable(self):
        s = CorpusSummary(mode="monotonicity")
        s.total += 3
        s.failures.append("Bw")
        assert (s.total, s.failures) == (3, ["Bw"])

    def test_defaults_are_fresh_lists(self):
        a, b = CorpusSummary(mode="theorem"), CorpusSummary(mode="theorem")
        for name in ("failures", "informational", "errors"):
            assert getattr(a, name) is not getattr(b, name)
        a.failures.append("Bw")
        a.informational.append("Cw")
        a.errors.append("D??: ValueError: x")
        assert b.failures == b.informational == b.errors == []

    def test_equality_by_fields(self):
        kwargs = dict(mode="theorem", total=64, claw_free=42, checked=21,
                      failures=["Bw"], informational=[], errors=["C~: E: x"])
        assert CorpusSummary(**kwargs) == CorpusSummary(**kwargs)
        assert CorpusSummary(**kwargs) != CorpusSummary(**{**kwargs, "checked": 20})
        with pytest.raises(TypeError):
            hash(CorpusSummary(mode="theorem"))

    def test_copies_and_pickles(self):
        s = CorpusSummary(mode="corollary", total=8, failures=["Bw"])
        assert pickle.loads(pickle.dumps(s)) == copy.copy(s) == s
        deep = copy.deepcopy(s)
        deep.failures.append("Cw")
        assert s.failures == ["Bw"]

    def test_document_round_trip(self):
        s = CorpusSummary(mode="theorem", total=8, claw_free=8, checked=4,
                          failures=["Bw"], informational=["BW"], errors=["B?: E: x"])
        doc = json.loads(json.dumps(verify_document(s, "stdin", elapsed_ms=1.0)))
        assert parse_verify_document(doc) == s


def test_cli_import_skips_dataclasses_and_inspect():
    """Importing the CLI must not load dataclasses or inspect, which cost
    a cold process about 20 ms. Only modules new to the import count, so a
    site hook that preloads them cannot fail the test."""
    script = ("import sys; before = set(sys.modules); import zforcing.cli; "
              "print(' '.join(sorted(set(sys.modules) - before)))")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert "zforcing.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
