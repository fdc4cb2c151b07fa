"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, runs one pass over
them through a tracer (a no-op one when untraced), checks every output of
the pass, reduces the pass to deterministic counts, and, in the traced
run, replays work that happens inside another layer's call so that it can
be timed on its own.

Why these four:
  corpus      the verify job users run: every labeled graph on 1..6
              vertices, theorem and monotonicity modes, jobs = 1. Many tiny
              graphs, so edge-mask decode, the claw and connectivity
              filters and per-call search overhead dominate. n = 7 is left
              out because one pass takes over a minute.
  solve       forcing_number under both rules on connected random graphs
              with n in 10..12 and edge density 0.3, 0.5 or 0.7: hundreds
              to thousands of candidates per graph, so the mask-only
              closure kernels dominate; no decode, filter or reconnection.
  connectify  connected_complement_trace on sparse connected graphs (random
              trees plus 0-1 extra edges, n in 16..40). z+ <= 2, so the
              search is cheap and the forcing layer's bookkeeping path
              (valid_forces through chronological_list) dominates.
  cli         sequential cold `python -m zforcing.cli` processes on graphs
              with n in 8..10: the only workload where interpreter start,
              the import chain, argument parsing and document rendering show.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from time import perf_counter

import zforcing as zf

STD = zf.Rule.STANDARD
PSD = zf.Rule.PSD

# Frozen corpus counts, copied from tests/test_acceptance.py (TOTAL,
# CLAW_FREE and CONNECTED_CLAW_FREE, asserted by acceptance criteria 04, 05
# and 08); n = 7 is not part of this benchmark.
TOTAL = {n: 1 << (n * (n - 1) // 2) for n in range(1, 7)}
CLAW_FREE = {1: 1, 2: 2, 3: 8, 4: 60, 5: 769, 6: 15272}
CONNECTED_CLAW_FREE = {1: 1, 2: 1, 3: 4, 4: 34, 5: 493, 6: 10738}


def _sha(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _random_connected(rng: random.Random, n: int, density: float) -> zf.Graph:
    """Uniform connected graph with round(density * n(n-1)/2) edges."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = round(density * len(pairs))
    while True:
        g = zf.from_edge_list(n, rng.sample(pairs, m))
        if zf.is_connected(g):
            return g


class Corpus:
    """Per-item latency is the whole verify job (one pass), which is what a
    corpus user waits for; the seed only fixes the order of the twelve calls."""

    per_item = False

    def __init__(self, seed: int):
        calls = [(n, mode) for mode in ("theorem", "monotonicity") for n in range(1, 7)]
        random.Random(f"corpus:{seed}").shuffle(calls)
        self.calls = calls
        self.graphs = sum(TOTAL[n] for n, _ in calls)

    def digest(self) -> str:
        return _sha(self.calls)

    def run_pass(self, tr, root):
        out = []
        for n, mode in self.calls:
            out.append(tr.call(f"verifier.run_corpus_enumerated.{mode}", root, n,
                               zf.run_corpus_enumerated, n, mode, 1))
        return out, None

    def check(self, out) -> list[str]:
        bad = []
        for (n, mode), s in zip(self.calls, out):
            checked = CONNECTED_CLAW_FREE[n] if mode == "theorem" else TOTAL[n]
            got = (s.total, s.claw_free, s.checked, s.failures, s.errors)
            if got != (TOTAL[n], CLAW_FREE[n], checked, [], []):
                bad.append(f"{mode} n={n}: total, claw_free, checked, failures, errors = {got}")
        return bad

    def counts(self, out) -> dict:
        return {
            "graphs_seen": sum(s.total for s in out),
            "claw_free": sum(s.claw_free for s in out),
            "checked": sum(s.checked for s in out),
            "failures": sum(len(s.failures) + len(s.errors) for s in out),
        }

    def layer_stats(self, out) -> dict:
        c = self.counts(out)
        return {"verifier.total": c["graphs_seen"], "verifier.claw_free": c["claw_free"],
                "verifier.checked": c["checked"]}

    def replay(self, tr, root, out):
        """Decode, filter and solve every graph through the public functions,
        in the order the verifier does, and reproduce its counts."""
        total = claw_free = connected = checked = 0
        tested = {STD: 0, PSD: 0}
        bad = []
        for n, mode in self.calls:
            group = tr.begin(f"replay.{mode}", root, n)
            theorem = mode == "theorem"
            for mask in range(TOTAL[n]):
                g = tr.call("graphs.graph_from_edge_mask", group, mask,
                            zf.graph_from_edge_mask, n, mask)
                total += 1
                cf = tr.call("graphs.is_claw_free", group, mask, zf.is_claw_free, g)
                claw_free += cf
                if theorem:
                    if not cf:
                        continue
                    conn = tr.call("graphs.is_connected", group, mask, zf.is_connected, g)
                    connected += conn
                    if not conn:
                        continue
                checked += 1
                z = tr.call("solver.forcing_number.standard", group, mask,
                            zf.forcing_number, g, STD)
                zp = tr.call("solver.forcing_number.psd", group, mask,
                             zf.forcing_number, g, PSD)
                tested[STD] += z.tested
                tested[PSD] += zp.tested
                if (z.value != zp.value) if theorem else (zp.value > z.value):
                    bad.append(f"replay {mode}: {zf.to_graph6(g)}")
            tr.finish(group)
        c = self.counts(out)
        if (total, claw_free, checked) != (c["graphs_seen"], c["claw_free"], c["checked"]):
            bad.append(f"replay counts {(total, claw_free, checked)} differ from the verifier's")
        stats = {"graphs.is_claw_free.passed": claw_free, "graphs.is_connected.passed": connected,
                 "solver.forcing_number.standard.tested": tested[STD],
                 "solver.forcing_number.psd.tested": tested[PSD]}
        return stats, len(self.calls), bad


class Solve:
    """40 graphs in each (n, density) cell, so every seed has the same mix of
    sizes and edge counts and differs only in which graphs were drawn. At
    n = 11..13 with 14 graphs a cell the per-graph median moved by 19 %
    between seeds, because cost comes in steps of the forcing number; 360
    smaller graphs bring that near 6 % at the same pass time."""

    per_item = True

    def __init__(self, seed: int):
        rng = random.Random(f"solve:{seed}")
        self.inputs = [_random_connected(rng, n, density)
                       for n in (10, 11, 12) for density in (0.3, 0.5, 0.7)
                       for _ in range(40)]
        self.graphs = len(self.inputs)

    def digest(self) -> str:
        return _sha([zf.to_graph6(g) for g in self.inputs])

    def run_pass(self, tr, root):
        out, lat = [], []
        for i, g in enumerate(self.inputs):
            t0 = perf_counter()
            std = tr.call("solver.forcing_number.standard", root, i, zf.forcing_number, g, STD)
            psd = tr.call("solver.forcing_number.psd", root, i, zf.forcing_number, g, PSD)
            lat.append((t0, perf_counter()))
            out.append((std, psd))
        return out, lat

    def check(self, out) -> list[str]:
        bad = []
        for i, (g, (std, psd)) in enumerate(zip(self.inputs, out)):
            problems = [f"{r.rule.value} witness size differs from value"
                        for r in (std, psd) if r.witness.bit_count() != r.value]
            problems += [f"{r.rule.value} witness does not force" for r in (std, psd)
                         if zf.closure_mask(g, r.witness, r.rule) != g.full_mask]
            if psd.value > std.value:
                problems.append(f"psd {psd.value} above standard {std.value}")
            if problems:
                bad.append(f"graph {i}: " + "; ".join(problems))
        return bad

    def counts(self, out) -> dict:
        return {
            "graphs": len(out),
            "tested.standard": sum(s.tested for s, _ in out),
            "tested.psd": sum(p.tested for _, p in out),
            "results_sha": _sha([(s.value, s.witness, p.value, p.witness) for s, p in out]),
        }

    def layer_stats(self, out) -> dict:
        c = self.counts(out)
        return {"solver.forcing_number.standard.tested": c["tested.standard"],
                "solver.forcing_number.psd.tested": c["tested.psd"]}

    def replay(self, tr, root, out):
        return {}, 0, []


class Connectify:
    """Random recursive trees, n running through 16..40 sixteen times, every
    other one with one extra edge; seeds differ only in the shapes drawn.
    400 graphs keep the seed-to-seed spread of the pass time near 5 %."""

    per_item = True
    COUNT = 400

    def __init__(self, seed: int):
        rng = random.Random(f"connectify:{seed}")
        self.inputs = []
        for i in range(self.COUNT):
            n = 16 + i % 25
            parent = [rng.randrange(v) for v in range(1, n)]
            degree = [0] + [1] * (n - 1)
            for p in parent:
                degree[p] += 1
            label = list(range(n))
            rng.shuffle(label)
            # vertex 0 carries the solver's witness; on a leaf the trace
            # would take no reconnection step at all
            inner = rng.choice([v for v in range(n) if degree[v] >= 2])
            at = label.index(0)
            label[at], label[inner] = label[inner], 0
            edges = {(label[v], label[p]) for v, p in enumerate(parent, 1)}
            if i % 2:
                while True:
                    u, v = rng.sample(range(n), 2)
                    if (u, v) not in edges and (v, u) not in edges:
                        edges.add((u, v))
                        break
            self.inputs.append(zf.from_edge_list(n, sorted(edges)))
        self.graphs = len(self.inputs)
        self._zplus: list[int | None] = [None] * self.COUNT

    def digest(self) -> str:
        return _sha([zf.to_graph6(g) for g in self.inputs])

    def run_pass(self, tr, root):
        out, lat = [], []
        for i, g in enumerate(self.inputs):
            t0 = perf_counter()
            out.append(tr.call("reconnection.connected_complement_trace", root, i,
                               zf.connected_complement_trace, g))
            lat.append((t0, perf_counter()))
        return out, lat

    def check(self, out) -> list[str]:
        """Postconditions of acceptance criterion 06."""
        bad = []
        for i, (g, (s, steps)) in enumerate(zip(self.inputs, out)):
            if self._zplus[i] is None:
                self._zplus[i] = zf.forcing_number(g, PSD).value
            if not zf.is_forcing_set(g, s, PSD):
                bad.append(f"graph {i}: set is not psd forcing")
            elif s.bit_count() != self._zplus[i]:
                bad.append(f"graph {i}: set size {s.bit_count()} is not z+ = {self._zplus[i]}")
            elif len(zf.components(g, g.full_mask & ~s)) > 1:
                bad.append(f"graph {i}: complement is disconnected")
            elif len(steps) > g.n:
                bad.append(f"graph {i}: {len(steps)} steps for {g.n} vertices")
        return bad

    def counts(self, out) -> dict:
        return {
            "graphs": len(out),
            "steps": sum(len(steps) for _, steps in out),
            "results_sha": _sha(out),
        }

    def layer_stats(self, out) -> dict:
        return {"reconnection.steps": self.counts(out)["steps"]}

    def replay(self, tr, root, out):
        """The solver call and every improve_component step of each trace,
        plus chronological_list on each step's (g, s), timed one by one."""
        tested = 0
        bad = []
        for i, (g, (_, steps)) in enumerate(zip(self.inputs, out)):
            tested += tr.call("solver.forcing_number.psd", root, i,
                              zf.forcing_number, g, PSD).tested
            for st in steps:
                again = tr.call("reconnection.improve_component", root, i,
                                zf.improve_component, g, st.s, st.c)
                if again != st:
                    bad.append(f"replay graph {i}: improve_component differs from the trace")
                tr.call("forcing.chronological_list", root, i,
                        zf.chronological_list, g, st.s, PSD)
        return {"solver.forcing_number.psd.tested": tested}, len(out), bad


_ELAPSED = re.compile(rb'^\s*"elapsed_ms": [^\n]*\n', re.M)


def _strip_elapsed(text: bytes) -> bytes:
    return _ELAPSED.sub(b"", text)


class Cli:
    """Twenty graphs, each through solve, trace, bundle, connectify and
    verify: 100 processes a pass, one at a time. verify reads its graph6
    line from stdin; the other subcommands read graph6 from --graph6,
    because they parse stdin as an edge list."""

    per_item = True
    GRAPHS = 20
    PROBES = 7

    def __init__(self, seed: int):
        from zforcing import cli, documents
        self.main, self.docs = cli.main, documents
        rng = random.Random(f"cli:{seed}")
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.cwd = root
        self.items = []  # (argv, stdin, graph, blue, x)
        for gi in range(self.GRAPHS):
            g = _random_connected(rng, 8 + gi % 3, 0.4)
            g6 = zf.to_graph6(g)
            blue = zf.forcing_number(g, PSD).witness
            x = max(v for v in range(g.n) if not blue >> v & 1)
            labels = ",".join(str(v + 1) for v in zf.bits(blue))
            rule = ("standard", "psd")[gi % 2]
            for argv, stdin in (
                (["solve", "--rule", rule, "--graph6", g6], None),
                (["trace", "--blue", labels, "--graph6", g6], None),
                (["bundle", "--blue", labels, "--x", str(x + 1), "--graph6", g6], None),
                (["connectify", "--graph6", g6], None),
                (["verify"], g6 + "\n"),
            ):
                self.items.append((argv, stdin, g, blue, x))
        self.graphs = len(self.items)

    def digest(self) -> str:
        return _sha([(argv, stdin) for argv, stdin, *_ in self.items])

    def _spawn(self, cmd, stdin):
        try:
            p = subprocess.run(cmd, input=(stdin or "").encode(), capture_output=True,
                               env=self.env, cwd=self.cwd, timeout=60)
        except subprocess.TimeoutExpired:
            return None, b"", b"timed out after 60 s"
        return p.returncode, p.stdout, p.stderr

    def run_pass(self, tr, root):
        out, lat = [], []
        for i, (argv, stdin, *_) in enumerate(self.items):
            t0 = perf_counter()
            out.append(tr.call("cli.process", root, i, self._spawn,
                               [sys.executable, "-m", "zforcing.cli", *argv], stdin))
            lat.append((t0, perf_counter()))
        return out, lat

    @staticmethod
    def _check_doc(argv, doc) -> str:
        cmd = argv[0]
        if not isinstance(doc, dict) or doc.get("command") != cmd:
            return "not a document of this command"
        if cmd == "solve" and len(doc["witness"]) != doc["value"]:
            return "witness size differs from value"
        if cmd == "trace" and not doc["all_blue"]:
            return "psd forcing set did not color everything"
        if cmd == "bundle" and len(doc["terminus"]) != len(doc["initial"]):
            return "terminus size differs from the initial set"
        if cmd == "connectify" and not (doc["complement_connected"]
                                        and doc["iterations"] <= doc["n"]):
            return "complement not connected or too many steps"
        if cmd == "verify" and (doc["total"], doc["failures"], doc["errors"]) != (1, [], []):
            return "verify recorded failures or errors"
        return ""

    def check(self, out) -> list[str]:
        bad = []
        for i, ((argv, *_), (code, stdout, stderr)) in enumerate(zip(self.items, out)):
            if code != 0:
                bad.append(f"item {i} {argv[0]}: exit {code}: {stderr[-200:]!r}")
                continue
            try:
                problem = self._check_doc(argv, json.loads(stdout))
            except (ValueError, KeyError) as exc:
                problem = f"output is not one JSON document ({exc})"
            if problem:
                bad.append(f"item {i} {argv[0]}: {problem}")
        return bad

    def counts(self, out) -> dict:
        codes: dict[str, int] = {}
        for code, _, _ in out:
            codes[str(code)] = codes.get(str(code), 0) + 1
        return {"processes": len(out), "exit_codes": codes,
                "documents_sha": _sha([_strip_elapsed(stdout) for _, stdout, _ in out])}

    def layer_stats(self, out) -> dict:
        return {}

    def _renderer(self, argv, g, blue, x):
        """The document builder and json.dumps for one item, on library
        results computed beforehand, as the CLI handler would build them."""
        cmd = argv[0]
        if cmd == "solve":
            report = zf.forcing_number(g, zf.Rule(argv[2]))
            return lambda: json.dumps(self.docs.solve_document(g.n, report, None), indent=2)
        if cmd in ("trace", "bundle"):
            chron, expansion = zf.closure(g, blue, PSD)
            if cmd == "trace":
                return lambda: json.dumps(self.docs.trace_document(
                    "trace", g.n, chron, expansion, "greedy"), indent=2)
            bundle = zf.build_bundle(g, chron, x)
            term = zf.terminus(g, chron, bundle)
            return lambda: json.dumps(self.docs.bundle_document(
                g.n, blue, "greedy", bundle, term), indent=2)
        if cmd == "connectify":
            final, steps = zf.connected_complement_trace(g)
            connected = len(zf.components(g, g.full_mask & ~final)) <= 1
            return lambda: json.dumps(self.docs.connectify_document(
                g.n, final, steps, connected, 0.0), indent=2)
        summary = zf.run_corpus([g], "theorem")
        return lambda: json.dumps(self.docs.verify_document(summary, "stdin", 1, 0.0), indent=2)

    def replay(self, tr, root, out):
        """Bare interpreter start, a fresh import of zforcing.cli, main(argv)
        in process with stdout captured, and rendering alone."""
        bad = []
        for k in range(self.PROBES):
            for name, code in (("cli.interpreter", "pass"), ("cli.import", "import zforcing.cli")):
                status, _, err = tr.call(name, root, k, self._spawn,
                                         [sys.executable, "-c", code], None)
                if status != 0:
                    bad.append(f"probe {code!r} exited {status}: {err[-200:]!r}")
        for i, ((argv, stdin, g, blue, x), (_, stdout, _)) in enumerate(zip(self.items, out)):
            buf = io.StringIO()
            saved = sys.stdin
            sys.stdin = io.StringIO(stdin or "")
            try:
                with contextlib.redirect_stdout(buf):
                    code = tr.call("cli.main", root, i, self.main, argv)
            finally:
                sys.stdin = saved
            text = buf.getvalue().encode()
            rendered = tr.call("documents.render", root, i, self._renderer(argv, g, blue, x))
            if code != 0 or _strip_elapsed(text) != _strip_elapsed(stdout):
                bad.append(f"replay item {i}: in-process main differs from the process")
            elif _strip_elapsed((rendered + "\n").encode()) != _strip_elapsed(stdout):
                bad.append(f"replay item {i}: rendered document differs from the process")
        return {}, len(self.items) + 2 * self.PROBES, bad


WORKLOADS = {w.__name__.lower(): w for w in (Corpus, Solve, Connectify, Cli)}
