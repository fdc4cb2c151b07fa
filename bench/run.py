"""zforcing benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload corpus|solve|connectify|cli \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
src/ directory, never from an installed copy.

A run sets the workload up from the seed, then runs whole passes over the
same inputs until S seconds have gone by (at least two passes). Every
output of every pass is checked, and each pass is reduced to
deterministic counts that must agree across all passes. With --trace 0 the
last line carries the end-to-end metrics; with --trace 1 untraced and
traced passes alternate, work that runs inside another layer's call is
replayed on its own, and the last line carries the per-layer metrics. The
lines before it give each metric's sample count, the counts, and a run
record (source revision, Python, CPU count, load average). Spans and a
summary are written under .bench_out/.

Times are in reference seconds (see speed.py): wall time scaled by how
fast a fixed kernel runs around it, because the speed of a shared CPU
drifts by tens of percent; raw times are printed beside them. The process
pins itself to one CPU. graphs_per_s is graphs per pass over the pass
time; latency_p50_ms and latency_p90_ms are nearest-rank percentiles of
per-item time in each pass (one graph for solve and connectify, one
process for cli; for corpus the item is the whole job), median over
passes. setup_s is the median over five fresh interpreters of importing
zforcing and building the workload's inputs (the script re-runs itself
with --probe-setup). peak_rss_mb is this process's peak resident memory,
or for cli the largest peak of the CLI processes. error_rate is printed
as failed / attempted; it is 0 when the program is right, so it is not a
bounded metric.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import NullTracer, Tracer
from speed import REF_KERNEL_S, SpeedSampler, pin_to_one_cpu, timed_kernel

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5

# (name, unit) of every per-layer metric, printed in this order
LAYER_METRICS = [
    ("graphs.graph_from_edge_mask.calls", "count"),
    ("graphs.graph_from_edge_mask.busy_s", "s"),
    ("graphs.is_claw_free.calls", "count"),
    ("graphs.is_claw_free.busy_s", "s"),
    ("graphs.is_claw_free.pass_ratio", "ratio"),
    ("graphs.is_connected.calls", "count"),
    ("graphs.is_connected.busy_s", "s"),
    ("graphs.is_connected.pass_ratio", "ratio"),
    *[(f"solver.forcing_number.{rule}.{k}", unit) for rule in ("standard", "psd")
      for k, unit in (("calls", "count"), ("busy_s", "s"), ("tested", "count"),
                      ("us_per_candidate", "us"), ("hit_ratio", "ratio"))],
    ("reconnection.improve_component.calls", "count"),
    ("reconnection.improve_component.busy_s", "s"),
    ("reconnection.connected_complement_trace.busy_s", "s"),
    ("reconnection.steps", "count"),
    ("forcing.chronological_list.calls", "count"),
    ("forcing.chronological_list.busy_s", "s"),
    ("verifier.run_corpus_enumerated.theorem.busy_s", "s"),
    ("verifier.run_corpus_enumerated.monotonicity.busy_s", "s"),
    ("verifier.total", "count"),
    ("verifier.claw_free", "count"),
    ("verifier.checked", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_ms", "ms"),
    ("documents.render_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.coverage", "ratio"),
]
SPAN_LAYERS = ["graphs.graph_from_edge_mask", "graphs.is_claw_free", "graphs.is_connected",
               "solver.forcing_number.standard", "solver.forcing_number.psd",
               "reconnection.improve_component", "forcing.chronological_list"]


def setup(workload: str, seed: int):
    """Import zforcing (through the workloads module) and build the inputs."""
    t0 = perf_counter()
    import workloads
    w = workloads.WORKLOADS[workload](seed)
    return w, perf_counter() - t0


def probe_setup(workload: str, seed: int) -> list[tuple[float, float, str]]:
    """(raw s, reference s, inputs digest) of set-up in fresh interpreters."""
    out = []
    for _ in range(SETUP_PROBES):
        p = subprocess.run([sys.executable, __file__, "--probe-setup", "--workload", workload,
                            "--seed", str(seed)], capture_output=True, text=True, timeout=120)
        if p.returncode != 0:
            raise RuntimeError(f"setup probe failed: {p.stderr[-500:]}")
        doc = json.loads(p.stdout)
        out.append((doc["raw_s"], doc["ref_s"], doc["digest"]))
    return out


def run_record(seed: int, workload: str, trace: int, seconds: float) -> dict:
    sha = dirty = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            st = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"], capture_output=True, text=True,
                                timeout=30)
            dirty = bool(st.stdout.strip())
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    h = hashlib.sha256()
    for f in sorted((SRC / "zforcing").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {
        "workload": workload, "seed": seed, "trace": trace, "run_seconds": seconds,
        "git_sha": sha, "git_dirty": dirty, "source_sha256": h.hexdigest()[:16],
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m_start": os.getloadavg()[0],
    }


def nearest_rank(values: list[float], q: float) -> float:
    s = sorted(values)
    return s[max(0, math.ceil(q * len(s)) - 1)]


def run(args) -> int:
    record = run_record(args.seed, args.workload, args.trace, args.seconds)
    record["cpu"] = pin_to_one_cpu()
    w, inproc_setup_s = setup(args.workload, args.seed)
    import zforcing
    if Path(zforcing.__file__).resolve().parent != SRC / "zforcing":
        print(f"error: zforcing imported from {zforcing.__file__}, not {SRC}", file=sys.stderr)
        return 2
    is_cli = args.workload == "cli"

    null, tracer, replay_tracer = NullTracer(), Tracer(), Tracer()
    passes = []  # dicts: traced, interval, items, counts, root
    failures: list[str] = []
    attempted = 0
    stats: dict = {}
    with SpeedSampler() as speed:
        start = perf_counter()
        while len(passes) < 2 or perf_counter() - start < args.seconds:
            traced = bool(args.trace) and len(passes) % 2 == 1
            tr = tracer if traced else null
            root = tr.begin("pass", -1, len(passes))
            t0 = perf_counter()
            out, items = w.run_pass(tr, root)
            t1 = perf_counter()
            tr.finish(root)
            bad = w.check(out)
            failures += bad
            attempted += len(out)
            passes.append({"traced": traced, "interval": (t0, t1), "items": items,
                           "counts": w.counts(out), "root": root, "failed": len(bad)})
        who = resource.RUSAGE_CHILDREN if is_cli else resource.RUSAGE_SELF
        peak_mb = resource.getrusage(who).ru_maxrss / 1024
        if args.trace:
            rroot = replay_tracer.begin("replay")
            stats, replay_items, bad = w.replay(replay_tracer, rroot, out)
            replay_tracer.finish(rroot)
            attempted += replay_items
            failures += bad
    ref = speed.ref_seconds

    counts = passes[0]["counts"]
    differ = [i for i, p in enumerate(passes) if p["counts"] != counts]
    if differ:
        failures.append(f"counts of passes {differ} differ from pass 0")
    for p in passes:
        p["raw_s"] = p["interval"][1] - p["interval"][0]
        p["ref_s"] = ref(*p["interval"])
        if p["items"] is not None:
            p["items"] = [ref(a, b) for a, b in p["items"]]

    layer, tables = {}, []
    if args.trace:
        pass_times, replay_times = tracer.self_times(ref), replay_tracer.self_times(ref)
        layer = layer_metrics(passes, tracer, pass_times, replay_tracer, replay_times,
                              {**w.layer_stats(out), **stats}, ref)
        tables = [("self time per traced pass", pass_times, sum(p["traced"] for p in passes)),
                  ("self time of the replay, apart from the sum above", replay_times, 1)]

    probes = probe_setup(args.workload, args.seed)
    if any(d != w.digest() for _, _, d in probes):
        failures.append("setup probes generated other inputs than this process")
    record["loadavg_1m_end"] = os.getloadavg()[0]

    plain = [p for p in passes if not p["traced"]]
    if w.per_item:
        p50 = statistics.median(nearest_rank(p["items"], 0.5) for p in plain)
        p90 = statistics.median(nearest_rank(p["items"], 0.9) for p in plain)
        samples = f"{len(plain[0]['items'])} samples per pass, median over {len(plain)} passes"
    else:
        walls = [p["ref_s"] for p in plain]
        p50, p90 = statistics.median(walls), nearest_rank(walls, 0.9)
        samples = f"one sample per pass (the whole job), {len(plain)} passes"
    raw_gps = statistics.median(w.graphs / p["raw_s"] for p in plain)
    end_to_end = {
        "setup_s": (statistics.median(r for _, r, _ in probes), "s",
                    f"median of {len(probes)} fresh interpreters; raw median "
                    f"{statistics.median(r for r, _, _ in probes):.4f} s, this process "
                    f"{inproc_setup_s:.4f} s raw"),
        "graphs_per_s": (statistics.median(w.graphs / p["ref_s"] for p in plain), "1/s",
                         f"median over {len(plain)} passes of {w.graphs} graphs; "
                         f"raw {raw_gps:.4g}"),
        "latency_p50_ms": (p50 * 1e3, "ms", samples),
        "latency_p90_ms": (p90 * 1e3, "ms", samples),
        "peak_rss_mb": (peak_mb, "MB", "largest CLI process" if is_cli else "this process"),
    }

    failed = len(failures)
    correct = failed == 0
    print(f"record {json.dumps(record)}")
    print(f"passes {len(plain)} untraced, {len(passes) - len(plain)} traced; reference s per "
          f"untraced pass {[round(p['ref_s'], 4) for p in plain]}, raw "
          f"{[round(p['raw_s'], 4) for p in plain]}")
    print(f"counts {json.dumps(counts, sort_keys=True)} "
          f"({'identical in all' if not differ else 'DIFFER across'} {len(passes)} passes)")
    for msg in failures[:20]:
        print(f"FAILED {msg}")
    print(f"error_rate {failed / attempted:.6f} ({failed} failed of {attempted} attempted)")
    for title, table, per in tables:
        total = sum(busy for _, busy in table.values())
        print(f"{title}:")
        for name, (calls, busy) in sorted(table.items(), key=lambda kv: -kv[1][1]):
            print(f"  {name:<48} {calls // per:>8} calls {busy / per:10.4f} s "
                  f"{100 * busy / total:5.1f} %")
    if args.trace:
        for name, unit in LAYER_METRICS:
            value, note = layer[name]
            print(f"layer {name} = {value:.6g} {unit}  [{note}]")
        metrics = {name: {"value": layer[name][0], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        for name, (value, unit, note) in end_to_end.items():
            print(f"metric {name} = {value:.6g} {unit}  [{note}]")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in end_to_end.items()}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.csv.gz")
        replay_tracer.write(OUT / f"{stem}-replay-spans.csv.gz")
    summary = {"record": record, "counts": counts, "failures": failures, "metrics": metrics,
               "passes": [{k: p[k] for k in ("traced", "raw_s", "ref_s", "failed")}
                          for p in passes]}
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def layer_metrics(passes, tracer, pass_times, replay_tracer, replayed, stats, ref) -> dict:
    """Per-layer figures, each with a note on where it comes from. Span
    figures from the traced passes are per pass; replay figures cover one
    replay. Layers this workload never calls read 0."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    per_pass = {k: (c // len(traced), s / len(traced)) for k, (c, s) in pass_times.items()}
    m = {}
    for base in SPAN_LAYERS:
        if base in per_pass:
            calls, busy = per_pass[base]
            note = "self time per traced pass"
        elif base in replayed:
            calls, busy = replayed[base]
            note = "replay on the same inputs, outside the self-time sum"
        else:
            calls, busy, note = 0, 0.0, "not called by this workload"
        m[f"{base}.calls"] = (calls, note)
        m[f"{base}.busy_s"] = (busy, note)
    for base in ("graphs.is_claw_free", "graphs.is_connected"):
        calls = m[f"{base}.calls"][0]
        m[f"{base}.pass_ratio"] = (stats.get(f"{base}.passed", 0) / calls if calls else 0.0,
                                   "graphs passing / calls")
    for rule in ("standard", "psd"):
        base = f"solver.forcing_number.{rule}"
        tested = stats.get(f"{base}.tested", 0)
        calls, busy = m[f"{base}.calls"][0], m[f"{base}.busy_s"][0]
        m[f"{base}.tested"] = (tested, "SolverReport.tested summed")
        m[f"{base}.us_per_candidate"] = (busy * 1e6 / tested if tested else 0.0,
                                         "busy time / candidates tested")
        m[f"{base}.hit_ratio"] = (calls / tested if tested else 0.0,
                                  "searches (calls) / candidates tested")
    for name in ("reconnection.connected_complement_trace",
                 "verifier.run_corpus_enumerated.theorem",
                 "verifier.run_corpus_enumerated.monotonicity"):
        busy = per_pass.get(name, (0, 0.0))[1]
        m[f"{name}.busy_s"] = (busy, "self time per traced pass" if busy else
                               "not called by this workload")
    for name in ("reconnection.steps", "verifier.total", "verifier.claw_free",
                 "verifier.checked"):
        m[name] = (stats.get(name, 0), "per pass, from the outputs" if name in stats else
                   "not exercised by this workload")
    med = statistics.median
    if "cli.main" in replay_tracer.names:
        interp = med(replay_tracer.by_name("cli.interpreter", ref))
        note = "replay: median per call"
        m["cli.interpreter_ms"] = (interp * 1e3, "replay: median bare `python -c pass`")
        m["cli.import_ms"] = ((med(replay_tracer.by_name("cli.import", ref)) - interp) * 1e3,
                              "replay: median `python -c 'import zforcing.cli'` minus the above")
        m["cli.main_ms"] = (med(replay_tracer.by_name("cli.main", ref)) * 1e3, note)
        m["documents.render_ms"] = (med(replay_tracer.by_name("documents.render", ref)) * 1e3,
                                    note)
    else:
        for name in ("cli.interpreter_ms", "cli.import_ms", "cli.main_ms", "documents.render_ms"):
            m[name] = (0.0, "not exercised by this workload")
    overhead = med(p["ref_s"] for p in traced) / med(p["ref_s"] for p in plain)
    m["trace.overhead_ratio"] = (overhead, f"median traced / untraced pass time, "
                                           f"{len(traced)} and {len(plain)} passes")
    m["trace.coverage"] = (med(tracer.coverage(p["root"]) for p in traced),
                           "share of traced pass wall inside layer spans")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="zforcing benchmark")
    ap.add_argument("--workload", required=True, choices=["corpus", "solve", "connectify", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--probe-setup", action="store_true",
                    help="internal: time one set-up and print it as JSON")
    args = ap.parse_args(argv)
    if not (SRC / "zforcing" / "__init__.py").is_file():
        print(f"error: no zforcing sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        k = statistics.median(timed_kernel() for _ in range(5))
        w, setup_s = setup(args.workload, args.seed)
        print(json.dumps({"raw_s": setup_s, "ref_s": setup_s * REF_KERNEL_S / k,
                          "digest": w.digest()}))
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
