"""Command line front end.

One subcommand per library operation; every run writes a single JSON
document to stdout and diagnostics to stderr. Exit status 0 on success,
1 when a verify mode's mandatory check fails, 2 on usage or input
errors, 3 on an internal error. Graph input precedence: --graph6
string, else --edges file, else standard input (edge-list format except
for verify, which reads graph6 lines).

Handlers import the modules that only they use, so that a cold process
compiles no more of the package than its command runs.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import documents as docs
from .graphs import (Graph, components, find_claws, is_claw_free,
                     parse_edge_list, parse_graph6)
from .forcing import Rule, chronological_list, closure, expansion_sequence


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zforcing",
        description="Exact standard and psd zero forcing on small graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_opts(p):
        p.add_argument("--graph6", help="graph as one graph6 line")
        p.add_argument("--edges", help="path to an edge-list file ('n m' header, 1-based)")

    p = sub.add_parser("solve", help="minimum forcing set size and witness")
    graph_opts(p)
    p.add_argument("--rule", choices=["standard", "psd"], default="psd")
    p.add_argument("--cap", type=int, metavar="K",
                   help="also list up to K minimum sets")

    p = sub.add_parser("trace", help="closure run from a blue set")
    graph_opts(p)
    p.add_argument("--rule", choices=["standard", "psd"], default="psd")
    p.add_argument("--blue", required=True, help="comma list of 1-based labels")
    p.add_argument("--schedule", choices=["greedy", "lex"], default="greedy")

    p = sub.add_parser("list", help="one-force-per-step chronological list")
    graph_opts(p)
    p.add_argument("--rule", choices=["standard", "psd"], default="psd")
    p.add_argument("--blue", required=True, help="comma list of 1-based labels")
    p.set_defaults(schedule="lex")  # list is trace under the lex schedule

    p = sub.add_parser("bundle", help="path bundle and terminus toward a vertex")
    graph_opts(p)
    p.add_argument("--blue", required=True, help="comma list of 1-based labels")
    p.add_argument("--x", required=True, type=int, help="target vertex, 1-based")
    p.add_argument("--schedule", choices=["greedy", "lex"], default="greedy")

    p = sub.add_parser("connectify",
                       help="minimum psd forcing set with connected complement")
    graph_opts(p)

    p = sub.add_parser("improve", help="one component-enlargement step")
    graph_opts(p)
    p.add_argument("--blue", required=True,
                   help="the psd forcing set, comma list of 1-based labels")
    p.add_argument("--x", type=int,
                   help="1-based vertex naming the component of g-s to grow "
                        "(default: largest component)")

    p = sub.add_parser("claws", help="list induced claws")
    graph_opts(p)

    p = sub.add_parser("perfect", help="equal forcing numbers on every induced subgraph")
    graph_opts(p)
    p.add_argument("--mode", choices=["direct", "clawfree"], default="direct")

    p = sub.add_parser("verify", help="corpus run")
    graph_opts(p)
    p.add_argument("--mode", choices=list(docs.MODES), default="theorem")
    p.add_argument("--enumerate", type=int, metavar="N", dest="enumerate_n",
                   help="run over all labeled graphs on N vertices")
    return parser


def _load_graph(args) -> Graph:
    if args.graph6 is not None:
        return parse_graph6(args.graph6)
    if args.edges is not None:
        with open(args.edges) as fh:
            return parse_edge_list(fh.read())
    return parse_edge_list(sys.stdin.read())


def _parse_blue(spec: str, n: int) -> int:
    try:
        labels = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise ValueError(f"--blue {spec!r} is not a comma list of ints") from None
    if not labels:
        raise ValueError("--blue must name at least one vertex")
    return docs.mask_from_labels(labels, n)


def _check_vertex(x: int, n: int) -> int:
    if not 1 <= x <= n:
        raise ValueError(f"vertex {x} outside labels 1..{n}")
    return x - 1


def _cmd_solve(args):
    from .solver import _minimum_sets, forcing_number
    g = _load_graph(args)
    if args.cap is not None and args.cap < 1:  # before the search, however long
        raise ValueError("cap must be at least 1")
    report = forcing_number(g, Rule(args.rule))
    sets = None
    if args.cap is not None:
        sets = _minimum_sets(g, Rule(args.rule), report.value, args.cap)
    return docs.solve_document(g.n, report, sets), 0


def _run_schedule(g: Graph, blue: int, rule: Rule, schedule: str):
    """(chronology, expansion) of the greedy closure or the lex list."""
    if schedule == "greedy":
        return closure(g, blue, rule)
    chron = chronological_list(g, blue, rule)
    return chron, expansion_sequence(chron)


def _cmd_trace(args):
    g = _load_graph(args)
    blue = _parse_blue(args.blue, g.n)
    chron, expansion = _run_schedule(g, blue, Rule(args.rule), args.schedule)
    return docs.trace_document(args.command, g.n, chron, expansion, args.schedule), 0


def _cmd_bundle(args):
    from .bundles import build_bundle, terminus
    g = _load_graph(args)
    blue = _parse_blue(args.blue, g.n)
    x = _check_vertex(args.x, g.n)
    chron, _ = _run_schedule(g, blue, Rule.PSD, args.schedule)
    bundle = build_bundle(g, chron, x)
    term = terminus(g, chron, bundle)
    return docs.bundle_document(g.n, blue, args.schedule, bundle, term), 0


def _cmd_connectify(args):
    from .reconnection import connected_complement_trace
    g = _load_graph(args)
    start = time.perf_counter()
    final, steps = connected_complement_trace(g)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    connected = len(components(g, g.full_mask & ~final)) <= 1
    return docs.connectify_document(g.n, final, steps, connected, elapsed_ms), 0


def _cmd_improve(args):
    from .reconnection import improve_component
    g = _load_graph(args)
    s = _parse_blue(args.blue, g.n)
    comps = components(g, g.full_mask & ~s)
    if not comps:
        raise ValueError("g - s has no vertices")
    if args.x is None:
        c = max(comps, key=lambda m: m.bit_count())
    else:
        x = _check_vertex(args.x, g.n)
        matches = [m for m in comps if m >> x & 1]
        if not matches:
            raise ValueError(f"vertex {args.x} is not in g - s")
        c = matches[0]
    result = improve_component(g, s, c)
    return docs.improve_document(g.n, s, c, result), 0


def _cmd_claws(args):
    g = _load_graph(args)
    return docs.claws_document(g.n, find_claws(g)), 0


def _cmd_perfect(args):
    g = _load_graph(args)
    if args.mode == "direct":
        from .verifier import is_zz_perfect_direct
        perfect = is_zz_perfect_direct(g)
    else:
        perfect = is_claw_free(g)
    return docs.perfect_document(g.n, args.mode, perfect), 0


def _iter_graph6_lines(lines):
    for line in lines:
        line = line.strip()
        if line:
            yield parse_graph6(line)


def _cmd_verify(args):
    from .verifier import run_corpus, run_corpus_enumerated
    start = time.perf_counter()
    if args.enumerate_n is not None:
        source = f"enumerate:{args.enumerate_n}"
        summary = run_corpus_enumerated(args.enumerate_n, args.mode)
    elif args.graph6 is not None:
        source = "graph6"
        summary = run_corpus([parse_graph6(args.graph6)], args.mode)
    elif args.edges is not None:
        source = args.edges
        with open(args.edges) as fh:
            summary = run_corpus(_iter_graph6_lines(fh), args.mode)
    else:
        source = "stdin"
        summary = run_corpus(_iter_graph6_lines(sys.stdin), args.mode)
    elapsed_ms = (time.perf_counter() - start) * 1e3
    doc = docs.verify_document(summary, source, elapsed_ms=elapsed_ms)
    return doc, (1 if summary.failures else 2 if summary.errors else 0)


_HANDLERS = {
    "solve": _cmd_solve,
    "trace": _cmd_trace,
    "list": _cmd_trace,
    "bundle": _cmd_bundle,
    "connectify": _cmd_connectify,
    "improve": _cmd_improve,
    "claws": _cmd_claws,
    "perfect": _cmd_perfect,
    "verify": _cmd_verify,
}


def _drop(stream) -> None:
    """Send what is still buffered for a stream whose reader went away to
    devnull, so that the interpreter's flush at exit does not fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _report(text: str) -> None:
    """Print a diagnostic to stderr, which may share stdout's closed pipe."""
    try:
        print(text, file=sys.stderr)
    except BrokenPipeError:
        _drop(sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        doc, code = _HANDLERS[args.command](args)
    except (ValueError, OSError) as exc:
        _report(f"error: {exc}")
        return 2
    except Exception as exc:  # a crash must not read as a verify failure
        import traceback  # only on this path, to keep start-up lean
        _report(f"{traceback.format_exc()}internal error: {type(exc).__name__}: {exc}")
        return 3
    try:
        print(json.dumps(doc, indent=2))
    except BrokenPipeError as exc:
        _drop(sys.stdout)
        _report(f"error: {exc}")
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
