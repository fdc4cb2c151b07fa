"""The document contract as one pinned sweep.

Seeded random graphs run through every CLI command in process, and each
command's documents, with elapsed_ms dropped, its stderr and its exit codes
hash to one digest. A change that alters any document, message or exit
code of a command fails that command's case. A change that alters
documents on purpose re-pins the digests it moves, and says which commands
changed and why.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from zforcing import from_edge_list, to_graph6
from zforcing.cli import main

DENSITIES = (0.25, 0.5, 0.75)


def _sample():
    """150 graphs with n = 2..12 at three densities, each with a random
    blue set and target vertex, all from one fixed seed."""
    rng = random.Random(24)
    out = []
    for i in range(150):
        n = 2 + i % 11
        p = DENSITIES[i % 3]
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        blue = sorted(rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 2))))
        out.append((n, to_graph6(from_edge_list(n, edges)),
                    ",".join(map(str, blue)), str(rng.randint(1, n))))
    return out


def _commands():
    """Each command's argument lists, in the order the sweep runs them."""
    commands = {name: [] for name in ("solve", "trace", "list", "bundle", "connectify",
                                      "improve", "claws", "perfect")}
    for i, (n, g6, blue, x) in enumerate(_sample()):
        graph = ["--graph6", g6]
        for rule in ("standard", "psd"):
            commands["solve"].append(["solve", "--rule", rule, "--cap", "5", *graph])
            for schedule in ("greedy", "lex"):
                commands["trace"].append(["trace", "--rule", rule, "--schedule", schedule,
                                          "--blue", blue, *graph])
            commands["list"].append(["list", "--rule", rule, "--blue", blue, *graph])
        commands["bundle"].append(["bundle", "--schedule", ("greedy", "lex")[i % 2],
                                   "--blue", blue, "--x", x, *graph])
        commands["connectify"].append(["connectify", *graph])
        commands["improve"].append(["improve", "--blue", blue, *graph] + ["--x", x] * (i % 2))
        commands["claws"].append(["claws", *graph])
        if n <= 6:
            commands["perfect"] += [["perfect", "--mode", mode, *graph]
                                    for mode in ("direct", "clawfree")]
    for mode, top in (("theorem", 8), ("monotonicity", 7), ("corollary", 6)):
        commands[f"verify {mode}"] = [["verify", "--mode", mode, "--enumerate", str(n)]
                                      for n in range(1, top + 1)]
    return commands


COMMANDS = _commands()

DIGESTS = {
    "solve": "6ce099b4d4143e763a987ec04c53db9abb66e3adb4355b462a63dffbd64cc380",
    "trace": "ad28ba1641c5a5956404f7b332b2d8145698bb63280ad13351364d0e631cd0a1",
    "list": "07fd7bf703c9f6042a2a820af48416df687c0237fcccfdc7b5704dc7093948fa",
    "bundle": "1cf05b715f45e3019c60df221f6721095829bae7ca39226b1d47f68f91dcf01f",
    "connectify": "110d4d1a77e170b3ded4c8a588f40c64bdb76479df291f50bbf8203d484578e7",
    "improve": "15fe78929b8c773561b2581169f009efe4b43db21924b1da65abc5a40a669365",
    "claws": "a9db35c3a560c2ba558e961034c2faf2e1357dcf946ef6b86f0681c5a70d8553",
    "perfect": "7444379c5799f8ada83d7ba4b8941ced1c84135f3c8b9bd5c1644475526086c4",
    "verify theorem": "94f840ec806626a580c41aa9cdc6550b54dd1ae7d72e31692bbfb6d3d02bddc3",
    "verify monotonicity": "154019bc584c0e6bb350e10526a23dcf7149aed565a0e7903b2d8b5a2b78b1ce",
    "verify corollary": "1fb70e8e699531302375028ea8d58e750118b87222d71b00dd4106ce5d4d962d",
}


def _drop_elapsed(doc):
    if isinstance(doc, dict):
        return {k: _drop_elapsed(v) for k, v in doc.items() if k != "elapsed_ms"}
    if isinstance(doc, list):
        return [_drop_elapsed(v) for v in doc]
    return doc


def sweep_digest(capsys, argvs) -> str:
    h = hashlib.sha256()
    for argv in argvs:
        code = main(argv)
        out, err = capsys.readouterr()
        if out.strip():
            out = json.dumps(_drop_elapsed(json.loads(out)), indent=2)
        h.update(json.dumps([argv, code, out, err]).encode())
    return h.hexdigest()


@pytest.mark.parametrize("command", list(COMMANDS))
def test_documents_pinned(capsys, command):
    assert sweep_digest(capsys, COMMANDS[command]) == DIGESTS[command]
