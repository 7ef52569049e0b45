"""Seeded mutation fuzz of every reader and the CLI: only GmkError may escape.

Mutants start from the documented examples and the files the pipeline
derives from them (oracle solution, reduction, reduced solution). A mutant
replaces or deletes JSON nodes, or damages the encoded bytes. Every reader
must accept it or raise ``GmkError``, and every CLI command must end in one
of the documented exit codes.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import random
import tempfile

from hypothesis import given, settings, strategies as st

from gmk import serialize
from gmk.cli import main
from gmk.errors import GmkError
from gmk.mkcp import solve_mkcp_exact
from gmk.oracle import brute_force_gmk
from gmk.reduction import reduce_instance

DOCS = pathlib.Path(__file__).resolve().parent.parent / "docs" / "examples"
EXIT_CODES = {0, 2, 3, 4}
READERS = (
    serialize.instance_from_dict,
    serialize.solution_from_dict,
    serialize.reduced_from_dict,
)


def _documents() -> list[dict]:
    docs = []
    # the instance examples; kp_2d.json is a knapsack file, which no reader here parses
    for path in sorted(DOCS.glob("*_micro.json")):
        raw = serialize.load_json(path)
        inst = serialize.instance_from_dict(raw)
        reduced = reduce_instance(inst)
        docs += [
            raw,
            serialize.solution_to_dict(brute_force_gmk(inst)),
            serialize.reduced_to_dict(reduced),
            serialize.reduced_solution_to_dict(solve_mkcp_exact(reduced)),
        ]
    return docs


DOCUMENTS = _documents()

SCALARS = [None, True, False, -1, 0, 1, 2, 3, 7, 12, -(2**63), 2**62, 2**64, 10**400, 0.5,
           float("inf"), float("nan"), "", "a", "b", "cam", "srv1", "bin", "a@1", "coverage"]


def _value(rng: random.Random, depth: int = 0):
    roll = rng.random()
    if depth < 2 and roll < 0.1:
        return [_value(rng, depth + 1) for _ in range(rng.randrange(3))]
    if depth < 2 and roll < 0.2:
        return {rng.choice(["a", "b", "1", "x"]): _value(rng, depth + 1) for _ in range(rng.randrange(3))}
    return rng.choice(SCALARS)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for index, child in enumerate(node):
            yield from _paths(child, prefix + (index,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(rng: random.Random, doc):
    """One to three edits; mostly small integers, so many mutants reach the solvers."""
    for _ in range(rng.randint(1, 3)):
        paths = list(_paths(doc))
        kind = rng.choice(["int", "int", "int", "value", "delete"])
        if kind == "int":
            paths = [p for p in paths if type(_at(doc, p)) is int] or paths
        path = rng.choice(paths)
        new = rng.randint(-1, 12) if kind == "int" else _value(rng)
        if not path:
            doc = new
            continue
        parent = _at(doc, path[:-1])
        if kind == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = new
    return doc


@st.composite
def mutants(draw):
    # hypothesis picks the seed; a plain Random then spreads the edits evenly
    # over the document, where hypothesis' own draws favour the first choices
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    blob = json.dumps(_mutate(rng, json.loads(json.dumps(rng.choice(DOCUMENTS))))).encode()
    if rng.random() < 0.2:
        # damage the encoding: truncate, or overwrite one byte
        cut = rng.randrange(len(blob))
        blob = blob[:cut] if rng.random() < 0.5 else blob[:cut] + bytes([rng.randrange(256)]) + blob[cut + 1 :]
    return blob


def _run(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main([str(a) for a in argv])


@settings(
    derandomize=True,
    database=None,
    max_examples=200,
    deadline=None,
)
@given(blob=mutants())
def test_mutants_raise_only_gmk_errors(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "mutant.json"
        path.write_bytes(blob)
        try:
            raw = serialize.load_json(path)
        except GmkError:
            raw = None
        if raw is not None:
            for reader in READERS:
                try:
                    reader(raw)
                except GmkError:
                    pass
        out = pathlib.Path(tmp) / "out.json"
        commands = [
            ("validate", path),
            ("validate", DOCS / "modular_micro.json", "--solution", path),
            ("reduce", "--in", path, "--out", out),
            ("solve", "--in", path, "--eps", "0.2", "--phi", "1", "--out", out),
            ("oracle", "--in", path, "--out", out),
            ("solve-mkcp", "--in", path, "--exact", "--out", out),
            ("solve-mkcp", "--in", path, "--greedy", "--out", out),
        ]
        for argv in commands:
            assert _run(*argv) in EXIT_CODES, argv
