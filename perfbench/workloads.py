"""The three closed-loop workloads: inputs, one op, and its output check.

Every op calls the package's public API in-process and returns its
result; ``steps`` counts the partial quotients it processed and ``check``
tests its output, both outside the timed region.

* ``corpus``: ``golden.expand_pair(seed, +1, +-1)`` on admissible bound-3
  seeds.  Decision-bound: lattice rounding in ``choose_quotient`` and the
  interval layer below it dominate, and seeds with long preperiods form
  the tail.
* ``trajectory``: ``run_trajectory`` + ``qpair_states`` +
  ``triple_recursion`` along 60 random bounded quotients.  Exact ``K``
  arithmetic in ``step_state``; the interval layer is idle, so decision
  and interval changes should not move it.
* ``analyze``: ``okcf.cli.main(["analyze", ...])`` with 21 explicit
  quotients.  Tight interval enclosures and heights in ``diagnostics``
  and ``summarize``, plus the ``cli`` and ``parsing`` layers; ``golden``
  is idle.

Expansions and analyze outputs are checked against digests recorded in
``references.json``.  Those two workloads therefore draw their inputs
from a fixed pool made from ``POOL_SEED``; the workload seed picks and
orders the pool entries.  Corpus runs go round by round through cost
strata (the recorded step count), so every run sees the same mix of short
and long expansions whatever its seed.  Trajectory inputs need no
reference and are made from the workload seed directly.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

POOL_SEED = 20230422
CORPUS_POOL_SEEDS = 150  # x 2 conjugate branches
CORPUS_STRATUM = 10
ANALYZE_POOL = 160
ANALYZE_STEPS = 20
TRAJECTORY_QUOTIENTS = 60
TRAJECTORY_INPUTS = 400
REFERENCES = Path(__file__).with_name("references.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def corpus_key(seed: inputs.Seed, conj: int) -> str:
    return "|".join(map(inputs.fmt, seed)) + ("|+" if conj > 0 else "|-")


def corpus_pool() -> list[tuple[inputs.Seed, int]]:
    rng = random.Random(POOL_SEED)
    seeds: list[inputs.Seed] = []
    while len(seeds) < CORPUS_POOL_SEEDS:
        s = inputs.random_seed(rng)
        if s not in seeds:
            seeds.append(s)
    return [(s, conj) for s in seeds for conj in (1, -1)]


def analyze_argv(seed: inputs.Seed, quotients: list[inputs.Pair]) -> list[str]:
    # The "=" form: argparse rejects "--quotients -1-1*w,..." as a flag.
    return [
        "analyze", *map(inputs.fmt, seed), "-n", str(ANALYZE_STEPS),
        "--quotients=" + ",".join(map(inputs.fmt, quotients)), "--output", "json",
    ]


def analyze_key(argv: list[str]) -> str:
    return digest(" ".join(argv))


def analyze_pool() -> list[list[str]]:
    rng = random.Random(POOL_SEED + 1)
    return [
        analyze_argv(inputs.random_seed(rng), inputs.random_quotients(rng, ANALYZE_STEPS + 1))
        for _ in range(ANALYZE_POOL)
    ]


@dataclass
class Workload:
    name: str
    # (workload seed, references) -> run-order items; item 0 of seed 0 warms up.
    make: Callable[[int, dict], list]
    # item -> prepared op argument (built from the package just imported)
    prepare: Callable[[object], object]
    op: Callable[[object], object]
    check: Callable[[object, object], bool]
    steps: Callable[[object, object], int]
    # (arg, result) -> strings of the exact coefficients the op produced
    coeff_texts: Callable[[object, object], list[str]]


def _spec():
    from okcf.field import FieldSpec

    return FieldSpec(5)


def _poly(spec, seed: inputs.Seed):
    from okcf.quartic import QuadraticPolyK

    return QuadraticPolyK(*(spec.element(*c) for c in seed))


# -- corpus -------------------------------------------------------------


def corpus_make(seed: int, refs: dict) -> list:
    table = refs["corpus"]
    pool = sorted(corpus_pool(), key=lambda e: (table[corpus_key(*e)]["steps"], corpus_key(*e)))
    rng = random.Random(seed)
    strata = [pool[i : i + CORPUS_STRATUM] for i in range(0, len(pool), CORPUS_STRATUM)]
    for stratum in strata:
        rng.shuffle(stratum)
    order = []
    for r in range(CORPUS_STRATUM):
        round_ = [stratum[r] for stratum in strata if r < len(stratum)]
        rng.shuffle(round_)
        order.extend(round_)
    return [(s, conj, table[corpus_key(s, conj)]) for s, conj in order]


def corpus_prepare(item):
    seed, conj, ref = item
    return (_poly(_spec(), seed), conj, ref)


def corpus_op(arg):
    from okcf import golden

    poly, conj, _ = arg
    return golden.expand_pair(poly, 1, conj)


def corpus_check(arg, result) -> bool:
    return result.verified and digest(str(result.expansion)) == arg[2]["digest"]


# -- trajectory ---------------------------------------------------------


def trajectory_make(seed: int, refs: dict) -> list:
    rng = random.Random(seed)
    return [
        (inputs.random_seed(rng), inputs.random_quotients(rng, TRAJECTORY_QUOTIENTS))
        for _ in range(TRAJECTORY_INPUTS)
    ]


def trajectory_prepare(item):
    spec = _spec()
    seed, quotients = item
    return (spec, _poly(spec, seed), [spec.element(*q) for q in quotients])


def trajectory_op(arg):
    from okcf import cf, quartic

    spec, poly, quotients = arg
    states = quartic.run_trajectory(poly, 1, quotients)
    triples = [quartic.triple_recursion(poly, qp) for qp in cf.qpair_states(spec, quotients)]
    return states, triples


def trajectory_check(arg, result) -> bool:
    """Criterion 5: recursion triple = stepped triple, delta conserved,
    C_{n+1} = A_n, at every index."""
    _, poly, quotients = arg
    states, triples = result
    if len(states) != len(quotients) + 1 or len(triples) != len(quotients):
        return False
    for n, t in enumerate(triples):
        prev, cur = states[n].poly, states[n + 1].poly
        if (t.A, t.B, t.C) != (cur.A, cur.B, cur.C):
            return False
        if cur.delta != poly.delta or cur.C != prev.A:
            return False
    return True


# -- analyze ------------------------------------------------------------


def analyze_make(seed: int, refs: dict) -> list:
    table = refs["analyze"]
    order = analyze_pool()
    random.Random(seed).shuffle(order)
    return [(argv, table[analyze_key(argv)]) for argv in order]


def analyze_op(arg):
    from okcf import cli

    argv, _ = arg
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def analyze_check(arg, result) -> bool:
    code, stdout = result
    return code == 0 and digest(stdout) == arg[1]["digest"]


WORKLOADS = {
    "corpus": Workload(
        "corpus", corpus_make, corpus_prepare, corpus_op, corpus_check,
        lambda arg, result: result.steps,
        lambda arg, result: [str(x) for key in result.keys for x in key],
    ),
    "trajectory": Workload(
        "trajectory", trajectory_make, trajectory_prepare, trajectory_op, trajectory_check,
        lambda arg, result: len(arg[2]),
        lambda arg, result: [str(c) for s in result[0] for c in (s.poly.A, s.poly.B, s.poly.C)],
    ),
    "analyze": Workload(
        "analyze", analyze_make, lambda item: item, analyze_op, analyze_check,
        lambda arg, result: ANALYZE_STEPS + 1,
        lambda arg, result: [
            row[k] for row in json.loads(result[1])["rows"] for k in ("A_n", "B_n", "C_n")
        ],
    ),
}


def load_references(path: Path = REFERENCES) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)
