"""The growth law of the convergents of an ultimately periodic expansion,
as an exact identity in O_K.

With pre-period length k, period length L and R the product of the
period's quotient matrices, C_n = [[P_n, P_(n-1)], [Q_n, Q_(n-1)]] gives
C_(n+L) = C_n * R_n for n >= k - 1, where R_n is a cyclic rotation of R:
the same trace and determinant (-1)^L.  Cayley-Hamilton then gives
X_(n+2L) = tr(R) * X_(n+L) - (-1)^L * X_n for X = P, Q, so under each real
embedding |X_n| grows per period by the larger |eigenvalue| of R.

Covered, with tr(R) and det(R) read from `e_matrix`, which conjugates R by
the pre-period's matrix: the identity at every n from k through k + L
(three periods of convergents), det E = (-1)^L, tr E = tr R, and
E * C_(k-1) = C_(k+L-1), on the CLI tests' `eval` examples and on the
expansions of `okcf corpus` at bound 3 (rng seed 1), 12 (seed 7) and 40
(seed 11).  No runtime check is added for any of it.
"""

from __future__ import annotations

import random

import pytest

from okcf import cli
from okcf.cf import CFExpansion, Mat2, cf_matrix, convergents, e_matrix
from okcf.field import FieldSpec
from okcf.golden import MaxStepsError, SeedRejection, expand_pair
from okcf.parsing import parse_expansion

K5 = FieldSpec(5)

EVAL_EXAMPLES = [
    "[1; 2]", "[; 1, -1]", "[; 1]", "[; 2, -2]", "[; 2, 4-2*w]", "[2, 0, -1; 1, w]",
    "[1+1*w, -2, w; 2, 4-2*w]", "[; -2-1*w, -1-1*w, 2-1*w]",
]


def corpus_expansions(count: int, bound: int, rng_seed: int) -> list[CFExpansion]:
    """The expansions that `okcf corpus --count count --bound bound --seed
    rng_seed` finds, both conjugate branches of each seed."""
    rng = random.Random(rng_seed)
    counters = {reason.value: 0 for reason in SeedRejection}
    seeds = []
    while len(seeds) < count:
        seed = cli._sample_seed(rng, K5, bound, counters)
        if seed is not None:
            seeds.append(seed)
    out = []
    for seed in seeds:
        for conj in (1, -1):
            try:
                out.append(expand_pair(seed, 1, conj, max_steps=10_000).expansion)
            except MaxStepsError:
                pass
    return out


def matmul(a: Mat2, b: Mat2) -> Mat2:
    return Mat2(a.e11 * b.e11 + a.e12 * b.e21, a.e11 * b.e12 + a.e12 * b.e22,
                a.e21 * b.e11 + a.e22 * b.e21, a.e21 * b.e12 + a.e22 * b.e22)


def assert_growth_law(x: CFExpansion) -> int:
    """Check the law on x; the number of indices n checked."""
    k, period = len(x.preperiod), len(x.period)
    e = e_matrix(x)
    sign = (-1) ** period
    r = cf_matrix(x.spec, x.period)
    assert e.det() == r.det() == sign, x
    trace = e.e11 + e.e22
    assert trace == r.e11 + r.e22, x
    states = convergents(x, k + 3 * period)
    c = [Mat2(s.p_cur, s.p_prev, s.q_cur, s.q_prev) for s in states]
    before = c[k - 1] if k else Mat2.identity(x.spec)
    assert matmul(e, before) == c[k + period - 1], x
    for n in range(k, k + period + 1):
        for pick in (lambda s: s.p_cur, lambda s: s.q_cur):
            later, last = pick(states[n + period]), pick(states[n + 2 * period])
            assert last == trace * later - sign * pick(states[n]), (x, n)
    return period + 1


def test_growth_law_on_the_eval_examples():
    for text in EVAL_EXAMPLES:
        assert_growth_law(parse_expansion(text, K5))


@pytest.mark.parametrize("count, bound, rng_seed", [(25, 3, 1), (20, 12, 7), (6, 40, 11)])
def test_growth_law_on_corpus_expansions(count, bound, rng_seed):
    expansions = corpus_expansions(count, bound, rng_seed)
    assert len(expansions) == 2 * count
    assert sum(map(assert_growth_law, expansions)) > 2 * count
