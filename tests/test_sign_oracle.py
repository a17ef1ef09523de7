"""The exact signs of `okcf.field` and the exact floors and ceilings of
`okcf.golden.RealPair` against an independent oracle: the value evaluated
with mpmath at 300 digits, from the rational coordinates alone."""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

mpmath = pytest.importorskip("mpmath")

from conftest import random_k  # noqa: E402
from okcf import golden  # noqa: E402
from okcf.field import (  # noqa: E402
    FieldSpec,
    KElement,
    SurdElement,
    sign_of,
    surd_sign,
    surd_sum_sign,
)
from okcf.golden import RealPair, classify_seed, expand_pair, lattice_coords  # noqa: E402
from okcf.quartic import QuadraticPolyK  # noqa: E402
from test_field import k_near_ties, surd_near_ties  # noqa: E402
from test_golden import pair_cases  # noqa: E402

DIGITS = 300
# Far below any value tested here (the closest ties are about 2^-200) and
# far above the 300-digit rounding error.
DECISIVE = mpmath.mpf(10) ** -(DIGITS - 40)


def mp_k(x: KElement):
    d = x.spec.d
    w = (1 + mpmath.sqrt(d)) / 2 if d % 4 == 1 else mpmath.sqrt(d)
    a, b = x.a, x.b
    return mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(b.numerator) / b.denominator * w


def mp_sign(value) -> int:
    assert abs(value) > DECISIVE, "the oracle cannot decide a value this close to 0"
    return 1 if value > 0 else -1


def surd_oracle(x: KElement, y: KElement, delta: KElement) -> int:
    return mp_sign(mp_k(x) + mp_k(y) * mpmath.sqrt(mp_k(delta)))


def sum_oracle(x, y1, delta1, y2, delta2) -> int:
    return mp_sign(
        mp_k(x) + mp_k(y1) * mpmath.sqrt(mp_k(delta1)) + mp_k(y2) * mpmath.sqrt(mp_k(delta2))
    )


@pytest.fixture(autouse=True)
def precision():
    with mpmath.workdps(DIGITS):
        yield


def positive_deltas(spec: FieldSpec) -> list[KElement]:
    w = spec.omega
    return [spec.element(2), spec.element(3), w + 5, 6 - w, spec.element(Fraction(7, 3), 1)]


def mp_k_sign(x: KElement) -> int:
    return mp_sign(mp_k(x))


def test_k_signs_random():
    rng = random.Random(11)
    for d in (5, 2, 13):
        spec = FieldSpec(d)
        for _ in range(300):
            x = random_k(rng, spec, bound=rng.choice((5, 10**6, 10**30)),
                         integral=rng.random() < 0.5, nonzero=True)
            assert sign_of(x) == mp_k_sign(x)


def test_k_near_ties(k5):
    for spec in (k5, FieldSpec(2), FieldSpec(13)):
        for x in k_near_ties(spec):
            assert sign_of(x) == mp_k_sign(x)
            assert sign_of(-x) == -mp_k_sign(x)


def test_surd_signs_random(k5):
    rng = random.Random(12)
    for delta in positive_deltas(k5):
        for _ in range(150):
            x = random_k(rng, k5, bound=1000, integral=False)
            y = random_k(rng, k5, bound=1000, integral=False, nonzero=True)
            assert surd_sign(x, y, delta) == surd_oracle(x, y, delta)
            assert sign_of(SurdElement(k5, delta, x, y)) == surd_oracle(x, y, delta)


def test_surd_near_ties(k5):
    for u in surd_near_ties(k5):
        expected = surd_oracle(u.x, u.y, u.delta)
        assert surd_sign(u.x, u.y, u.delta) == expected
        assert sign_of(u) == expected


def test_surd_sum_signs_random(k5):
    rng = random.Random(13)
    deltas = positive_deltas(k5)
    for _ in range(300):
        delta1, delta2 = rng.sample(deltas, 2)
        x = random_k(rng, k5, bound=1000, integral=False)
        y1 = random_k(rng, k5, bound=1000, integral=False)
        y2 = random_k(rng, k5, bound=1000, integral=False, nonzero=True)
        assert surd_sum_sign(x, y1, delta1, y2, delta2) == sum_oracle(x, y1, delta1, y2, delta2)


def test_surd_sum_near_ties(k5):
    # sqrt(2) + sqrt(3) - r for dyadics r within 2^-199 of it, from below and
    # above, plus Pell near-ties of sqrt(2) offset by a multiple of sqrt(3).
    scale = 1 << 200
    s2, s3 = isqrt(2 * scale * scale), isqrt(3 * scale * scale)
    two, three = k5.element(2), k5.element(3)
    cases = []
    for r in (s2 + s3 - 1, s2 + s3, s2 + s3 + 1, s2 + s3 + 2):
        cases.append((k5.element(Fraction(-r, scale)), k5.one, two, k5.one, three))
    for u in surd_near_ties(k5):
        # x + y*sqrt(2) within 2^-80 of 0, plus a smaller c*sqrt(3) of
        # either sign.
        for c in (Fraction(1, 1 << 90), Fraction(-1, 1 << 90)):
            cases.append((u.x, u.y, two, k5.element(c), three))
    for x, y1, d1, y2, d2 in cases:
        expected = sum_oracle(x, y1, d1, y2, d2)
        assert surd_sum_sign(x, y1, d1, y2, d2) == expected
        assert surd_sum_sign(-x, -y1, d1, -y2, d2) == -expected


# -- RealPair.floor and ceil ---------------------------------------------

# A corpus-style pool: admissible seeds with coefficients a + b*w,
# |a|, |b| <= 3, each expanded on both conjugate branches.
POOL_SEEDS = 150
POOL_RNG_SEED = 20240611


def mp_surd(u: SurdElement):
    return mp_k(u.x) + mp_k(u.y) * mpmath.sqrt(mp_k(u.delta))


def mp_pair(pair: RealPair):
    return mp_surd(pair.u) + mp_surd(pair.v)


def oracle_floor_ceil(pair: RealPair) -> tuple[int, int]:
    value = mp_pair(pair)
    n = int(mpmath.nint(value))
    if abs(value - n) <= DECISIVE:
        # Every value here is algebraic of degree <= 8 with small
        # coefficients; one that is not an integer lies far farther than
        # 10^-260 from each integer, so this one is the integer n.
        return n, n
    n = int(mpmath.floor(value))
    return n, n + 1


def pool_seeds(k5: FieldSpec) -> list[QuadraticPolyK]:
    rng = random.Random(POOL_RNG_SEED)
    seeds: list[QuadraticPolyK] = []
    while len(seeds) < POOL_SEEDS:
        a, b, c = (k5.element(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
        if a.is_zero:
            continue
        seed = QuadraticPolyK(a, b, c)
        if seed not in seeds and classify_seed(seed) is None:
            seeds.append(seed)
    return seeds


def test_floor_ceil_on_every_corpus_step(k5, monkeypatch):
    # Every state that chooses a quotient, through the chooser behind
    # expand_pair.
    steps = []
    choose = golden._choose

    def recording(spec, state, t, roots, index):
        steps.append(lattice_coords(golden._pair_state(spec, state, t, index)))
        return choose(spec, state, t, roots, index)

    monkeypatch.setattr(golden, "_choose", recording)
    for seed in pool_seeds(k5):
        for conj in (1, -1):
            expand_pair(seed, 1, conj)
    assert len(steps) > 1000
    for x, y in steps:
        for pair in (x, y):
            assert (pair.floor(), pair.ceil()) == oracle_floor_ceil(pair)


def test_floor_ceil_near_integers(k5):
    # Random pairs, the dyadic near-integers of sqrt(2) + sqrt(3), the Pell
    # near-integers n + (1 - sqrt(2))^k and the exact cases of the pair tests.
    unlinked = QuadraticPolyK(k5.one, k5.omega, -k5.one)
    for pair, _, floor, ceil in pair_cases(k5, unlinked):
        assert (pair.floor(), pair.ceil()) == (floor, ceil) == oracle_floor_ceil(pair)
