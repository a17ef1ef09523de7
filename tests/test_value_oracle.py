"""`eval_periodic` values against an independent oracle: the convergents
P_n/Q_n of the expansion, built from its quotients alone with exact
integers in Z[w] and evaluated with mpmath at w = (1 + sqrt(5))/2 and, for
the sigma image, at w = (1 - sqrt(5))/2."""

from __future__ import annotations

import random

import pytest

mpmath = pytest.importorskip("mpmath")

from conftest import random_k  # noqa: E402
from okcf.cf import CFExpansion, eval_periodic  # noqa: E402
from okcf.field import FieldSpec, KElement  # noqa: E402
from okcf.golden import classify_seed, expand_pair  # noqa: E402
from okcf.parsing import parse_expansion  # noqa: E402
from okcf.quartic import QuadraticPolyK  # noqa: E402

K5 = FieldSpec(5)
DIGITS = 30
# Convergents stop once consecutive ones differ by less than this: 15
# digits of margin for the tail of the series past the last one.
STOP = mpmath.mpf(10) ** -(DIGITS + 15)
MAX_QUOTIENTS = 4000


def zw(a: KElement) -> tuple[int, int]:
    assert a.den == 1
    return a.p, a.q


def zw_step(a: tuple[int, int], x: tuple[int, int], prev: tuple[int, int]) -> tuple[int, int]:
    """a*x + prev in Z[w], where w^2 = w + 1."""
    (a0, a1), (x0, x1) = a, x
    return a0 * x0 + a1 * x1 + prev[0], a0 * x1 + a1 * x0 + a1 * x1 + prev[1]


def zw_value(x: tuple[int, int], w):
    return x[0] + x[1] * w


def mp_k(x: KElement):
    """The value of x in the embedding w = (1 + sqrt(5))/2."""
    w = (1 + mpmath.sqrt(5)) / 2
    return (x.p + x.q * w) / x.den


def convergent_limit(expansion: CFExpansion, sign: int):
    """P_n/Q_n at w = (1 + sign*sqrt(5))/2, for the first n at which
    |P_n/Q_n - P_(n-1)/Q_(n-1)| = 1/|Q_n*Q_(n-1)| falls below STOP.

    P and Q are exact; the working precision covers their digits, so the
    cancellation inside the conjugate embedding costs nothing."""
    p_prev, p = (0, 0), (1, 0)
    q_prev, q = (1, 0), (0, 0)
    for n in range(MAX_QUOTIENTS):
        a = zw(expansion.entry(n))
        p_prev, p = p, zw_step(a, p, p_prev)
        q_prev, q = q, zw_step(a, q, q_prev)
        if n % 8 or n == 0:
            continue
        size = max(abs(c) for c in (*p, *q, *q_prev))
        with mpmath.workdps(len(str(size)) + DIGITS + 30):
            w = (1 + sign * mpmath.sqrt(5)) / 2
            qn, qm = zw_value(q, w), zw_value(q_prev, w)
            if qn != 0 and qm != 0 and 1 / abs(qn * qm) < STOP:
                return +(zw_value(p, w) / qn)
    raise AssertionError(f"{expansion} did not converge within {MAX_QUOTIENTS} quotients")


def eval_value(expansion: CFExpansion):
    """eval_periodic's value, or None where it has none or where the
    convergents approach it only like 1/n: a double root makes the period
    matrix parabolic, and no quotient count reaches DIGITS."""
    res = eval_periodic(expansion)
    if res.double_root:
        return None
    if res.value is not None:
        v = res.value
        return mp_k(v.x) + mp_k(v.y) * mpmath.sqrt(mp_k(v.delta))
    if res.value_in_k is not None:
        return mp_k(res.value_in_k)
    return None


def assert_sides_agree(expansion: CFExpansion) -> int:
    """Compare both sides where eval_periodic gives a value; returns how
    many sides it compared."""
    compared = 0
    for image, sign in ((expansion, 1), (expansion.sigma(), -1)):
        with mpmath.workdps(DIGITS + 30):
            value = eval_value(image)
            if value is None:
                continue
            limit = convergent_limit(expansion, sign)
            assert abs(limit - value) <= mpmath.mpf(10) ** -DIGITS * max(1, abs(value)), (
                f"{image}: eval_periodic {mpmath.nstr(value, 40)}, "
                f"convergents {mpmath.nstr(limit, 40)}"
            )
        compared += 1
    return compared


@pytest.mark.parametrize("text", ["[1; 2]", "[; 2]", "[; 1]", "[3; 1, 2]", "[; 2, 4-2*w]"])
def test_classical_values(text):
    assert assert_sides_agree(parse_expansion(text, K5)) == 2


def test_random_periods():
    rng = random.Random(77)
    compared = 0
    for _ in range(40):
        pre = tuple(random_k(rng, K5, 3) for _ in range(rng.randint(0, 2)))
        per = tuple(random_k(rng, K5, 3) for _ in range(rng.randint(1, 4)))
        compared += assert_sides_agree(CFExpansion(K5, pre, per))
    assert compared >= 60


def test_pair_expansions():
    rng = random.Random(3)
    results = 0
    while results < 20:
        seed = QuadraticPolyK(*(random_k(rng, K5, 3, nonzero=True) for _ in range(3)))
        if classify_seed(seed) is not None:
            continue
        for conj in (1, -1):
            r = expand_pair(seed, 1, conj)
            assert assert_sides_agree(r.expansion) == 2
            results += 1
