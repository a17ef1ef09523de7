"""Each operation of the certified float filter in `okcf.golden` against exact
`Fraction` arithmetic.

An operand is an enclosure (v, e) together with a true value t, |t - v| <=
e; the result's enclosure must hold the exact result of the true values.
Operands range from subnormal to 2^900 (2^500 where a product or a
quotient could overflow, and a divisor from 2^-500), with bounds from 0 to 2^-10 * |v|.  Exact operands (e = 0)
whose result rounds, or underflows, check the rounding term u*|v| and the
underflow term of each operation on its own: with either missing the
result's bound is 0 where the result is not exact.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from okcf.golden import _Abstain, _add, _div, _int, _mul, _sqrt, _sub

SAMPLES = 400


def assert_holds(enclosure, exact: Fraction) -> None:
    v, e = enclosure
    assert math.isfinite(v) and math.isfinite(e)
    assert abs(exact - Fraction(v)) <= Fraction(e), (enclosure, exact)


def operand(rng: random.Random, max_exp: int, min_exp: int = -1074):
    """((v, e), t): a float of random sign and exponent, a bound of 0 or
    2^-k * |v|, and a true value at a random place within the bound."""
    v = math.ldexp(rng.uniform(0.5, 1.0), rng.randint(min_exp, max_exp)) * rng.choice((-1, 1))
    e = rng.choice((0.0, 0.0, abs(v) * 2.0**-rng.randint(10, 60)))
    t = Fraction(v) + Fraction(e) * rng.choice((-1, 0, 1, Fraction(1, 3), Fraction(-5, 7)))
    return (v, e), t


# (a, b) exact operands whose result rounds; (a, b) whose result underflows.
ROUNDING = [(1.0, 2.0**-60), (1.0 + 2.0**-52, 1.0 + 2.0**-52), (1.0, 3.0), (2.0**600, 3.0**-300),
            (0.1, 0.7), (-7.0, 2.0**-70)]
UNDERFLOW = [(2.0**-600, 2.0**-600), (2.0**-1000, 0.75), (3.0 * 2.0**-1070, 1 / 3)]


def test_int_holds_integers_of_every_size():
    rng = random.Random(2310)
    ns = [2**53 + 1, -(2**53 + 1), 2**64 + 3, 3**600]
    ns += [rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 1020)) for _ in range(SAMPLES)]
    for n in ns:
        assert_holds(_int(n), Fraction(n))


@pytest.mark.parametrize("op, exact", [(_add, lambda a, b: a + b), (_sub, lambda a, b: a - b)])
def test_sums_hold(op, exact):
    rng = random.Random(2311)
    for a, b in ROUNDING:
        assert_holds(op((a, 0.0), (b, 0.0)), exact(Fraction(a), Fraction(b)))
    for _ in range(SAMPLES):
        (a, ta), (b, tb) = operand(rng, 900), operand(rng, 900)
        assert_holds(op(a, b), exact(ta, tb))


def test_products_hold():
    rng = random.Random(2312)
    for a, b in ROUNDING + UNDERFLOW:
        assert_holds(_mul((a, 0.0), (b, 0.0)), Fraction(a) * Fraction(b))
    for _ in range(SAMPLES):
        (a, ta), (b, tb) = operand(rng, 500), operand(rng, 500)
        assert_holds(_mul(a, b), ta * tb)


def test_quotients_hold_or_abstain():
    rng = random.Random(2313)
    for a, b in ROUNDING + UNDERFLOW:
        assert_holds(_div((a, 0.0), (1 / b, 0.0)), Fraction(a) / Fraction(1 / b))
    abstained = 0
    for _ in range(SAMPLES):
        # A divisor from 2^-500 on, so that no quotient overflows.
        (a, ta), (b, tb) = operand(rng, 500), operand(rng, 500, -500)
        if rng.random() < 0.1:
            b = (b[0], abs(b[0]) * rng.uniform(0.4, 0.6))
        try:
            q = _div(a, b)
        except _Abstain:
            abstained += 1
            assert not 2 * b[1] < abs(b[0])
            continue
        assert_holds(q, ta / tb)
    assert abstained


def test_square_roots_hold_or_abstain():
    rng = random.Random(2314)
    # sqrt(v) of an exact v: a bound of 0 holds only for a perfect square.
    for a in (2.0, 3.0, 0.1, 2.0**-1073, 2.0**901, 1.0 + 2.0**-52):
        v, e = _sqrt((a, 0.0))
        lo, hi = max(Fraction(v) - Fraction(e), Fraction(0)), Fraction(v) + Fraction(e)
        assert lo * lo <= Fraction(a) <= hi * hi, a
    for _ in range(SAMPLES):
        (a, ta) = operand(rng, 900)
        a, ta = (abs(a[0]), a[1]), abs(ta)
        if rng.random() < 0.1:
            a = (a[0], a[0])
        try:
            v, e = _sqrt(a)
        except _Abstain:
            assert not a[1] < a[0]
            continue
        lo, hi = max(Fraction(v) - Fraction(e), Fraction(0)), Fraction(v) + Fraction(e)
        assert lo * lo <= ta <= hi * hi, (a, ta)
