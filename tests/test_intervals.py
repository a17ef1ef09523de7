from __future__ import annotations

import operator
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from okcf.intervals import (
    MAX_BITS,
    RealInterval,
    dyadic_floats,
    dyadic_interval,
    dyadic_mid_float,
    effective_bits,
    round_down,
    round_up,
    sqrt_down,
    sqrt_up,
)


def test_rounding_is_outward_and_dyadic():
    q = Fraction(1, 3)
    lo, hi = round_down(q, 10), round_up(q, 10)
    assert lo <= q <= hi
    assert lo.denominator & (lo.denominator - 1) == 0
    assert hi - lo <= Fraction(1, 1 << 10)
    assert round_down(Fraction(3, 2), 4) == round_up(Fraction(3, 2), 4) == Fraction(3, 2)


def test_sqrt_bounds_bracket():
    for n in (2, 5, 7, 1234567):
        q = Fraction(n)
        lo, hi = sqrt_down(q, 32), sqrt_up(q, 32)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(2, 1 << 32)
    assert sqrt_down(Fraction(9), 8) == 3 == sqrt_up(Fraction(9), 8)


def test_interval_arithmetic_contains():
    a = RealInterval.of(Fraction(1), Fraction(2))
    b = RealInterval.of(Fraction(-3), Fraction(-1))
    assert (a + b).lo <= 0 <= (a + b).hi
    assert (a * b).lo == -6 and (a * b).hi == -1
    assert abs(b).lo == 1 and abs(b).hi == 3
    assert a.max_with(Fraction(3, 2)).lo == Fraction(3, 2)
    two = RealInterval.point(2)
    s = two.sqrt(40)
    assert (s * s).lo <= 2 <= (s * s).hi


def test_operations_are_the_hull_of_their_corners():
    # +, -, * and max are monotone or bilinear in each operand, so the
    # tightest enclosure is the hull of their values at the corners; an
    # int or Fraction operand is its point interval.
    rng = random.Random(37)

    def rational() -> Fraction:
        return Fraction(rng.randint(-20, 20), rng.randint(1, 8))

    def hull(op, a: RealInterval, b: RealInterval) -> RealInterval:
        values = [op(x, y) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        return RealInterval.of(min(values), max(values))

    for _ in range(300):
        a = RealInterval.of(*sorted((rational(), rational())))
        for b in (RealInterval.of(*sorted((rational(), rational()))), rng.randint(-5, 5),
                  rational()):
            box = b if isinstance(b, RealInterval) else RealInterval.point(b)
            assert a + b == hull(operator.add, a, box)
            assert a - b == hull(operator.sub, a, box)
            assert a * b == hull(operator.mul, a, box) == b * a
            assert a.max_with(b) == hull(max, a, box)
        ends = (abs(a.lo), abs(a.hi))
        assert abs(a) == RealInterval.of(0 if a.lo <= 0 <= a.hi else min(ends), max(ends))
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(a, 1.5)


def test_point_and_sign():
    p = RealInterval.point(Fraction(5, 8))
    assert p.precision_bits == MAX_BITS
    assert p.sign == 1
    assert RealInterval.point(0).sign == 0
    assert RealInterval.of(Fraction(-1), Fraction(1)).sign is None


def test_interval_is_its_endpoints():
    # Precision is derived from the endpoints when asked for, never stored.
    assert [f.name for f in fields(RealInterval)] == ["lo", "hi"]
    for lo, hi in [(Fraction(1), Fraction(2)), (Fraction(-5, 3), Fraction(7)),
                   (Fraction(3), Fraction(3) + Fraction(1, 1 << 70))]:
        iv = RealInterval.of(lo, hi)
        assert iv == RealInterval(lo, hi)
        assert iv.precision_bits == effective_bits(lo, hi)
    assert RealInterval.of(Fraction(1), Fraction(1)).precision_bits == MAX_BITS



def converted(convert):
    """`convert()` as a repr, so that -0.0 differs from 0.0, or the text
    of the OverflowError it raises."""
    try:
        return repr(convert())
    except OverflowError as exc:
        return f"OverflowError: {exc}"


def assert_floats_match_the_fractions(m):
    iv = dyadic_interval(m)
    via_fractions = converted(lambda: [float(iv.lo), float(iv.hi)])
    assert converted(lambda: dyadic_floats(m)) == via_fractions, m
    assert converted(lambda: dyadic_mid_float(m)) == converted(lambda: float(iv)), m


def float_cases(rng):
    """Triples with signed mantissas up to 4000 bits and exponents up to
    20000, then endpoints placed around the binary64 limits: the smallest
    normal 2^-1022, subnormals down to 2^-1074, values that round to 0,
    and values near 2^1024, where a float overflows."""
    for _ in range(3000):
        bits = rng.randint(0, 4000)
        lo = rng.getrandbits(bits) * rng.choice((1, -1))
        yield lo, lo + rng.getrandbits(rng.randint(0, bits)), rng.randint(0, 20000)
    for bits in (1, 2, 53, 54, 64, 1000, 4000):
        for power in (-1078, -1076, -1075, -1074, -1073, -1060, -1023, -1022, 1022, 1023):
            top = 1 << (bits - 1)
            for m in (top, top + 1, top | rng.getrandbits(bits - 1), (top << 1) - 1):
                e = bits - 1 - power
                if e < 0:
                    m, e = m << -e, 0
                yield m, m, e
                yield -m, m, e


def test_floats_from_the_triple_match_the_fraction_endpoints():
    rng = random.Random(1414)
    seen = {"zero": 0, "subnormal": 0, "normal": 0, "overflow": 0}
    for m in float_cases(rng):
        assert_floats_match_the_fractions(m)
        try:
            endpoints = dyadic_floats(m)
        except OverflowError:
            seen["overflow"] += 1
            continue
        for x in endpoints:
            seen["zero" if x == 0 else "subnormal" if abs(x) < 2.0 ** -1022 else "normal"] += 1
    assert min(seen.values()) >= 50, seen


def test_an_overflowing_endpoint_raises_the_same_error_both_ways():
    for m in [(1 << 1024, 1 << 1024, 0), (-(1 << 4000), 0, 10), (0, (1 << 4000) - 1, 2976)]:
        assert_floats_match_the_fractions(m)
        with pytest.raises(OverflowError, match="too large for a float"):
            dyadic_floats(m)
