from __future__ import annotations

from dataclasses import fields
from fractions import Fraction

from okcf.intervals import (
    MAX_BITS,
    RealInterval,
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
    assert (a + b).contains(Fraction(0))
    assert (a * b).lo == -6 and (a * b).hi == -1
    assert abs(b).lo == 1 and abs(b).hi == 3
    assert a.max_with(Fraction(3, 2)).lo == Fraction(3, 2)
    two = RealInterval.point(2)
    s = two.sqrt(40)
    assert (s * s).contains(2)


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
