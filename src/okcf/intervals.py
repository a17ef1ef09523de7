"""Dyadic interval arithmetic used for real-embedding evaluation.

Enclosures are computed on integer mantissas.  The producers (the
embeddings of `okcf.field`, the error-term and height enclosures of
`okcf.quartic`) work on a `Dyadic` triple (lo_m, hi_m, e), the interval
[lo_m/2^e, hi_m/2^e]: outward rounding and square roots are floor and
ceil shifts of a mantissa, and the precision test is `dyadic_bits`.  The
heights and summaries use the helpers below.  The embedding kernel of
`okcf.field` writes its product, sum, rounding and precision test out
on its integers.  A `Fraction` is built only for a caller that asks for
a `RealInterval` (`dyadic_interval`); display divides its floats from
the triple (`dyadic_floats`, `dyadic_mid_float`).  Every endpoint keeps
its exact value.

A `RealInterval` is its two endpoints and nothing more.  They are kept
as exact `Fraction` values; constructors and the rounding helpers keep
them dyadic (denominator a power of two), so every interval is an exact,
machine-checkable enclosure of the real it stands for.  Its precision is
derived from the endpoints when asked for, never stored.  Intervals
serve display and report enclosures (heights, error terms, decimal
output); signs and floors are decided exactly by squaring in
`okcf.field`, and the expansion builds no interval, so only display and
reports can raise `PrecisionError`.  Every enclosure that must reach a
requested width comes from a loop that doubles its bits by `_next_level`
up to MAX_BITS: the integer loops of the `okcf.field` embeddings and of
`quartic._tight_abs_m`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

DEFAULT_BITS = 64
MAX_BITS = 1 << 16

_ZERO = Fraction(0)
_ONE = Fraction(1)

# (lo_m, hi_m, e): the interval [lo_m / 2^e, hi_m / 2^e].
Dyadic = tuple[int, int, int]


class PrecisionError(ArithmeticError):
    """An enclosure did not reach its requested width within MAX_BITS.

    Raised only by `_next_level`, the doubling rule of the enclosure loops
    of `okcf.field` and `okcf.quartic`, which serve display and report
    enclosures (an embedding at a requested precision, a relative
    enclosure of an error term); the expansion builds no interval, and
    its sign and floor decisions never refine, because those are exact
    squarings.  Reaching the cap signals an internal inconsistency
    rather than a recoverable numeric condition.
    """


def _next_level(bits: int) -> int:
    """The bits after a level at `bits` that was not accepted: the rule
    by which the enclosure loops of `okcf.field` and `okcf.quartic`
    double."""
    if bits >= MAX_BITS:
        raise PrecisionError(f"no enclosure reached the requested width by {bits} bits")
    return 2 * bits


def round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def sqrt_down(x: Fraction, bits: int) -> Fraction:
    """Dyadic lower bound for sqrt(x) with `bits` fractional bits."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator), scale)


def sqrt_up(x: Fraction, bits: int) -> Fraction:
    """Dyadic upper bound for sqrt(x) with `bits` fractional bits."""
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = -((-x.numerator * scale * scale) // x.denominator)
    r = isqrt(n)
    if r * r < n:
        r += 1
    return Fraction(r, scale)


def effective_bits(lo: Fraction, hi: Fraction) -> int:
    """Largest p with width <= 2^(1-p) * max(1, |lo|), capped at MAX_BITS."""
    width = hi - lo
    if width == 0:
        return MAX_BITS
    ratio = 2 * max(_ONE, abs(lo)) / width
    if ratio < 2:
        return 1
    p = (ratio.numerator // ratio.denominator).bit_length() - 1
    return min(p, MAX_BITS)


def _floor_shift(m: int, k: int) -> int:
    """floor(m * 2^k)."""
    return m << k if k >= 0 else m >> -k


def _ceil_shift(m: int, k: int) -> int:
    """ceil(m * 2^k)."""
    return m << k if k >= 0 else -(-m >> -k)


def dyadic_bits(m: Dyadic) -> int:
    """`effective_bits` of the interval `m`."""
    lo, hi, e = m
    width = hi - lo
    if not width:
        return MAX_BITS
    # floor(2 * max(1, |lo|) / width), with both sides scaled by 2^e
    ratio = (max(1 << e, abs(lo)) << 1) // width
    if ratio < 2:
        return 1
    return min(ratio.bit_length() - 1, MAX_BITS)


def _aligned(a: Dyadic, b: Dyadic) -> tuple[int, int, int, int, int]:
    """The endpoints of `a` and `b` over their larger exponent."""
    alo, ahi, ae = a
    blo, bhi, be = b
    if ae < be:
        return alo << (be - ae), ahi << (be - ae), blo, bhi, be
    return alo, ahi, blo << (ae - be), bhi << (ae - be), ae


def dyadic_mul(a: Dyadic, b: Dyadic) -> Dyadic:
    alo, ahi, ae = a
    blo, bhi, be = b
    products = (alo * blo, alo * bhi, ahi * blo, ahi * bhi)
    return min(products), max(products), ae + be


def dyadic_abs(m: Dyadic) -> Dyadic:
    lo, hi, e = m
    if lo >= 0:
        return m
    if hi <= 0:
        return -hi, -lo, e
    return 0, max(-lo, hi), e


def dyadic_max(a: Dyadic, b: Dyadic) -> Dyadic:
    """`RealInterval.max_with`."""
    alo, ahi, blo, bhi, e = _aligned(a, b)
    return max(alo, blo), max(ahi, bhi), e


def dyadic_sqrt(m: Dyadic, bits: int) -> Dyadic:
    """`RealInterval.sqrt`: root bounds with `bits` fractional bits."""
    lo, hi, e = m
    # A lower endpoint slightly below 0 is rounding noise for a value
    # known to be nonnegative; clamp before taking the root.
    if lo < 0:
        lo = 0
    if hi < 0:
        raise ValueError("interval entirely negative under sqrt")
    n = _ceil_shift(hi, 2 * bits - e)
    r = isqrt(n)
    if r * r < n:
        r += 1
    return isqrt(_floor_shift(lo, 2 * bits - e)), r, bits


def dyadic_interval(m: Dyadic) -> RealInterval:
    """The `RealInterval` with the endpoints of `m`."""
    lo, hi, e = m
    scale = 1 << e
    return RealInterval(Fraction(lo, scale), Fraction(hi, scale))


def dyadic_floats(m: Dyadic) -> list[float]:
    """The endpoint floats of `dyadic_interval(m)`, by correctly rounded int division."""
    lo, hi, e = m
    scale = 1 << e
    return [lo / scale, hi / scale]


def dyadic_mid_float(m: Dyadic) -> float:
    """`float(dyadic_interval(m))`, the float of its midpoint."""
    lo, hi, e = m
    return (lo + hi) / (2 << e)


@dataclass(frozen=True)
class RealInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def of(cls, lo: Fraction, hi: Fraction) -> RealInterval:
        return cls(lo, hi)

    @classmethod
    def point(cls, value: Fraction | int) -> RealInterval:
        q = Fraction(value)
        return cls(q, q)

    @property
    def precision_bits(self) -> int:
        return effective_bits(self.lo, self.hi)

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def sign(self) -> int | None:
        """-1, 0 or +1 when unambiguous, None when the interval straddles 0."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == 0 and self.hi == 0:
            return 0
        return None

    def __neg__(self) -> RealInterval:
        return RealInterval.of(-self.hi, -self.lo)

    @staticmethod
    def _coerce(other: object) -> RealInterval | None:
        """`other` as an interval: an int or `Fraction` is its point."""
        if isinstance(other, (int, Fraction)):
            return RealInterval.point(other)
        return other if isinstance(other, RealInterval) else None

    def __add__(self, other: RealInterval | Fraction | int) -> RealInterval:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval.of(self.lo + o.lo, self.hi + o.hi)

    def __sub__(self, other: RealInterval | Fraction | int) -> RealInterval:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RealInterval.of(self.lo - o.hi, self.hi - o.lo)

    def __mul__(self, other: RealInterval | Fraction | int) -> RealInterval:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        products = (self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi)
        return RealInterval.of(min(products), max(products))

    __rmul__ = __mul__

    def __abs__(self) -> RealInterval:
        return RealInterval.of(max(_ZERO, self.lo, -self.hi), max(-self.lo, self.hi))

    def max_with(self, other: RealInterval | Fraction | int) -> RealInterval:
        o = self._coerce(other)
        return RealInterval.of(max(self.lo, o.lo), max(self.hi, o.hi))

    def sqrt(self, bits: int = DEFAULT_BITS) -> RealInterval:
        # A lower endpoint slightly below 0 is rounding noise for a value
        # known to be nonnegative; clamp before taking the root.
        lo = self.lo if self.lo > 0 else _ZERO
        if self.hi < 0:
            raise ValueError("interval entirely negative under sqrt")
        return RealInterval.of(sqrt_down(lo, bits), sqrt_up(self.hi, bits))

    def root4(self, bits: int = DEFAULT_BITS) -> RealInterval:
        return self.sqrt(bits).sqrt(bits)

    def rounded(self, bits: int) -> RealInterval:
        return RealInterval.of(round_down(self.lo, bits), round_up(self.hi, bits))

    def __float__(self) -> float:
        return float(self.mid)

    def __str__(self) -> str:
        return f"[{float(self.lo):.12g}, {float(self.hi):.12g}]"
