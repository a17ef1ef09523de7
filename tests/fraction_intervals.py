"""A frozen, Fraction-backed copy of the package's enclosure computations,
kept only as a differential reference for the enclosures of `okcf.field`
and `okcf.quartic`.

It computes the embeddings of K and surd elements, the relative enclosure
of an error term and the Weil height of a complete quotient with
`Fraction` endpoints, exactly as the package did before its enclosures
moved to integer mantissas.  It shares no interval code with the package:
rounding, square roots, the precision measure and the doubling loop are
copied here.  It reads only the exact data of its inputs (the integer
triples of K elements, the quadratic polynomials of quotient states) and
the package's exact K arithmetic and signs.  Do not optimise it; its value
is that it stays simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from okcf.field import KElement, SurdElement, sign_of, surd_sign
from okcf.quartic import QuotientState

DEFAULT_BITS = 64
MAX_BITS = 1 << 16


def round_down(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(x.numerator * scale // x.denominator, scale)


def round_up(x: Fraction, bits: int) -> Fraction:
    scale = 1 << bits
    return Fraction(-((-x.numerator * scale) // x.denominator), scale)


def sqrt_down(x: Fraction, bits: int) -> Fraction:
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator), scale)


def sqrt_up(x: Fraction, bits: int) -> Fraction:
    if x < 0:
        raise ValueError("negative radicand")
    scale = 1 << bits
    n = -((-x.numerator * scale * scale) // x.denominator)
    r = isqrt(n)
    if r * r < n:
        r += 1
    return Fraction(r, scale)


def effective_bits(lo: Fraction, hi: Fraction) -> int:
    width = hi - lo
    if width == 0:
        return MAX_BITS
    ratio = 2 * max(Fraction(1), abs(lo)) / width
    if ratio < 2:
        return 1
    p = (ratio.numerator // ratio.denominator).bit_length() - 1
    return min(p, MAX_BITS)


@dataclass(frozen=True)
class RefInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @staticmethod
    def point(value: Fraction | int) -> RefInterval:
        return RefInterval(Fraction(value), Fraction(value))

    @property
    def precision_bits(self) -> int:
        return effective_bits(self.lo, self.hi)

    def __neg__(self) -> RefInterval:
        return RefInterval(-self.hi, -self.lo)

    def __add__(self, other: RefInterval) -> RefInterval:
        return RefInterval(self.lo + other.lo, self.hi + other.hi)

    def __mul__(self, other: RefInterval) -> RefInterval:
        products = (self.lo * other.lo, self.lo * other.hi,
                    self.hi * other.lo, self.hi * other.hi)
        return RefInterval(min(products), max(products))

    def __abs__(self) -> RefInterval:
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return RefInterval(Fraction(0), max(-self.lo, self.hi))

    def max_with_one(self) -> RefInterval:
        return RefInterval(max(self.lo, Fraction(1)), max(self.hi, Fraction(1)))

    def sqrt(self, bits: int) -> RefInterval:
        lo = self.lo if self.lo > 0 else Fraction(0)
        if self.hi < 0:
            raise ValueError("interval entirely negative under sqrt")
        return RefInterval(sqrt_down(lo, bits), sqrt_up(self.hi, bits))

    def rounded(self, bits: int) -> RefInterval:
        return RefInterval(round_down(self.lo, bits), round_up(self.hi, bits))


def refine(compute, bits: int, accept) -> RefInterval:
    while True:
        iv = compute(bits)
        if accept(iv):
            return iv
        if bits >= MAX_BITS:
            raise ArithmeticError(f"no enclosure reached the requested width by {bits} bits")
        bits *= 2


def refine_to_quality(compute, precision_bits: int) -> RefInterval:
    return refine(
        lambda bits: compute(bits).rounded(bits),
        max(precision_bits, DEFAULT_BITS),
        lambda iv: iv.precision_bits >= precision_bits,
    )


def sqrt_d_coords(x: KElement, conjugate: bool) -> tuple[Fraction, Fraction]:
    """(u, v) with the chosen embedding of x equal to u + v*sqrt(d)."""
    a, b = Fraction(x.p, x.den), Fraction(x.q, x.den)
    if x.spec.d % 4 == 1:
        # a + b*(1 + sqrt(d))/2, and sigma(w) = (1 - sqrt(d))/2
        u, v = a + b / 2, b / 2
    else:
        u, v = a, b
    return u, -v if conjugate else v


def embed_k(x: KElement, precision_bits: int = DEFAULT_BITS,
            conjugate: bool = False) -> RefInterval:
    u, v = sqrt_d_coords(x, conjugate)
    if v == 0:
        return RefInterval.point(u).rounded(max(precision_bits, 1))
    d = Fraction(x.spec.d)

    def compute(bits: int) -> RefInterval:
        s_lo, s_hi = sqrt_down(d, bits), sqrt_up(d, bits)
        if v > 0:
            return RefInterval(u + v * s_lo, u + v * s_hi)
        return RefInterval(u + v * s_hi, u + v * s_lo)

    return refine_to_quality(compute, precision_bits)


def embed_surd(s: SurdElement, precision_bits: int = DEFAULT_BITS) -> RefInterval:
    if s.y.is_zero:
        return embed_k(s.x, precision_bits)
    if surd_sign(s.x, s.y, s.delta) == 0:
        return RefInterval.point(0)

    def compute(bits: int) -> RefInterval:
        xi = embed_k(s.x, bits)
        yi = embed_k(s.y, bits)
        di = embed_k(s.delta, bits)
        return xi + yi * di.sqrt(bits)

    return refine_to_quality(compute, precision_bits)


def embed(value: KElement | SurdElement, precision_bits: int = DEFAULT_BITS) -> RefInterval:
    if isinstance(value, SurdElement):
        return embed_surd(value, precision_bits)
    return embed_k(value, precision_bits)


def tight_abs(value: KElement | SurdElement, rel_bits: int) -> RefInterval:
    tol = Fraction(1, 1 << (rel_bits - 1))
    return refine(
        lambda bits: abs(embed(value, bits)),
        rel_bits,
        lambda iv: iv.hi == 0 or (iv.lo > 0 and iv.hi - iv.lo <= iv.lo * tol),
    )


def weil_height4(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RefInterval:
    lead = abs(state.poly.A.norm())
    v = state.value
    acc = RefInterval.point(lead)
    acc = acc * abs(embed_surd(v, precision_bits)).max_with_one()
    acc = acc * abs(embed_surd(v.conj_sqrt(), precision_bits)).max_with_one()
    spoly = state.poly.sigma()
    if sign_of(spoly.delta) > 0:
        plus = QuotientState(spoly, 1).value
        for z in (plus, plus.conj_sqrt()):
            acc = acc * abs(embed_surd(z, precision_bits)).max_with_one()
    else:
        # Complex conjugate pair: |z|^2 = sigma(C)/sigma(A) exactly in K.
        acc = acc * embed_k(spoly.C / spoly.A, precision_bits).max_with_one()
    return acc


def weil_height(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RefInterval:
    return weil_height4(state, precision_bits).sqrt(precision_bits).sqrt(precision_bits)
