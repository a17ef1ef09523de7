"""Exact arithmetic in a real quadratic field K = Q(sqrt(D)) and in
quadratic extensions L = K(sqrt(delta)).

Elements of K are stored on the integral basis {1, w} with
w = (1 + sqrt(D))/2 when D = 1 (mod 4) and w = sqrt(D) otherwise, so that
the ring of integers is exactly Z + Zw.  Elements of L are stored as
x + y*sqrt(delta) with x, y, delta in K and sqrt(delta) the positive real
root.  Signs are decided exactly by squaring: the sign of u + v*sqrt(d)
with rational u, v of opposite signs is the sign of the larger of u^2 and
v^2*d, and a surd over K reduces the same way to signs in K.  No interval
is involved in a sign, and the expansion path never embeds; `embed`
serves display and report enclosures only, refined by the one routine
`intervals.refine`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import Callable

from .intervals import DEFAULT_BITS, RealInterval, refine, sqrt_down, sqrt_up

_ZERO = Fraction(0)
_ONE = Fraction(1)


def is_squarefree(n: int) -> bool:
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None if irrational."""
    if q < 0:
        return None
    rn = isqrt(q.numerator)
    rd = isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


@dataclass(frozen=True)
class FieldSpec:
    """The real quadratic field Q(sqrt(d)) with its integral basis {1, w}."""

    d: int

    def __post_init__(self) -> None:
        if self.d <= 1 or not is_squarefree(self.d):
            raise ValueError(f"d must be a squarefree integer > 1, got {self.d}")

    @property
    def omega_is_half(self) -> bool:
        return self.d % 4 == 1

    @cached_property
    def omega_sq_const(self) -> Fraction:
        # w^2 = c + l*w with (c, l) = ((d-1)/4, 1) or (d, 0)
        if self.omega_is_half:
            return Fraction((self.d - 1) // 4)
        return Fraction(self.d)

    @cached_property
    def omega_sq_lin(self) -> Fraction:
        return _ONE if self.omega_is_half else _ZERO

    def element(self, a: Fraction | int, b: Fraction | int = 0) -> KElement:
        return KElement(self, Fraction(a), Fraction(b))

    @cached_property
    def zero(self) -> KElement:
        return self.element(0)

    @cached_property
    def one(self) -> KElement:
        return self.element(1)

    @cached_property
    def omega(self) -> KElement:
        return self.element(0, 1)

    @cached_property
    def sqrt_d(self) -> KElement:
        """The element whose real value is sqrt(d)."""
        if self.omega_is_half:
            return self.element(-1, 2)
        return self.element(0, 1)

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


@dataclass(frozen=True, eq=False)
class KElement:
    """a + b*w in K = Q(sqrt(d))."""

    spec: FieldSpec
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.a, Fraction):
            object.__setattr__(self, "a", Fraction(self.a))
        if not isinstance(self.b, Fraction):
            object.__setattr__(self, "b", Fraction(self.b))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KElement):
            if other.spec == self.spec:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.spec.d, self.a, self.b))

    def _coerce(self, other: object) -> KElement | None:
        if isinstance(other, KElement):
            if other.spec != self.spec:
                raise ValueError("mismatched field specs")
            return other
        if isinstance(other, (int, Fraction)):
            return KElement(self.spec, Fraction(other), _ZERO)
        return None

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    @property
    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def __add__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement(self.spec, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return KElement(self.spec, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> KElement:
        return (-self) + other

    def __neg__(self) -> KElement:
        return KElement(self.spec, -self.a, -self.b)

    def __mul__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        bb = self.b * o.b
        spec = self.spec
        return KElement(
            spec,
            self.a * o.a + bb * spec.omega_sq_const,
            self.a * o.b + self.b * o.a + bb * spec.omega_sq_lin,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in K")
        return self * o.conj() * KElement(self.spec, 1 / n, _ZERO)

    def __rtruediv__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> KElement:
        if n < 0:
            return self.spec.one / self ** (-n)
        out = self.spec.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> KElement:
        """Galois conjugate: w -> 1 - w when d = 1 (mod 4), else w -> -w."""
        if self.spec.omega_is_half:
            return KElement(self.spec, self.a + self.b, -self.b)
        return KElement(self.spec, self.a, -self.b)

    def norm(self) -> Fraction:
        # (a + b*w)(a + b*w') with w + w' = l and w*w' = -c, where w^2 = c + l*w.
        a, b, spec = self.a, self.b, self.spec
        return a * a + spec.omega_sq_lin * a * b - spec.omega_sq_const * b * b

    def trace(self) -> Fraction:
        return self.a * 2 + self.b * (1 if self.spec.omega_is_half else 0)

    def sqrt_d_coords(self) -> tuple[Fraction, Fraction]:
        """(u, v) with value = u + v*sqrt(d)."""
        if self.spec.omega_is_half:
            return self.a + self.b / 2, self.b / 2
        return self.a, self.b

    def embed(self, precision_bits: int = DEFAULT_BITS, conjugate: bool = False) -> RealInterval:
        """Enclosing interval of the chosen real embedding."""
        x = self.conj() if conjugate else self
        u, v = x.sqrt_d_coords()
        if v == 0:
            return RealInterval.point(u).rounded(max(precision_bits, 1))
        d = Fraction(self.spec.d)

        def compute(bits: int) -> RealInterval:
            s_lo, s_hi = sqrt_down(d, bits), sqrt_up(d, bits)
            if v > 0:
                return RealInterval.of(u + v * s_lo, u + v * s_hi)
            return RealInterval.of(u + v * s_hi, u + v * s_lo)

        return _refine_to_quality(compute, precision_bits)

    def __float__(self) -> float:
        return float(self.embed(64))

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        w_part = f"{abs(self.b)}*w"
        if self.a == 0:
            return w_part if self.b > 0 else f"-{w_part}"
        return f"{self.a}{'+' if self.b > 0 else '-'}{w_part}"

    def __repr__(self) -> str:
        return f"KElement(D={self.spec.d}, {self})"

    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sign_of(self - o) < 0

    def __le__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sign_of(self - o) <= 0

    def __gt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sign_of(self - o) > 0

    def __ge__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sign_of(self - o) >= 0


@dataclass(frozen=True, eq=False)
class SurdElement:
    """x + y*sqrt(delta) with x, y, delta in K and delta > 0 non-square.

    delta is fixed per family; arithmetic between members of different
    families is rejected.  Equality is componentwise within a family (use
    `reals_equal` to compare values across families).
    """

    spec: FieldSpec
    delta: KElement
    x: KElement
    y: KElement

    def __eq__(self, other: object) -> bool:
        if isinstance(other, SurdElement):
            if other.delta == self.delta:
                return self.x == other.x and self.y == other.y
            return self.y.is_zero and other.y.is_zero and self.x == other.x
        if isinstance(other, (int, Fraction, KElement)):
            return self.y.is_zero and self.x == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.y.is_zero:
            return hash(self.x)
        return hash((self.delta, self.x, self.y))

    def _coerce(self, other: object) -> SurdElement | None:
        if isinstance(other, SurdElement):
            if other.spec != self.spec or other.delta != self.delta:
                raise ValueError("mismatched surd families")
            return other
        if isinstance(other, (int, Fraction)):
            return SurdElement(self.spec, self.delta, self.spec.element(other), self.spec.zero)
        if isinstance(other, KElement):
            return SurdElement(self.spec, self.delta, other, self.spec.zero)
        return None

    @property
    def is_zero(self) -> bool:
        # sqrt(delta) is irrational over K, so the representation is unique.
        return self.x.is_zero and self.y.is_zero

    @property
    def is_k_element(self) -> bool:
        return self.y.is_zero

    def __add__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdElement(self.spec, self.delta, self.x + o.x, self.y + o.y)

    __radd__ = __add__

    def __sub__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdElement(self.spec, self.delta, self.x - o.x, self.y - o.y)

    def __rsub__(self, other: object) -> SurdElement:
        return (-self) + other

    def __neg__(self) -> SurdElement:
        return SurdElement(self.spec, self.delta, -self.x, -self.y)

    def __mul__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SurdElement(
            self.spec,
            self.delta,
            self.x * o.x + self.y * o.y * self.delta,
            self.x * o.y + self.y * o.x,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm_k()
        if n.is_zero:
            raise ZeroDivisionError("division by zero in K(sqrt(delta))")
        return self * o.conj_sqrt() * SurdElement(
            self.spec, self.delta, self.spec.one / n, self.spec.zero
        )

    def __rtruediv__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> SurdElement:
        if n < 0:
            raise ValueError("negative surd powers unsupported")
        out = self._coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj_sqrt(self) -> SurdElement:
        """Conjugation over K: sqrt(delta) -> -sqrt(delta)."""
        return SurdElement(self.spec, self.delta, self.x, -self.y)

    def norm_k(self) -> KElement:
        """Relative norm x^2 - y^2*delta, an element of K."""
        return self.x * self.x - self.y * self.y * self.delta

    def recip(self) -> SurdElement:
        return self._coerce(1) / self

    def embed(self, precision_bits: int = DEFAULT_BITS) -> RealInterval:
        if self.y.is_zero:
            return self.x.embed(precision_bits)
        if surd_is_zero(self):
            return RealInterval.point(0)

        def compute(bits: int) -> RealInterval:
            xi = self.x.embed(bits)
            yi = self.y.embed(bits)
            di = self.delta.embed(bits)
            return xi + yi * di.sqrt(bits)

        return _refine_to_quality(compute, precision_bits)

    def __float__(self) -> float:
        return float(self.embed(64))

    def __str__(self) -> str:
        return f"({self.x}) + ({self.y})*sqrt({self.delta})"

    def __repr__(self) -> str:
        return f"SurdElement({self})"


def _refine_to_quality(
    compute: Callable[[int], RealInterval], precision_bits: int
) -> RealInterval:
    """Refine until width <= 2^(1-precision_bits) * max(1, |lo|)."""
    return refine(
        lambda bits: compute(bits).rounded(bits),
        max(precision_bits, DEFAULT_BITS),
        lambda iv: iv.precision_bits >= precision_bits,
    )


def _root_sign(x: int, y: int, d: int) -> int:
    """Exact sign of x + y*sqrt(d) for integers x, y and a non-square d > 0."""
    sx = (x > 0) - (x < 0)
    sy = (y > 0) - (y < 0)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    # Opposite signs: the term with the larger square wins (x^2 = y^2*d is
    # impossible for a non-square d).
    return sx if x * x > y * y * d else sy


def _k_sign(k: KElement) -> int:
    a, b = k.a, k.b
    if not b:
        return (a > 0) - (a < 0)
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    # Scale by the positive 2*ad*bd (or ad*bd) to clear denominators: with
    # w = (1 + sqrt(d))/2, 2*(a + b*w) = (2a + b) + b*sqrt(d).
    if k.spec.omega_is_half:
        return _root_sign(2 * an * bd + bn * ad, bn * ad, k.spec.d)
    return _root_sign(an * bd, bn * ad, k.spec.d)


def surd_sign(x: KElement, y: KElement, delta: KElement) -> int:
    """Exact sign of x + y*sqrt(delta) for x, y in K and delta > 0 in K.

    When x and y have opposite signs the sign of x^2 - y^2*delta, an
    element of K, says which term dominates; it is 0 only when delta is a
    square in K and the value is a hidden zero.
    """
    sy = _k_sign(y)
    sx = _k_sign(x)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    return sx * _k_sign(x * x - y * y * delta)


def surd_sum_sign(
    x: KElement, y1: KElement, delta1: KElement, y2: KElement, delta2: KElement
) -> int:
    """Exact sign of x + y1*sqrt(delta1) + y2*sqrt(delta2) over K.

    With A = x + y1*sqrt(delta1) and B = y2*sqrt(delta2) of opposite signs,
    A^2 - B^2 = (x^2 + y1^2*delta1 - y2^2*delta2) + 2*x*y1*sqrt(delta1) is
    one surd over delta1, so one more squaring decides the sum.
    """
    sa = surd_sign(x, y1, delta1)
    sb = _k_sign(y2)
    if sb == 0 or sa == sb:
        return sa
    if sa == 0:
        return sb
    return sa * surd_sign(x * x + y1 * y1 * delta1 - y2 * y2 * delta2, 2 * x * y1, delta1)


def surd_is_zero(u: SurdElement) -> bool:
    return surd_sign(u.x, u.y, u.delta) == 0


def sign_of(u: SurdElement | KElement | int | Fraction) -> int:
    """Exact sign under the identity embedding, decided by squaring."""
    if isinstance(u, (int, Fraction)):
        return (u > 0) - (u < 0)
    if isinstance(u, KElement):
        return _k_sign(u)
    if isinstance(u, SurdElement):
        return surd_sign(u.x, u.y, u.delta)
    raise TypeError(f"sign_of does not support {type(u)!r}")


def is_square_in_k(x: KElement) -> KElement | None:
    """A root y in K with y^2 = x, or None.  The nonnegative root is returned."""
    spec = x.spec
    if x.is_zero:
        return spec.zero
    u, v = x.sqrt_d_coords()
    d = Fraction(spec.d)
    candidates: list[tuple[Fraction, Fraction]] = []
    if v == 0:
        r = rational_sqrt(u)
        if r is not None:
            candidates.append((r, _ZERO))
        r = rational_sqrt(u / d)
        if r is not None:
            candidates.append((_ZERO, r))
    else:
        # (s + t*sqrt(d))^2 = x forces s^2 = (u +- sqrt(u^2 - v^2 d))/2,
        # t = v/(2s); the inner radical is the rational norm of x.
        n = rational_sqrt(u * u - v * v * d)
        if n is None:
            return None
        for w in (u + n, u - n):
            s = rational_sqrt(w / 2)
            if s is None or s == 0:
                continue
            candidates.append((s, v / (2 * s)))
    for s, t in candidates:
        if spec.omega_is_half:
            root = spec.element(s - t, 2 * t)
        else:
            root = spec.element(s, t)
        if root * root == x:
            return root if sign_of(root) >= 0 else -root
    return None


def reals_equal(a: SurdElement | KElement, b: SurdElement | KElement) -> bool:
    """Exact equality of real values, allowing different surd families."""
    if isinstance(a, KElement) and isinstance(b, KElement):
        return a == b
    if isinstance(a, KElement):
        a, b = b, a
    if not isinstance(a, SurdElement):
        raise AssertionError(f"reals_equal does not support {type(a)!r}")
    if isinstance(b, KElement):
        return a.y.is_zero and a.x == b
    if a.delta == b.delta:
        return a.x == b.x and a.y == b.y
    link = is_square_in_k(a.delta * b.delta)
    if link is None:
        # sqrt(delta_a) and sqrt(delta_b) are K-independent; equality forces
        # both irrational parts to vanish.
        return a.y.is_zero and b.y.is_zero and a.x == b.x
    # sqrt(delta_b) = link / sqrt(delta_a) with link > 0.
    return a.x == b.x and a.y == b.y * link / a.delta
