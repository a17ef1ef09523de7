"""Exact arithmetic in a real quadratic field K = Q(sqrt(D)) and in
quadratic extensions L = K(sqrt(delta)).

Elements of K are written on the integral basis {1, w} with
w = (1 + sqrt(D))/2 when D = 1 (mod 4) and w = sqrt(D) otherwise, so that
the ring of integers is exactly Z + Zw.  A `KElement` stores the integers
(p, q, den) of (p + q*w)/den, with den > 0 and gcd(p, q, den) = 1: integer
coordinates over one common denominator, the usual layout of number-field
elements (Cohen, GTM 138, section 4.2).  The triple is unique, so equality
compares integers; sums and products of integral elements (den = 1) take
no gcd, and any other result is normalised by one gcd.  Elements are
immutable (`__slots__`, and setting an attribute raises); the rational
coordinates `a` and `b` are derived.  Elements of L are stored as
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
from math import gcd, isqrt, lcm, sqrt
from typing import Callable

from .intervals import DEFAULT_BITS, RealInterval, refine, sqrt_down, sqrt_up

_ZERO = Fraction(0)


class InputRuleError(ValueError):
    """An input breaks one of the library's own rules for valid input, such
    as a non-integral partial quotient or a non-squarefree d.  The
    CLI reports these, and only these, as rejections."""


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
            raise InputRuleError(f"d must be a squarefree integer > 1, got {self.d}")

    @property
    def omega_is_half(self) -> bool:
        return self.d % 4 == 1

    @cached_property
    def omega_sq_const(self) -> int:
        # w^2 = c + l*w with (c, l) = ((d-1)/4, 1) or (d, 0)
        return (self.d - 1) // 4 if self.omega_is_half else self.d

    @cached_property
    def omega_sq_lin(self) -> int:
        return 1 if self.omega_is_half else 0

    @cached_property
    def omega_float(self) -> float:
        return (1 + sqrt(self.d)) / 2 if self.omega_is_half else sqrt(self.d)

    def element(self, a: Fraction | int, b: Fraction | int = 0) -> KElement:
        return KElement(self, a, b)

    @cached_property
    def zero(self) -> KElement:
        return self.element(0)

    @cached_property
    def one(self) -> KElement:
        return self.element(1)

    @cached_property
    def omega(self) -> KElement:
        return self.element(0, 1)

    def __str__(self) -> str:
        return f"Q(sqrt({self.d}))"


class KElement:
    """(p + q*w)/den in K = Q(sqrt(d)), immutable.

    p, q and den are integers with den > 0 and gcd(p, q, den) = 1, so each
    element has exactly one triple.  `a` and `b`, the rational coordinates
    on {1, w}, are derived.  Build elements with `FieldSpec.element`.
    """

    __slots__ = ("spec", "p", "q", "den")

    spec: FieldSpec
    p: int
    q: int
    den: int

    def __new__(cls, spec: FieldSpec, a: Fraction | int, b: Fraction | int = 0) -> KElement:
        if type(a) is int and type(b) is int:
            return _make(spec, a, b, 1)
        a, b = Fraction(a), Fraction(b)
        # Over the lcm of the two denominators the triple is already in
        # lowest terms: a prime dividing den divides one denominator fully.
        den = lcm(a.denominator, b.denominator)
        return _make(
            spec, a.numerator * (den // a.denominator), b.numerator * (den // b.denominator), den
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"KElement is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"KElement is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple:
        return _make, (self.spec, self.p, self.q, self.den)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, KElement):
            if other.spec is not self.spec and other.spec != self.spec and (self.q or other.q):
                return False
            # Lowest terms make the triple unique, so equal values have equal triples.
            return self.p == other.p and self.q == other.q and self.den == other.den
        if isinstance(other, int):
            return not self.q and self.den == 1 and self.p == other
        if isinstance(other, Fraction):
            return not self.q and self.p == other.numerator and self.den == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        # The values of the Fraction-backed class: hash(Fraction(n, 1)) is
        # hash(n), so an integral element needs no Fraction.
        if self.den == 1:
            return hash(self.p) if not self.q else hash((self.spec.d, self.p, self.q))
        if not self.q:
            return hash(self.a)
        return hash((self.spec.d, self.a, self.b))

    def _coerce(self, other: object) -> KElement | None:
        if isinstance(other, KElement):
            if other.spec is not self.spec and other.spec != self.spec:
                raise ValueError("mismatched field specs")
            return other
        if isinstance(other, int):
            return _make(self.spec, other, 0, 1)
        if isinstance(other, Fraction):
            return _make(self.spec, other.numerator, 0, other.denominator)
        return None

    @property
    def is_zero(self) -> bool:
        return not self.p and not self.q

    @property
    def is_rational(self) -> bool:
        return not self.q

    @property
    def is_integral(self) -> bool:
        return self.den == 1

    def __add__(self, other: object) -> KElement:
        if other.__class__ is KElement and other.spec is self.spec:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _reduced(self.spec, self.p + o.p, self.q + o.q, d1)
        return _reduced(self.spec, self.p * d2 + o.p * d1, self.q * d2 + o.q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: object) -> KElement:
        if other.__class__ is KElement and other.spec is self.spec:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        d1, d2 = self.den, o.den
        if d1 == d2:
            return _reduced(self.spec, self.p - o.p, self.q - o.q, d1)
        return _reduced(self.spec, self.p * d2 - o.p * d1, self.q * d2 - o.q * d1, d1 * d2)

    def __rsub__(self, other: object) -> KElement:
        return (-self) + other

    def __neg__(self) -> KElement:
        return _make(self.spec, -self.p, -self.q, self.den)

    def __mul__(self, other: object) -> KElement:
        if other.__class__ is KElement and other.spec is self.spec:
            o = other
        else:
            o = self._coerce(other)
            if o is None:
                return NotImplemented
        spec = self.spec
        p1, q1, p2, q2 = self.p, self.q, o.p, o.q
        qq = q1 * q2
        return _reduced(
            spec,
            p1 * p2 + spec.omega_sq_const * qq,
            p1 * q2 + q1 * p2 + spec.omega_sq_lin * qq,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        c, l = spec.omega_sq_const, spec.omega_sq_lin
        p2, q2 = o.p, o.q
        # 1/o = o.den * conj(p2 + q2*w) / n with n = (p2 + q2*w)*conj(...).
        n = p2 * p2 + l * p2 * q2 - c * q2 * q2
        if not n:
            raise ZeroDivisionError("division by zero in K")
        cp, cq = p2 + l * q2, -q2
        p1, q1 = self.p, self.q
        qq = q1 * cq
        p = (p1 * cp + c * qq) * o.den
        q = (p1 * cq + q1 * cp + l * qq) * o.den
        if n < 0:
            p, q, n = -p, -q, -n
        return _reduced(spec, p, q, self.den * n)

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
        p, q = self.p, self.q
        return _make(self.spec, p + self.spec.omega_sq_lin * q, -q, self.den)

    def norm(self) -> Fraction:
        # (p + q*w)(p + q*w') with w + w' = l and w*w' = -c, where w^2 = c + l*w.
        p, q, spec = self.p, self.q, self.spec
        return Fraction(p * p + spec.omega_sq_lin * p * q - spec.omega_sq_const * q * q,
                        self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(2 * self.p + self.spec.omega_sq_lin * self.q, self.den)

    def sqrt_d_coords(self) -> tuple[Fraction, Fraction]:
        """(u, v) with value = u + v*sqrt(d)."""
        if self.spec.omega_is_half:
            return Fraction(2 * self.p + self.q, 2 * self.den), Fraction(self.q, 2 * self.den)
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
        """A float approximation with no error bound; `embed` encloses.
        Each int quotient is correctly rounded, as Fraction's float is."""
        return self.p / self.den + self.q / self.den * self.spec.omega_float

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        w_part = f"{abs(b)}*w"
        if a == 0:
            return w_part if b > 0 else f"-{w_part}"
        return f"{a}{'+' if b > 0 else '-'}{w_part}"

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


_new = object.__new__
_set_spec = KElement.spec.__set__
_set_p = KElement.p.__set__
_set_q = KElement.q.__set__
_set_den = KElement.den.__set__


def _make(spec: FieldSpec, p: int, q: int, den: int) -> KElement:
    """The element (p + q*w)/den from a triple already in lowest terms with
    den > 0; no check is made."""
    k = _new(KElement)
    _set_spec(k, spec)
    _set_p(k, p)
    _set_q(k, q)
    _set_den(k, den)
    return k


def _reduced(spec: FieldSpec, p: int, q: int, den: int) -> KElement:
    """The element (p + q*w)/den for any integers with den > 0.  An integral
    triple (den = 1) is already in lowest terms and skips the gcd."""
    if den != 1:
        g = gcd(p, q, den)
        if g != 1:
            p, q, den = p // g, q // g, den // g
    return _make(spec, p, q, den)


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
    # den > 0 leaves the sign to p + q*w; with w = (1 + sqrt(d))/2,
    # 2*(p + q*w) = (2p + q) + q*sqrt(d).
    p, q = k.p, k.q
    if not q:
        return (p > 0) - (p < 0)
    if k.spec.omega_sq_lin:
        return _root_sign(2 * p + q, q, k.spec.d)
    return _root_sign(p, q, k.spec.d)


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
