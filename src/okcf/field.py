"""Exact arithmetic in a real quadratic field K = Q(sqrt(D)) and in
quadratic extensions L = K(sqrt(delta)).

Elements of K are written on the integral basis {1, w} with
w = (1 + sqrt(D))/2 when D = 1 (mod 4) and w = sqrt(D) otherwise, so that
the ring of integers is exactly Z + Zw.  A `KElement` stores the integers
(p, q, den) of (p + q*w)/den, with den > 0 and gcd(p, q, den) = 1: integer
coordinates over one common denominator, the usual layout of number-field
elements (Cohen, GTM 138, section 4.2).  The triple is unique, so equality
compares integers; sums and products of integral elements (den = 1) take
no gcd, and any other result is normalised by one gcd.  The integral
loops of `quartic`, `cf` and `golden` multiply on integer pairs by the same
rule, `_int_mul` (written out inline in `quartic`'s recursions), and build
elements only for their results.  Elements are
immutable (`__slots__`, and setting an attribute raises); the rational
coordinates `a` and `b` are derived.  Elements of L are stored as
x + y*sqrt(delta) with x, y, delta in K and sqrt(delta) the positive real
root.  Signs are decided exactly by squaring: the sign of u + v*sqrt(d)
with rational u, v of opposite signs is the sign of the larger of u^2 and
v^2*d, and a surd over K reduces the same way to signs in K.  These exact
signs are the fallback of the pair expansion, whose certified float
filter (`okcf.golden`) decides most of its questions first.  No interval
is involved in a sign or a floor, and the expansion builds no interval.
`embed` serves the display and report enclosures, each in one loop on
integers that doubles its bits by `intervals._next_level`:
`_form_embed` on the form (u, v, den) of (u + v*sqrt(d))/den, and
`_surd_form_embed` on the forms of x and y in x + y*sqrt(delta), reduced
or not (`_surd_embed` is it on a surd's own forms; `quartic` passes forms
it builds on integers), whose levels take x and y from one `_form_embed`
each, then multiply, add and round in straight-line integer code; a y != 0
makes the value 0 only when delta has a root s in K and x + y*s = 0,
decided before the levels.
An embedding is the dyadic triple (lo_m, hi_m, e) of `intervals.Dyadic`,
from one `isqrt` of d * 4^bits and two floor divisions of the form's
integers; `embed` returns it as a `RealInterval` with `Fraction`
endpoints, while `quartic.diagnostics` and `summarize` never leave the
triples.  A `_RootTable` shares the roots of d and of delta among one
call's embeddings.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, total_ordering
from math import gcd, isqrt, lcm, sqrt

from .intervals import (
    DEFAULT_BITS,
    MAX_BITS,
    Dyadic,
    RealInterval,
    _next_level,
    dyadic_bits,
    dyadic_interval,
    dyadic_sqrt,
)


class InputRuleError(ValueError):
    """An input breaks one of the library's own rules for valid input, such
    as a non-integral partial quotient or a non-squarefree d.  The
    CLI reports these, and only these, as rejections."""


def is_squarefree(n: int) -> bool:
    """Whether n >= 1 has no square factor > 1, by trial division up to the
    cube root of n.  Each odd factor f found is divided out once, and a
    second f is a square factor.  The loop stops at the first f with
    f^3 > m, the cofactor left: every prime factor of m is then at least f,
    so m has at most two, and m > 1 has a square factor only when it is a
    prime squared."""
    if n < 1:
        return False
    if n % 4 == 0:
        return False
    m = n // 2 if n % 2 == 0 else n
    f = 3
    while f * f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return False
        f += 2
    return m == 1 or isqrt(m) ** 2 != m


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


@total_ordering
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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return _reduced(self.spec, self.p * d2 + o.p * d1, self.q * d2 + o.q * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.den, o.den
        return _reduced(self.spec, self.p * d2 - o.p * d1, self.q * d2 - o.q * d1, d1 * d2)

    def __rsub__(self, other: object) -> KElement:
        return (-self) + other

    def __neg__(self) -> KElement:
        return _make(self.spec, -self.p, -self.q, self.den)

    def __mul__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        spec = self.spec
        p, q = _int_mul(spec.omega_sq_const, spec.omega_sq_lin, self.p, self.q, o.p, o.q)
        return _reduced(spec, p, q, self.den * o.den)

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
        p, q = _int_mul(c, l, self.p, self.q, p2 + l * q2, -q2)
        if n < 0:
            p, q, n = -p, -q, -n
        return _reduced(spec, p * o.den, q * o.den, self.den * n)

    def __rtruediv__(self, other: object) -> KElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> KElement:
        if n < 0:
            return self.spec.one / self ** (-n)
        return _power(self.spec.one, self, n)

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

    def embed(self, precision_bits: int = DEFAULT_BITS, conjugate: bool = False) -> RealInterval:
        """Enclosing interval of the chosen real embedding."""
        return dyadic_interval(_k_embed(self, precision_bits, _RootTable(), conjugate))

    def __float__(self) -> float:
        """A float approximation with no error bound; `embed` encloses.
        Each int quotient is correctly rounded, as Fraction's float is."""
        return self.p / self.den + self.q / self.den * self.spec.omega_float

    def __str__(self) -> str:
        # An int prints as the Fraction of the same value does.
        a, b = (self.p, self.q) if self.den == 1 else (self.a, self.b)
        if b == 0:
            return str(a)
        w_part = f"{abs(b)}*w"
        if a == 0:
            return w_part if b > 0 else f"-{w_part}"
        return f"{a}{'+' if b > 0 else '-'}{w_part}"

    def __repr__(self) -> str:
        return f"KElement(D={self.spec.d}, {self})"

    # `total_ordering` derives <=, > and >= from this and `__eq__`.
    def __lt__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return sign_of(self - o) < 0


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

    def __post_init__(self) -> None:
        # delta may be 0 or a square: the exact signs decide those too.
        for part in (self.delta, self.x, self.y):
            if not isinstance(part, KElement):
                raise TypeError(f"surd component of type {type(part).__name__} is not a KElement")
            if part.spec is not self.spec and part.spec != self.spec:
                raise ValueError("mismatched field specs")

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
            other = self.spec.element(other)
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
        x, y = self.x, self.y
        return SurdElement(
            self.spec, self.delta, x * o.x + y * o.y * self.delta, x * o.y + y * o.x
        )

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm_k()
        if n.is_zero:
            raise ZeroDivisionError("division by zero in K(sqrt(delta))")
        return self * o.conj_sqrt() * (self.spec.one / n)

    def __rtruediv__(self, other: object) -> SurdElement:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> SurdElement:
        if n < 0:
            raise ValueError("negative surd powers unsupported")
        return _power(self._coerce(1), self, n)

    def conj_sqrt(self) -> SurdElement:
        """Conjugation over K: sqrt(delta) -> -sqrt(delta)."""
        return SurdElement(self.spec, self.delta, self.x, -self.y)

    def norm_k(self) -> KElement:
        """Relative norm x^2 - y^2*delta, an element of K."""
        return self.x * self.x - self.y * self.y * self.delta

    def recip(self) -> SurdElement:
        return self._coerce(1) / self

    def embed(self, precision_bits: int = DEFAULT_BITS) -> RealInterval:
        """Enclosing interval of the value."""
        return dyadic_interval(_surd_embed(self, precision_bits, _RootTable()))

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


def _power(out, base, n: int):
    """out * base^n for n >= 0, by square-and-multiply."""
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def _int_mul(c: int, l: int, p1: int, q1: int, p2: int, q2: int) -> tuple[int, int]:
    """(p, q) of the product (p1 + q1*w)*(p2 + q2*w), with w^2 = c + l*w."""
    qq = q1 * q2
    return p1 * p2 + c * qq, p1 * q2 + q1 * p2 + l * qq


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


class _RootTable:
    """Square roots that the embeddings of one `quartic.diagnostics` or
    `summarize` call share, all in one field: `isqrt(d << 2*bits)` per
    level; per discriminant, keyed by delta's triple (p, q, den), its
    `is_square_in_k` and, per level too, the dyadic enclosure of sqrt(delta).
    Each entry is the function of its key that an embedding would compute
    without the table, so reading it changes no endpoint.  The public
    `embed` methods use a fresh table per call, and none outlives its call."""

    __slots__ = ("isqrt_d", "sqrt_delta", "root_in_k")

    def __init__(self) -> None:
        self.isqrt_d: dict[int, int] = {}
        self.sqrt_delta: dict[tuple[int, int, int, int], Dyadic] = {}
        self.root_in_k: dict[tuple[int, int, int], KElement | None] = {}


def _sqrt_d_form(k: KElement) -> tuple[int, int, int]:
    """The integers (u, v, m) with k = (u + v*sqrt(d))/m and m > 0; with
    w = (1 + sqrt(d))/2, 2*(p + q*w) = (2p + q) + q*sqrt(d)."""
    if k.spec.omega_is_half:
        return 2 * k.p + k.q, k.q, 2 * k.den
    return k.p, k.q, k.den


def _from_form(spec: FieldSpec, form: tuple[int, int, int]) -> KElement:
    """The element of a form (u, v, den); sqrt(d) = 2w - 1 when w is a half."""
    u, v, den = form
    return _reduced(spec, u - v, 2 * v, den) if spec.omega_is_half else _reduced(spec, u, v, den)


def _form_mul(d: int, f: tuple[int, int, int], g: tuple[int, int, int]) -> tuple[int, int, int]:
    """The form of the product of two forms (u, v, den) over sqrt(d)."""
    (u1, v1, m1), (u2, v2, m2) = f, g
    return u1 * u2 + d * v1 * v2, u1 * v2 + v1 * u2, m1 * m2


def _k_embed(k: KElement, precision_bits: int, roots: _RootTable,
             conjugate: bool = False) -> Dyadic:
    """`KElement.embed` as a dyadic triple, with the roots of `roots`."""
    # The embedding is (u + v*sqrt(d))/den; the conjugate only flips v.
    u, v, den = _sqrt_d_form(k)
    return _form_embed(u, -v if conjugate else v, den, k.spec.d, precision_bits, roots.isqrt_d)


def _form_embed(u: int, v: int, den: int, d: int, precision_bits: int,
                isqrt_d: dict[int, int]) -> Dyadic:
    """(u + v*sqrt(d))/den as a dyadic triple, with the roots `isqrt_d`: the
    first level from max(precision_bits, DEFAULT_BITS) bits on whose
    endpoints (lo, hi) over 2^bits are accepted, its bits doubling by
    `_next_level`.  A rational value (v = 0) is exact at
    max(precision_bits, 1) bits."""
    if not v:
        bits = max(precision_bits, 1)
        return (u << bits) // den, -(-(u << bits) // den), bits
    # A level is accepted when dyadic_bits((lo, hi, bits)) >= p.  dyadic_bits
    # is at least 1 and at most MAX_BITS, and its
    # floor(2 * max(2^bits, |lo|) / width) >= 2^p iff the product test holds.
    p = precision_bits
    bits = max(precision_bits, DEFAULT_BITS)
    while True:
        # sqrt(d) lies in (r, r + 1) / 2^bits: d is not a square.
        r = isqrt_d.get(bits)
        if r is None:
            r = isqrt_d[bits] = isqrt(d << 2 * bits)
        lo = (u << bits) + v * r
        hi = lo + v
        if v < 0:
            lo, hi = hi, lo
        lo, hi = lo // den, -(-hi // den)
        if p <= 1 or p <= MAX_BITS and (
                hi == lo or max(1 << bits, abs(lo)) << 1 >= (hi - lo) << p):
            return lo, hi, bits
        bits = _next_level(bits)


def _surd_embed(z: SurdElement, precision_bits: int, roots: _RootTable) -> Dyadic:
    """`SurdElement.embed` as a dyadic triple, with the roots of `roots`."""
    return _surd_form_embed(_sqrt_d_form(z.x), _sqrt_d_form(z.y), z.delta, precision_bits, roots)


def _surd_form_embed(x: tuple[int, int, int], y: tuple[int, int, int], delta: KElement,
                     precision_bits: int, roots: _RootTable) -> Dyadic:
    """`_surd_embed` of x + y*sqrt(delta) for the forms (u, v, den > 0) of x
    and y, in lowest terms or not: a form is k > 0 times the reduced one, and
    floor(k*a / (k*b)) = floor(a/b), so every endpoint is the same.

    A hidden zero, x + y*s = 0 with y != 0 and s = sqrt(delta) in K, is the
    point 0 at any precision.  Any other value takes levels; a level at
    `bits` takes x and y from one `_form_embed` loop each at precision
    `bits`, whose first level is at `bits` too; multiplies y by the
    nonnegative enclosure of sqrt(delta); adds over the larger exponent and
    rounds out to `bits`.  The tests hold every endpoint to a longhand
    reference that takes these steps on `Dyadic` triples."""
    (xu, xv, xden), (yu, yv, yden) = x, y
    d, isqrt_d, sqrt_delta = delta.spec.d, roots.isqrt_d, roots.sqrt_delta
    if not yu and not yv:
        return _form_embed(xu, xv, xden, d, precision_bits, isqrt_d)
    dkey = delta.p, delta.q, delta.den
    if dkey not in roots.root_in_k:
        roots.root_in_k[dkey] = is_square_in_k(delta)
    s = roots.root_in_k[dkey]
    if s is not None and _from_form(delta.spec, x) + _from_form(delta.spec, y) * s == 0:
        return 0, 0, 0
    bits = max(precision_bits, DEFAULT_BITS)
    while True:
        key = (delta.p, delta.q, delta.den, bits)
        root = sqrt_delta.get(key)
        if root is None:
            root = sqrt_delta[key] = dyadic_sqrt(_k_embed(delta, bits, roots), bits)
        rlo, rhi, _ = root
        xlo, xhi, xe = _form_embed(xu, xv, xden, d, bits, isqrt_d)
        ylo, yhi, ye = _form_embed(yu, yv, yden, d, bits, isqrt_d)
        # y * sqrt(delta) over 2^(ye + bits); 0 <= rlo <= rhi.
        if ylo >= 0:
            plo, phi = ylo * rlo, yhi * rhi
        elif yhi <= 0:
            plo, phi = ylo * rhi, yhi * rlo
        else:
            plo, phi = ylo * rhi, yhi * rhi
        # The sum over 2^e, e >= 2*bits, then floor and ceil to 2^bits.
        e = max(xe, ye + bits)
        lo = (xlo << e - xe) + (plo << e - ye - bits)
        hi = (xhi << e - xe) + (phi << e - ye - bits)
        e -= bits
        m = lo >> e, -(-hi >> e), bits
        if dyadic_bits(m) >= precision_bits:
            return m
        bits = _next_level(bits)


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
    u, v, _ = _sqrt_d_form(k)
    return _root_sign(u, v, k.spec.d)


def surd_sign(x: KElement, y: KElement, delta: KElement) -> int:
    """Exact sign of x + y*sqrt(delta) for x, y in K and delta >= 0 in K.

    When x and y have opposite signs the sign of x^2 - y^2*delta, an
    element of K, says which term dominates; it is 0 only when delta is a
    square in K and the value is a hidden zero.
    """
    sy = _k_sign(y)
    sx = _k_sign(x)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy * _k_sign(delta)
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
    """A root y in K with y^2 = x, or None.  The nonnegative root is returned.

    Write x = (u + v*sqrt(d))/m with integers u, v, m.  A root y makes
    z = m*y a root of U + V*sqrt(d) = m*u + m*v*sqrt(d), an algebraic
    integer, so 2z = S + T*sqrt(d) with integers S, T.  Squaring gives
    S^2 + d*T^2 = 4U and S*T = 2V, and U^2 - d*V^2 = N(z)^2 must be a
    square n^2, with S^2 - d*T^2 = 4*N(z) = +-4n: so S^2 = 2(U +- n).  The
    norm test comes first and rejects most non-squares with one isqrt.

    Conversely, an integer S != 0 with S^2 = 2(U +- n) needs no more test:
    with W = U + V*sqrt(d), W^2 = 2U*W - n^2 makes r = (W +- n)/S a root
    of W in K, of trace S and norm +-n, so an algebraic integer, and
    2r = S + T*sqrt(d) with T = 2V/S an integer and
    S^2 + d*T^2 = 2(U +- n) + 2(U -+ n) = 4U.  S = 0 means U = -+n, and
    n^2 = U^2 - d*V^2 then gives V = 0.
    """
    spec = x.spec
    d = spec.d
    u, v, m = _sqrt_d_form(x)
    norm = u * u - d * v * v
    if norm < 0:
        return None
    n = isqrt(norm)
    if n * n != norm:
        return None
    big_u, n = m * u, m * n
    for s2 in (2 * (big_u + n), 2 * (big_u - n)):
        s = isqrt(s2) if s2 >= 0 else -1
        if s * s != s2:
            continue
        if s:
            t = 2 * m * v // s
        else:
            # z = T*sqrt(d)/2 with d*T^2 = 4U.
            t2, rem = divmod(4 * big_u, d)
            t = isqrt(t2) if t2 >= 0 else -1
            if rem or t * t != t2:
                continue
        if _root_sign(s, t, d) < 0:
            s, t = -s, -t
        # y = (S + T*sqrt(d))/(2m).
        return _from_form(spec, (s, t, 2 * m))
    return None


def reals_equal(a: SurdElement | KElement, b: SurdElement | KElement) -> bool:
    """Exact equality of real values, across surd families: sign(a - b) == 0."""
    if isinstance(a, KElement) and isinstance(b, KElement):
        return a == b
    if isinstance(a, KElement):
        a, b = b, a
    if not isinstance(a, SurdElement):
        raise AssertionError(f"reals_equal does not support {type(a)!r}")
    if isinstance(b, KElement):
        return surd_sign(a.x - b, a.y, a.delta) == 0
    return surd_sum_sign(a.x - b.x, a.y, a.delta, -b.y, b.delta) == 0
