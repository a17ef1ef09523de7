"""A frozen, Fraction-backed copy of K = Q(sqrt(d)) arithmetic, kept only
as a differential reference for `okcf.field.KElement`, and of the square
test `okcf.field.is_square_in_k` on Fraction coordinates.

It stores a + b*w with Fraction coordinates on the integral basis {1, w},
w = (1 + sqrt(d))/2 when d = 1 (mod 4) and w = sqrt(d) otherwise, exactly
as the package did before its elements became integer triples.  It shares
no code with `okcf.field`: the constants of w^2 = c + l*w are derived here
from d alone.  Do not optimise it; its value is that it stays simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def omega_square(d: int) -> tuple[Fraction, Fraction]:
    """(c, l) with w^2 = c + l*w."""
    if d % 4 == 1:
        return Fraction((d - 1) // 4), Fraction(1)
    return Fraction(d), Fraction(0)


@dataclass(frozen=True, eq=False)
class RefK:
    """a + b*w in Q(sqrt(d))."""

    d: int
    a: Fraction
    b: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefK):
            if other.d == self.d:
                return self.a == other.a and self.b == other.b
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.d, self.a, self.b))

    def _coerce(self, other: object) -> RefK | None:
        if isinstance(other, RefK):
            if other.d != self.d:
                raise ValueError("mismatched field specs")
            return other
        if isinstance(other, (int, Fraction)):
            return RefK(self.d, Fraction(other), Fraction(0))
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

    def __add__(self, other: object) -> RefK:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefK(self.d, self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: object) -> RefK:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RefK(self.d, self.a - o.a, self.b - o.b)

    def __rsub__(self, other: object) -> RefK:
        return (-self) + other

    def __neg__(self) -> RefK:
        return RefK(self.d, -self.a, -self.b)

    def __mul__(self, other: object) -> RefK:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c, l = omega_square(self.d)
        bb = self.b * o.b
        return RefK(self.d, self.a * o.a + bb * c, self.a * o.b + self.b * o.a + bb * l)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> RefK:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in K")
        return self * o.conj() * RefK(self.d, 1 / n, Fraction(0))

    def __rtruediv__(self, other: object) -> RefK:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> RefK:
        if n < 0:
            return RefK(self.d, Fraction(1), Fraction(0)) / self ** (-n)
        out = RefK(self.d, Fraction(1), Fraction(0))
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> RefK:
        """Galois conjugate: w -> 1 - w when d = 1 (mod 4), else w -> -w."""
        if self.d % 4 == 1:
            return RefK(self.d, self.a + self.b, -self.b)
        return RefK(self.d, self.a, -self.b)

    def norm(self) -> Fraction:
        # The product with the conjugate, expanded without a closed form.
        p = self * self.conj()
        assert p.b == 0
        return p.a

    def trace(self) -> Fraction:
        t = self + self.conj()
        assert t.b == 0
        return t.a

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        w_part = f"{abs(self.b)}*w"
        if self.a == 0:
            return w_part if self.b > 0 else f"-{w_part}"
        return f"{self.a}{'+' if self.b > 0 else '-'}{w_part}"


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _sign(s: Fraction, t: Fraction, d: int) -> int:
    """Exact sign of s + t*sqrt(d) for rationals s, t and a non-square d."""
    ss, st = (s > 0) - (s < 0), (t > 0) - (t < 0)
    if st == 0 or ss == st:
        return ss
    if ss == 0:
        return st
    return ss if s * s > t * t * d else st


def ref_is_square(x: RefK) -> RefK | None:
    """The nonnegative root y in K with y^2 = x, or None: the package's
    `is_square_in_k` as it was on Fraction coordinates, kept as the
    reference for its integer version."""
    d = x.d
    if x.is_zero:
        return RefK(d, Fraction(0), Fraction(0))
    # x = u + v*sqrt(d)
    if d % 4 == 1:
        u, v = x.a + x.b / 2, x.b / 2
    else:
        u, v = x.a, x.b
    candidates: list[tuple[Fraction, Fraction]] = []
    if v == 0:
        r = _rational_sqrt(u)
        if r is not None:
            candidates.append((r, Fraction(0)))
        r = _rational_sqrt(u / d)
        if r is not None:
            candidates.append((Fraction(0), r))
    else:
        # (s + t*sqrt(d))^2 = x forces s^2 = (u +- sqrt(u^2 - v^2 d))/2,
        # t = v/(2s); the inner radical is the rational norm of x.
        n = _rational_sqrt(u * u - v * v * d)
        if n is None:
            return None
        for w in (u + n, u - n):
            s = _rational_sqrt(w / 2)
            if s is None or s == 0:
                continue
            candidates.append((s, v / (2 * s)))
    for s, t in candidates:
        root = RefK(d, s - t, 2 * t) if d % 4 == 1 else RefK(d, s, t)
        if root * root == x:
            return root if _sign(s, t, d) >= 0 else -root
    return None
