"""Continuants, convergents, the 2x2 matrix formalism and the decision
procedure for the value of an ultimately periodic continued fraction with
partial quotients in O_K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .field import FieldSpec, InputRuleError, KElement, SurdElement, is_square_in_k, sign_of


@dataclass(frozen=True)
class CFExpansion:
    """Pre-period and period of partial quotients, all integral in O_K."""

    spec: FieldSpec
    preperiod: tuple[KElement, ...]
    period: tuple[KElement, ...]

    def __post_init__(self) -> None:
        for entry in (*self.preperiod, *self.period):
            if entry.spec != self.spec:
                raise ValueError("expansion entries must share one field spec")
            if not entry.is_integral:
                raise InputRuleError(f"partial quotient {entry} is not integral in O_K")

    @property
    def is_periodic(self) -> bool:
        return len(self.period) > 0

    def entry(self, i: int) -> KElement:
        if i < len(self.preperiod):
            return self.preperiod[i]
        if not self.period:
            raise IndexError(f"finite expansion has no entry {i}")
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> list[KElement]:
        """Entries a_0 .. a_n, unrolling the period as needed."""
        return [self.entry(i) for i in range(n + 1)]

    def sigma(self) -> CFExpansion:
        return CFExpansion(
            self.spec,
            tuple(a.conj() for a in self.preperiod),
            tuple(a.conj() for a in self.period),
        )

    def __str__(self) -> str:
        pre = ", ".join(str(a) for a in self.preperiod)
        per = ", ".join(str(a) for a in self.period)
        return f"[{pre}; {per}]"


@dataclass(frozen=True)
class Mat2:
    e11: KElement
    e12: KElement
    e21: KElement
    e22: KElement

    @staticmethod
    def identity(spec: FieldSpec) -> Mat2:
        return Mat2(spec.one, spec.zero, spec.zero, spec.one)

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.e11 * other.e11 + self.e12 * other.e21,
            self.e11 * other.e12 + self.e12 * other.e22,
            self.e21 * other.e11 + self.e22 * other.e21,
            self.e21 * other.e12 + self.e22 * other.e22,
        )

    def det(self) -> KElement:
        return self.e11 * self.e22 - self.e12 * self.e21

    def inverse(self) -> Mat2:
        d = self.det()
        if d.is_zero:
            raise ZeroDivisionError("singular matrix")
        return Mat2(self.e22 / d, -self.e12 / d, -self.e21 / d, self.e11 / d)

    @property
    def is_identity_multiple(self) -> bool:
        return self.e12.is_zero and self.e21.is_zero and self.e11 == self.e22

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


@dataclass(frozen=True)
class QPairState:
    """Convergent numerators/denominators (P_n, P_{n-1}, Q_n, Q_{n-1})."""

    p_cur: KElement
    p_prev: KElement
    q_cur: KElement
    q_prev: KElement
    index: int

    def determinant_ok(self) -> bool:
        lhs = self.p_prev * self.q_cur - self.p_cur * self.q_prev
        return lhs == (-1) ** self.index


def continuant(spec: FieldSpec, ts: Sequence[KElement]) -> KElement:
    """K_n(t_1, ..., t_n) with K_{-1} = 0 and K_0 = 1."""
    return cf_matrix(spec, ts).e11


def qpair_states(spec: FieldSpec, quotients: Iterable[KElement]) -> list[QPairState]:
    p_prev, p_cur = spec.one, None
    q_prev, q_cur = spec.zero, None
    states: list[QPairState] = []
    for i, a in enumerate(quotients):
        if i == 0:
            p_cur, q_cur = a, spec.one
        else:
            p_prev, p_cur = p_cur, a * p_cur + p_prev
            q_prev, q_cur = q_cur, a * q_cur + q_prev
        states.append(QPairState(p_cur, p_prev, q_cur, q_prev, i))
    return states


def convergents(expansion: CFExpansion, n: int) -> list[QPairState]:
    """Q-pair states for indices 0..n, unrolling the period as needed."""
    return qpair_states(expansion.spec, expansion.prefix(n))


def cf_matrix(spec: FieldSpec, quotients: Sequence[KElement]) -> Mat2:
    """The product of the quotient matrices [[a, 1], [1, 0]], which is
    [[P_n, P_(n-1)], [Q_n, Q_(n-1)]]: the convergent recurrence builds it."""
    p, p_prev, q, q_prev = spec.one, spec.zero, spec.zero, spec.one
    for a in quotients:
        p, p_prev, q, q_prev = a * p + p_prev, p, a * q + q_prev, q
    return Mat2(p, p_prev, q, q_prev)


def e_matrix(expansion: CFExpansion) -> Mat2:
    """M(pre) * M(period) * M(pre)^(-1); determinant (-1)^len(period)."""
    if not expansion.is_periodic:
        raise InputRuleError("period must be nonempty")
    spec = expansion.spec
    pre = cf_matrix(spec, expansion.preperiod)
    per = cf_matrix(spec, expansion.period)
    return pre * per * pre.inverse()


def associated_poly(e: Mat2) -> tuple[KElement, KElement, KElement]:
    """(A, B, C) of the quadratic E21*x^2 + (E22 - E11)*x - E12."""
    return e.e21, e.e22 - e.e11, -e.e12


class EvalFailure(Enum):
    IDENTITY_MULTIPLE = "identity_multiple"
    UNIT_MODULUS = "unit_modulus"
    INEQ_WINDOW = "ineq_window"
    INFINITE_LIMIT = "infinite_limit"


@dataclass(frozen=True)
class PeriodicEvalResult:
    e: Mat2
    poly: tuple[KElement, KElement, KElement]
    discriminant: KElement
    value: SurdElement | None = None
    value_in_k: KElement | None = None
    failure: EvalFailure | None = None
    window: int | None = None
    negative_discriminant: bool = False
    double_root: bool = False
    linear_poly: bool = False

    @property
    def exists(self) -> bool:
        return self.failure is None


def eval_periodic(expansion: CFExpansion) -> PeriodicEvalResult:
    """Value (or limit) of an ultimately periodic continued fraction.

    Returns the selected root of the associated quadratic, or a structured
    "doesn't exist" outcome: the matrix is a multiple of the identity, the
    selected root has |E21*x + E22| = 1, some cyclic window of the period
    has M21 = 0 with |M22| > 1, or every root of the associated polynomial
    is the point at infinity.
    """
    spec = expansion.spec
    e = e_matrix(expansion)
    poly = associated_poly(e)
    ca, cb, cc = poly
    disc = cb * cb - 4 * ca * cc

    def fail(reason: EvalFailure, **kw) -> PeriodicEvalResult:
        return PeriodicEvalResult(e, poly, disc, failure=reason, **kw)

    if e.is_identity_multiple:
        return fail(EvalFailure.IDENTITY_MULTIPLE)

    disc_sign = sign_of(disc)
    if disc_sign < 0:
        # Complex roots force |E21*x + E22| = 1 at the selection step.
        return fail(EvalFailure.UNIT_MODULUS, negative_discriminant=True)

    if disc_sign == 0:
        if ca.is_zero:
            # cb = 0 as well, so the polynomial is the nonzero constant -cc
            # and both roots sit at infinity.
            return fail(EvalFailure.INFINITE_LIMIT, linear_poly=True)
        gamma_k = -cb / (2 * ca)
        return PeriodicEvalResult(e, poly, disc, value_in_k=gamma_k, double_root=True)

    value: SurdElement | None = None
    value_in_k: KElement | None = None
    linear = False
    if ca.is_zero:
        # Degenerate quadratic: one finite root, the other at infinity.
        linear = True
        gamma_k = -cc / cb
        t = sign_of(e.e22 * e.e22 - 1)
        if t == 0:
            return fail(EvalFailure.UNIT_MODULUS, linear_poly=True)
        if t < 0:
            return fail(EvalFailure.INFINITE_LIMIT, linear_poly=True)
        value_in_k = gamma_k
    else:
        root = is_square_in_k(disc)
        if root is not None:
            gamma_k = (-cb + root) / (2 * ca)
            z = ca * gamma_k + e.e22
            t = sign_of(z * z - 1)
            if t == 0:
                return fail(EvalFailure.UNIT_MODULUS)
            if t < 0:
                gamma_k = (-cb - root) / (2 * ca)
            value_in_k = gamma_k
        else:
            inv2a = spec.one / (2 * ca)
            gamma = SurdElement(spec, disc, -cb * inv2a, inv2a)
            z = ca * gamma + e.e22
            t = sign_of(z * z - 1)
            if t == 0:
                return fail(EvalFailure.UNIT_MODULUS)
            if t < 0:
                gamma = gamma.conj_sqrt()
            value = gamma

    # Window j is the period rotated to start at a_j; window j+1 is
    # Q(a_j)^(-1) * (window j) * Q(a_j), with Q(a)^(-1) = [[0, 1], [1, -a]].
    m = cf_matrix(spec, expansion.period)
    for j, a in enumerate(expansion.period):
        if m.e21.is_zero and sign_of(m.e22 * m.e22 - 1) > 0:
            return fail(EvalFailure.INEQ_WINDOW, window=j, linear_poly=linear)
        r = m.e11 - a * m.e21
        m = Mat2(a * m.e21 + m.e22, m.e21, a * r + m.e12 - a * m.e22, r)

    return PeriodicEvalResult(
        e, poly, disc, value=value, value_in_k=value_in_k, linear_poly=linear
    )
