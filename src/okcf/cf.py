"""Continuants, convergents, the 2x2 matrix formalism and the decision
procedure for the value of an ultimately periodic continued fraction with
partial quotients in O_K.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .field import FieldSpec, InputRuleError, KElement, SurdElement, is_square_in_k, sign_of
from .field import _int_mul, _make, _new


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

    def det(self) -> KElement:
        return self.e11 * self.e22 - self.e12 * self.e21

    @property
    def is_identity_multiple(self) -> bool:
        return self.e12.is_zero and self.e21.is_zero and self.e11 == self.e22

    def __str__(self) -> str:
        return f"[[{self.e11}, {self.e12}], [{self.e21}, {self.e22}]]"


@dataclass(frozen=True)
class QPairState:
    """Convergent numerators/denominators (P_n, P_{n-1}, Q_n, Q_{n-1}).

    P_(n-1)*Q_n - P_n*Q_(n-1) = (-1)^n holds by the recurrence; the tests
    assert it, nothing checks it at runtime."""

    p_cur: KElement
    p_prev: KElement
    q_cur: KElement
    q_prev: KElement
    index: int


def continuant(spec: FieldSpec, ts: Sequence[KElement]) -> KElement:
    """K_n(t_1, ..., t_n) of integral t_i, with K_{-1} = 0 and K_0 = 1."""
    return cf_matrix(spec, ts).e11


def _convergents(spec: FieldSpec, quotients: Iterable[KElement]) -> Iterator[tuple[int, ...]]:
    """The integer pairs (p, q) of p + q*w of P_n, P_(n-1), Q_n and Q_(n-1),
    eight integers, after each integral quotient a_n, from (1, 0, 0, 1) by
    P_n = a_n*P_(n-1) + P_(n-2) and the same for Q: two products on
    integer pairs per quotient."""
    c, l = spec.omega_sq_const, spec.omega_sq_lin
    p_p, p_q, pp_p, pp_q, q_p, q_q, qp_p, qp_q = 1, 0, 0, 0, 0, 0, 1, 0
    for a in quotients:
        if a.spec is not spec and a.spec != spec:
            raise ValueError("mismatched field specs")
        if not a.is_integral:
            raise InputRuleError(f"partial quotient {a} is not integral in O_K")
        x, y = _int_mul(c, l, a.p, a.q, p_p, p_q)
        u, v = _int_mul(c, l, a.p, a.q, q_p, q_q)
        p_p, p_q, pp_p, pp_q = x + pp_p, y + pp_q, p_p, p_q
        q_p, q_q, qp_p, qp_q = u + qp_p, v + qp_q, q_p, q_q
        yield p_p, p_q, pp_p, pp_q, q_p, q_q, qp_p, qp_q


def qpair_states(spec: FieldSpec, quotients: Iterable[KElement]) -> list[QPairState]:
    """One state per integral quotient, by the convergent recurrence; each
    P_(n-1) and Q_(n-1) is the element made at the step before.  A state is
    built as `_make` builds an element, since `QPairState` checks nothing."""
    states = []
    p, q = spec.one, spec.zero
    for i, (p_p, p_q, _, _, q_p, q_q, _, _) in enumerate(_convergents(spec, quotients)):
        state = _new(QPairState)
        fields = state.__dict__
        fields["p_prev"], fields["q_prev"], fields["index"] = p, q, i
        fields["p_cur"] = p = _make(spec, p_p, p_q, 1)
        fields["q_cur"] = q = _make(spec, q_p, q_q, 1)
        states.append(state)
    return states


def convergents(expansion: CFExpansion, n: int) -> list[QPairState]:
    """Q-pair states for indices 0..n, unrolling the period as needed."""
    return qpair_states(expansion.spec, expansion.prefix(n))


def _matrix_pairs(spec: FieldSpec, quotients: Iterable[KElement]) -> tuple[int, ...]:
    """The integer pairs of [[P_n, P_(n-1)], [Q_n, Q_(n-1)]], row by row,
    after the last quotient: those of the identity for none."""
    last = 1, 0, 0, 0, 0, 0, 1, 0
    for last in _convergents(spec, quotients):
        pass
    return last


def cf_matrix(spec: FieldSpec, quotients: Sequence[KElement]) -> Mat2:
    """[[P_n, P_(n-1)], [Q_n, Q_(n-1)]], the product of the quotient matrices
    [[a, 1], [1, 0]] of integral quotients: the identity for none."""
    p11, q11, p12, q12, p21, q21, p22, q22 = _matrix_pairs(spec, quotients)
    return Mat2(_make(spec, p11, q11, 1), _make(spec, p12, q12, 1),
                _make(spec, p21, q21, 1), _make(spec, p22, q22, 1))


def _e_pairs(expansion: CFExpansion) -> tuple[int, ...]:
    """The integer pairs of E = M(pre) * M(period) * M(pre)^(-1), row by
    row, as `_matrix_pairs` gives them.

    One pass of the recurrence gives M(pre) * M(period) on the integer
    pairs of its integral entries; each pre-period quotient is then undone,
    last first, on the right by Q(a)^(-1) = [[0, 1], [1, -a]], which maps a
    row (x, y) to (y, x - a*y).
    """
    if not expansion.is_periodic:
        raise InputRuleError("period must be nonempty")
    spec = expansion.spec
    c, l = spec.omega_sq_const, spec.omega_sq_lin
    p11, q11, p12, q12, p21, q21, p22, q22 = _matrix_pairs(
        spec, expansion.preperiod + expansion.period)
    for a in reversed(expansion.preperiod):
        x, y = _int_mul(c, l, a.p, a.q, p12, q12)
        p11, q11, p12, q12 = p12, q12, p11 - x, q11 - y
        x, y = _int_mul(c, l, a.p, a.q, p22, q22)
        p21, q21, p22, q22 = p22, q22, p21 - x, q21 - y
    return p11, q11, p12, q12, p21, q21, p22, q22


def e_matrix(expansion: CFExpansion) -> Mat2:
    """M(pre) * M(period) * M(pre)^(-1); determinant (-1)^len(period).
    Its entries are made from the integers of `_e_pairs`."""
    spec = expansion.spec
    p11, q11, p12, q12, p21, q21, p22, q22 = _e_pairs(expansion)
    return Mat2(_make(spec, p11, q11, 1), _make(spec, p12, q12, 1),
                _make(spec, p21, q21, 1), _make(spec, p22, q22, 1))


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

    With E21 != 0 and D = tr(E)^2 - 4*det(E) > 0, two identities spare
    work.  Root selection: at x = (-B + sqrt(D))/(2*E21),
    z = E21*x + E22 = (t + sqrt(D))/2, t = tr(E), is E's larger
    eigenvalue; the other is z' = det(E)/z, and det(E) = +-1.  For det = 1,
    |t| > 2 and z, z' share a sign: z > 1 when t > 2, -1 < z < 0 when
    t < -2.  For det = -1, z > 0 and t = z - 1/z.  So sign(z^2 - 1) is
    sign(t), and t = 0 needs D = 4, a square.  Windows: each is conjugate
    to E (window 0 by M(pre), window j+1 to window j by Q(a_j)), so one
    with M21 = 0 has E's eigenvalues on its diagonal, and D is a square
    in K.
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

    linear = ca.is_zero
    if linear:
        # Degenerate quadratic: one finite root, the other at infinity.
        t = sign_of(e.e22 * e.e22 - 1)
        if t == 0:
            return fail(EvalFailure.UNIT_MODULUS, linear_poly=True)
        if t < 0:
            return fail(EvalFailure.INFINITE_LIMIT, linear_poly=True)
        value_in_k = -cc / cb
    else:
        # sign(z^2 - 1) = sign(tr E), and a surd root has no window to scan.
        t = sign_of(e.e11 + e.e22)
        root = is_square_in_k(disc)
        if root is None:
            inv2a = spec.one / (2 * ca)
            gamma = SurdElement(spec, disc, -cb * inv2a, inv2a if t > 0 else -inv2a)
            return PeriodicEvalResult(e, poly, disc, value=gamma)
        if t == 0:
            return fail(EvalFailure.UNIT_MODULUS)
        value_in_k = (-cb + t * root) / (2 * ca)

    # Window j is the period rotated to start at a_j; window j+1 is
    # Q(a_j)^(-1) * (window j) * Q(a_j), with Q(a)^(-1) = [[0, 1], [1, -a]].
    m = cf_matrix(spec, expansion.period)
    for j, a in enumerate(expansion.period):
        if m.e21.is_zero and sign_of(m.e22 * m.e22 - 1) > 0:
            return fail(EvalFailure.INEQ_WINDOW, window=j, linear_poly=linear)
        r = m.e11 - a * m.e21
        m = Mat2(a * m.e21 + m.e22, m.e21, a * r + m.e12 - a * m.e22, r)

    return PeriodicEvalResult(e, poly, disc, value_in_k=value_in_k, linear_poly=linear)
