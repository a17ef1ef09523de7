"""Exact tracking of the complete quotients of a real quartic irrational
that is quadratic over K: minimal-polynomial triple recursion, Weil and
naive heights, trajectory diagnostics and the periodicity predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

from .cf import QPairState, qpair_states
from .field import FieldSpec, InputRuleError, KElement, SurdElement, is_square_in_k, sign_of
from .intervals import DEFAULT_BITS, RealInterval, refine


class SeedError(InputRuleError):
    """The quadratic seed cannot drive a quartic trajectory."""


class SquareDiscriminantError(SeedError):
    """Discriminant is a square in K: the root is quadratic (classical
    Lagrange case), outside the scope of this tracker."""


@dataclass(frozen=True)
class QuadraticPolyK:
    """A*x^2 + B*x + C with coefficients integral in O_K and A != 0."""

    A: KElement
    B: KElement
    C: KElement

    def __post_init__(self) -> None:
        if self.A.is_zero:
            raise SeedError("leading coefficient must be nonzero")
        for coeff in (self.A, self.B, self.C):
            if not coeff.is_integral:
                raise SeedError(f"coefficient {coeff} is not integral in O_K")

    @property
    def spec(self) -> FieldSpec:
        return self.A.spec

    @cached_property
    def delta(self) -> KElement:
        return self.B * self.B - 4 * self.A * self.C

    def sigma(self) -> QuadraticPolyK:
        return QuadraticPolyK(self.A.conj(), self.B.conj(), self.C.conj())

    def evaluate(self, t: KElement) -> KElement:
        return (self.A * t + self.B) * t + self.C

    def __str__(self) -> str:
        return f"({self.A})*x^2 + ({self.B})*x + ({self.C})"


@dataclass(frozen=True)
class QuotientState:
    """A complete quotient: the exact triple (A_n, B_n, C_n) plus the
    root-branch sign.  The value is (-B_n + branch*sqrt(delta))/(2*A_n),
    a surd over the seed discriminant."""

    poly: QuadraticPolyK
    branch: int

    def __post_init__(self) -> None:
        if self.branch not in (1, -1):
            raise InputRuleError("branch must be +1 or -1")

    @property
    def key(self) -> tuple[KElement, KElement, int]:
        return (self.poly.A, self.poly.B, self.branch)

    @property
    def canonical_key(self) -> tuple[KElement, KElement]:
        """Key identifying the state's real value exactly.

        (A, B, branch) and (-A, -B, -branch) describe the same real number
        (the triple recursion can revisit a value with the overall sign
        flipped), so the branch sign is folded into the coefficients.
        """
        if self.branch > 0:
            return (self.poly.A, self.poly.B)
        return (-self.poly.A, -self.poly.B)

    @cached_property
    def value(self) -> SurdElement:
        spec = self.poly.spec
        inv2a = spec.one / (2 * self.poly.A)
        return SurdElement(
            spec, self.poly.delta, -self.poly.B * inv2a, self.branch * inv2a
        )


def make_state(poly: QuadraticPolyK, branch: int) -> QuotientState:
    if sign_of(poly.delta) <= 0:
        raise SeedError(f"discriminant {poly.delta} is not positive")
    if is_square_in_k(poly.delta) is not None:
        raise SquareDiscriminantError(
            f"discriminant {poly.delta} is a square in K; the root is quadratic "
            "and has a classical continued fraction expansion"
        )
    return QuotientState(poly, branch)


def step_state(state: QuotientState, a: KElement) -> QuotientState:
    """State of 1/(xi - a): shift by a, then swap A and C.

    With B' = 2*A*a + B and C' = f(a), the identity
    1/(xi - a) = (-B' - branch*sqrt(delta)) / (2*C') gives the new branch
    as -branch.
    """
    if not a.is_integral:
        raise InputRuleError(f"partial quotient {a} is not integral in O_K")
    poly = state.poly
    new_poly = QuadraticPolyK(poly.evaluate(a), 2 * poly.A * a + poly.B, poly.A)
    return QuotientState(new_poly, -state.branch)


def triple_recursion(seed: QuadraticPolyK, qp: QPairState) -> QuadraticPolyK:
    """(A_{n+1}, B_{n+1}, C_{n+1}) from the convergent pair at index n."""
    pn, pm = qp.p_cur, qp.p_prev
    qn, qm = qp.q_cur, qp.q_prev
    a_next = seed.A * pn * pn + seed.B * pn * qn + seed.C * qn * qn
    b_next = (
        2 * seed.A * pn * pm + seed.B * (pn * qm + pm * qn) + 2 * seed.C * qn * qm
    )
    c_next = seed.A * pm * pm + seed.B * pm * qm + seed.C * qm * qm
    return QuadraticPolyK(a_next, b_next, c_next)


def run_trajectory(
    seed: QuadraticPolyK, branch: int, quotients: Sequence[KElement]
) -> list[QuotientState]:
    """States xi_0 .. xi_n driven by the given partial quotients."""
    states = [make_state(seed, branch)]
    for a in quotients:
        states.append(step_state(states[-1], a))
    return states


def _embedding_magnitudes(
    state: QuotientState, bits: int
) -> tuple[RealInterval, RealInterval, list[RealInterval], KElement | None]:
    """|phi(xi)| for the embeddings {id, tau1} and the sigma pair.

    Returns (|xi|, |tau1(xi)|, sigma_magnitudes, pair_modulus_sq) where
    sigma magnitudes hold the two real values when sigma(delta) > 0 and
    pair_modulus_sq is the exact |z|^2 in K when the pair is complex.
    """
    v = state.value
    m_id = abs(v.embed(bits))
    m_tau = abs(v.conj_sqrt().embed(bits))
    spoly = state.poly.sigma()
    if sign_of(spoly.delta) > 0:
        plus = QuotientState(spoly, 1).value
        return m_id, m_tau, [abs(plus.embed(bits)), abs(plus.conj_sqrt().embed(bits))], None
    # Complex conjugate pair: |z|^2 = sigma(C)/sigma(A) exactly in K.
    return m_id, m_tau, [], spoly.C / spoly.A


def weil_height4(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    """Interval for H(xi)^4 = |A * sigma(A)| * prod max(1, |phi(xi)|)."""
    lead = abs(state.poly.A.norm())
    m_id, m_tau, sigma_pair, modulus_sq = _embedding_magnitudes(state, precision_bits)
    acc = RealInterval.point(lead)
    acc = acc * m_id.max_with(1) * m_tau.max_with(1)
    if modulus_sq is None:
        for m in sigma_pair:
            acc = acc * m.max_with(1)
    else:
        acc = acc * modulus_sq.embed(precision_bits).max_with(1)
    return acc


def weil_height(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    return weil_height4(state, precision_bits).root4(precision_bits)


def weil_height_element(x: KElement, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    """Weil height of an element of K (degree 1 or 2 over Q)."""
    if x.is_zero:
        return RealInterval.point(1)
    if x.is_rational:
        return RealInterval.point(max(abs(x.p), x.den))
    # Primitive integer minimal polynomial a*t^2 + b*t + c from trace/norm.
    tr, nm = x.trace(), x.norm()
    den = (tr.denominator * nm.denominator) // gcd(tr.denominator, nm.denominator)
    ia, ib, ic = den, -tr.numerator * (den // tr.denominator), nm.numerator * (
        den // nm.denominator
    )
    content = gcd(ia, ib, ic)
    lead = abs(ia) // content
    h2 = (
        RealInterval.point(lead)
        * abs(x.embed(precision_bits)).max_with(1)
        * abs(x.embed(precision_bits, conjugate=True)).max_with(1)
    )
    return h2.sqrt(precision_bits)


def naive_height(state: QuotientState) -> int:
    """Max |coefficient| of the degree-4 integer polynomial f_n * sigma(f_n)."""
    p, s = state.poly, state.poly.sigma()
    coeffs = [
        p.A * s.A,
        p.A * s.B + p.B * s.A,
        p.A * s.C + p.C * s.A + p.B * s.B,
        p.B * s.C + p.C * s.B,
        p.C * s.C,
    ]
    out = 0
    for c in coeffs:
        if not (c.is_rational and c.is_integral):
            raise AssertionError(f"f_n * sigma(f_n) has a non-integer coefficient {c}")
        out = max(out, abs(c.p))
    return out


def _tight_abs(value: KElement | SurdElement, rel_bits: int) -> RealInterval:
    """|value| enclosed with width <= 2^(1-rel_bits) * |value|.

    The default embedding quality is relative to max(1, |value|), which is
    vacuous for the exponentially small approximation errors S_n; this
    refines until the enclosure is tight relative to the value itself.
    """
    tol = Fraction(1, 1 << (rel_bits - 1))
    return refine(
        lambda bits: abs(value.embed(bits)),
        rel_bits,
        lambda iv: iv.hi == 0 or (iv.lo > 0 and iv.width <= iv.lo * tol),
    )


@dataclass(frozen=True)
class TrajectoryRow:
    index: int
    triple: tuple[KElement, KElement, KElement]
    p: KElement
    q: KElement
    s_n: RealInterval
    f1: RealInterval
    f2: RealInterval
    weil: RealInterval
    naive: int
    qs_abs: RealInterval
    # |sigma(Q_n) * (xi' sigma(Q_n) - sigma(P_n))| for both real roots xi'
    # of the conjugate polynomial; None when those roots are complex.
    qs_sigma: tuple[RealInterval, RealInterval] | None


@dataclass(frozen=True)
class TrajectorySummary:
    steps: int
    max_abs_a: float
    max_abs_sigma_a: float
    sup_qs: float
    sup_qs_sigma: float | None
    weil_min: float
    weil_max: float
    naive_max: int


def diagnostics(
    seed: QuadraticPolyK,
    branch: int,
    quotients: Sequence[KElement],
    precision_bits: int = DEFAULT_BITS,
) -> list[TrajectoryRow]:
    """One row per index n = 0..len(quotients)-1.

    Row n carries the triple of xi_n, the convergent pair (P_n, Q_n), the
    approximation error S_n = xi*Q_n - P_n, the two embedding-pair products
    F_1(n), F_2(n) (with S_{-1} = -1), and the heights of xi_n.
    """
    bits = precision_bits
    spec = seed.spec
    states = run_trajectory(seed, branch, quotients)
    qpairs = qpair_states(spec, quotients)
    xi = states[0].value
    xi_tau = xi.conj_sqrt()
    # x + y*sqrt(sigma(delta)) are the roots of the conjugate polynomial;
    # when they are complex, only x and y are read.
    xi_p_plus = QuotientState(seed.sigma(), 1).value
    sigma_real = sign_of(xi_p_plus.delta) > 0
    if sigma_real:
        xi_p_minus = xi_p_plus.conj_sqrt()

    one = RealInterval.point(1)
    prev = {"id": one, "tau": one, "s2": one, "s3": one}
    rows: list[TrajectoryRow] = []
    for n, qp in enumerate(qpairs):
        pn, qn = qp.p_cur, qp.q_cur
        s_id = _tight_abs(xi * qn - pn, bits)
        s_tau = _tight_abs(xi_tau * qn - pn, bits)
        sqn, spn = qn.conj(), pn.conj()
        if sigma_real:
            s_s2 = _tight_abs(xi_p_plus * sqn - spn, bits)
            s_s3 = _tight_abs(xi_p_minus * sqn - spn, bits)
            sq_abs = abs(sqn.embed(bits))
            qs_sigma = (s_s2 * sq_abs, s_s3 * sq_abs)
        else:
            # Complex pair: |x'' + y''*sqrt(sigma(delta))|^2
            # = x''^2 - y''^2*sigma(delta) in K.
            x2 = xi_p_plus.x * sqn - spn
            y2 = xi_p_plus.y * sqn
            mod_sq = x2 * x2 - y2 * y2 * xi_p_plus.delta
            s_s2 = s_s3 = _tight_abs(mod_sq, bits).sqrt(bits)
            qs_sigma = None
        f1 = s_id.max_with(prev["id"]) * s_tau.max_with(prev["tau"])
        f2 = s_s2.max_with(prev["s2"]) * s_s3.max_with(prev["s3"])
        state_n = states[n]
        q_abs = abs(qn.embed(bits))
        rows.append(
            TrajectoryRow(
                index=n,
                triple=(state_n.poly.A, state_n.poly.B, state_n.poly.C),
                p=pn,
                q=qn,
                s_n=s_id,
                f1=f1,
                f2=f2,
                weil=weil_height(state_n, bits),
                naive=naive_height(state_n),
                qs_abs=q_abs * s_id,
                qs_sigma=qs_sigma,
            )
        )
        prev = {"id": s_id, "tau": s_tau, "s2": s_s2, "s3": s_s3}
    return rows


def summarize(rows: Sequence[TrajectoryRow], quotients: Sequence[KElement],
              precision_bits: int = DEFAULT_BITS) -> TrajectorySummary:
    """Summary of the `diagnostics` rows of (seed, branch, quotients).

    The maxima of |A_n| and |sigma(A_n)| run over xi_0 .. xi_N+1, where N
    is the last row; A_N+1 = f_N(a_N) is the one value the rows lack.  The
    sigma-side sup is the smaller of the two root choices' sups: the bound
    only claims existence of a suitable root of the conjugate polynomial.
    """
    last = QuadraticPolyK(*rows[-1].triple).evaluate(quotients[len(rows) - 1])
    leads = [r.triple[0] for r in rows] + [last]
    max_a = max(float(abs(x.embed(precision_bits)).hi) for x in leads)
    max_sa = max(float(abs(x.embed(precision_bits, conjugate=True)).hi) for x in leads)
    sigma_sup = None
    if rows[0].qs_sigma is not None:
        sigma_sup = min(max(float(r.qs_sigma[i].hi) for r in rows) for i in (0, 1))
    return TrajectorySummary(
        steps=len(rows),
        max_abs_a=max_a,
        max_abs_sigma_a=max_sa,
        sup_qs=max(float(r.qs_abs.hi) for r in rows),
        sup_qs_sigma=sigma_sup,
        weil_min=min(float(r.weil.lo) for r in rows),
        weil_max=max(float(r.weil.hi) for r in rows),
        naive_max=max(r.naive for r in rows),
    )


@dataclass(frozen=True)
class PreconditionReport:
    sigma_delta: KElement
    sigma_delta_sign: int
    rejected: bool
    even_period_required: bool
    indeterminate_range: bool
    interval_test: bool | None
    notes: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.rejected and self.interval_test is not False


def periodicity_preconditions(
    seed: QuadraticPolyK,
    a0: KElement | None = None,
    a1: KElement | None = None,
) -> PreconditionReport:
    """Sign classification of sigma(delta) and the start-window root test.

    sigma(delta) < -4 rules out any periodic expansion over K; a negative
    sigma(delta) forces an even period length; the range [-4, 0) is left
    indeterminate.  With a0, a1 given and sigma(a1) > 0, some root of the
    conjugate polynomial must lie in (sigma(a0), sigma(a0) + 1/sigma(a1)).
    """
    sdelta = seed.delta.conj()
    s = sign_of(sdelta)
    notes: list[str] = []
    rejected = False
    even = False
    indeterminate = False
    if s < 0:
        even = True
        notes.append("sigma(delta) < 0: any periodic expansion has even period length")
        if sign_of(sdelta + 4) < 0:
            rejected = True
            notes.append(
                "sigma(delta) < -4: no ultimately periodic expansion over K exists "
                "(even-period discriminants satisfy sigma(delta) >= -4)"
            )
        else:
            indeterminate = True
            notes.append("-4 <= sigma(delta) < 0: periodicity indeterminate")
    interval_test: bool | None = None
    if a0 is not None and a1 is not None:
        if sign_of(a1.conj()) <= 0:
            notes.append("sigma(a1) <= 0: start-window test not applicable")
        else:
            interval_test = _root_in_window(seed, a0, a1)
            if not interval_test:
                notes.append(
                    "no conjugate root in (sigma(a0), sigma(a0) + 1/sigma(a1)): "
                    "an expansion starting [a0, a1, ...] with positive conjugate "
                    "quotients cannot be ultimately periodic"
                )
    return PreconditionReport(
        sigma_delta=sdelta,
        sigma_delta_sign=s,
        rejected=rejected,
        even_period_required=even,
        indeterminate_range=indeterminate,
        interval_test=interval_test,
        notes=tuple(notes),
    )


def _root_in_window(seed: QuadraticPolyK, a0: KElement, a1: KElement) -> bool:
    spec = seed.spec
    spoly = seed.sigma()
    lo = a0.conj()
    hi = lo + spec.one / a1.conj()
    sdelta = spoly.delta
    s = sign_of(sdelta)
    if s < 0:
        return False
    roots: list[SurdElement | KElement]
    if s == 0:
        roots = [-spoly.B / (2 * spoly.A)]
    else:
        root = is_square_in_k(sdelta)
        if root is not None:
            roots = [(-spoly.B + root) / (2 * spoly.A), (-spoly.B - root) / (2 * spoly.A)]
        else:
            plus = QuotientState(spoly, 1).value
            roots = [plus, plus.conj_sqrt()]
    for r in roots:
        if sign_of(r - lo) > 0 and sign_of(hi - r) > 0:
            return True
    return False
