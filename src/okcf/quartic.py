"""Exact tracking of the complete quotients of a real quartic irrational
that is quadratic over K: minimal-polynomial triple recursion, Weil and
naive heights, trajectory diagnostics and the periodicity predicates.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from math import gcd
from typing import Sequence

from .cf import QPairState, qpair_states
from .field import (
    FieldSpec,
    InputRuleError,
    KElement,
    SurdElement,
    _k_embed,
    _make,
    _new,
    _form_mul,
    _RootTable,
    _root_sign,
    _sqrt_d_form,
    _surd_form_embed,
    is_square_in_k,
    sign_of,
)
from .intervals import (
    DEFAULT_BITS,
    MAX_BITS,
    Dyadic,
    RealInterval,
    _aligned,
    _next_level,
    dyadic_abs,
    dyadic_floats,
    dyadic_interval,
    dyadic_max,
    dyadic_mul,
    dyadic_sqrt,
)


# The point interval [1, 1].
_ONE: Dyadic = (1, 1, 0)


class SeedError(InputRuleError):
    """The quadratic seed cannot drive a quartic trajectory."""


class SquareDiscriminantError(SeedError):
    """Discriminant is a square in K: the root is quadratic (classical
    Lagrange case), outside the scope of this tracker."""


@dataclass(frozen=True)
class QuadraticPolyK:
    """A*x^2 + B*x + C with coefficients integral in one O_K and A != 0."""

    A: KElement
    B: KElement
    C: KElement

    def __post_init__(self) -> None:
        if self.A.is_zero:
            raise SeedError("leading coefficient must be nonzero")
        for coeff in (self.A, self.B, self.C):
            if not coeff.is_integral:
                raise SeedError(f"coefficient {coeff} is not integral in O_K")
            if coeff.spec is not self.A.spec and coeff.spec != self.A.spec:
                raise ValueError("mismatched field specs")

    @property
    def spec(self) -> FieldSpec:
        return self.A.spec

    @cached_property
    def delta(self) -> KElement:
        return self.B * self.B - 4 * self.A * self.C

    def sigma(self) -> QuadraticPolyK:
        return QuadraticPolyK(self.A.conj(), self.B.conj(), self.C.conj())

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


def _root_forms(d: int, a: tuple[int, int, int], b: tuple[int, int, int]
                ) -> tuple[tuple[int, int, int], tuple[int, int, int], int]:
    """The forms of x = -B/(2A) and y = 1/(2A), the root of branch e being
    x + e*y*sqrt(delta), and the integer |N(A)|, from the forms a and b of
    the integral A and B over one m: with A = (u + v*sqrt(d))/m and
    n = u^2 - d*v^2 = m^2*N(A), 1/A = m*(u - v*sqrt(d))/n, the sign of n
    moved to the numerator.  sigma(A) and sigma(B) give x and y with v
    negated."""
    (au, av, am), (bu, bv, bm) = a, b
    n = au * au - d * av * av
    s = am if n > 0 else -am
    y = s * au, -s * av, 2 * abs(n)
    return _form_mul(d, (-bu, -bv, bm), y), y, abs(n) // (am * am)


def make_state(poly: QuadraticPolyK, branch: int) -> QuotientState:
    if sign_of(poly.delta) <= 0:
        raise SeedError(f"discriminant {poly.delta} is not positive")
    if is_square_in_k(poly.delta) is not None:
        raise SquareDiscriminantError(
            f"discriminant {poly.delta} is a square in K; the root is quadratic "
            "and has a classical continued fraction expansion"
        )
    return QuotientState(poly, branch)


def _poly(A: KElement, B: KElement, C: KElement) -> QuadraticPolyK:
    """The polynomial A*x^2 + B*x + C that `step_state` and
    `triple_recursion` derive, built as `field._make` builds an element.

    Integral coefficients of one spec in give integral coefficients of that
    spec out (each is `_make(spec, p, q, 1)`), so only the nonzero leading
    coefficient is checked: it fails when the seed has a root in K.  The
    tests rebuild every derived polynomial through `QuadraticPolyK`.
    """
    if not A.p and not A.q:
        raise SeedError("leading coefficient must be nonzero")
    poly = _new(QuadraticPolyK)
    fields = poly.__dict__
    fields["A"], fields["B"], fields["C"] = A, B, C
    return poly


def _step_pairs(c: int, l: int, a_p: int, a_q: int, b_p: int, b_q: int, c_p: int, c_q: int,
                x_p: int, x_q: int) -> tuple[int, int, int, int]:
    """The integer pairs of f(a) and 2*A*a + B for f = A*x^2 + B*x + C and
    a = x_p + x_q*w, all integral, with w^2 = c + l*w.  With t = A*a + B,
    f(a) = t*a + C and 2*A*a + B = A*a + t: two products, each
    `field._int_mul` written out."""
    qq = a_q * x_q
    aa_p, aa_q = a_p * x_p + c * qq, a_p * x_q + a_q * x_p + l * qq
    t_p, t_q = aa_p + b_p, aa_q + b_q
    qq = t_q * x_q
    f_p, f_q = t_p * x_p + c * qq, t_p * x_q + t_q * x_p + l * qq
    return f_p + c_p, f_q + c_q, aa_p + t_p, aa_q + t_q


def step_state(state: QuotientState, a: KElement) -> QuotientState:
    """State of 1/(xi - a): shift by a, then swap A and C.

    With B' = 2*A*a + B and C' = f(a), the identity
    1/(xi - a) = (-B' - branch*sqrt(delta)) / (2*C') gives the new branch
    as -branch.  `_step_pairs` computes f(a) and B' on the integer pairs of
    p + q*w, and one element is made per result.  The state is built as
    `_poly` builds its polynomial: the negated branch of a valid state is
    +1 or -1.  The tests rebuild every derived state through
    `QuotientState`.
    """
    if a.den != 1:
        raise InputRuleError(f"partial quotient {a} is not integral in O_K")
    poly = state.poly
    A, B, C, spec = poly.A, poly.B, poly.C, poly.A.spec
    if a.spec is not spec and a.spec != spec:
        raise ValueError("mismatched field specs")
    f_p, f_q, b_p, b_q = _step_pairs(
        spec.omega_sq_const, spec.omega_sq_lin, A.p, A.q, B.p, B.q, C.p, C.q, a.p, a.q)
    state_n = _new(QuotientState)
    fields = state_n.__dict__
    fields["poly"] = _poly(_make(spec, f_p, f_q, 1), _make(spec, b_p, b_q, 1), A)
    fields["branch"] = -state.branch
    return state_n


def triple_recursion(seed: QuadraticPolyK, qp: QPairState) -> QuadraticPolyK:
    """(A_{n+1}, B_{n+1}, C_{n+1}) from the convergent pair at index n.

    A_{n+1} = f(P_n, Q_n), C_{n+1} = f(P_{n-1}, Q_{n-1}) and B_{n+1} is the
    polar form of the binary quadratic form f(x, y) = A*x^2 + B*x*y + C*y^2.
    With u = A*P_n + B*Q_n and c = C*Q_n, A_{n+1} = u*P_n + c*Q_n and
    B_{n+1} = (u + A*P_n)*P_{n-1} + (B*P_n + 2c)*Q_{n-1}: 13 products, on
    the pairs (x_p, x_q) of x = x_p + x_q*w, each `field._int_mul` written
    out as qq = x_q*y_q, (x_p*y_p + c*qq, x_p*y_q + x_q*y_p + l*qq), and
    one element per result.
    """
    spec = seed.spec
    pn, pm, qn, qm = qp.p_cur, qp.p_prev, qp.q_cur, qp.q_prev
    for x in (pn, pm, qn, qm):
        if x.spec is not spec and x.spec != spec:
            raise ValueError("mismatched field specs")
        if x.den != 1:
            raise InputRuleError(f"convergent {x} is not integral in O_K")
    c, l = spec.omega_sq_const, spec.omega_sq_lin
    pn_p, pn_q, pm_p, pm_q = pn.p, pn.q, pm.p, pm.q
    qn_p, qn_q, qm_p, qm_q = qn.p, qn.q, qm.p, qm.q
    a_p, a_q, b_p, b_q, s_p, s_q = seed.A.p, seed.A.q, seed.B.p, seed.B.q, seed.C.p, seed.C.q
    # c = C*Q_n, A*P_n, and u = B*Q_n + A*P_n.
    qq = s_q * qn_q
    c_p, c_q = s_p * qn_p + c * qq, s_p * qn_q + s_q * qn_p + l * qq
    qq = a_q * pn_q
    ap_p, ap_q = a_p * pn_p + c * qq, a_p * pn_q + a_q * pn_p + l * qq
    qq = b_q * qn_q
    u_p, u_q = b_p * qn_p + c * qq + ap_p, b_p * qn_q + b_q * qn_p + l * qq + ap_q
    # A_{n+1} = u*P_n + c*Q_n.
    qq = u_q * pn_q
    x_p, x_q = u_p * pn_p + c * qq, u_p * pn_q + u_q * pn_p + l * qq
    qq = c_q * qn_q
    y_p, y_q = c_p * qn_p + c * qq, c_p * qn_q + c_q * qn_p + l * qq
    a_next = _make(spec, x_p + y_p, x_q + y_q, 1)
    # B_{n+1} = (u + A*P_n)*P_{n-1} + (B*P_n + 2c)*Q_{n-1}.
    t_p, t_q = u_p + ap_p, u_q + ap_q
    qq = t_q * pm_q
    x_p, x_q = t_p * pm_p + c * qq, t_p * pm_q + t_q * pm_p + l * qq
    qq = b_q * pn_q
    t_p, t_q = b_p * pn_p + c * qq + 2 * c_p, b_p * pn_q + b_q * pn_p + l * qq + 2 * c_q
    qq = t_q * qm_q
    y_p, y_q = t_p * qm_p + c * qq, t_p * qm_q + t_q * qm_p + l * qq
    b_next = _make(spec, x_p + y_p, x_q + y_q, 1)
    # C_{n+1} = (A*P_{n-1} + B*Q_{n-1})*P_{n-1} + (C*Q_{n-1})*Q_{n-1}.
    qq = a_q * pm_q
    x_p, x_q = a_p * pm_p + c * qq, a_p * pm_q + a_q * pm_p + l * qq
    qq = b_q * qm_q
    t_p, t_q = b_p * qm_p + c * qq + x_p, b_p * qm_q + b_q * qm_p + l * qq + x_q
    qq = t_q * pm_q
    x_p, x_q = t_p * pm_p + c * qq, t_p * pm_q + t_q * pm_p + l * qq
    qq = s_q * qm_q
    t_p, t_q = s_p * qm_p + c * qq, s_p * qm_q + s_q * qm_p + l * qq
    qq = t_q * qm_q
    y_p, y_q = t_p * qm_p + c * qq, t_p * qm_q + t_q * qm_p + l * qq
    return _poly(a_next, b_next, _make(spec, x_p + y_p, x_q + y_q, 1))


def run_trajectory(
    seed: QuadraticPolyK, branch: int, quotients: Sequence[KElement]
) -> list[QuotientState]:
    """States xi_0 .. xi_n driven by the given partial quotients."""
    states = [make_state(seed, branch)]
    for a in quotients:
        states.append(step_state(states[-1], a))
    return states


def _roots_inside(a: tuple[int, int, int], b: tuple[int, int, int],
                  c: tuple[int, int, int], d: int, k: int) -> tuple[bool, bool]:
    """Whether the roots (-b + e*sqrt(b^2 - 4ac))/(2a), e = +1 and then
    e = -1, of a*x^2 + b*x + c, with real distinct roots, are each proved to
    lie in (-t, t), t = T/S = 1 - 2^-k.  a, b and c are forms (u, v, m) of
    u + v*sqrt(d) over one m > 0.  a*f(+-t)*S^2 < 0 iff +-t lies between the
    roots; if neither does, both roots are inside iff the vertex -b/(2a)
    is.  A zero sign proves nothing."""
    s, t = 1 << k, (1 << k) - 1
    (au, av, _), (bu, bv, _), (cu, cv, _) = a, b, c
    sa = _root_sign(au, av, d)
    even_u, even_v = au * t * t + cu * s * s, av * t * t + cv * s * s
    right = sa * _root_sign(even_u + bu * t * s, even_v + bv * t * s, d)
    left = sa * _root_sign(even_u - bu * t * s, even_v - bv * t * s, d)
    if right > 0 and left > 0:
        sb = _root_sign(bu, bv, d)
        inside = _root_sign(sb * bu * s - 2 * sa * au * t, sb * bv * s - 2 * sa * av * t, d) < 0
        return inside, inside
    larger, smaller = left < 0 < right, right < 0 < left
    # The root of e = +1 is the larger iff sign(a) > 0.
    return (larger, smaller) if sa > 0 else (smaller, larger)


def _weil4_m(state: QuotientState, precision_bits: int, roots: _RootTable, delta: KElement,
             sigma_real: bool) -> Dyadic:
    """`weil_height4` as a dyadic triple, with the roots of `roots`, for
    the state's discriminant `delta` and whether sigma(delta) > 0.

    The embeddings are id and tau1 (sqrt(delta) -> -sqrt(delta)) of xi and
    the two roots of the conjugate polynomial.  When those roots are a
    complex pair z, conj(z), their two factors are one max(1, |z|^2), with
    |z|^2 = sigma(C)/sigma(A) exactly in K.  A factor whose |z| (or |z|^2)
    is proved below t = 1 - 2^(1-P) is not embedded: every enclosure of z
    that the embeddings accept at 1 < P <= MAX_BITS lies in [-1, 1], so the
    factor is exactly [1, 1], and the product keeps its real endpoints.
    Every factor is at least 1, so the exact product does not depend on
    their order.
    """
    poly = state.poly
    # k = 0 gives t = 0, which proves nothing: at P <= 1 an accepted
    # enclosure may leave [-1, 1], and past MAX_BITS none is accepted.
    d, k = poly.spec.d, precision_bits - 1 if 1 < precision_bits <= MAX_BITS else 0
    a, b, c = _sqrt_d_form(poly.A), _sqrt_d_form(poly.B), _sqrt_d_form(poly.C)
    x, y, lead = _root_forms(d, a, b)
    acc = (lead, lead, 0)
    # The roots x + e*y*sqrt(delta) of f_n and, when they are real, of the
    # conjugate polynomial over sigma(delta): sigma flips v in every form.
    quadratics = [(a, b, c, x, y, delta)]
    if sigma_real:
        sa, sb, sc, sx, sy = [(u, -v, m) for u, v, m in (a, b, c, x, y)]
        quadratics.append((sa, sb, sc, sx, sy, delta.conj()))
    for qa, qb, qc, qx, (yu, yv, ym), qdelta in quadratics:
        for inside, e in zip(_roots_inside(qa, qb, qc, d, k), (1, -1)):
            if not inside:
                z = _surd_form_embed(qx, (e * yu, e * yv, ym), qdelta, precision_bits, roots)
                acc = dyadic_mul(acc, dyadic_max(dyadic_abs(z), _ONE))
    if sigma_real:
        return acc
    # sigma(A)*sigma(C) > 0, so |z|^2 < t = T/S iff
    # sign(sigma(A)) * sign(sigma(C)*S - sigma(A)*T) < 0.
    (au, av, _), (cu, cv, _) = a, c
    s, t = 1 << k, (1 << k) - 1
    if _root_sign(au, -av, d) * _root_sign(cu * s - au * t, av * t - cv * s, d) >= 0:
        # |z|^2 = sigma(C/A) = sigma(2*C*y).
        u, v, m = _form_mul(d, c, y)
        modulus = _surd_form_embed((2 * u, -2 * v, m), (0, 0, 1), delta, precision_bits, roots)
        acc = dyadic_mul(acc, dyadic_max(modulus, _ONE))
    return acc


def _discriminant_facts(state: QuotientState) -> tuple[KElement, bool]:
    """The state's delta, and whether sigma(delta) > 0."""
    delta = state.poly.delta
    return delta, sign_of(delta.conj()) > 0


def weil_height4(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    """Interval for H(xi)^4 = |A * sigma(A)| * prod max(1, |phi(xi)|)."""
    return dyadic_interval(_weil4_m(state, precision_bits, _RootTable(),
                                    *_discriminant_facts(state)))


def weil_height(state: QuotientState, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    return dyadic_interval(_weil_height(state, precision_bits, _RootTable(),
                                        *_discriminant_facts(state)))


def _weil_height(state: QuotientState, precision_bits: int, roots: _RootTable, delta: KElement,
                 sigma_real: bool) -> Dyadic:
    root2 = dyadic_sqrt(_weil4_m(state, precision_bits, roots, delta, sigma_real), precision_bits)
    return dyadic_sqrt(root2, precision_bits)


def weil_height_element(x: KElement, precision_bits: int = DEFAULT_BITS) -> RealInterval:
    """Weil height of an element of K (degree 1 or 2 over Q)."""
    if x.is_rational:
        return RealInterval.point(max(abs(x.p), x.den))
    # The leading coefficient of the primitive minimal polynomial of
    # (p + q*w)/den: den^2*t^2 - den*(2p + l*q)*t + (p^2 + l*p*q - c*q^2).
    p, q, den = x.p, x.q, x.den
    c, l = x.spec.omega_sq_const, x.spec.omega_sq_lin
    lead = den * den // gcd(den * den, den * (2 * p + l * q), p * p + l * p * q - c * q * q)
    h2 = (
        RealInterval.point(lead)
        * abs(x.embed(precision_bits)).max_with(1)
        * abs(x.embed(precision_bits, conjugate=True)).max_with(1)
    )
    return h2.sqrt(precision_bits)


def naive_height(state: QuotientState) -> int:
    """Max |coefficient| of the degree-4 integer polynomial f_n * sigma(f_n).

    Its coefficients are N(A), Tr(A*sigma(B)), Tr(A*sigma(C)) + N(B),
    Tr(B*sigma(C)) and N(C): with w^2 = c + l*w and x = p + q*w for the
    integral A, B and C, N(x) = p^2 + l*p*q - c*q^2 and
    Tr(x1*sigma(x2)) = 2*p1*p2 + l*(p1*q2 + q1*p2) - 2*c*q1*q2.
    """
    poly = state.poly
    c, l = poly.spec.omega_sq_const, poly.spec.omega_sq_lin
    pa, qa, pb, qb, pc, qc = poly.A.p, poly.A.q, poly.B.p, poly.B.q, poly.C.p, poly.C.q
    return max(
        abs(pa * pa + l * pa * qa - c * qa * qa),
        abs(2 * pa * pb + l * (pa * qb + qa * pb) - 2 * c * qa * qb),
        abs(2 * pa * pc + l * (pa * qc + qa * pc) - 2 * c * qa * qc
            + pb * pb + l * pb * qb - c * qb * qb),
        abs(2 * pb * pc + l * (pb * qc + qb * pc) - 2 * c * qb * qc),
        abs(pc * pc + l * pc * qc - c * qc * qc),
    )


def _tight_abs_m(x: tuple[int, int, int], y: tuple[int, int, int], delta: KElement,
                 rel_bits: int, roots: _RootTable) -> Dyadic:
    """|x + y*sqrt(delta)| for the forms x and y that
    `field._surd_form_embed` takes, with the roots of `roots`: the first
    enclosure from `rel_bits` on, doubling by `_next_level`, that is 0 or
    positive with width <= 2^(1-rel_bits) * lo.

    The default embedding quality is relative to max(1, |value|), which is
    vacuous for the exponentially small approximation errors S_n; this
    refines until the enclosure is tight relative to the value itself."""
    shift, bits = rel_bits - 1, rel_bits
    while True:
        lo, hi, e = dyadic_abs(_surd_form_embed(x, y, delta, bits, roots))
        if not hi or lo > 0 and (hi - lo) << shift <= lo:
            return lo, hi, e
        bits = _next_level(bits)


@dataclass(frozen=True)
class TrajectoryRow:
    """One `diagnostics` row.  It keeps its enclosures as `Dyadic` triples
    (the `_m` fields); `s_n`, `f1`, `f2`, `weil`, `qs_abs` and `qs_sigma`
    are `RealInterval` views of them, built when read."""

    index: int
    triple: tuple[KElement, KElement, KElement]
    p: KElement
    q: KElement
    s_m: Dyadic
    f1_m: Dyadic
    f2_m: Dyadic
    weil_m: Dyadic
    naive: int
    qs_abs_m: Dyadic
    # |sigma(Q_n) * (xi' sigma(Q_n) - sigma(P_n))| for both real roots xi'
    # of the conjugate polynomial; None when those roots are complex.
    qs_sigma_m: tuple[Dyadic, Dyadic] | None

    s_n = property(lambda self: dyadic_interval(self.s_m))
    f1 = property(lambda self: dyadic_interval(self.f1_m))
    f2 = property(lambda self: dyadic_interval(self.f2_m))
    weil = property(lambda self: dyadic_interval(self.weil_m))
    qs_abs = property(lambda self: dyadic_interval(self.qs_abs_m))
    qs_sigma = property(lambda self: None if self.qs_sigma_m is None
                        else tuple(map(dyadic_interval, self.qs_sigma_m)))


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
    F_1(n), F_2(n) (with S_{-1} = -1), and the heights of xi_n.  Every
    enclosure is an element of K or a surd over delta or sigma(delta), so
    all of them share one root table.  With xi = x + branch*y*sqrt(delta),
    xi*Q_n - P_n is embedded from the forms of x*Q_n - P_n and branch*y*Q_n;
    tau flips y, and sigma flips v in each form and takes branch +1.
    """
    bits = precision_bits
    roots = _RootTable()
    d, delta, sigma_delta = seed.spec.d, seed.delta, seed.delta.conj()
    states = run_trajectory(seed, branch, quotients)
    qpairs = qpair_states(seed.spec, quotients)
    x, y, _ = _root_forms(d, _sqrt_d_form(seed.A), _sqrt_d_form(seed.B))
    sx, sy = (x[0], -x[1], x[2]), (y[0], -y[1], y[2])
    sigma_real = sign_of(sigma_delta) > 0

    def error_forms(x, y, q, p):
        # The forms of x*Q_n - P_n and y*Q_n; P_n and Q_n share one den.
        u, v, m = _form_mul(d, x, q)
        return (u - p[0] * x[2], v - p[1] * x[2], m), _form_mul(d, y, q)

    prev = {"id": _ONE, "tau": _ONE, "s2": _ONE, "s3": _ONE}
    rows: list[TrajectoryRow] = []
    for n, qp in enumerate(qpairs):
        pn, qn = qp.p_cur, qp.q_cur
        (qu, qv, qm), (pu, pv, _) = _sqrt_d_form(qn), _sqrt_d_form(pn)
        e, (fu, fv, fm) = error_forms(x, y, (qu, qv, qm), (pu, pv))
        s_id = _tight_abs_m(e, (branch * fu, branch * fv, fm), delta, bits, roots)
        s_tau = _tight_abs_m(e, (-branch * fu, -branch * fv, fm), delta, bits, roots)
        e, f = error_forms(sx, sy, (qu, -qv, qm), (pu, -pv))
        if sigma_real:
            s_s2 = _tight_abs_m(e, f, sigma_delta, bits, roots)
            s_s3 = _tight_abs_m(e, (-f[0], -f[1], f[2]), sigma_delta, bits, roots)
            sq_abs = dyadic_abs(_k_embed(qn, bits, roots, True))
            qs_sigma = (dyadic_mul(s_s2, sq_abs), dyadic_mul(s_s3, sq_abs))
        else:
            # Complex pair: |e + f*sqrt(sigma(delta))|^2 = e^2 - f^2*sigma(delta) in K.
            u1, v1, m1 = _form_mul(d, e, e)
            u2, v2, m2 = _form_mul(d, _form_mul(d, f, f), _sqrt_d_form(sigma_delta))
            mod_sq = u1 * m2 - u2 * m1, v1 * m2 - v2 * m1, m1 * m2
            s_s2 = s_s3 = dyadic_sqrt(_tight_abs_m(mod_sq, (0, 0, 1), delta, bits, roots), bits)
            qs_sigma = None
        f1 = dyadic_mul(dyadic_max(s_id, prev["id"]), dyadic_max(s_tau, prev["tau"]))
        f2 = dyadic_mul(dyadic_max(s_s2, prev["s2"]), dyadic_max(s_s3, prev["s3"]))
        state_n = states[n]
        q_abs = dyadic_abs(_k_embed(qn, bits, roots))
        rows.append(
            TrajectoryRow(
                index=n,
                triple=(state_n.poly.A, state_n.poly.B, state_n.poly.C),
                p=pn,
                q=qn,
                s_m=s_id,
                f1_m=f1,
                f2_m=f2,
                weil_m=_weil_height(state_n, bits, roots, delta, sigma_real),
                naive=naive_height(state_n),
                qs_abs_m=dyadic_mul(q_abs, s_id),
                qs_sigma_m=qs_sigma,
            )
        )
        prev = {"id": s_id, "tau": s_tau, "s2": s_s2, "s3": s_s3}
    return rows


def summarize(rows: Sequence[TrajectoryRow],
              precision_bits: int = DEFAULT_BITS) -> TrajectorySummary:
    """Summary of `diagnostics` rows 0..N, a prefix of what it returns.

    The maxima of |A_n| and |sigma(A_n)| run over xi_0 .. xi_N+1.  The
    rows fix A_N+1 = A*P_N^2 + B*P_N*Q_N + C*Q_N^2, (A, B, C) the seed,
    row 0's triple: the convergent identity A_(n+1) = f(P_n, Q_n).  The
    sigma-side sup is the smaller of the two root choices' sups: the bound
    only claims existence of a suitable root of the conjugate polynomial.
    It is selected on the triples, and only the selected sup becomes a
    float: the other root's sup can pass the float range.
    """
    (a, b, c), p, q = rows[0].triple, rows[-1].p, rows[-1].q
    leads = [r.triple[0] for r in rows] + [(a * p + b * q) * p + c * q * q]
    roots = _RootTable()
    max_a, max_sa = (
        max(dyadic_floats(dyadic_abs(_k_embed(x, precision_bits, roots, conj)))[1] for x in leads)
        for conj in (False, True)
    )
    sigma_sup = None
    if rows[0].qs_sigma_m is not None:
        sups = (reduce(dyadic_max, (r.qs_sigma_m[i] for r in rows)) for i in (0, 1))
        _, hi0, _, hi1, e = _aligned(*sups)
        sigma_sup = min(hi0, hi1) / (1 << e)
    return TrajectorySummary(
        steps=len(rows),
        max_abs_a=max_a,
        max_abs_sigma_a=max_sa,
        sup_qs=max(dyadic_floats(r.qs_abs_m)[1] for r in rows),
        sup_qs_sigma=sigma_sup,
        weil_min=min(dyadic_floats(r.weil_m)[0] for r in rows),
        weil_max=max(dyadic_floats(r.weil_m)[1] for r in rows),
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
    if sign_of(spoly.delta) < 0:
        return False
    plus = QuotientState(spoly, 1).value
    for r in (plus, plus.conj_sqrt()):
        if sign_of(r - lo) > 0 and sign_of(hi - r) > 0:
            return True
    return False
