"""The shared-subproduct formulas of `triple_recursion`, `step_state`,
`naive_height` and the scalar and square `SurdElement` products, against
longhand references on the frozen `Fraction`-backed `RefK`, plus the K
product budget each of them is allowed.  The products that `step_state`
and `triple_recursion` write out inline also match the same formulas
composed of `field._int_mul` calls, in every shape of w."""

from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from conftest import random_k
from fraction_k import RefK
from okcf.cf import qpair_states
from okcf.field import FieldSpec, KElement, SurdElement, _int_mul, is_square_in_k, sign_of
from okcf.quartic import (
    QuadraticPolyK,
    make_state,
    naive_height,
    run_trajectory,
    step_state,
    triple_recursion,
)

SPECS = [FieldSpec(d) for d in (5, 2, 13)]
BOUNDS = (3, 40, 2**40)


def ref(k: KElement) -> RefK:
    return RefK(k.spec.d, k.a, k.b)


def same(k: KElement, r: RefK) -> bool:
    return (k.a, k.b) == (r.a, r.b)


def ref_step(A: RefK, B: RefK, C: RefK, a: RefK) -> tuple[RefK, RefK, RefK]:
    """1/(xi - a) longhand: (f(a), 2*A*a + B, A)."""
    return A * a * a + B * a + C, 2 * A * a + B, A


def ref_triple(A, B, C, pn, pm, qn, qm) -> tuple[RefK, RefK, RefK]:
    """f(P_n, Q_n), its polar form at the two pairs, and f(P_(n-1), Q_(n-1))."""
    return (
        A * pn * pn + B * pn * qn + C * qn * qn,
        2 * A * pn * pm + B * (pn * qm + pm * qn) + 2 * C * qn * qm,
        A * pm * pm + B * pm * qm + C * qm * qm,
    )


def ref_naive(A: RefK, B: RefK, C: RefK) -> int:
    """Max |coefficient| of f * sigma(f), multiplied out term by term."""
    sA, sB, sC = A.conj(), B.conj(), C.conj()
    coeffs = [A * sA, A * sB + B * sA, A * sC + C * sA + B * sB, B * sC + C * sB, C * sC]
    assert all(c.is_rational and c.is_integral for c in coeffs)
    return max(abs(int(c.a)) for c in coeffs)


def random_seed(rng: random.Random, spec: FieldSpec, bound: int) -> QuadraticPolyK:
    while True:
        seed = QuadraticPolyK(*(random_k(rng, spec, bound, nonzero=True) for _ in range(3)))
        if sign_of(seed.delta) > 0 and is_square_in_k(seed.delta) is None:
            return seed


def random_quotients(rng: random.Random, spec: FieldSpec, n: int) -> list[KElement]:
    return [random_k(rng, spec, rng.choice((3, 9)), nonzero=i > 0) for i in range(n)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"D{s.d}")
def test_step_and_triple_match_longhand(spec):
    rng = random.Random(900 + spec.d)
    for _ in range(20):
        seed = random_seed(rng, spec, rng.choice(BOUNDS))
        quotients = random_quotients(rng, spec, 12)
        states = run_trajectory(seed, rng.choice((1, -1)), quotients)
        A, B, C = ref(seed.A), ref(seed.B), ref(seed.C)
        for state, a, nxt in zip(states, quotients, states[1:]):
            p = state.poly
            want = ref_step(ref(p.A), ref(p.B), ref(p.C), ref(a))
            assert all(same(k, r) for k, r in zip((nxt.poly.A, nxt.poly.B, nxt.poly.C), want))
            assert nxt.branch == -state.branch
        for qp in qpair_states(spec, quotients):
            got = triple_recursion(seed, qp)
            want = ref_triple(A, B, C, *(ref(k) for k in (qp.p_cur, qp.p_prev,
                                                          qp.q_cur, qp.q_prev)))
            assert all(same(k, r) for k, r in zip((got.A, got.B, got.C), want))


def int_mul_step(poly: QuadraticPolyK, a: KElement) -> tuple[tuple[int, int], ...]:
    """(f(a), 2*A*a + B, A) of `step_state`, as (p, q) pairs, from two
    `_int_mul` calls: t = A*a + B, f(a) = t*a + C and B' = A*a + t."""
    c, l = poly.spec.omega_sq_const, poly.spec.omega_sq_lin
    A, B, C = poly.A, poly.B, poly.C
    aa_p, aa_q = _int_mul(c, l, A.p, A.q, a.p, a.q)
    t_p, t_q = aa_p + B.p, aa_q + B.q
    f_p, f_q = _int_mul(c, l, t_p, t_q, a.p, a.q)
    return (f_p + C.p, f_q + C.q), (aa_p + t_p, aa_q + t_q), (A.p, A.q)


def int_mul_triple(seed: QuadraticPolyK, pn, pm, qn, qm) -> tuple[tuple[int, int], ...]:
    """`triple_recursion`'s 13 products as `_int_mul` calls, as (p, q) pairs."""
    c, l = seed.spec.omega_sq_const, seed.spec.omega_sq_lin

    def mul(x, y):
        return _int_mul(c, l, *x, *y)

    def add(*xs):
        return sum(x[0] for x in xs), sum(x[1] for x in xs)

    A, B, C = ((k.p, k.q) for k in (seed.A, seed.B, seed.C))
    pn, pm, qn, qm = ((k.p, k.q) for k in (pn, pm, qn, qm))
    cq, ap = mul(C, qn), mul(A, pn)
    u = add(mul(B, qn), ap)
    a_next = add(mul(u, pn), mul(cq, qn))
    b_next = add(mul(add(u, ap), pm), mul(add(mul(B, pn), cq, cq), qm))
    c_next = add(mul(add(mul(A, pm), mul(B, qm)), pm), mul(mul(C, qm), qm))
    return a_next, b_next, c_next


def pairs(poly: QuadraticPolyK) -> tuple[tuple[int, int], ...]:
    for k in (poly.A, poly.B, poly.C):
        assert k.den == 1 and k.spec is poly.spec
    return (poly.A.p, poly.A.q), (poly.B.p, poly.B.q), (poly.C.p, poly.C.q)


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_inline_products_match_the_int_mul_composition(d):
    # Both shapes of w: sqrt(d) for d = 2, 3 and (1 + sqrt(d))/2 for 5, 13.
    # At corpus bound 40 the states' coefficients reach 2^8, the quotients
    # 2^12 and the convergents over 2^600; the sizes here cover those.
    spec = FieldSpec(d)
    rng = random.Random(880 + d)
    for _ in range(12):
        seed = random_seed(rng, spec, rng.choice((3, 40, 2**8, 2**40)))
        bound = rng.choice((3, 2**12))
        quotients = [random_k(rng, spec, bound, nonzero=i > 0) for i in range(60)]
        states = run_trajectory(seed, 1, quotients)
        for state, a, nxt in zip(states, quotients, states[1:]):
            assert pairs(nxt.poly) == int_mul_step(state.poly, a)
        for qp in qpair_states(spec, quotients):
            assert pairs(triple_recursion(seed, qp)) == int_mul_triple(
                seed, qp.p_cur, qp.p_prev, qp.q_cur, qp.q_prev)
        if bound > 3:
            assert max(abs(qp.q_cur.p) for qp in qpair_states(spec, quotients)) > 2**600


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"D{s.d}")
def test_naive_height_matches_longhand(spec):
    rng = random.Random(950 + spec.d)
    for _ in range(60):
        seed = random_seed(rng, spec, rng.choice(BOUNDS))
        for state in run_trajectory(seed, 1, random_quotients(rng, spec, 4)):
            p = state.poly
            assert naive_height(state) == ref_naive(ref(p.A), ref(p.B), ref(p.C))


def longhand_product(s: SurdElement, t: SurdElement) -> SurdElement:
    """(x + y*r)(x' + y'*r) = (x*x' + y*y'*delta) + (x*y' + y*x')*r."""
    return SurdElement(s.spec, s.delta, s.x * t.x + s.y * t.y * s.delta, s.x * t.y + s.y * t.x)


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"D{s.d}")
def test_surd_scalar_and_square_products(spec):
    rng = random.Random(970 + spec.d)
    for _ in range(200):
        integral = rng.random() < 0.5
        delta = random_k(rng, spec, 9, nonzero=True)
        x, y = (random_k(rng, spec, rng.choice(BOUNDS[:2]), integral) for _ in range(2))
        s = SurdElement(spec, delta, x, y)
        # The general product runs on a distinct but equal operand.
        twin = copy.copy(s)
        assert twin is not s
        square = longhand_product(s, s)
        assert s * s == square == s * twin
        assert s ** 2 == square
        for k in (random_k(rng, spec, 9, integral), rng.randint(-9, 9),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 9))):
            kx = k if isinstance(k, KElement) else spec.element(k)
            as_surd = SurdElement(spec, delta, kx, spec.zero)
            want = longhand_product(s, as_surd)
            assert s * k == want == k * s == s * as_surd


@pytest.fixture
def kmul_calls(monkeypatch) -> list[int]:
    """A one-item list counting calls of KElement.__mul__ and __rmul__."""
    calls = [0]
    for name in ("__mul__", "__rmul__"):
        raw = KElement.__dict__[name]

        def counted(self, other, _raw=raw):
            calls[0] += 1
            return _raw(self, other)

        monkeypatch.setattr(KElement, name, counted)
    return calls


def spent(calls: list[int], fn, *args):
    before = calls[0]
    out = fn(*args)
    return out, calls[0] - before


def test_product_budgets(kmul_calls):
    rng = random.Random(990)
    for spec in SPECS:
        seed = random_seed(rng, spec, 3)
        quotients = random_quotients(rng, spec, 10)
        state = make_state(seed, 1)
        for a in quotients:
            state, n = spent(kmul_calls, step_state, state, a)
            assert n <= 2
            assert spent(kmul_calls, naive_height, state)[1] <= 3
        for qp in qpair_states(spec, quotients):
            assert spent(kmul_calls, triple_recursion, seed, qp)[1] <= 13
