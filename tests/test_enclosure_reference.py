"""The package's enclosures against the frozen Fraction-backed reference in
`fraction_intervals`: every endpoint must be the same rational.

Covered: both embeddings of K elements for D = 5, 2 and 13, Pell
near-zeros whose cancellation makes the embedding loop double, surd
embeddings (including a discriminant so small that its lower endpoint is
negative and is clamped under the root), the relative enclosures of tiny
error terms S_n along 60-quotient expansions, and Weil heights of states with
real and with complex sigma-conjugates, at 16 to 4096 bits.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice

import fraction_intervals as ref
from conftest import random_k
from okcf.cf import eval_periodic, qpair_states
from okcf.field import (
    FieldSpec,
    KElement,
    SurdElement,
    _k_embed,
    _RootTable,
    _sqrt_d_form,
    is_square_in_k,
)
from okcf.golden import pair_steps
from okcf.intervals import RealInterval, dyadic_interval
from okcf.parsing import parse_expansion, parse_k
from okcf.quartic import (
    QuadraticPolyK,
    QuotientState,
    _tight_abs_m,
    run_trajectory,
    weil_height,
    weil_height4,
)
from test_field import surd_near_ties

BITS = (16, 24, 64, 100, 256, 1024, 4096)


def same(got, want) -> bool:
    return (got.lo, got.hi) == (want.lo, want.hi)


def tight_abs(value: KElement | SurdElement, rel_bits: int) -> RealInterval:
    """The package's relative enclosure `_tight_abs_m` of |value|, for a K
    element or a surd, with a fresh root table."""
    x, y, delta = ((value.x, value.y, value.delta) if isinstance(value, SurdElement)
                   else (value, value.spec.zero, value.spec.one))
    return dyadic_interval(_tight_abs_m(_sqrt_d_form(x), _sqrt_d_form(y), delta, rel_bits,
                                        _RootTable()))


def fundamental_unit(spec: FieldSpec) -> KElement:
    """(1 + sqrt(5))/2, 1 + sqrt(2) and (3 + sqrt(13))/2 on the basis {1, w}."""
    return {5: spec.omega, 2: spec.omega + 1, 13: spec.omega + 1}[spec.d]


def pell_near_zeros(spec: FieldSpec) -> list[KElement]:
    """Elements whose identity embedding is within 2^-20 of zero and whose
    integer coordinates are far larger: sigma(u^n) for the fundamental unit
    u, scaled by rationals of either sign."""
    unit = fundamental_unit(spec)
    return [
        scale * (unit**n).conj()
        for n in (30, 61, 97, 150)
        for scale in (1, -1, Fraction(3, 7), Fraction(-5, 2))
    ]


def test_k_embeddings_random():
    rng = random.Random(31)
    for d in (5, 2, 13):
        spec = FieldSpec(d)
        rationals = [spec.element(Fraction(n, m)) for n, m in ((1, 3), (-7, 5), (10**40 + 1, 3))]
        for x in rationals + [random_k(rng, spec, bound=rng.choice((5, 10**6, 10**30)),
                                       integral=rng.random() < 0.5) for _ in range(60)]:
            for bits in BITS:
                for conjugate in (False, True):
                    assert same(x.embed(bits, conjugate), ref.embed_k(x, bits, conjugate))


def test_k_pell_near_zeros_refine():
    doubled = 0
    for d in (5, 2, 13):
        spec = FieldSpec(d)
        for x in pell_near_zeros(spec):
            for bits in BITS:
                for conjugate in (False, True):
                    assert same(x.embed(bits, conjugate), ref.embed_k(x, bits, conjugate))
                doubled += _k_embed(x, bits, _RootTable())[2] > max(bits, 64)
    # The cancellation forced the embedding loop past its first precision.
    assert doubled > 50


def test_surd_embeddings():
    rng = random.Random(32)
    k5 = FieldSpec(5)
    w = k5.omega
    deltas = [k5.element(2), w + 5, 6 - w, k5.element(Fraction(7, 3), 1)]
    cases = list(surd_near_ties(k5))
    for _ in range(60):
        delta = rng.choice(deltas)
        x = random_k(rng, k5, bound=rng.choice((10, 10**9)), integral=False)
        y = random_k(rng, k5, bound=rng.choice((10, 10**9)), integral=False)
        cases.append(SurdElement(k5, delta, x, y))
    for u in cases:
        for bits in BITS[:5]:
            assert same(u.embed(bits), ref.embed_surd(u, bits))


def test_surd_embedding_clamps_a_negative_radicand_bound():
    # delta = 2*sigma(w)^94, about 2^-64, is not a square in K.  At 64 bits
    # its enclosure reaches below zero, and the root must clamp that
    # endpoint to 0.
    k5 = FieldSpec(5)
    delta = 2 * (k5.omega**94).conj()
    assert is_square_in_k(delta) is None
    lo, hi, _ = _k_embed(delta, 64, _RootTable())
    assert lo < 0 < hi
    for x, y in ((k5.one, k5.one), (k5.element(-3, 2), k5.element(Fraction(1, 3), -1)),
                 (k5.zero, k5.omega)):
        u = SurdElement(k5, delta, x, y)
        for bits in BITS[:5]:
            assert same(u.embed(bits), ref.embed_surd(u, bits))


def expansion_seed(text: str) -> tuple[QuadraticPolyK, int, list[KElement]]:
    """Seed, branch and 60 quotients of a periodic expansion, as `okcf
    analyze --expansion` derives them."""
    expansion = parse_expansion(text, FieldSpec(5))
    res = eval_periodic(expansion)
    seed = QuadraticPolyK(*res.poly)
    branch = 1 if 2 * res.poly[0] * res.value.y == 1 else -1
    return seed, branch, expansion.prefix(60)


def pair_seed(a: str, b: str, c: str) -> tuple[QuadraticPolyK, int, list[KElement]]:
    """Seed, branch and the first 60 quotients of its pair expansion, as
    `okcf analyze A B C` derives them."""
    k5 = FieldSpec(5)
    seed = QuadraticPolyK(*(parse_k(t, k5) for t in (a, b, c)))
    quotients = [q for q, _ in islice(pair_steps(seed, 1, 1), 1, 61)]
    return seed, 1, quotients


def error_terms(seed: QuadraticPolyK, branch: int, quotients: list[KElement]):
    """S_n = xi*Q_n - P_n and tau(xi)*Q_n - P_n along the quotients."""
    xi = QuotientState(seed, branch).value
    for qp in qpair_states(seed.spec, quotients):
        yield xi * qp.q_cur - qp.p_cur
        yield xi.conj_sqrt() * qp.q_cur - qp.p_cur


def test_tight_abs_of_tiny_error_terms():
    smallest = Fraction(1)
    for seed, branch, quotients in (
        expansion_seed("[; 2, 4-2*w]"),
        pair_seed("1", "-2", "-1-1*w"),
        pair_seed("1", "w", "-1"),
    ):
        for n, s in enumerate(error_terms(seed, branch, quotients)):
            for bits in (16, 64) if n % 7 else (16, 64, 200, 1024):
                got = tight_abs(s, bits)
                assert same(got, ref.tight_abs(s, bits))
                smallest = min(smallest, got.hi)
    assert smallest < Fraction(1, 1 << 40)


def complex_sigma_states() -> list[QuotientState]:
    # x^2 - w: delta = 4w > 0, sigma(delta) = 4(1 - w) < 0.
    k5 = FieldSpec(5)
    seed = QuadraticPolyK(k5.one, k5.zero, -k5.omega)
    quotients = [k5.element(n) for n in (1, 1, 2, 1, 1, 3, 1, 1, 1, 2, 1, 1)]
    return run_trajectory(seed, 1, quotients) + run_trajectory(seed, -1, quotients[:4])


def test_complex_sigma_modulus_enclosures():
    for state in complex_sigma_states():
        spoly = state.poly.sigma()
        mod_sq = spoly.C / spoly.A
        for bits in BITS:
            assert same(tight_abs(mod_sq, bits), ref.tight_abs(mod_sq, bits))


def test_weil_heights():
    seed, branch, quotients = expansion_seed("[; 2, 4-2*w]")
    real_states = run_trajectory(seed, branch, quotients[:25])
    pair_states = run_trajectory(*pair_seed("1", "-2", "-1-1*w"))[:25]
    states = real_states + pair_states + complex_sigma_states()
    for i, state in enumerate(states):
        for bits in (16, 64, 100) if i % 9 else BITS:
            assert same(weil_height4(state, bits), ref.weil_height4(state, bits))
            assert same(weil_height(state, bits), ref.weil_height(state, bits))
