"""`field._surd_form_embed`, the embedding kernel on integer forms, and the
forms that `quartic.diagnostics` and `quartic._weil4_m` give it.

Covered: the kernel against `_surd_embed` on unreduced forms (each form
scaled by a random k up to 2^40), under tau (y -> -y) and sigma (v -> -v in
every form, over sigma(delta)), for D = 5, 2 and 13 at P = 1, 16, 64 and
1024; a zero y, which embeds x as an element of K; a hidden zero over a
square delta, which is the point 0 at any P, and a nonzero value over
one, which takes its levels; P > MAX_BITS, which raises `PrecisionError`
for any other value.  Then, on random seeds and quotients with real
and with complex sigma(delta), the forms of every error term that
`diagnostics` embeds against xi*Q_n - P_n built by `SurdElement` arithmetic
under all four conjugations, and the forms of `_root_forms` against
`QuotientState.value`, with v negated for sigma, and |N(A)|, for D = 2,
3, 5 and 13.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_k
from okcf import quartic
from okcf.cf import qpair_states
from okcf.field import (
    FieldSpec,
    SurdElement,
    _from_form,
    _k_embed,
    _RootTable,
    _sqrt_d_form,
    _surd_embed,
    _surd_form_embed,
    sign_of,
)
from okcf.intervals import MAX_BITS, PrecisionError, dyadic_bits
from okcf.quartic import QuadraticPolyK, QuotientState, _root_forms, diagnostics, make_state
from test_embed_kernel import surds

PRECISIONS = (1, 16, 64, 1024)


def scaled(rng: random.Random, form: tuple[int, int, int]) -> tuple[int, int, int]:
    k = rng.randint(1, 1 << 40)
    return k * form[0], k * form[1], k * form[2]


def neg(form):
    return -form[0], -form[1], form[2]


def sigma(form):
    return form[0], -form[1], form[2]


@pytest.mark.parametrize("d", [5, 2, 13])
def test_kernel_matches_surd_embed_on_unreduced_forms(d):
    spec = FieldSpec(d)
    rng = random.Random(2100 + d)
    sides = set()
    for z in surds(spec, 800 + d):
        x, y = _sqrt_d_form(z.x), _sqrt_d_form(z.y)
        cases = [(x, y, z.delta, z), (x, neg(y), z.delta, z.conj_sqrt())]
        sigma_delta = z.delta.conj()
        if sign_of(sigma_delta) > 0:
            plus = SurdElement(spec, sigma_delta, z.x.conj(), z.y.conj())
            cases += [(sigma(x), sigma(y), sigma_delta, plus),
                      (sigma(x), neg(sigma(y)), sigma_delta, plus.conj_sqrt())]
        sides.add(len(cases))
        for bits in PRECISIONS:
            for fx, fy, delta, want in cases:
                got = _surd_form_embed(scaled(rng, fx), scaled(rng, fy), delta, bits, _RootTable())
                assert got == _surd_embed(want, bits, _RootTable()), (want, bits)
    assert sides == {2, 4}


@pytest.mark.parametrize("d", [5, 2, 13])
def test_kernel_takes_a_zero_y_as_an_element_of_k(d):
    spec = FieldSpec(d)
    rng = random.Random(2200 + d)
    for z in surds(spec, 900 + d)[:10]:
        k = SurdElement(spec, z.delta, z.x, spec.zero)
        for bits in PRECISIONS:
            got = _surd_form_embed(scaled(rng, _sqrt_d_form(z.x)), scaled(rng, (0, 0, 1)),
                                   z.delta, bits, _RootTable())
            assert got == _surd_embed(k, bits, _RootTable()) == _k_embed(z.x, bits, _RootTable())


@pytest.mark.parametrize("d", [5, 2, 13])
def test_a_hidden_zero_in_unreduced_forms_is_the_point_zero(d):
    spec = FieldSpec(d)
    rng = random.Random(2300 + d)
    # sqrt(4w^2) = 2w, as w > 0: 2w - sqrt(4w^2) = 0.
    delta, x, y = 4 * spec.omega * spec.omega, 2 * spec.omega, -spec.one
    for bits in PRECISIONS:
        for _ in range(3):
            got = _surd_form_embed(scaled(rng, _sqrt_d_form(x)), scaled(rng, _sqrt_d_form(y)),
                                   delta, bits, _RootTable())
            assert got == (0, 0, 0)


def test_a_hidden_zero_past_max_bits_is_the_point_zero():
    # The zero is decided before any level, so no precision is out of reach.
    spec = FieldSpec(5)
    delta, x, y = 4 * spec.omega * spec.omega, 2 * spec.omega, -spec.one
    got = _surd_form_embed(_sqrt_d_form(x), _sqrt_d_form(y), delta, MAX_BITS + 1, _RootTable())
    assert got == (0, 0, 0)


@pytest.mark.parametrize("d", [5, 2, 13])
def test_a_nonzero_value_over_a_square_delta_takes_its_levels(d):
    spec = FieldSpec(d)
    rng = random.Random(2350 + d)
    for _ in range(10):
        s, y = (random_k(rng, spec, bound=4, nonzero=True) for _ in range(2))
        s = s if sign_of(s) > 0 else -s
        # At x = y*s a zero rule that took -s for sqrt(delta) would see 0.
        for x in (y * s, random_k(rng, spec, bound=4)):
            value = x + y * s
            if value.is_zero:
                continue
            fx, fy = _sqrt_d_form(x), _sqrt_d_form(y)
            for bits in PRECISIONS:
                m = _surd_form_embed(scaled(rng, fx), scaled(rng, fy), s * s, bits, _RootTable())
                lo, hi = (Fraction(end, 1 << m[2]) for end in m[:2])
                assert m[:2] != (0, 0) and dyadic_bits(m) >= bits
                assert sign_of(value - lo) >= 0 >= sign_of(value - hi)


def test_past_max_bits_raises_precision_error():
    spec = FieldSpec(5)
    x, y, delta = (3, 7, 2), (1, 0, 1), spec.element(2, 1)
    for fy in (y, (0, 0, 5)):
        with pytest.raises(PrecisionError):
            _surd_form_embed(x, fy, delta, MAX_BITS + 1, _RootTable())


def random_states(spec: FieldSpec, seed: int) -> list[tuple[QuadraticPolyK, int, list]]:
    """(seed, branch, quotients) with sigma(delta) > 0 and < 0, three each."""
    rng = random.Random(seed)
    out = []
    for sigma_sign in (1, -1, 1, -1, 1, -1):
        while True:
            poly = QuadraticPolyK(*(random_k(rng, spec, bound=4, nonzero=True) for _ in range(3)))
            if sign_of(poly.delta.conj()) != sigma_sign:
                continue
            try:
                start = make_state(poly, rng.choice((1, -1)))
            except quartic.SeedError:
                continue
            break
        quotients = [random_k(rng, spec, bound=3, nonzero=True) for _ in range(8)]
        out.append((start.poly, start.branch, quotients))
    return out


def recorded_terms(monkeypatch, seed, branch, quotients):
    """The (x, y, delta) of every `_tight_abs_m` call of `diagnostics`."""
    calls = []
    tight = quartic._tight_abs_m

    def recording(x, y, delta, rel_bits, roots):
        calls.append((x, y, delta))
        return tight(x, y, delta, rel_bits, roots)

    with monkeypatch.context() as patch:
        patch.setattr(quartic, "_tight_abs_m", recording)
        diagnostics(seed, branch, quotients, 64)
    return calls


@pytest.mark.parametrize("d", [5, 2, 13])
def test_error_term_forms_match_surd_arithmetic(monkeypatch, d):
    spec = FieldSpec(d)
    for seed, branch, quotients in random_states(spec, 2400 + d):
        calls = recorded_terms(monkeypatch, seed, branch, quotients)
        xi = QuotientState(seed, branch).value
        plus = QuotientState(seed.sigma(), 1).value
        sigma_real = sign_of(plus.delta) > 0
        per_row = 4 if sigma_real else 3
        qpairs = qpair_states(spec, quotients)
        assert len(calls) == per_row * len(qpairs)
        for n, qp in enumerate(qpairs):
            pn, qn = qp.p_cur, qp.q_cur
            sqn, spn = qn.conj(), pn.conj()
            got = [SurdElement(spec, delta, _from_form(spec, x), _from_form(spec, y))
                   for x, y, delta in calls[per_row * n:per_row * (n + 1)]]
            want = [xi * qn - pn, xi.conj_sqrt() * qn - pn]
            if sigma_real:
                want += [plus * sqn - spn, plus.conj_sqrt() * sqn - spn]
            else:
                x2, y2 = plus.x * sqn - spn, plus.y * sqn
                want.append(x2 * x2 - y2 * y2 * plus.delta)
                assert got[2].y.is_zero
                got[2] = got[2].x
            for g, w in zip(got, want):
                if isinstance(w, SurdElement):
                    assert g.delta == w.delta
                assert g == w, (seed, n, g, w)


@pytest.mark.parametrize("d", [5, 2, 13])
def test_root_forms_match_the_state_value(d):
    spec = FieldSpec(d)
    for seed, branch, quotients in random_states(spec, 2500 + d):
        for state in quartic.run_trajectory(seed, branch, quotients):
            x, y, _ = _root_forms(d, _sqrt_d_form(state.poly.A), _sqrt_d_form(state.poly.B))
            assert min(x[2], y[2]) > 0
            assert _from_form(spec, x) == state.value.x
            assert state.branch * _from_form(spec, y) == state.value.y


@pytest.mark.parametrize("d", [2, 3, 5, 13])
def test_shared_forms_give_the_root_forms_and_the_norm(d):
    """`quartic._weil4_m` takes `_sqrt_d_form` of A, B and C once: from the
    forms of A and B, `_root_forms` gives x = -B/(2A), y = 1/(2A) and
    |N(A)|, and the same forms with v negated give sigma(x) and sigma(y),
    which are `_root_forms` of sigma(A) and sigma(B)."""
    spec = FieldSpec(d)
    for seed, branch, quotients in random_states(spec, 2600 + d):
        for state in quartic.run_trajectory(seed, branch, quotients):
            poly = state.poly
            a, b = _sqrt_d_form(poly.A), _sqrt_d_form(poly.B)
            assert a[2] == b[2] == _sqrt_d_form(poly.C)[2]
            x, y, lead = _root_forms(d, a, b)
            assert _from_form(spec, x) == -poly.B / (2 * poly.A)
            assert _from_form(spec, y) == 1 / (2 * poly.A)
            assert lead == abs(poly.A.norm())
            sx, sy, sigma_lead = _root_forms(d, sigma(a), sigma(b))
            assert (sx, sy, sigma_lead) == (sigma(x), sigma(y), lead)
            assert _from_form(spec, sx) == (-poly.B / (2 * poly.A)).conj()
