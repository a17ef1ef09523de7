"""`quartic._weil4_m`, which skips the factors max(1, |z|) proved to be 1,
against a copy of the earlier formula, kept below, which embeds every
factor: the real endpoints of H^4, and the triple of H, must be the same.

Covered: trajectory states for D = 5, 2 and 13 at P = 16, 64 and 1024,
with real and with complex sigma(delta); states built with a root within
2^(1-P) of 1 or of -1, on either side of t = 1 - 2^(1-P); a complex pair
whose |z|^2 is exactly t; a polynomial with a root exactly at t; and every
skip decision checked against the exact sign of |z| - t.  `_roots_inside`
decides both roots of one quadratic from one set of signs; each of its two
verdicts is checked against its own root.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from conftest import random_k
from okcf import quartic
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
from okcf.intervals import (
    MAX_BITS,
    PrecisionError,
    dyadic_abs,
    dyadic_interval,
    dyadic_max,
    dyadic_mul,
    dyadic_sqrt,
)
from okcf.quartic import (
    QuadraticPolyK,
    QuotientState,
    _roots_inside,
    _weil4_m,
    _weil_height,
    make_state,
    run_trajectory,
    weil_height,
    weil_height4,
)
from test_enclosure_reference import fundamental_unit

PRECISIONS = (16, 64, 1024)
_ONE = (1, 1, 0)


def ref_weil4_m(state, precision_bits, roots):
    """The earlier `_weil4_m`: every factor embedded."""
    poly, v = state.poly, state.value
    surds = [v, v.conj_sqrt()]
    sigma_delta = poly.delta.conj()
    if sign_of(sigma_delta) > 0:
        plus = SurdElement(v.spec, sigma_delta, v.x.conj(), state.branch * v.y.conj())
        surds += [plus, plus.conj_sqrt()]
        pair_modulus = []
    else:
        pair_modulus = [_k_embed((poly.C / poly.A).conj(), precision_bits, roots)]
    magnitudes = [dyadic_abs(_surd_embed(z, precision_bits, roots)) for z in surds]
    lead = abs(poly.A.norm().numerator)
    acc = (lead, lead, 0)
    for m in magnitudes + pair_modulus:
        acc = dyadic_mul(acc, dyadic_max(m, _ONE))
    return acc


def trajectory_states(spec: FieldSpec, seed: int) -> list[QuotientState]:
    rng = random.Random(seed)
    out = []
    for sigma_sign in (1, -1):
        while True:
            poly = QuadraticPolyK(*(random_k(rng, spec, bound=6, nonzero=True) for _ in range(3)))
            if sign_of(poly.delta.conj()) == sigma_sign:
                try:
                    start = make_state(poly, rng.choice((1, -1)))
                    break
                except quartic.SeedError:
                    continue
        quotients = [random_k(rng, spec, bound=3) for _ in range(6)]
        out += run_trajectory(start.poly, start.branch, quotients)
    return out


def near_one_states(spec: FieldSpec, bits: int) -> list[QuotientState]:
    """N*x^2 -+ 2N*x + (N - m) with N = 4^bits: roots +-1 +- sqrt(m)/2^bits.
    sqrt(3) < 2 puts a root between t and 1, sqrt(7) > 2 one below t, and
    m = w, with sigma(w) < 0, gives a complex conjugate pair."""
    n = spec.element(1 << 2 * bits)
    out = []
    for m in (spec.element(3), spec.element(7), spec.omega):
        for sign in (1, -1):
            for branch in (1, -1):
                out.append(make_state(QuadraticPolyK(n, -2 * sign * n, n - m), branch))
    return out


def exact_t_states(spec: FieldSpec, bits: int) -> list[QuotientState]:
    """A complex pair with |z|^2 = sigma(C)/sigma(A) exactly t, and a
    polynomial with the roots t and 2: its delta is a square, so it is no
    trajectory state, but its Weil formula is defined all the same."""
    s = 1 << (bits - 1)
    unit = fundamental_unit(spec)
    b = unit ** (2 * bits)  # b^2 > 4*S*T > sigma(b)^2
    complex_pair = make_state(QuadraticPolyK(spec.element(s), b, spec.element(s - 1)), 1)
    rational = QuadraticPolyK(spec.element(s), spec.element(-(3 * s - 1)), spec.element(2 * s - 2))
    return [complex_pair, QuotientState(rational, 1), QuotientState(rational, -1)]


def facts(state):
    """The discriminant facts that `diagnostics` passes to `_weil4_m`."""
    return state.poly.delta, sign_of(state.poly.delta.conj()) > 0


def counted_weil4(monkeypatch, state, bits):
    """`_weil4_m`, and the number of factors it embedded."""
    calls = []

    def counting(embed):
        def wrapped(*args):
            calls.append(args[0])
            return embed(*args)
        return wrapped

    with monkeypatch.context() as patch:
        patch.setattr(quartic, "_surd_form_embed", counting(_surd_form_embed))
        patch.setattr(quartic, "_k_embed", counting(_k_embed))
        got = _weil4_m(state, bits, _RootTable(), *facts(state))
    return got, len(calls)


def factor_count(state) -> int:
    return 4 if sign_of(state.poly.delta.conj()) > 0 else 3


@pytest.mark.parametrize("d", [5, 2, 13])
@pytest.mark.parametrize("bits", PRECISIONS)
def test_weil_matches_the_formula_that_embeds_every_factor(monkeypatch, d, bits):
    spec = FieldSpec(d)
    states = (trajectory_states(spec, 900 + d) + near_one_states(spec, bits)
              + exact_t_states(spec, bits))
    assert {sign_of(s.poly.delta.conj()) for s in states} == {1, -1}
    skipped = embedded = 0
    for state in states:
        want = ref_weil4_m(state, bits, _RootTable())
        got, n = counted_weil4(monkeypatch, state, bits)
        assert dyadic_interval(got) == dyadic_interval(want), (state.poly, bits)
        root2 = dyadic_sqrt(want, bits)
        assert _weil_height(state, bits, _RootTable(), *facts(state)) == dyadic_sqrt(root2, bits)
        assert weil_height4(state, bits) == dyadic_interval(want)
        assert weil_height(state, bits) == dyadic_interval(dyadic_sqrt(root2, bits))
        skipped += factor_count(state) - n
        embedded += n
    assert skipped and embedded


def quadratics_of(state):
    """((z+, z-), (a, b, c)) for f_n and, when its roots are real, for
    sigma(f_n): the roots z = (-b + e*sqrt(delta))/(2a) for e = +1 and
    e = -1, and a, b and c as `_roots_inside` takes them."""
    v = state.value
    forms = [_sqrt_d_form(x) for x in (state.poly.A, state.poly.B, state.poly.C)]
    roots = (v, v.conj_sqrt()) if state.branch > 0 else (v.conj_sqrt(), v)
    out = [(roots, forms)]
    sigma_delta = state.poly.delta.conj()
    if sign_of(sigma_delta) > 0:
        plus = SurdElement(v.spec, sigma_delta, v.x.conj(), state.branch * v.y.conj())
        out.append(((plus, plus.conj_sqrt()), [(u, -w, m) for u, w, m in forms]))
    return out


@pytest.mark.parametrize("d", [5, 2, 13])
@pytest.mark.parametrize("bits", PRECISIONS)
def test_every_skip_is_a_root_inside_t(d, bits):
    spec = FieldSpec(d)
    t = 1 - Fraction(2, 1 << bits)
    verdicts = set()
    signs_of_a = set()
    for state in trajectory_states(spec, 900 + d) + near_one_states(spec, bits):
        for roots, (a, b, c) in quadratics_of(state):
            claims = _roots_inside(a, b, c, spec.d, bits - 1)
            assert len(claims) == 2
            for z, claimed in zip(roots, claims):
                inside = sign_of(z - t) < 0 < sign_of(z + t)
                assert inside or not claimed, (state.poly, z, bits)
                # Far from +-t the decision is never left open.
                if abs(float(z)) < 0.99 or abs(float(z)) > 1.01:
                    assert claimed == inside, (state.poly, z, bits)
                verdicts.add((inside, claimed))
            signs_of_a.add(sign_of(_from_form(spec, a)))
    assert verdicts >= {(True, True), (False, False)}
    # The order of the two verdicts turns on sign(a): both signs occur.
    assert signs_of_a == {1, -1}


def test_no_skip_at_p_1_or_below_and_past_max_bits(monkeypatch):
    for state in trajectory_states(FieldSpec(5), 905)[:4]:
        for bits in (0, 1):
            got, n = counted_weil4(monkeypatch, state, bits)
            assert n == factor_count(state)
            assert dyadic_interval(got) == dyadic_interval(ref_weil4_m(state, bits, _RootTable()))
        with pytest.raises(PrecisionError):
            _weil4_m(state, MAX_BITS + 1, _RootTable(), *facts(state))


@pytest.mark.parametrize("d", [5, 2, 13])
@pytest.mark.parametrize("bits", PRECISIONS)
def test_built_states_embed_exactly_the_factors_not_proved_inside(monkeypatch, d, bits):
    spec = FieldSpec(d)
    # Per m of `near_one_states`, four states each: sqrt(3)/2^P < 2^(1-P)
    # leaves both roots outside (-t, t); sqrt(7)/2^P puts one root of f_n
    # and one of sigma(f_n) inside; m = w embeds its two real roots and the
    # modulus 1 + |sigma(w)|/N.  Then |z|^2 = t exactly is embedded, and of
    # the roots t and 2 neither is skipped.
    want = [4] * 4 + [2] * 4 + [3] * 4 + [2, 4, 4]
    got = [counted_weil4(monkeypatch, state, bits)[1]
           for state in near_one_states(spec, bits) + exact_t_states(spec, bits)]
    assert got == want
