"""The embedding loops of `okcf.field` against a copy of the earlier
`refine`-based embeddings, kept below with their `refine`, `dyadic_add`
and `dyadic_rounded`: every triple must be the same.

Covered: random elements of K with denominators, under both embeddings,
and surds over random discriminants, for D = 5, 2 and 13 at P = 1, 16, 64,
100 and 1024; near-zeros that need a second level; shared and fresh root
tables; and P > MAX_BITS, which raises `PrecisionError` in both.
"""

from __future__ import annotations

import random
from math import isqrt

import pytest

from conftest import random_k
from okcf.field import (
    FieldSpec,
    SurdElement,
    _k_embed,
    _RootTable,
    _sqrt_d_form,
    _surd_embed,
    sign_of,
    surd_sign,
)
from okcf.intervals import (
    DEFAULT_BITS,
    MAX_BITS,
    PrecisionError,
    _next_level,
    dyadic_bits,
    dyadic_mul,
    dyadic_sqrt,
)
from test_enclosure_reference import pell_near_zeros

PRECISIONS = (1, 16, 64, 100, 1024)


# -- the earlier embeddings, each level through `refine` --------------------


def refine(compute, bits, accept):
    """The first `compute(bits)` that `accept` takes, doubling `bits` by the
    package's `_next_level`, which raises `PrecisionError` past MAX_BITS."""
    while True:
        m = compute(bits)
        if accept(m):
            return m
        bits = _next_level(bits)


def dyadic_add(a, b):
    (alo, ahi, ae), (blo, bhi, be) = a, b
    e = max(ae, be)
    return (alo << e - ae) + (blo << e - be), (ahi << e - ae) + (bhi << e - be), e


def dyadic_rounded(m, bits):
    """Outward to `bits` fractional bits."""
    lo, hi, e = m
    k = bits - e
    if k >= 0:
        return lo << k, hi << k, bits
    return lo >> -k, -(-hi >> -k), bits


def ref_refine_to_quality(compute, precision_bits):
    return refine(compute, max(precision_bits, DEFAULT_BITS),
                  lambda m: dyadic_bits(m) >= precision_bits)


def ref_k_embed(k, precision_bits, roots, conjugate=False):
    u, v, den = _sqrt_d_form(k)
    if conjugate:
        v = -v
    if not v:
        bits = max(precision_bits, 1)
        return (u << bits) // den, -(-(u << bits) // den), bits
    d = k.spec.d
    isqrt_d = roots.isqrt_d

    def compute(bits):
        r = isqrt_d.get(bits)
        if r is None:
            r = isqrt_d[bits] = isqrt(d << 2 * bits)
        lo = (u << bits) + v * r
        hi = lo + v
        if v < 0:
            lo, hi = hi, lo
        return lo // den, -(-hi // den), bits

    return ref_refine_to_quality(compute, precision_bits)


def ref_surd_embed(z, precision_bits, roots):
    x, y, delta = z.x, z.y, z.delta
    if y.is_zero:
        return ref_k_embed(x, precision_bits, roots)
    sqrt_delta = roots.sqrt_delta
    is_zero = None

    def compute(bits):
        nonlocal is_zero
        key = (delta.p, delta.q, delta.den, bits)
        root = sqrt_delta.get(key)
        if root is None:
            root = sqrt_delta[key] = dyadic_sqrt(ref_k_embed(delta, bits, roots), bits)
        value = dyadic_add(ref_k_embed(x, bits, roots),
                           dyadic_mul(ref_k_embed(y, bits, roots), root))
        m = dyadic_rounded(value, bits)
        if m[0] <= 0 <= m[1]:
            if is_zero is None:
                is_zero = surd_sign(z.x, z.y, z.delta) == 0
            if is_zero:
                return 0, 0, 0
        return m

    return ref_refine_to_quality(compute, precision_bits)


# -- inputs -------------------------------------------------------------------


def k_elements(spec: FieldSpec, seed: int) -> list:
    rng = random.Random(seed)
    return ([random_k(rng, spec, bound=40, integral=False) for _ in range(40)]
            + pell_near_zeros(spec))


def surds(spec: FieldSpec, seed: int) -> list[SurdElement]:
    rng = random.Random(seed)
    out = []
    while len(out) < 30:
        delta = random_k(rng, spec, bound=12, integral=False, nonzero=True)
        if sign_of(delta) > 0:
            x, y = (random_k(rng, spec, bound=40, integral=False) for _ in range(2))
            out.append(SurdElement(spec, delta, x, y))
    # Near-zeros: x + sqrt(x^2 + eps)*(-1), with eps tiny against x^2.
    for x in pell_near_zeros(spec)[:4]:
        x = x.conj()
        out.append(SurdElement(spec, x * x + spec.element(1, 1), -x if sign_of(x) > 0 else x,
                               spec.one))
    return out


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("d", [5, 2, 13])
def test_k_embed_matches_refine_copy(d):
    spec = FieldSpec(d)
    shared, ref_shared = _RootTable(), _RootTable()
    for k in k_elements(spec, 500 + d):
        for bits in PRECISIONS:
            for conjugate in (False, True):
                want = ref_k_embed(k, bits, _RootTable(), conjugate)
                assert _k_embed(k, bits, _RootTable(), conjugate) == want, (k, bits, conjugate)
                assert _k_embed(k, bits, shared, conjugate) == want
                assert ref_k_embed(k, bits, ref_shared, conjugate) == want
    assert shared.isqrt_d == ref_shared.isqrt_d


@pytest.mark.parametrize("d", [5, 2, 13])
def test_surd_embed_matches_refine_copy(d):
    spec = FieldSpec(d)
    shared = _RootTable()
    levels = set()
    for z in surds(spec, 700 + d):
        for bits in PRECISIONS:
            want = ref_surd_embed(z, bits, _RootTable())
            assert _surd_embed(z, bits, _RootTable()) == want, (z, bits)
            assert _surd_embed(z, bits, shared) == want
            levels.add(want[2] > max(bits, DEFAULT_BITS))
    # Some embeddings were accepted at the first level, some later.
    assert levels == {False, True}


def test_a_hidden_zero_is_the_point_zero():
    spec = FieldSpec(5)
    # sqrt(4w^2) = 2w: 2w - sqrt(4w^2) = 0.
    z = SurdElement(spec, 4 * spec.omega * spec.omega, 2 * spec.omega, -spec.one)
    for bits in PRECISIONS:
        assert _surd_embed(z, bits, _RootTable()) == ref_surd_embed(z, bits, _RootTable()) \
            == (0, 0, 0)


def test_past_max_bits_raises_precision_error():
    spec = FieldSpec(5)
    k = spec.element(3, 7)
    z = SurdElement(spec, spec.element(2, 1), k, spec.one)
    for embed in (lambda: _k_embed(k, MAX_BITS + 1, _RootTable()),
                  lambda: ref_k_embed(k, MAX_BITS + 1, _RootTable()),
                  lambda: _surd_embed(z, MAX_BITS + 1, _RootTable()),
                  lambda: ref_surd_embed(z, MAX_BITS + 1, _RootTable())):
        with pytest.raises(PrecisionError):
            embed()
    # A rational element is exact at any bits, as before.
    assert _k_embed(spec.element(3), MAX_BITS + 1, _RootTable()) \
        == ref_k_embed(spec.element(3), MAX_BITS + 1, _RootTable())
