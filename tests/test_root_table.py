"""The root table that one `quartic.diagnostics` call shares among its
embeddings.  Every enclosure read through a shared table must be exactly
the one the element's own `embed` gives, which builds a fresh table.

Covered: every surd and K element that `diagnostics` embeds (its error
terms, heights and |Q_n| factors, and the x, y and delta inside each
surd), on a seed whose sigma(delta) is positive and on one whose
sigma(delta) is negative, and one table serving both discriminants at
64, 128 and 1024 bits.  The kernel asks `is_square_in_k` once per
discriminant and table, and over a non-square one builds no K element.
"""

from __future__ import annotations

import random

import pytest

from conftest import random_k
from okcf import field, quartic
from okcf.field import (
    KElement,
    SurdElement,
    _from_form,
    _k_embed,
    _RootTable,
    _surd_embed,
    sign_of,
)
from okcf.quartic import QuadraticPolyK, diagnostics


def real_sigma_seed(spec):
    # x^2 - 2x - w^2: delta = 8 + 4w, sigma(delta) = 12 - 4w > 0.
    return QuadraticPolyK(spec.one, spec.element(-2), -(spec.omega * spec.omega))


def complex_sigma_seed(spec):
    # x^2 + 2 - 3w: delta = -8 + 12w > 0, sigma(delta) = 4 - 12w < 0.
    return QuadraticPolyK(spec.one, spec.zero, spec.element(2, -3))


SEEDS = [real_sigma_seed, complex_sigma_seed]


def recorded_embeds(monkeypatch, seed, quotients, bits):
    """(element, bits, conjugate, table, enclosure) for every embedding that
    `diagnostics` makes, nested ones included.  A call of the form kernel
    is recorded as the surd rebuilt from its forms and delta."""
    calls = []

    def k_recording(k, precision_bits, roots, conjugate=False):
        m = k_embed(k, precision_bits, roots, conjugate)
        calls.append((k, precision_bits, conjugate, roots, m))
        return m

    def kernel_recording(x, y, delta, precision_bits, roots):
        m = kernel(x, y, delta, precision_bits, roots)
        spec = delta.spec
        z = SurdElement(spec, delta, _from_form(spec, x), _from_form(spec, y))
        calls.append((z, precision_bits, False, roots, m))
        return m

    k_embed, kernel = field._k_embed, field._surd_form_embed
    with monkeypatch.context() as patch:
        for module in (field, quartic):
            patch.setattr(module, "_k_embed", k_recording)
            patch.setattr(module, "_surd_form_embed", kernel_recording)
        diagnostics(seed, 1, quotients, bits)
    return calls


def own_embed(z, bits, conjugate=False):
    if isinstance(z, SurdElement):
        return _surd_embed(z, bits, _RootTable())
    return _k_embed(z, bits, _RootTable(), conjugate)


def quotients_for(spec, seed_index):
    rng = random.Random(4100 + seed_index)
    return [random_k(rng, spec, bound=3) for _ in range(8)]


@pytest.mark.parametrize("make_seed", SEEDS, ids=["real sigma(delta)", "complex sigma(delta)"])
@pytest.mark.parametrize("bits", [64, 1024])
def test_every_embedding_of_diagnostics_matches_a_fresh_table(k5, monkeypatch, make_seed, bits):
    seed = make_seed(k5)
    calls = recorded_embeds(monkeypatch, seed, quotients_for(k5, SEEDS.index(make_seed)), bits)
    assert len({id(roots) for *_, roots, _ in calls}) == 1
    surds = {z.delta for z, *_ in calls if isinstance(z, SurdElement) and not z.y.is_zero}
    sigma_real = sign_of(seed.delta.conj()) > 0
    assert surds == ({seed.delta, seed.delta.conj()} if sigma_real else {seed.delta})
    for z, precision_bits, conjugate, _, m in calls:
        assert m == own_embed(z, precision_bits, conjugate), (z, precision_bits)


def test_one_table_serves_both_discriminants_and_three_precisions(k5, monkeypatch):
    for i, make_seed in enumerate(SEEDS):
        seed = make_seed(k5)
        calls = recorded_embeds(monkeypatch, seed, quotients_for(k5, i), 64)
        elements = list({(type(z), str(z), conjugate): (z, conjugate)
                         for z, _, conjugate, *_ in calls}.values())
        roots = _RootTable()
        for bits in (64, 128, 1024):
            for z, conjugate in elements:
                if isinstance(z, KElement):
                    got = _k_embed(z, bits, roots, conjugate)
                else:
                    got = _surd_embed(z, bits, roots)
                assert got == own_embed(z, bits, conjugate), (z, bits)
        assert len({key[:3] for key in roots.sqrt_delta}) == (2 if i == 0 else 1)


@pytest.mark.parametrize("make_seed", SEEDS, ids=["real sigma(delta)", "complex sigma(delta)"])
def test_each_discriminant_is_tested_for_a_root_in_k_once(k5, monkeypatch, make_seed):
    seed = make_seed(k5)
    asked, kernel_calls = [], []
    square, kernel = field.is_square_in_k, field._surd_form_embed

    def counting(delta):
        asked.append(delta)
        return square(delta)

    def kernel_counting(*args):
        kernel_calls.append(args)
        return kernel(*args)

    def forbidden(*args):
        raise AssertionError("the kernel built a K element over a non-square delta")

    with monkeypatch.context() as patch:
        patch.setattr(field, "is_square_in_k", counting)
        patch.setattr(field, "_from_form", forbidden)
        patch.setattr(quartic, "_surd_form_embed", kernel_counting)
        diagnostics(seed, 1, quotients_for(k5, SEEDS.index(make_seed)), 1024)
    sigma_real = sign_of(seed.delta.conj()) > 0
    assert len(asked) == len(set(asked)) == (2 if sigma_real else 1)
    assert set(asked) == ({seed.delta, seed.delta.conj()} if sigma_real else {seed.delta})
    assert len(kernel_calls) > 10 * len(asked)
