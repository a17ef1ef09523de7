"""The two branches of a form-kernel level, against the earlier embedding
that `test_embed_kernel` keeps (`ref_surd_embed`): every triple must be the
same.

A level of `field._surd_form_embed` at `bits` takes x and y from one
`_form_embed` loop each, which starts at `bits` and goes on to the next
level when the first is rejected; then it multiplies y by the enclosure of
sqrt(delta) by the sign of y's enclosure.  Covered, for D = 5, 2 and 13
at P = 1, 16, 64, 100 and 1024: forms whose first level is rejected
(|v|/den large against the value), and y enclosures that straddle 0 (a
near-zero over a denominator above its |v|).  Each test asserts that its
inputs reach the branch it is about.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from okcf.field import FieldSpec, SurdElement, _from_form, _RootTable, _sqrt_d_form, _surd_embed
from okcf.intervals import DEFAULT_BITS
from test_embed_kernel import PRECISIONS, ref_k_embed, ref_surd_embed
from test_enclosure_reference import pell_near_zeros


def far_forms(spec: FieldSpec, seed: int, count: int) -> list:
    """Elements (u + v*sqrt(d))/den with |v| from 2^10 to 2^30, den <= 4 and
    |value| < 2: the first level's width |v|/den is far above 2*max(1, |value|)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        v = rng.choice((-1, 1)) * rng.randint(1 << 10, 1 << 30)
        # floor(-v*sqrt(d)) + t, so u + v*sqrt(d) lies in (t, t + 1).
        u = -isqrt(spec.d * v * v) - (1 if v > 0 else 0) + rng.randint(-1, 1)
        out.append(_from_form(spec, (u, v, rng.randint(1, 4))))
    return out


def straddling(spec: FieldSpec) -> list:
    """Near-zeros over a denominator 4*2^k above their |v|: at any level
    the first enclosure has width under 2 units, so it is accepted and is
    [-1, 1] whenever the level's bits of u/v and sqrt(d) agree."""
    out = []
    for x in pell_near_zeros(spec):
        v = _sqrt_d_form(x)[1]
        out.append(x * Fraction(1, 1 << (abs(v).bit_length() + 2)))
    return out


def first_level(k, bits: int):
    """The earlier embedding of k at precision `bits`, and whether its
    first level (at `bits`, bits >= DEFAULT_BITS) was accepted."""
    m = ref_k_embed(k, bits, _RootTable())
    return m, m[2] == bits


def assert_same(z: SurdElement, shared: _RootTable) -> None:
    for bits in PRECISIONS:
        want = ref_surd_embed(z, bits, _RootTable())
        assert _surd_embed(z, bits, _RootTable()) == want, (z, bits)
        assert _surd_embed(z, bits, shared) == want, (z, bits)


@pytest.mark.parametrize("d", [5, 2, 13])
def test_rejected_first_levels_go_on_in_their_own_loop(d):
    spec = FieldSpec(d)
    rng = random.Random(900 + d)
    shared = _RootTable()
    rejected = {"x": 0, "y": 0}
    near = far_forms(spec, 910 + d, 24) + pell_near_zeros(spec)
    for i, far in enumerate(near):
        delta = spec.element(rng.randint(2, 30), rng.randint(0, 5))
        other = spec.element(Fraction(rng.randint(-50, 50), rng.randint(1, 4)),
                             Fraction(rng.randint(-50, 50), rng.randint(1, 4)))
        x, y = (far, other) if i % 2 else (other, far)
        for side, k in (("x", x), ("y", y)):
            rejected[side] += not first_level(k, DEFAULT_BITS)[1]
        assert_same(SurdElement(spec, delta, x, y), shared)
    assert rejected["x"] > 0 and rejected["y"] > 0


@pytest.mark.parametrize("d", [5, 2, 13])
def test_straddling_y_enclosures(d):
    spec = FieldSpec(d)
    rng = random.Random(950 + d)
    shared = _RootTable()
    straddled = 0
    for y in straddling(spec):
        m, accepted = first_level(y, DEFAULT_BITS)
        straddled += accepted and m[0] < 0 < m[1]
        # Square roots within 2^-70 above 1, 2 and 3, whose enclosure at 64
        # bits is [s, s + 2^-64]: there the lower end of y*sqrt(delta) is
        # -(s + 2^-64) * 2^-64, and rounding it out crosses a multiple of 2^-64.
        deltas = [spec.element(Fraction((s << 67) * s + 1, 1 << 67)) for s in (1, 2, 3)]
        deltas.append(spec.element(rng.randint(2, 30), rng.randint(1, 5)))
        for delta in deltas:
            for x in (spec.element(1000), spec.element(Fraction(rng.randint(-99, 99), 7),
                                                        rng.randint(-9, 9))):
                assert_same(SurdElement(spec, delta, x, y), shared)
    assert straddled > 0
