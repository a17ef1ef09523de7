"""The straight-line float filter of `okcf.golden` against the helper
composition it writes out.

`_xi_enclosure`, `_pair_enclosures` and `_corner_distance` compute the
operations of `_int`, `_add`, `_sub`, `_mul` and `_div` inline, in the
same order.  The functions below call those helpers instead, and every
enclosure, `None` and abstention must agree bit for bit with them: on
every state that chose a quotient in perfbench's corpus pool (300 items,
1563 states) and in the corpora pinned at bounds 12 and 40, and on
crafted states whose coefficients or corners overflow a float, whose
divisor enclosure reaches about half its value, or whose divisor
overflows to inf.  `_pair_enclosures` reads xi' from sigma of xi's
integers; the reference reads it from the pair's own conjugate state.
"""

from __future__ import annotations

import math
import random

import pytest

from okcf import golden
from okcf.field import FieldSpec
from okcf.golden import _U, _W, _add, _div, _int, _mul, _sub, expand_pair
from okcf.quartic import QuadraticPolyK, QuotientState
from test_float_filter import (
    both_branches,
    corpus_seeds,
    crafted_seeds,
    harvesting,
    pair_args,
    xi_args,
)

# perfbench's corpus pool: workloads.POOL_SEED, 150 seeds drawn by
# inputs.random_seed from the box |p|, |q| <= 3, both conjugate branches.
PERFBENCH_POOL_SEED = 20230422
PERFBENCH_POOL_SEEDS = 150


def ref_k(k):
    return _add(_int(k.p), _mul(_int(k.q), _W))


def ref_xi(s: QuotientState, root):
    try:
        bv, be = ref_k(s.poly.B)
        av, ae = ref_k(s.poly.A)
        v = s.branch * root[0] - bv
        return _div((v, be + root[1] + _U * abs(v)), (2 * av, 2 * ae))
    except ArithmeticError:
        return None


def ref_pair(p, roots):
    if roots is None:
        return None
    xi = ref_xi(p.xi, roots[0])
    xip = ref_xi(p.xi_prime, roots[1])
    if xi is None or xip is None:
        return None
    y = _mul(_sub(xi, xip), golden._INV_SQRT5)
    return xi, xip, _sub(xi, _mul(y, _W)), y


def ref_corner(xi, xip, x: int, y: int):
    try:
        yw = _mul(_int(y), _W)
        d1 = _sub(_sub(xi, _int(x)), yw)
        d2 = _add(_sub(xip, _int(x + y)), yw)
    except OverflowError:
        return None
    return _add(_mul(d1, d1), _mul(d2, d2))


def bits(z):
    """The enclosures of z as hex strings, which tell -0.0 from 0.0 and
    compare NaN equal to NaN; None stays None."""
    if z is None or isinstance(z[0], float):
        return None if z is None else tuple(map(float.hex, z))
    return tuple(map(bits, z))


def corners(enc) -> list[tuple[int, int]]:
    """The four corners around the x and y floats of a pair enclosure."""
    x, y = (math.floor(enc[i][0]) for i in (2, 3))
    return [(cx, cy) for cx in (x, x + 1) for cy in (y, y + 1)]


def assert_state_agrees(p, roots) -> None:
    if roots is not None:
        for s, root in ((p.xi, roots[0]), (p.xi_prime, roots[1])):
            assert bits(golden._xi_enclosure(*xi_args(s), root)) == bits(ref_xi(s, root)), s.poly
    enc = golden._pair_enclosures(*pair_args(p), roots)
    assert bits(enc) == bits(ref_pair(p, roots)), p.xi.poly
    if enc is not None:
        for x, y in corners(enc):
            got = golden._corner_distance(enc[0], enc[1], x, y)
            assert bits(got) == bits(ref_corner(enc[0], enc[1], x, y)), (p.xi.poly, x, y)


def perfbench_pool_seeds(k5: FieldSpec) -> list[QuadraticPolyK]:
    """perfbench's corpus pool: three pairs drawn per try, kept when the
    lead is nonzero and the seed admitted, repeats dropped."""
    rng = random.Random(PERFBENCH_POOL_SEED)
    seeds: list[QuadraticPolyK] = []
    while len(seeds) < PERFBENCH_POOL_SEEDS:
        a, b, c = (k5.element(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(3))
        if a.is_zero:
            continue
        seed = QuadraticPolyK(a, b, c)
        if golden.classify_seed(seed) is None and seed not in seeds:
            seeds.append(seed)
    return seeds


@pytest.fixture(scope="module")
def corpus_states(k5):
    """Every (state, float roots) that chose a quotient, per corpus."""
    corpora = {
        "perfbench pool": perfbench_pool_seeds(k5),
        "bound 12": corpus_seeds(100, 12, 7),
        "bound 40": corpus_seeds(30, 40, 11),
    }
    states: dict[str, list] = {name: [] for name in corpora}
    choose = golden._choose
    with pytest.MonkeyPatch.context() as mp:
        for name, seeds in corpora.items():
            mp.setattr(golden, "_choose", harvesting(states[name], choose))
            for seed in seeds:
                for conj in (1, -1):
                    expand_pair(seed, 1, conj)
    return states


@pytest.mark.parametrize("corpus, count", [("perfbench pool", 1563), ("bound 12", 4870),
                                           ("bound 40", 5280)])
def test_corpus_states_agree_bit_for_bit(corpus_states, corpus, count):
    states = corpus_states[corpus]
    assert len(states) == count
    for p, roots in states:
        assert_state_agrees(p, roots)


def test_crafted_states_agree_bit_for_bit(k5):
    seeds = crafted_seeds(k5)
    for name in ("cancel", "cancel_neg", "cancel_mixed", "tiny_lead", "huge_lead"):
        for p, roots in both_branches(seeds[name]):
            assert_state_agrees(p, roots)
    # An infinite divisor: 2A overflows to inf, and both abstain.
    huge = QuotientState(seeds["huge_lead"], 1)
    root = golden.float_roots(seeds["huge_lead"])[0]
    assert math.isinf(2 * ref_k(huge.poly.A)[0])
    assert golden._xi_enclosure(*xi_args(huge), root) is None and ref_xi(huge, root) is None
    # Coefficients that no float holds, in B or in A.
    root = (2.0, 1e-16)
    for a, b in (((1, 0), (1 << 1100, 1)), ((1, 0), (0, -(1 << 1030))),
                 ((1 << 1100, 0), (1, 0)), ((3, -(1 << 1030)), (1, 0))):
        s = QuotientState(QuadraticPolyK(k5.element(*a), k5.element(*b), k5.one), 1)
        assert golden._xi_enclosure(*xi_args(s), root) is None and ref_xi(s, root) is None
    # Corners that no float holds: x, y, or only x + y.
    xi, xip = (0.5, 1e-16), (-0.25, 1e-16)
    for x, y in ((1 << 1100, 0), (0, -(1 << 1100)), (1 << 1023, 1 << 1023), (3, -2)):
        got, ref = golden._corner_distance(xi, xip, x, y), ref_corner(xi, xip, x, y)
        assert bits(got) == bits(ref)
        assert (got is None) == (x != 3)


def test_a_divisor_enclosure_near_half_its_value(k5):
    # A = F_(k+1) - F_k*w + j is j plus a unit under 1, with a float error
    # e of about u*F_k*w.  As j grows past about 2e, the enclosure of 2A
    # stops reaching half its value; every j both sides agrees.
    fib = [0, 1]
    while fib[-1] < 10**19:
        fib.append(fib[-1] + fib[-2])
    k = len(fib) - 2 if len(fib) % 2 else len(fib) - 3
    root = (3.0, 1e-15)
    outcomes = set()
    for j in range(1, 20000, 7):
        lead = k5.element(fib[k + 1] + j, -fib[k])
        s = QuotientState(QuadraticPolyK(lead, k5.element(5, 1), k5.one), -1)
        got = golden._xi_enclosure(*xi_args(s), root)
        assert bits(got) == bits(ref_xi(s, root)), j
        av, ae = ref_k(lead)
        outcomes.add((got is None, ae < av))
    # Abstentions whose enclosure of A stays above 0, and accepted divisors.
    assert outcomes >= {(True, True), (False, True)}
