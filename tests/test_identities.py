"""Identities that the library relies on instead of checking them at run
time, each paid once here.

- `eval_periodic` selects a quadratic root by sign(tr E) and scans the
  windows only for a root in K.  The reference below makes both decisions
  without the identities: sign(z^2 - 1) at z = E21*x + E22, then every
  window of the period, whatever the root.
- `step_state`, `triple_recursion` and `QuadraticPolyK.sigma` never trip
  the constructors' checks on admitted seeds: integral inputs give
  integral results, and a derived leading coefficient is nonzero because
  the seed has no root in K.  On a seed with a root in K the check still
  fires.  The builder behind them checks only that leading coefficient,
  so each derived polynomial is rebuilt here through `QuadraticPolyK`.
  `step_state` builds its state the same way, with no branch check: each
  stepped state is rebuilt here through `QuotientState`.
- `classify_seed` tests only delta for a square in K, never sigma(delta):
  sigma is an involution of K, so the conjugate of a square is a square.
"""

from __future__ import annotations

from collections import Counter

import pytest

from conftest import random_k
from okcf.cf import (
    CFExpansion,
    EvalFailure,
    associated_poly,
    cf_matrix,
    e_matrix,
    eval_periodic,
    qpair_states,
)
from okcf.field import FieldSpec, SurdElement, is_square_in_k, sign_of
from okcf.quartic import (
    QuadraticPolyK,
    QuotientState,
    SeedError,
    make_state,
    run_trajectory,
    step_state,
    triple_recursion,
)


def squared_rule(x: CFExpansion):
    """(failure, window, value, value_in_k) of `eval_periodic` in the case
    E21 != 0 with a positive discriminant, by the squared test; None in
    every other case."""
    spec = x.spec
    e = e_matrix(x)
    ca, cb, cc = associated_poly(e)
    disc = cb * cb - 4 * ca * cc
    if ca.is_zero or sign_of(disc) <= 0:
        return None
    root = is_square_in_k(disc)
    if root is None:
        plus = SurdElement(spec, disc, -cb / (2 * ca), spec.one / (2 * ca))
        roots = (plus, plus.conj_sqrt())
    else:
        roots = ((-cb + root) / (2 * ca), (-cb - root) / (2 * ca))
    z = ca * roots[0] + e.e22
    t = sign_of(z * z - 1)
    if t == 0:
        return EvalFailure.UNIT_MODULUS, None, None, None
    for j in range(len(x.period)):
        m = cf_matrix(spec, x.period[j:] + x.period[:j])
        if m.e21.is_zero and sign_of(m.e22 * m.e22 - 1) > 0:
            return EvalFailure.INEQ_WINDOW, j, None, None
    chosen = roots[0] if t > 0 else roots[1]
    if root is None:
        return None, None, chosen, None
    return None, None, None, chosen


@pytest.mark.parametrize("d", [5, 2, 13])
def test_trace_rule_matches_the_squared_rule(d, rng):
    spec = FieldSpec(d)
    kinds: Counter[str] = Counter()
    for _ in range(1500):
        pre = tuple(random_k(rng, spec, 2) for _ in range(rng.randint(0, 2)))
        per = tuple(random_k(rng, spec, 2) for _ in range(rng.randint(1, 3)))
        x = CFExpansion(spec, pre, per)
        ref = squared_rule(x)
        if ref is None:
            continue
        res = eval_periodic(x)
        assert (res.failure, res.window, res.value, res.value_in_k) == ref, x
        if is_square_in_k(res.discriminant) is None:
            kinds["surd"] += 1
        else:
            kinds["k " + (res.failure.value if res.failure else "value")] += 1
    # Both branches, and the K branch's three outcomes, are exercised.
    assert kinds["surd"] >= 1000
    assert kinds["k value"] >= 20
    assert kinds["k unit_modulus"] >= 20
    assert kinds["k ineq_window"] >= 1


def test_a_root_in_k_still_trips_the_check(k5):
    # (x - 1)(x - 2) has the root 1 in K: stepping onto it, or reaching
    # the convergent P/Q = 1, leaves a zero leading coefficient.
    seed = QuadraticPolyK(k5.element(1), k5.element(-3), k5.element(2))
    with pytest.raises(SeedError, match="leading coefficient must be nonzero"):
        step_state(QuotientState(seed, 1), k5.one)
    (qp,) = qpair_states(k5, [k5.one])
    with pytest.raises(SeedError, match="leading coefficient must be nonzero"):
        triple_recursion(seed, qp)



@pytest.mark.parametrize("d", [5, 2, 13])
def test_the_conjugate_of_a_square_is_a_square(d, rng):
    spec = FieldSpec(d)
    for _ in range(300):
        s = random_k(rng, spec, 30, integral=rng.random() < 0.5)
        for x in (s * s, (s * s).conj()):
            root = is_square_in_k(x)
            assert root is not None and root * root == x, s

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

SPECS = [FieldSpec(d) for d in (5, 2, 13)]


@st.composite
def admitted_runs(draw):
    """(seed, branch, quotients) with make_state admitting (seed, branch)."""
    spec = draw(st.sampled_from(SPECS))
    k = st.builds(spec.element, st.integers(-5, 5), st.integers(-5, 5))
    seed_a = draw(k)
    assume(not seed_a.is_zero)
    seed = QuadraticPolyK(seed_a, draw(k), draw(k))
    branch = draw(st.sampled_from([1, -1]))
    try:
        make_state(seed, branch)
    except SeedError:
        assume(False)
    quotients = draw(st.lists(k, min_size=1, max_size=8))
    return seed, branch, quotients


@settings(derandomize=True, max_examples=300, deadline=None)
@given(admitted_runs())
def test_derived_polynomials_pass_the_public_checks(run):
    seed, branch, quotients = run
    for s in run_trajectory(seed, branch, quotients):
        assert s.branch in (1, -1)
        s.poly.sigma()
    for qp in qpair_states(seed.spec, quotients):
        triple_recursion(seed, qp)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(admitted_runs())
def test_derived_polynomials_rebuild_through_the_constructor(run):
    seed, branch, quotients = run
    states = run_trajectory(seed, branch, quotients)[1:]
    derived = [s.poly for s in states]
    derived += [triple_recursion(seed, qp) for qp in qpair_states(seed.spec, quotients)]
    for poly in derived:
        assert QuadraticPolyK(poly.A, poly.B, poly.C) == poly
    for s in states:
        assert QuotientState(s.poly, s.branch) == s
