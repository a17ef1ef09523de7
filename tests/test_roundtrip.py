"""The proportional round-trip test of `okcf.golden` against the full
evaluation of `verify_roundtrip`.

For an admitted seed, the proportional test decides the round trip from
the signs of E21, A and tr(E) when the matrix E is proportional to the
seed, and rejects every other case.  `expand_pair` has admitted its seed,
so its `verified` flag is that test alone.  `verify_roundtrip` evaluates
both sides in full, for any seed.  These tests require the test's answer
to be the evaluation's `ok` on the sign-oracle pool, on corrupted
expansions and on random periodic expansions, pin the evaluation's texts
on those and on an inadmissible seed, require `expand_pair` to admit once
and never evaluate, and pay once the identities the proportional test
rests on.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from okcf import golden
from okcf.cf import CFExpansion, Mat2, associated_poly, cf_matrix, e_matrix
from okcf.field import FieldSpec, KElement, is_square_in_k
from okcf.golden import ExpansionResult, classify_seed, expand_pair, verify_roundtrip
from okcf.quartic import QuadraticPolyK
from test_sign_oracle import pool_seeds

BRANCHES = [(1, 1), (1, -1), (-1, 1), (-1, -1)]


def all_branches(r: ExpansionResult) -> list[ExpansionResult]:
    return [replace(r, branch=b, conj_branch=c) for b, c in BRANCHES]


def proportional(r: ExpansionResult) -> bool:
    return golden._proportional_roundtrip(r.seed, r.expansion, r.branch, r.conj_branch)


@pytest.fixture(scope="module")
def pool_results(k5) -> list[ExpansionResult]:
    return [
        expand_pair(seed, branch, conj)
        for seed in pool_seeds(k5)
        for branch, conj in BRANCHES
    ]


def test_pool_matches_the_evaluated_path(pool_results):
    assert len(pool_results) == 600
    for r in pool_results:
        assert r.verified
        # The proportional test agrees with the evaluation on the
        # expansion's own branches and on the three wrong ones.
        for other in all_branches(r):
            rt = verify_roundtrip(other)
            assert rt.ok is ((other.branch, other.conj_branch) == (r.branch, r.conj_branch))
            assert proportional(other) is rt.ok
            assert (rt.detail == "") is rt.ok


@pytest.fixture
def example(k5) -> ExpansionResult:
    w = k5.omega
    r = expand_pair(QuadraticPolyK(k5.one, k5.element(-2), -(w * w)), 1, 1)
    assert str(r.expansion) == "[; 2, 4-2*w]"
    return r


def corrupted(k5, r: ExpansionResult) -> dict[str, tuple[CFExpansion, str]]:
    """Expansions that reach each failure text of the evaluated path."""
    w = k5.omega
    pre, (a0, a1) = r.expansion.preperiod, r.expansion.period
    one = (k5.one,)
    return {
        "changed": (CFExpansion(k5, pre, (a0, a1 + w)),
                    "expansion value differs from the seed root"),
        "into_k": (CFExpansion(k5, pre, (k5.zero, k5.one)),
                   "expansion evaluates into K, not to the quartic root; "
                   "sigma expansion evaluates into K"),
        # The window [2, w, 1-w] has M21 = w*(1-w) + 1 = 0 and M22 = w > 1.
        # In [2, w-1, -w], M22 = w - 1 = 1/w passes, and its sigma image
        # sigma(1/w) = -w does not.
        "window": (CFExpansion(k5, one, (k5.element(2), w, k5.one - w)),
                   "expansion has no value: ineq_window; sigma expansion evaluates into K"),
        "sigma_window": (CFExpansion(k5, one, (k5.element(2), w - 1, -w)),
                         "expansion evaluates into K, not to the quartic root; "
                         "sigma expansion has no value: ineq_window"),
    }


@pytest.mark.parametrize("kind", ["changed", "into_k", "window", "sigma_window"])
def test_corrupted_expansions_reach_the_failure_texts(k5, example, kind):
    expansion, detail = corrupted(k5, example)[kind]
    for r in all_branches(replace(example, expansion=expansion)):
        assert not proportional(r)
        rt = verify_roundtrip(r)
        assert rt.detail == detail and not rt.ok


def test_a_seed_sharing_one_cross_product_is_not_proportional(k5, example):
    # (A, B + 1, C) keeps E21*C = -E12*A and breaks E21*B = (E22 - E11)*A;
    # (A, B, C - 1) keeps the first and breaks the second.  Both seeds are
    # admissible, so only the cross products keep the proportional path
    # from accepting one of the four branch pairs.
    seed = example.seed
    for other in (QuadraticPolyK(seed.A, seed.B + 1, seed.C),
                  QuadraticPolyK(seed.A, seed.B, seed.C - 1)):
        assert classify_seed(other) is None
        for r in all_branches(replace(example, seed=other)):
            assert not proportional(r)
            rt = verify_roundtrip(r)
            assert rt.detail == "expansion value differs from the seed root"


def test_an_inadmissible_seed_goes_to_the_evaluation(k5):
    # [; 0, 1] has E = [[1, 0], [1, 1]], whose associated polynomial is x^2:
    # proportional, but with a square discriminant, so the signs of E21, A
    # and tr(E) decide nothing.  verify_roundtrip evaluates every branch.
    expansion = CFExpansion(k5, (), (k5.zero, k5.one))
    seed = QuadraticPolyK(*associated_poly(e_matrix(expansion)))
    assert classify_seed(seed) is not None
    r = ExpansionResult(expansion, (), 0, False, seed, 1, 1)
    for other in all_branches(r):
        rt = verify_roundtrip(other)
        assert not rt.ok
        assert rt.detail == ("expansion evaluates into K, not to the quartic root; "
                             "sigma expansion evaluates into K")


def test_expand_pair_admits_once_and_decides_by_proportionality(k5, monkeypatch):
    seeds = pool_seeds(k5)
    calls = []
    classify = golden.classify_seed

    def counting(seed):
        calls.append(seed)
        return classify(seed)

    def forbidden(r):
        raise AssertionError("expand_pair evaluated the round trip")

    monkeypatch.setattr(golden, "classify_seed", counting)
    monkeypatch.setattr(golden, "verify_roundtrip", forbidden)
    for seed in seeds:
        for branch, conj in BRANCHES:
            calls.clear()
            assert expand_pair(seed, branch, conj).verified
            assert calls == [seed]
    # The flag is the proportional test's own answer.
    monkeypatch.setattr(golden, "_proportional_roundtrip", lambda *parts: False)
    assert not expand_pair(seeds[0], 1, 1).verified


# -- Random periodic expansions and the identities the path rests on -----------

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

K5 = FieldSpec(5)
quotient = st.builds(K5.element, st.integers(-4, 4), st.integers(-4, 4))
expansions = st.builds(
    lambda pre, per: CFExpansion(K5, tuple(pre), tuple(per)),
    st.lists(quotient, max_size=4),
    st.lists(quotient, min_size=1, max_size=5),
)


def conj(m: Mat2) -> Mat2:
    return Mat2(m.e11.conj(), m.e12.conj(), m.e21.conj(), m.e22.conj())


def windows(period: tuple[KElement, ...]) -> list[Mat2]:
    return [cf_matrix(K5, period[j:] + period[:j]) for j in range(len(period))]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expansions)
def test_sigma_image_of_e_is_its_conjugate(x):
    # sigma is a ring automorphism of K and e_matrix does not divide.
    assert e_matrix(x.sigma()) == conj(e_matrix(x))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(expansions, st.sampled_from([1, -1]), st.integers(-3, 3))
def test_windows_are_conjugate_to_e(x, sign, power):
    # Every window has E's trace and determinant, so a window with M21 = 0
    # puts E's eigenvalues in K and makes its discriminant a square.  The
    # second half plants such a window: the period [a, u, -1/u] for a unit
    # u has M21 = u*(-1/u) + 1 = 0.
    e = e_matrix(x)
    for m in windows(x.period):
        assert m.e11 + m.e22 == e.e11 + e.e22 and m.det() == e.det()
    u = sign * K5.omega**power
    period = (x.period[0], u, -(K5.one / u))
    planted = CFExpansion(K5, x.preperiod, period)
    assert any(m.e21.is_zero for m in windows(period))
    ca, cb, cc = associated_poly(e_matrix(planted))
    assert is_square_in_k(cb * cb - 4 * ca * cc) is not None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(expansions)
def test_random_expansions_match_the_evaluated_path(x):
    # The seed is E's own associated polynomial: when it is admissible,
    # exactly one pair of branches holds, and the proportional test finds it.
    e = e_matrix(x)
    assume(not e.e21.is_zero)
    seed = QuadraticPolyK(*associated_poly(e))
    assume(classify_seed(seed) is None)
    r = ExpansionResult(x, (), 0, False, seed, 1, 1)
    results = [(verify_roundtrip(other), other) for other in all_branches(r)]
    for rt, other in results:
        assert proportional(other) is rt.ok
    assert sum(rt.ok for rt, _ in results) == 1
