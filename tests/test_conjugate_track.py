"""The conjugate track of a pair expansion is the conjugate of its main
track.

`pair_steps` starts xi'_0 on sigma of the seed and steps it by sigma(a_n)
where xi_n steps by a_n.  sigma is a ring automorphism of K and
`step_state` is polynomial in the quotient, so at every state xi'_n's
polynomial is sigma of xi_n's, and its branch is
branch * conj_branch * xi_n's (each step flips both).  A state's main
track therefore fixes the whole pair, and a cycle table keyed on
`xi.canonical_key` alone closes every run where `PairState.key` closes
it, at the same first visit.

Checked on every pair state of perfbench's corpus pool, of the corpora
pinned at bounds 12 and 40 (the states that
`test_filter_straight_line.py` checks bit for bit) and of the seeds from
random periodic expansions on all four branch pairs.
"""

from __future__ import annotations

from okcf.golden import pair_steps
from okcf.quartic import QuadraticPolyK
from test_filter_straight_line import perfbench_pool_seeds
from test_float_filter import corpus_seeds
from test_golden import BRANCH_PAIRS, seeds_from_random_expansions


def closing_index(seed: QuadraticPolyK, branch: int, conj_branch: int) -> int:
    """The index at which `PairState.key` repeats, the identity checked on
    every state up to it and the main-track table checked against the
    full one at each."""
    full: dict[tuple, int] = {}
    main: dict[tuple, int] = {}
    for _, p in pair_steps(seed, branch, conj_branch):
        assert p.xi_prime.poly == p.xi.poly.sigma(), (seed, p.index)
        assert p.xi_prime.branch == branch * conj_branch * p.xi.branch, (seed, p.index)
        first = full.setdefault(p.key, p.index)
        assert main.setdefault(p.xi.canonical_key, p.index) == first, (seed, p.index)
        if first != p.index:
            return p.index
        assert p.index < 10_000


def test_the_conjugate_track_is_the_conjugate(k5):
    corpora = {
        "perfbench pool": (perfbench_pool_seeds(k5), ((1, 1), (1, -1))),
        "bound 12": (corpus_seeds(100, 12, 7), ((1, 1), (1, -1))),
        "bound 40": (corpus_seeds(30, 40, 11), ((1, 1), (1, -1))),
        "random expansions": (seeds_from_random_expansions(k5), BRANCH_PAIRS),
    }
    steps = {
        name: sum(closing_index(seed, *pair) for seed in seeds for pair in pairs)
        for name, (seeds, pairs) in corpora.items()
    }
    # The first three are the quotient-choosing states that
    # test_filter_straight_line.py counts.
    assert steps["perfbench pool"] == 1563
    assert steps["bound 12"] == 4870
    assert steps["bound 40"] == 5280
    assert steps["random expansions"] == 6854
