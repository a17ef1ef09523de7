"""The expansion loop on integers against the pair expansion written out
on `QuotientState`s.

`expand_pair` steps only the integers of the main track xi_n and keys its
cycle table on them; `pair_steps` builds each xi'_n as sigma of xi_n.
The reference here steps both tracks by `step_state` itself, xi_n by a_n
from `QuotientState(seed, branch)` and xi'_n by sigma(a_n) from
`QuotientState(seed.sigma(), conj_branch)`, and closes its cycle on
the pair key (*xi.canonical_key, *xi_prime.canonical_key), as the pair
expansion is defined.  Every state that `pair_steps` yields must be the
reference's, and `expand_pair` must give
the reference's expansion, keys, cycle start and round-trip flag, or at
the caps 1, 2 and 4 its `MaxStepsError` text, quotients and keys.  The
flag is checked against the proportional test written out on the
`KElement` entries of `e_matrix`.

Checked on perfbench's corpus pool, on the corpora pinned at bounds 12
and 40 (the states that `test_filter_straight_line.py` checks bit for
bit) and on the seeds from random periodic expansions on all four branch
pairs.
"""

from __future__ import annotations

import pytest

from okcf.cf import CFExpansion, e_matrix
from okcf.field import KElement, sign_of
from okcf.golden import MaxStepsError, expand_pair, pair_steps
from okcf.quartic import QuadraticPolyK, QuotientState, step_state
from test_filter_straight_line import perfbench_pool_seeds
from test_float_filter import corpus_seeds
from test_golden import BRANCH_PAIRS, seeds_from_random_expansions

CAPS = (1, 2, 4)


def reference_verified(seed: QuadraticPolyK, expansion: CFExpansion, branch: int,
                       conj_branch: int) -> bool:
    """E proportional to the seed, and each side's branch selected by the
    signs of E21, A and tr(E) or of their conjugates."""
    e = e_matrix(expansion)
    a = seed.A
    if e.e21.is_zero or e.e21 * seed.B != (e.e22 - e.e11) * a or e.e21 * seed.C != -e.e12 * a:
        return False
    trace = e.e11 + e.e22
    sides = ((e.e21, a, trace, branch), (e.e21.conj(), a.conj(), trace.conj(), conj_branch))
    return all(sign_of(x) * sign_of(y) * sign_of(z) == want for x, y, z, want in sides)


def reference_run(seed: QuadraticPolyK, branch: int, conj_branch: int
                  ) -> tuple[list[KElement], list[tuple], int, int]:
    """(quotients, keys, cycle start, closing index) of the pair expansion
    stepped by `step_state` on both tracks, with each state checked
    against the one `pair_steps` yields; the quotients are those
    `pair_steps` chose, and the keys are the first visits'."""
    xi, xip = QuotientState(seed, branch), QuotientState(seed.sigma(), conj_branch)
    seen: dict[tuple, int] = {}
    quotients: list[KElement] = []
    for n, (a, p) in enumerate(pair_steps(seed, branch, conj_branch)):
        if a is not None:
            quotients.append(a)
            xi, xip = step_state(xi, a), step_state(xip, a.conj())
        assert (p.xi, p.xi_prime, p.index) == (xi, xip, n), (seed, n)
        m = seen.setdefault((*xi.canonical_key, *xip.canonical_key), n)
        if m != n:
            return quotients, list(seen), m, n
        assert n < 10_000


def check_run(seed: QuadraticPolyK, branch: int, conj_branch: int) -> int:
    """Check `expand_pair` at the default cap and at `CAPS` against the
    reference; returns the closing index."""
    quotients, keys, m, n = reference_run(seed, branch, conj_branch)
    r = expand_pair(seed, branch, conj_branch)
    expansion = CFExpansion(seed.spec, tuple(quotients[:m]), tuple(quotients[m:n]))
    assert r.expansion == expansion, seed
    assert r.keys == tuple(keys), seed
    assert r.cycle_start == m, seed
    assert r.verified == reference_verified(seed, expansion, branch, conj_branch), seed
    for cap in CAPS:
        if n <= cap:
            capped = expand_pair(seed, branch, conj_branch, max_steps=cap)
            assert (capped.expansion, capped.keys, capped.cycle_start, capped.verified) == (
                r.expansion, r.keys, r.cycle_start, r.verified)
            continue
        with pytest.raises(MaxStepsError) as info:
            expand_pair(seed, branch, conj_branch, max_steps=cap)
        assert str(info.value) == f"no state repetition within {cap} steps"
        assert info.value.quotients == quotients[:cap + 1], (seed, cap)
        assert info.value.keys == keys[:cap + 1], (seed, cap)
    return n


def test_the_conjugate_track_is_the_conjugate(k5):
    corpora = {
        "perfbench pool": (perfbench_pool_seeds(k5), ((1, 1), (1, -1))),
        "bound 12": (corpus_seeds(100, 12, 7), ((1, 1), (1, -1))),
        "bound 40": (corpus_seeds(30, 40, 11), ((1, 1), (1, -1))),
        "random expansions": (seeds_from_random_expansions(k5), BRANCH_PAIRS),
    }
    steps = {
        name: sum(check_run(seed, *pair) for seed in seeds for pair in pairs)
        for name, (seeds, pairs) in corpora.items()
    }
    # The first three are the quotient-choosing states that
    # test_filter_straight_line.py counts.
    assert steps["perfbench pool"] == 1563
    assert steps["bound 12"] == 4870
    assert steps["bound 40"] == 5280
    assert steps["random expansions"] == 6854
