"""The float filter's decisions on the large-coefficient corpora against
the mpmath oracle of `test_sign_oracle.py` at 300 digits.

At bounds 12 and 40 the filter decides every floor and every distance
test of the pinned corpora (`okcf corpus --count 100 --bound 12 --seed 7`
and `--count 30 --bound 40 --seed 11`), so its certified error bound is
all that stands between those runs and a wrong quotient.  On a sample of
their states, every floor pair that `_float_floor` returns must be the
oracle's floor and ceiling of the exact lattice coordinate, and every
verdict that `_float_below` returns must be the oracle's sign of
d^2 - 9/10 at that corner.
"""

from __future__ import annotations

import pytest

mpmath = pytest.importorskip("mpmath")

from okcf import golden  # noqa: E402
from okcf.golden import CANDIDATE_ORDER, expand_pair, lattice_coords  # noqa: E402
from test_float_filter import corpus_seeds, harvesting, pair_args  # noqa: E402
from test_sign_oracle import DIGITS, mp_pair, mp_sign, oracle_floor_ceil  # noqa: E402

# (count, bound, rng seed) of the pinned corpora, and every SAMPLE-th
# state of their runs is checked.
CORPORA = ((100, 12, 7), (30, 40, 11))
SAMPLE = 10


def test_filter_decisions_match_the_oracle_at_large_bounds(k5, monkeypatch):
    states = []
    monkeypatch.setattr(golden, "_choose", harvesting(states, golden._choose))
    for count, bound, rng_seed in CORPORA:
        for seed in corpus_seeds(count, bound, rng_seed):
            for conj in (1, -1):
                expand_pair(seed, 1, conj)
    assert len(states) == 4870 + 5280
    sample = states[::SAMPLE]
    floors_decided, verdicts = 0, set()
    with mpmath.workdps(DIGITS):
        for p, roots in sample:
            enc = golden._pair_enclosures(*pair_args(p), roots)
            assert enc is not None
            floors = [oracle_floor_ceil(coord) for coord in lattice_coords(p)]
            for z, floor in zip(enc[2:], floors):
                answer = golden._float_floor(z)
                if answer is not None:
                    assert answer == floor
                    floors_decided += 1
            for cx, cy in CANDIDATE_ORDER:
                x, y = floors[0][cx == "ceil"], floors[1][cy == "ceil"]
                z = golden._corner_distance(enc[0], enc[1], x, y)
                inside = golden._float_below(z, golden._RADIUS_SQ_BELOW,
                                             golden._RADIUS_SQ_ABOVE)
                if inside is not None:
                    dist = mp_pair(golden.squared_distance(p, k5.element(x, y)))
                    assert inside == (mp_sign(dist - mpmath.mpf(9) / 10) < 0)
                    verdicts.add(inside)
    assert floors_decided == 2 * len(sample)
    assert verdicts == {True, False}
