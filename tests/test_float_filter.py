"""The certified float filter of `okcf.golden` against an mpmath oracle and
against the exact path it stands in front of.

The oracle test checks that the true value (100 digits, from the integers
of each state alone) lies inside every enclosure the filter builds, and
that every answer the filter gives is the true one.  The differential
test turns the filter off and requires the same expansions; it also caps
how many decisions reach the exact path, which guards the fast path.
"""

from __future__ import annotations

import math
import random

import pytest

from okcf import golden
from okcf.cli import _sample_seed
from okcf.field import FieldSpec, KElement, is_square_in_k
from okcf.golden import Enclosure, PairState, SeedRejection, expand_pair, float_roots
from okcf.quartic import QuadraticPolyK, QuotientState
from test_sign_oracle import pool_seeds

DIGITS = 100
# The float_roots of a seed: enclosures of sqrt(delta) and sqrt(sigma(delta)).
Roots = tuple[Enclosure, Enclosure] | None
# Thresholds either side of 10/9 for the modulus invariant xi_n^2 > 10/9,
# as the filter takes them either side of 9/10.
LOWER_SQ_BELOW, LOWER_SQ_ABOVE = 10 / 9 - golden._MARGIN, 10 / 9 + golden._MARGIN


def harvesting(into: list, choose):
    """A stand-in for `golden._choose`, the chooser behind `expand_pair`,
    that appends the `PairState` and float roots of every state that
    chooses a quotient to `into`, then chooses by `choose`."""

    def recording(spec, state, t, roots, index):
        into.append((golden._pair_state(spec, state, t, index), roots))
        return choose(spec, state, t, roots, index)

    return recording


def xi_args(s: QuotientState) -> tuple[int, int, int, int, int]:
    """The arguments of `golden._xi_enclosure` before the root: the
    integers of A and B and the branch."""
    a, b = s.poly.A, s.poly.B
    return a.p, a.q, b.p, b.q, s.branch


def pair_args(p: PairState) -> tuple[int, ...]:
    """The arguments of `golden._pair_enclosures` before the roots: those
    of `xi_args(p.xi)` and the branch product."""
    return (*xi_args(p.xi), p.xi.branch * p.xi_prime.branch)


@pytest.fixture(scope="module")
def pool_run(k5):
    """Expand the sign-oracle pool on both conjugate branches with the
    filter on, recording every (state, float roots) that chose a quotient and
    how many floors and candidate tests the filter left undecided."""
    states: list[tuple[PairState, Roots]] = []
    # kind -> [decisions, undecided]
    counts = {"floor": [0, 0], "candidate": [0, 0]}
    float_floor, float_below = golden._float_floor, golden._float_below
    recording = harvesting(states, golden._choose)

    def counted_floor(z):
        answer = float_floor(z)
        counts["floor"][0] += 1
        counts["floor"][1] += answer is None
        return answer

    def counted_below(z, below, above):
        answer = float_below(z, below, above)
        counts["candidate"][0] += 1
        counts["candidate"][1] += answer is None
        return answer

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(golden, "_choose", recording)
        mp.setattr(golden, "_float_floor", counted_floor)
        mp.setattr(golden, "_float_below", counted_below)
        results = {
            (seed, conj): expand_pair(seed, 1, conj)
            for seed in pool_seeds(k5)
            for conj in (1, -1)
        }
    return results, states, counts


# -- The enclosure oracle ----------------------------------------------------


@pytest.fixture
def mp():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(DIGITS):
        yield mpmath


def mp_k(mpmath, x: KElement):
    # Integral elements of Q(sqrt(5)): p + q*w with w = (1 + sqrt(5))/2.
    return x.p + x.q * (1 + mpmath.sqrt(5)) / 2


def mp_xi(mpmath, s: QuotientState):
    poly = s.poly
    root = mpmath.sqrt(mp_k(mpmath, poly.delta))
    return (-mp_k(mpmath, poly.B) + s.branch * root) / (2 * mp_k(mpmath, poly.A))


def assert_encloses(mpmath, z, true, what):
    v, e = z
    assert math.isfinite(v) and math.isfinite(e) and e >= 0, what
    assert abs(true - mpmath.mpf(v)) <= mpmath.mpf(e), what


def check_state(mpmath, p: PairState, roots: Roots) -> int:
    """Check every enclosure the filter builds for p from the seed's
    float roots, and every answer it gives; returns the number of
    enclosures checked."""
    if roots is None:
        return 0
    checked = 0
    for z, delta in zip(roots, (p.xi.poly.delta, p.xi_prime.poly.delta)):
        assert_encloses(mpmath, z, mpmath.sqrt(mp_k(mpmath, delta)), "sqrt(delta)")
        checked += 1
    xi, xip = mp_xi(mpmath, p.xi), mp_xi(mpmath, p.xi_prime)
    for s, true, root in ((p.xi, xi, roots[0]), (p.xi_prime, xip, roots[1])):
        z = golden._xi_enclosure(*xi_args(s), root)
        if z is None:
            continue
        assert_encloses(mpmath, z, true, "xi")
        checked += 1
        modulus_below = golden._float_below(
            golden._mul(z, z), LOWER_SQ_BELOW, LOWER_SQ_ABOVE
        )
        if modulus_below is not None:
            assert modulus_below == (true * true < mpmath.mpf(10) / 9)
    enc = golden._pair_enclosures(*pair_args(p), roots)
    if enc is None:
        return checked
    y = (xi - xip) / mpmath.sqrt(5)
    x = xi - y * (1 + mpmath.sqrt(5)) / 2
    corners = []
    for z, true, what in ((enc[2], x, "x"), (enc[3], y, "y")):
        assert_encloses(mpmath, z, true, what)
        checked += 1
        n = int(mpmath.floor(true))
        answer = golden._float_floor(z)
        if answer is not None:
            assert answer == (n, n + 1), what
        corners.append((n, n + 1))
    for cx in corners[0]:
        for cy in corners[1]:
            z = golden._corner_distance(enc[0], enc[1], cx, cy)
            a = cx + cy * (1 + mpmath.sqrt(5)) / 2
            sigma_a = cx + cy * (1 - mpmath.sqrt(5)) / 2
            dist = (xi - a) ** 2 + (xip - sigma_a) ** 2
            assert_encloses(mpmath, z, dist, "corner distance")
            checked += 1
            inside = golden._float_below(z, golden._RADIUS_SQ_BELOW, golden._RADIUS_SQ_ABOVE)
            if inside is not None:
                assert inside == (dist < mpmath.mpf(9) / 10)
    return checked


def test_enclosures_hold_on_every_pool_state(mp, pool_run):
    _, states, _ = pool_run
    assert len(states) > 1000
    checked = sum(check_state(mp, p, roots) for p, roots in states)
    assert checked == 10 * len(states)


def crafted_seeds(k5) -> dict[str, QuadraticPolyK]:
    """Seeds with 200-bit coefficients: B with heavy cancellation in
    -B + sqrt(delta) (delta = B^2 + 4), near-units F_(k+1) + 2^146 - F_k*w
    whose float enclosures reach 0 although their floats are not 0, as a
    leading coefficient and inside delta, and coefficients too large for a
    float.  "huge_lead" is admissible with A = 2^1023, a float whose double
    2A overflows to inf without raising, B = 2^1023 - 3^380 and
    delta = B^2 mod 2^1025, a float that is not a square in K."""
    big = k5.element(3 << 199, (1 << 200) + 12345)
    fib = [0, 1]
    while fib[-1].bit_length() < 200:
        fib.append(fib[-1] + fib[-2])
    k = len(fib) - 2 if len(fib) % 2 else len(fib) - 3  # even k: F_(k+1) > F_k*w
    near_unit = k5.element(fib[k + 1] + (1 << 146), -fib[k])
    b = (1 << 1023) - 3**380
    r = b * b % (1 << 1025)
    return {
        "cancel": QuadraticPolyK(k5.one, big, -k5.one),
        "cancel_neg": QuadraticPolyK(k5.one, -big, -k5.one),
        "cancel_mixed": QuadraticPolyK(k5.element(-7, 3), big, k5.element(5, 2)),
        "tiny_lead": QuadraticPolyK(near_unit, big, -k5.one),
        "tiny_delta": QuadraticPolyK(k5.one, k5.zero, -near_unit),
        "overflow": QuadraticPolyK(k5.one, k5.element(1 << 1100, 1), -k5.one),
        "huge_lead": QuadraticPolyK(
            k5.element(1 << 1023), k5.element(b), k5.element((b * b - r) >> 1025)
        ),
    }


def both_branches(seed: QuadraticPolyK) -> list[tuple[PairState, Roots]]:
    roots = float_roots(seed)
    return [
        (PairState(QuotientState(seed, branch), QuotientState(seed.sigma(), conj), 0), roots)
        for branch in (1, -1)
        for conj in (1, -1)
    ]


def test_enclosures_hold_on_crafted_states(mp, k5):
    seeds = crafted_seeds(k5)
    for name in ("cancel", "cancel_neg", "cancel_mixed", "tiny_lead"):
        for p, roots in both_branches(seeds[name]):
            assert check_state(mp, p, roots) >= 3, name
    # A divisor or radicand whose enclosure reaches 0 makes the filter
    # abstain even though its float is not 0, and so does a coefficient
    # that no float holds.
    lead = seeds["tiny_lead"].A
    assert 0 < golden._k_enclosure(lead)[0] < golden._k_enclosure(lead)[1]
    for p, roots in both_branches(seeds["tiny_lead"]):
        assert golden._pair_enclosures(*pair_args(p), roots) is None
    delta = seeds["tiny_delta"].delta
    assert 0 < golden._k_enclosure(delta)[0] < golden._k_enclosure(delta)[1]
    assert float_roots(seeds["tiny_delta"]) is None
    assert float_roots(seeds["overflow"]) is None
    # A divisor that overflows to inf: finite/inf = 0 would enclose xi
    # (about -1/2) as 0, and choose 0 where the exact path chooses -1.
    huge = seeds["huge_lead"]
    assert golden.classify_seed(huge) is None
    assert 0 < huge.delta.p < 2**1023 and huge.delta.q == 0
    for p, roots in both_branches(huge):
        assert check_state(mp, p, roots) == 2
        assert golden._pair_enclosures(*pair_args(p), roots) is None
        assert golden.choose_quotient(p) == -1


def test_float_roots_abstain_off_q_sqrt5():
    # The float filter encloses w = (1 + sqrt(5))/2 only; over any other
    # field the exact path decides every step.
    for d in (2, 13):
        k = FieldSpec(d)
        assert float_roots(QuadraticPolyK(k.one, k.zero, k.element(-3))) is None, d


def test_helpers_abstain_when_the_enclosure_touches_a_threshold():
    floor, below = golden._float_floor, golden._float_below
    assert floor((2.5, 0.2)) == (2, 3)
    assert floor((-2.5, 0.2)) == (-3, -2)
    # An enclosure whose doubled bound reaches an integer, or an integer.
    for z in ((3.0, 0.0), (2.5, 0.25), (2.75, 0.125), (-2.25, 0.125), (-2.5, 0.25),
              (0.0, 0.0), (1e-300, 1e-300)):
        assert floor(z) is None, z
    for z in ((2.0**52, 0.0), (-(2.0**52) + 0.5, 0.1), (math.nan, 0.0), (1.5, math.nan),
              (math.inf, math.inf), (1.5, math.inf)):
        assert floor(z) is None, z
    for lo, hi, t in ((golden._RADIUS_SQ_BELOW, golden._RADIUS_SQ_ABOVE, 0.9),
                      (LOWER_SQ_BELOW, LOWER_SQ_ABOVE, 10 / 9)):
        assert lo < t < hi
        assert below((t - 0.01, 1e-3), lo, hi) is True
        assert below((t + 0.01, 1e-3), lo, hi) is False
        # Enclosures that contain the threshold, or touch one of its margins.
        for z in ((t, 0.0), (t, 1e-3), (lo, 0.0), (hi, 0.0), (lo - 1e-10, 5e-11),
                  (hi + 1e-10, 5e-11), (math.nan, 0.0), (t - 0.01, math.inf)):
            assert below(z, lo, hi) is None, z


# -- Against the exact path --------------------------------------------------


def assert_runs_match(results: dict) -> None:
    """Each `pool_run` result is what `expand_pair` gives now."""
    for (seed, conj), r in results.items():
        exact = expand_pair(seed, 1, conj)
        assert exact.expansion == r.expansion
        assert exact.keys == r.keys
        assert exact.cycle_start == r.cycle_start
        assert exact.verified == r.verified


def test_forced_exact_path_gives_the_same_expansions(pool_run, monkeypatch):
    results, _, counts = pool_run
    monkeypatch.setattr(golden, "_float_floor", lambda z: None)
    monkeypatch.setattr(golden, "_float_below", lambda z, below, above: None)
    assert_runs_match(results)
    # The fast path: at most 2% of the floors and of the candidate tests
    # reach the exact path.
    for kind in ("floor", "candidate"):
        decisions, undecided = counts[kind]
        assert decisions > 1000
        assert undecided <= 0.02 * decisions, (kind, counts[kind])


def test_exact_distance_tests_after_filtered_floors_give_the_same_expansions(pool_run,
                                                                            monkeypatch):
    # The filter decides both floors and abstains on every corner, so each
    # distance test builds the exact pair itself, where no floor did.
    monkeypatch.setattr(golden, "_float_below", lambda z, below, above: None)
    assert_runs_match(pool_run[0])


def test_decided_steps_build_no_exact_pair(k5, monkeypatch):
    beta = k5.omega
    seed = QuadraticPolyK(k5.one, k5.element(-2), -(beta * beta))

    def forbidden(*args, **kwargs):
        raise AssertionError("a filtered step went to the exact path")

    expected = {conj: expand_pair(seed, 1, conj) for conj in (1, -1)}
    monkeypatch.setattr(golden, "lattice_coords", forbidden)
    monkeypatch.setattr(golden, "squared_distance", forbidden)
    monkeypatch.setattr(golden.RealPair, "sign", forbidden)
    for conj, r in expected.items():
        assert expand_pair(seed, 1, conj).expansion == r.expansion


def corpus_seeds(count: int, bound: int, seed: int) -> list[QuadraticPolyK]:
    """The first `count` seeds of `okcf corpus --bound <bound> --seed <seed>`."""
    rng, spec = random.Random(seed), FieldSpec(5)
    counters = {reason.value: 0 for reason in SeedRejection}
    seeds: list[QuadraticPolyK] = []
    while len(seeds) < count:
        s = _sample_seed(rng, spec, bound, counters)
        if s is not None:
            seeds.append(s)
    return seeds


@pytest.mark.parametrize("bound, seed, count, pool", [(12, 7, 50, 1500), (40, 11, 15, 1000)])
def test_forced_exact_path_agrees_at_large_bounds(monkeypatch, bound, seed, count, pool):
    # At these magnitudes the filter decides every floor and distance test,
    # so turning it off is the only way their floors reach the exact path.
    # Linked seeds (delta*sigma(delta) a square in K) are about 2% of the
    # corpus here; all of those among the first `pool` seeds are added, and
    # their floors take the two-family path of `surd_sum_sign`.
    stream = corpus_seeds(pool, bound, seed)
    linked = [s for s in stream if is_square_in_k(s.delta * s.delta.conj()) is not None]
    assert len(linked) >= 9
    seeds = stream[:count] + linked
    filtered = [expand_pair(s, 1, conj) for s in seeds for conj in (1, -1)]
    assert max(len(r.expansion.period) for r in filtered) > 40
    assert sum(r.steps for r in filtered[2 * count:]) > 400
    monkeypatch.setattr(golden, "_BINARY64", False)
    exact = [expand_pair(s, 1, conj) for s in seeds for conj in (1, -1)]
    for f, e in zip(filtered, exact):
        assert e.expansion == f.expansion
        assert e.keys == f.keys
        assert e.cycle_start == f.cycle_start
        assert e.verified == f.verified
