from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import islice
from math import isqrt

import pytest

import okcf.field
from okcf.cf import CFExpansion, associated_poly, e_matrix, eval_periodic
from okcf.field import FieldSpec, InputRuleError, KElement, SurdElement, reals_equal, sign_of
from okcf.golden import (
    CANDIDATE_ORDER,
    ExpansionResult,
    GoldenPreconditionError,
    MaxStepsError,
    PairState,
    RADIUS_SQ,
    RealPair,
    choose_quotient,
    classify_seed,
    covering_radius,
    expand_pair,
    lattice_coords,
    pair_steps,
    squared_distance,
    verify_roundtrip,
)
from okcf.intervals import MAX_BITS
from okcf.parsing import parse_expansion
from okcf.quartic import QuadraticPolyK, make_state, run_trajectory, step_state
from conftest import LOWER_BOUND_SQ


BETA_F = (1 + math.sqrt(5)) / 2


BRANCH_PAIRS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def seeds_from_random_expansions(k5: FieldSpec) -> list[QuadraticPolyK]:
    """The admitted seeds among 300 random periodic expansions x, each seed
    E(x)'s associated polynomial: pre-period 0 to 2 and period 1 to 3
    quotients p + q*w with |p|, |q| <= 3."""
    rng = random.Random(25)

    def quotients(low: int, high: int) -> tuple[KElement, ...]:
        return tuple(k5.element(rng.randint(-3, 3), rng.randint(-3, 3))
                     for _ in range(rng.randint(low, high)))

    seeds = []
    for _ in range(300):
        e = e_matrix(CFExpansion(k5, quotients(0, 2), quotients(1, 3)))
        if e.e21.is_zero:
            continue
        seed = QuadraticPolyK(*associated_poly(e))
        if classify_seed(seed) is None:
            seeds.append(seed)
    return seeds


@pytest.fixture
def example_seed(k5):
    beta = k5.omega
    return QuadraticPolyK(k5.one, k5.element(-2), -(beta * beta))


@pytest.fixture
def unlinked_seed(k5):
    # delta = beta + 5, sigma(delta) = 6 - beta; product 29 is not a square
    # in K, so the two surd families stay independent.
    return QuadraticPolyK(k5.one, k5.omega, -k5.one)


class TestCoveringRadius:
    def test_table(self):
        expected = {2: Fraction(3, 2), 3: Fraction(2), 5: Fraction(9, 10), 13: Fraction(49, 26)}
        for d, r_sq in expected.items():
            cr = covering_radius(d)
            assert cr.r_squared == r_sq
            assert cr.usable == (d == 5)
            # interval really encloses sqrt(r_sq)
            assert cr.interval.lo * cr.interval.lo <= r_sq <= cr.interval.hi * cr.interval.hi

    def test_d5_matches_circumradius(self):
        # (1/(2*sqrt(2)))*(sqrt(5) + 1/sqrt(5)) squared is 9/10
        assert covering_radius(5).r_squared == Fraction(9, 10)
        value = (math.sqrt(5) + 1 / math.sqrt(5)) / (2 * math.sqrt(2))
        assert abs(value**2 - 0.9) < 1e-12

    def test_non_squarefree_rejected(self):
        with pytest.raises(ValueError):
            covering_radius(4)
        with pytest.raises(ValueError):
            covering_radius(12)


def one_family(u: SurdElement) -> RealPair:
    """The real u of one surd family as a pair."""
    return RealPair(u, 0 * u)


class TestRealPair:
    def test_linked_fold_and_zero(self, k5):
        # both tracks over delta = 8: product 64 is a square, and
        # (xi - xi') is exactly zero across the two families.
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        xi = make_state(seed, +1).value
        xip = make_state(seed.sigma(), +1).value
        pair = RealPair(xi, -xip)
        assert pair.sign() == 0

    def test_unlinked_structure(self, k5, unlinked_seed):
        xi = make_state(unlinked_seed, +1).value
        xip = make_state(unlinked_seed.sigma(), +1).value
        pair = RealPair(xi, -xip)
        assert not pair.v.is_zero
        assert pair.sign() != 0
        assert pair.sign() == (1 if float(xi) > float(xip) else -1)

    def test_hand_built_linked_pair_is_zero_by_value(self, k5):
        # sqrt(2) - sqrt(8)/2 = 0 across two linked families.
        u = SurdElement(k5, k5.element(2), k5.zero, k5.one)
        v = SurdElement(k5, k5.element(8), k5.zero, k5.element(Fraction(-1, 2)))
        pair = RealPair(u, v)
        assert pair.sign() == 0
        assert RealPair(u, -v).sign() != 0

    def test_floor_exact_rational(self, k5):
        u = SurdElement(k5, k5.element(2), k5.element(Fraction(7, 2)), k5.zero)
        pair = one_family(u)
        assert pair.floor() == 3 and pair.ceil() == 4
        whole = one_family(SurdElement(k5, k5.element(2), k5.element(-3), k5.zero))
        assert whole.floor() == whole.ceil() == -3

    def test_floor_irrational(self, k5):
        root2 = one_family(SurdElement(k5, k5.element(2), k5.zero, k5.one))
        assert root2.floor() == 1 and root2.ceil() == 2
        neg = one_family(SurdElement(k5, k5.element(2), k5.zero, -k5.one))
        assert neg.floor() == -2 and neg.ceil() == -1

    def test_floor_past_the_float_range(self, k5):
        # The float guess overflows, or is inf - inf: the guess is 0, and
        # exact signs decide the floor from there.
        big = 10**400
        over = one_family(SurdElement(k5, k5.element(3), k5.element(big), k5.element(-big)))
        assert over.floor() == big - isqrt(3 * big * big) - 1
        top = 10**308
        u = SurdElement(k5, k5.element(10), k5.element(top), k5.element(top))
        v = SurdElement(k5, k5.element(10), k5.element(-top), k5.element(3 - top))
        assert math.isnan(float(RealPair(u, v)))
        assert RealPair(u, v).floor() == 9  # 3*sqrt(10) = 9.48...

    def test_floor_of_a_pell_surd_past_max_bits(self, k5):
        # p + q*sqrt(3) = (2 + sqrt(3))^40000, so p - q*sqrt(3) is a positive
        # number below 2^-75000 with a 76,000-bit p: no enclosure of MAX_BITS
        # bits can place it, and exact signs floor it.
        p, q = pell_power(40000)
        assert p.bit_length() > MAX_BITS
        tiny = one_family(SurdElement(k5, k5.element(3), k5.element(p), k5.element(-q)))
        assert (tiny.floor(), tiny.ceil()) == (0, 1)
        minus = RealPair(-tiny.u, -tiny.v)
        assert (minus.floor(), minus.ceil()) == (-1, 0)


def pell_power(n: int) -> tuple[int, int]:
    """(p, q) with p + q*sqrt(3) = (2 + sqrt(3))^n."""
    p, q, bp, bq = 1, 0, 2, 1
    while n:
        if n & 1:
            p, q = p * bp + 3 * q * bq, p * bq + q * bp
        bp, bq = bp * bp + 3 * bq * bq, 2 * bp * bq
        n >>= 1
    return p, q


def pair_cases(k5, unlinked_seed) -> list[tuple[RealPair, int, int, int]]:
    """(pair, sign, floor, ceil) over random, near-tie and exact inputs.

    Irrational values take their answers from a 512-bit enclosure; exact
    integers and zeros are written down.
    """
    rng = random.Random(11)
    beta = k5.omega

    def rand(bound: int = 1000) -> KElement:
        return k5.element(
            Fraction(rng.randint(-bound, bound), rng.randint(1, 9)),
            Fraction(rng.randint(-bound, bound), rng.randint(1, 9)),
        )

    irrational: list[RealPair] = []
    for d1, d2 in ((beta + 5, 6 - beta), (k5.element(2), k5.element(3))):
        for _ in range(100):
            irrational.append(RealPair(
                SurdElement(k5, d1, rand(), rand()), SurdElement(k5, d2, rand(), rand())
            ))
            irrational.append(one_family(SurdElement(k5, d1, rand(), rand())))
    # sqrt(2) + sqrt(3) - r with r a dyadic within 2^-99 of sqrt(2) + sqrt(3),
    # from below and above, shifted to near-integers: the cross-family
    # squaring decides them.
    scale = 1 << 100
    below = Fraction(isqrt(2 * scale * scale) + isqrt(3 * scale * scale), scale)
    for r in (below, below + Fraction(2, scale)):
        for n in (-3, 0, 5):
            irrational.append(RealPair(
                SurdElement(k5, k5.element(2), k5.element(n - r), k5.one),
                SurdElement(k5, k5.element(3), k5.zero, k5.one),
            ))
    # n + (1 - sqrt(2))^k with 80-bit coefficients: the float guess is off
    # by far more than 1 here.
    p, q = 1, 0
    for k in range(1, 72):
        p, q = p + 2 * q, p + q
        if k >= 66:
            irrational.append(one_family(
                SurdElement(k5, k5.element(2), k5.element(7 + p), k5.element(-q))
            ))
    cases = []
    for pair in irrational:
        iv = pair.interval(512)
        assert iv.sign is not None and math.floor(iv.lo) == math.floor(iv.hi)
        f = math.floor(iv.lo)
        cases.append((pair, iv.sign, f, f + 1))

    linked = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
    xi = make_state(linked, +1).value
    xip = make_state(linked.sigma(), +1).value
    cases.append((RealPair(xi, -xip), 0, 0, 0))  # exactly zero
    # delta = beta^2 is a square: 3 + beta - sqrt(beta^2) is exactly 3.
    hidden = SurdElement(k5, beta * beta, 3 + beta, -k5.one)
    cases.append((one_family(hidden), 1, 3, 3))
    cases.append((one_family(-hidden), -1, -3, -3))
    zero_y = SurdElement(k5, unlinked_seed.delta, k5.element(Fraction(-7, 2)), k5.zero)
    zero_y2 = SurdElement(k5, unlinked_seed.delta.conj(), k5.element(1), k5.zero)
    cases.append((RealPair(zero_y, zero_y2), -1, -3, -2))
    return cases


class TestExactPairDecisions:
    def test_against_oracle(self, k5, unlinked_seed):
        for pair, sign, floor, ceil in pair_cases(k5, unlinked_seed):
            assert pair.sign() == sign
            assert pair.floor() == floor
            assert pair.ceil() == ceil
            assert RealPair(-pair.u, -pair.v).floor() == -ceil

    def test_no_embedding_needed(self, k5, unlinked_seed, monkeypatch):
        cases = pair_cases(k5, unlinked_seed)

        def forbidden(*args, **kwargs):
            raise AssertionError("a decision built an enclosure")

        monkeypatch.setattr(KElement, "embed", forbidden)
        monkeypatch.setattr(SurdElement, "embed", forbidden)
        for pair, sign, floor, ceil in cases:
            assert pair.sign() == sign
            assert (pair.floor(), pair.ceil()) == (floor, ceil)
            if pair.v.is_zero:
                assert sign_of(pair.u) == sign


    def test_no_enclosure_past_the_float_range(self, k5, monkeypatch):
        # Seeds whose floats overflow: with every embedding forbidden, the
        # floors of TestRealPair.test_floor_past_the_float_range and two
        # whole expansions still come out exact and verified.
        big, top = 10**400, 10**308
        over = one_family(SurdElement(k5, k5.element(3), k5.element(big), k5.element(-big)))
        nan = RealPair(
            SurdElement(k5, k5.element(10), k5.element(top), k5.element(top)),
            SurdElement(k5, k5.element(10), k5.element(-top), k5.element(3 - top)),
        )

        def forbidden(*args, **kwargs):
            raise AssertionError("a decision built an enclosure")

        monkeypatch.setattr(okcf.field, "_form_embed", forbidden)
        monkeypatch.setattr(KElement, "embed", forbidden)
        monkeypatch.setattr(SurdElement, "embed", forbidden)
        monkeypatch.setattr(RealPair, "interval", forbidden)
        assert over.floor() == big - isqrt(3 * big * big) - 1
        assert (nan.floor(), nan.ceil()) == (9, 10)
        # The period has two quotients; max_steps makes a wrong step fail
        # fast instead of walking a long period of 660-bit states.
        for c in (2 * 10**200, 3 * 10**320):
            seed = QuadraticPolyK(k5.one, k5.element(-c), 1 + k5.omega)
            r = expand_pair(seed, +1, +1, max_steps=4)
            assert r.verified and r.expansion.preperiod == ()
            assert r.expansion.period == (k5.element(c), k5.element(-2 * c, c))


class TestLatticeCoords:
    def test_example_start(self, k5, example_seed):
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        cx, cy = lattice_coords(ps)
        # numeric oracle: solve the 2x2 system directly
        xi = 1 + math.sqrt(BETA_F**2 + 1)
        xip = 1 + math.sqrt(1 / BETA_F**2 + 1)
        y = (xi - xip) / (BETA_F + 1 / BETA_F)
        x = xi - y * BETA_F
        assert abs(float(cx) - x) < 1e-9
        assert abs(float(cy) - y) < 1e-9
        assert abs(x - 2.3763819) < 1e-6 and abs(y - 0.3249196) < 1e-6

    def test_recomposition(self, k5, example_seed):
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        x, y = lattice_coords(ps)
        # x + y*omega = xi, exactly in each surd family.
        assert x.u + y.u * k5.omega == ps.xi.value
        assert (x.v + y.v * k5.omega).is_zero

    def test_symmetric_input_gives_zero_y(self, k5):
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        ps = PairState(make_state(seed, +1), make_state(seed.sigma(), +1), 0)
        _, y = lattice_coords(ps)
        assert y.sign() == 0
        assert y.floor() == 0

    def test_requires_d5(self):
        k2 = FieldSpec(2)
        seed = QuadraticPolyK(k2.one, k2.zero, k2.element(-3))
        with pytest.raises(GoldenPreconditionError):
            lattice_coords(PairState(make_state(seed, 1), make_state(seed.sigma(), 1), 0))


class TestChooseQuotient:
    def test_example_first_quotient(self, k5, example_seed):
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        a = choose_quotient(ps)
        dist = squared_distance(ps, a)
        assert a == 2
        assert float(dist) < 0.9

    def test_example_second_quotient(self, k5, example_seed):
        s = make_state(example_seed, +1)
        sp = make_state(example_seed.sigma(), +1)
        a0 = choose_quotient(PairState(s, sp, 0))
        s, sp = step_state(s, a0), step_state(sp, a0.conj())
        a1 = choose_quotient(PairState(s, sp, 1))
        assert a1 == k5.element(4, -2)

    def test_alternative_branch_takes_beta_squared(self, k5, example_seed):
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), -1), 0)
        a = choose_quotient(ps)
        assert a == k5.element(1, 1)  # beta^2 = 1 + beta

    def test_dist_is_exact_squared_distance(self, example_seed, unlinked_seed):
        # squared_distance hands back the exact RealPair of the chosen
        # corner, not an enclosure; the float carries rounding error (about
        # 1e-16 here) that a 64-bit enclosure is far narrower than, hence
        # the tolerance.
        for seed in (example_seed, unlinked_seed):
            for conj_branch in (1, -1):
                s, sp = make_state(seed, +1), make_state(seed.sigma(), conj_branch)
                for n in range(6):
                    p = PairState(s, sp, n)
                    a = choose_quotient(p)
                    dist = squared_distance(p, a)
                    assert isinstance(dist, RealPair)
                    assert dist._sign_minus(RADIUS_SQ) < 0
                    assert dist.sign() >= 0
                    iv = dist.interval()
                    assert iv.lo - 1e-12 <= float(dist) <= iv.hi + 1e-12
                    s, sp = step_state(s, a), step_state(sp, a.conj())

    def test_a_pair_that_is_not_conjugate_is_rejected(self, k5, example_seed):
        # `other` is admitted but is not sigma(seed).  Read as sigma(seed),
        # the pair would take the quotient 2, whose corner fails the
        # distance bound for this pair.
        other = QuadraticPolyK(k5.element(3), k5.element(1, 2), k5.element(-7, 1))
        assert classify_seed(other) is None
        p = PairState(make_state(example_seed, +1), make_state(other, +1), 0)
        assert squared_distance(p, k5.element(2))._sign_minus(RADIUS_SQ) > 0
        with pytest.raises(InputRuleError, match="sigma"):
            choose_quotient(p)

    def test_every_conjugate_pair_keeps_its_quotient(self, example_seed, unlinked_seed):
        # Each state that pair_steps yields, on every branch pair, gets the
        # quotient that the loop chose for it.
        for seed in (example_seed, unlinked_seed):
            for branch, conj in BRANCH_PAIRS:
                states = list(islice(pair_steps(seed, branch, conj), 8))
                for (_, p), (a, _) in zip(states, states[1:]):
                    assert choose_quotient(p) == a


class TestExpandPair:
    def test_example_both_branches(self, k5, example_seed):
        r = expand_pair(example_seed, +1, +1)
        assert r.expansion.preperiod == ()
        assert r.expansion.period == (k5.element(2), k5.element(4, -2))
        assert r.cycle_start == 0 and r.verified

        r2 = expand_pair(example_seed, +1, -1)
        assert r2.expansion.preperiod == (k5.element(1, 1),)
        assert r2.expansion.period == (k5.element(0, 2),)
        assert r2.cycle_start == 1 and r2.verified

    def test_determinism(self, k5, example_seed):
        a = expand_pair(example_seed, +1, -1)
        b = expand_pair(example_seed, +1, -1)
        assert a.expansion == b.expansion and a.keys == b.keys

    def test_key_repeats_after_period(self, k5, example_seed):
        r = expand_pair(example_seed, +1, +1)
        quots = list(r.expansion.preperiod) + list(r.expansion.period)
        s = make_state(example_seed, +1)
        sp = make_state(example_seed.sigma(), +1)
        for a in quots:
            s, sp = step_state(s, a), step_state(sp, a.conj())
        end_key = (*s.canonical_key, *sp.canonical_key)
        assert end_key == r.keys[r.cycle_start]

    def test_step_invariants_replay(self, k5, example_seed):
        for conj in (+1, -1):
            r = expand_pair(example_seed, +1, conj)
            quots = list(r.expansion.preperiod) + list(r.expansion.period)
            s = make_state(example_seed, +1)
            sp = make_state(example_seed.sigma(), conj)
            for n, a in enumerate(quots):
                d1 = (s.value - a) * (s.value - a)
                d2 = (sp.value - a.conj()) * (sp.value - a.conj())
                assert RealPair(d1, d2)._sign_minus(RADIUS_SQ) < 0
                if n >= 1:
                    assert sign_of(s.value * s.value - LOWER_BOUND_SQ) > 0
                    assert sign_of(sp.value * sp.value - LOWER_BOUND_SQ) > 0
                s, sp = step_state(s, a), step_state(sp, a.conj())

    def test_unlinked_seed_cycles(self, k5, unlinked_seed):
        r = expand_pair(unlinked_seed, +1, +1)
        assert r.verified
        assert len(r.expansion.period) >= 1

    def test_seeds_from_random_periodic_expansions_close(self, k5):
        # A distribution the corpus sampler never draws.  Every admitted
        # seed closes on all four branch pairs at the default cap, and on a
        # slice the flag is the full evaluation's answer.
        seeds = seeds_from_random_expansions(k5)
        for i, seed in enumerate(seeds):
            for branch, conj_branch in BRANCH_PAIRS:
                r = expand_pair(seed, branch, conj_branch)
                assert r.verified
                if i < 20:
                    assert verify_roundtrip(r).ok is r.verified
        assert len(seeds) > 150

    def test_a_period_in_the_thousands_closes_and_verifies(self, k5):
        # The seed of [; -10+8*w, 12+7*w, 14-6*w]: on the branch pairs
        # (+, -) and (-, +) it gives back a period of 3, on (+, +) and
        # (-, -) periods past 2000.
        x = parse_expansion("[; -10+8*w, 12+7*w, 14-6*w]", k5)
        seed = QuadraticPolyK(*associated_poly(e_matrix(x)))
        assert classify_seed(seed) is None
        r = expand_pair(seed, 1, 1)
        assert (len(r.expansion.period), r.cycle_start) == (2194, 75)
        assert r.verified
        assert verify_roundtrip(r).ok is r.verified

    def test_emitted_quotients_integral(self, k5, unlinked_seed):
        r = expand_pair(unlinked_seed, +1, -1)
        for a in (*r.expansion.preperiod, *r.expansion.period):
            assert a.is_integral

    def test_rejects_wrong_field(self):
        k2 = FieldSpec(2)
        seed = QuadraticPolyK(k2.one, k2.zero, k2.element(-1, -1))
        with pytest.raises(GoldenPreconditionError) as err:
            expand_pair(seed, +1, +1)
        assert "covering" in str(err.value)

    def test_rejects_complex_conjugates(self, k5):
        # sigma(delta) < -4: cites the even-period obstruction
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(2, -3))
        with pytest.raises(GoldenPreconditionError) as err:
            expand_pair(seed, +1, +1)
        assert "even-period" in str(err.value)

    def test_rejects_square_discriminant(self, k5):
        seed = QuadraticPolyK(k5.one, k5.element(-3), k5.element(2))
        with pytest.raises(GoldenPreconditionError):
            expand_pair(seed, +1, +1)

    def test_max_steps_error_carries_state(self, k5, example_seed):
        with pytest.raises(MaxStepsError) as err:
            expand_pair(example_seed, +1, +1, max_steps=1)
        assert len(err.value.quotients) >= 1

    def test_max_steps_below_one_is_rejected(self, example_seed):
        with pytest.raises(InputRuleError, match="max_steps must be >= 1"):
            expand_pair(example_seed, +1, +1, max_steps=0)

    def test_branches_must_be_signs(self, example_seed):
        # Checked before any state is built, by expand_pair and pair_steps.
        for branch, conj_branch in ((0, 1), (1, 2), (None, 1), (1, None)):
            with pytest.raises(InputRuleError, match="branch must be"):
                expand_pair(example_seed, branch, conj_branch)
            with pytest.raises(InputRuleError, match="branch must be"):
                next(pair_steps(example_seed, branch, conj_branch))

    def test_no_embedding_on_expansion_path(self, example_seed, unlinked_seed, monkeypatch):
        expected = {
            (seed, conj_branch): expand_pair(seed, +1, conj_branch)
            for seed in (example_seed, unlinked_seed)
            for conj_branch in (1, -1)
        }

        def forbidden(*args, **kwargs):
            raise AssertionError("the expansion path built an enclosure")

        monkeypatch.setattr(KElement, "embed", forbidden)
        monkeypatch.setattr(SurdElement, "embed", forbidden)
        for (seed, conj_branch), r in expected.items():
            again = expand_pair(seed, +1, conj_branch)
            assert again.expansion == r.expansion
            assert again.keys == r.keys
            assert again.verified and r.verified


class TestRoundTrip:
    def test_forward_value(self, k5, example_seed):
        beta = k5.omega
        r = expand_pair(example_seed, +1, +1)
        res = eval_periodic(r.expansion)
        assert reals_equal(res.value, SurdElement(k5, beta * beta + 1, k5.one, k5.one))

    def test_sigma_mapped_expansion(self, k5, example_seed):
        r = expand_pair(example_seed, +1, +1)
        sigma_exp = r.expansion.sigma()
        assert sigma_exp.period == (k5.element(2), k5.element(2, 2))
        val = eval_periodic(sigma_exp).value
        xip = make_state(example_seed.sigma(), +1).value
        assert reals_equal(val, xip)

    def test_tampered_expansion_fails(self, k5, example_seed):
        r = expand_pair(example_seed, +1, +1)
        tampered = CFExpansion(
            k5, r.expansion.preperiod,
            (r.expansion.period[0] + 1, r.expansion.period[1]),
        )
        bad = ExpansionResult(
            expansion=tampered, keys=r.keys, cycle_start=0, verified=False,
            seed=example_seed, branch=1, conj_branch=1,
        )
        rt = verify_roundtrip(bad)
        assert not rt
        assert rt.detail

    @pytest.mark.parametrize(
        "period, conj_branch, forward_ok, detail",
        [
            ("[; 2, 4-2*w]", +1, True, ""),
            ("[; 2, 4-2*w]", -1, True,
             "sigma expansion value differs from the chosen conjugate root"),
            ("[; 3, 4-2*w]", +1, False, "expansion value differs from the seed root"),
            ("[; 0, 0]", +1, False,
             "expansion has no value: identity_multiple; "
             "sigma expansion has no value: identity_multiple"),
            ("[; 0, 1]", +1, False,
             "expansion evaluates into K, not to the quartic root; "
             "sigma expansion evaluates into K"),
        ],
        ids=["verified", "conj-flipped", "tampered", "identity", "into-K"],
    )
    def test_roundtrip_detail_strings(self, k5, example_seed, period, conj_branch,
                                      forward_ok, detail):
        # A side's "value differs" text is added only when no earlier side
        # left a detail, so the tampered period reports one text, not two.
        r = ExpansionResult(
            expansion=parse_expansion(period, k5), keys=(), cycle_start=0,
            verified=False, seed=example_seed, branch=1, conj_branch=conj_branch,
        )
        rt = verify_roundtrip(r)
        assert rt.detail == detail
        assert rt.forward_ok is forward_ok
        assert rt.ok is (detail == "")

    def test_candidate_order_constant(self):
        assert CANDIDATE_ORDER == (
            ("floor", "floor"), ("floor", "ceil"), ("ceil", "floor"), ("ceil", "ceil"),
        )


class TestGrowthBounds:
    def test_error_bound_after_first_denominator_growth(self, k5, example_seed, unlinked_seed):
        # Once |Q_n| first exceeds |Q_{n-1}|, every later |Q_n * S_n| stays
        # below 1/(sqrt(10/9) - 1).
        from okcf.cf import qpair_states
        from test_enclosure_reference import tight_abs

        gamma_minus_1_inv = 1 / (math.sqrt(10 / 9) - 1)  # ~ 18.487
        for seed in (example_seed, unlinked_seed):
            r = expand_pair(seed, +1, +1)
            quots = (list(r.expansion.preperiod) + list(r.expansion.period * 8))[:24]
            xi = make_state(seed, +1).value
            n0 = None
            prev_q = None
            for n, qp in enumerate(qpair_states(k5, quots)):
                qn = qp.q_cur
                if n0 is None and prev_q is not None:
                    if sign_of(qn * qn - prev_q * prev_q) > 0:
                        n0 = n
                if n0 is not None:
                    s_abs = tight_abs(xi * qn - qp.p_cur, 64)
                    q_abs = abs(qn.embed(64))
                    assert float((q_abs * s_abs).hi) < gamma_minus_1_inv
                prev_q = qn
            assert n0 is not None

    def test_abs_a_finite_over_cycle(self, k5, example_seed, unlinked_seed):
        # A detected cycle visits finitely many exact triples, so the sets
        # {|A_n|} and {|sigma(A_n)|} are finite.
        for seed in (example_seed, unlinked_seed):
            r = expand_pair(seed, +1, -1)
            quots = list(r.expansion.preperiod) + list(r.expansion.period * 3)
            states = run_trajectory(seed, +1, quots)
            a_values = {s.poly.A for s in states}
            canonical = {s.canonical_key for s in states}
            assert len(canonical) <= len(r.expansion.preperiod) + len(r.expansion.period) + 1
            assert len(a_values) <= 2 * (len(r.expansion.preperiod) + len(r.expansion.period) + 1)
