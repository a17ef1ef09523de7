from __future__ import annotations

import math
import random
from fractions import Fraction
from math import isqrt

import pytest

from okcf.cf import CFExpansion, eval_periodic
from okcf.field import FieldSpec, KElement, SurdElement, reals_equal, sign_of
from okcf.golden import (
    CANDIDATE_ORDER,
    ExpansionConfig,
    ExpansionResult,
    GoldenPreconditionError,
    LOWER_BOUND_SQ,
    MaxStepsError,
    PairContext,
    PairState,
    RADIUS_SQ,
    RealPair,
    choose_quotient,
    covering_radius,
    expand_pair,
    lattice_coords,
    verify_roundtrip,
)
from okcf.parsing import parse_expansion
from okcf.quartic import QuadraticPolyK, make_state, run_trajectory, step_state


BETA_F = (1 + math.sqrt(5)) / 2


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


class TestRealPair:
    def test_linked_fold_and_zero(self, k5):
        # both tracks over delta = 8: product 64 is a square, so the pair
        # collapses into one family and (xi - xi) is exactly zero.
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        ctx = PairContext.create(seed)
        assert ctx.link is not None
        xi = make_state(seed, +1).value
        xip = make_state(seed.sigma(), +1).value
        pair = ctx.pair(xi, -xip)
        assert pair.v is None
        assert pair.is_zero
        assert pair.sign() == 0

    def test_unlinked_structure(self, k5, unlinked_seed):
        ctx = PairContext.create(unlinked_seed)
        assert ctx.link is None
        xi = make_state(unlinked_seed, +1).value
        xip = make_state(unlinked_seed.sigma(), +1).value
        pair = ctx.pair(xi, -xip)
        assert pair.v is not None
        assert not pair.is_zero
        assert pair.sign() == (1 if float(xi) > float(xip) else -1)

    def test_floor_exact_rational(self, k5):
        u = SurdElement(k5, k5.element(2), k5.element(Fraction(7, 2)), k5.zero)
        pair = RealPair(u, None)
        assert pair.floor() == 3 and pair.ceil() == 4
        whole = RealPair(SurdElement(k5, k5.element(2), k5.element(-3), k5.zero), None)
        assert whole.floor() == whole.ceil() == -3

    def test_floor_irrational(self, k5):
        root2 = RealPair(SurdElement(k5, k5.element(2), k5.zero, k5.one), None)
        assert root2.floor() == 1 and root2.ceil() == 2
        neg = RealPair(SurdElement(k5, k5.element(2), k5.zero, -k5.one), None)
        assert neg.floor() == -2 and neg.ceil() == -1


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
            irrational.append(RealPair(SurdElement(k5, d1, rand(), rand()), None))
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
            irrational.append(RealPair(
                SurdElement(k5, k5.element(2), k5.element(7 + p), k5.element(-q)), None
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
    cases.append((PairContext.create(linked).pair(xi, -xip), 0, 0, 0))  # exactly zero
    # delta = beta^2 is a square: 3 + beta - sqrt(beta^2) is exactly 3.
    hidden = SurdElement(k5, beta * beta, 3 + beta, -k5.one)
    cases.append((RealPair(hidden, None), 1, 3, 3))
    cases.append((RealPair(-hidden, None), -1, -3, -3))
    ul = PairContext.create(unlinked_seed)
    zero_y = SurdElement(ul.spec, ul.delta, k5.element(Fraction(-7, 2)), k5.zero)
    zero_y2 = SurdElement(ul.spec, ul.delta_prime, k5.element(1), k5.zero)
    cases.append((RealPair(zero_y, zero_y2), -1, -3, -2))
    return cases


class TestExactPairDecisions:
    def test_against_oracle(self, k5, unlinked_seed):
        for pair, sign, floor, ceil in pair_cases(k5, unlinked_seed):
            assert pair.sign() == sign
            assert pair.floor() == floor
            assert pair.ceil() == ceil
            assert (-pair).floor() == -ceil

    def test_no_embedding_needed(self, k5, unlinked_seed, monkeypatch):
        cases = pair_cases(k5, unlinked_seed)

        def forbidden(*args, **kwargs):
            raise AssertionError("a decision built an enclosure")

        monkeypatch.setattr(KElement, "embed", forbidden)
        monkeypatch.setattr(SurdElement, "embed", forbidden)
        for pair, sign, floor, ceil in cases:
            assert pair.sign() == sign
            assert (pair.floor(), pair.ceil()) == (floor, ceil)
            if pair.v is None:
                assert sign_of(pair.u) == sign


class TestLatticeCoords:
    def test_example_start(self, k5, example_seed):
        ctx = PairContext.create(example_seed)
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        coords = lattice_coords(ps, ctx)
        # numeric oracle: solve the 2x2 system directly
        xi = 1 + math.sqrt(BETA_F**2 + 1)
        xip = 1 + math.sqrt(1 / BETA_F**2 + 1)
        y = (xi - xip) / (BETA_F + 1 / BETA_F)
        x = xi - y * BETA_F
        assert abs(float(coords.x_interval) - x) < 1e-9
        assert abs(float(coords.y_interval) - y) < 1e-9
        assert abs(x - 2.3763819) < 1e-6 and abs(y - 0.3249196) < 1e-6

    def test_recomposition(self, k5, example_seed):
        ctx = PairContext.create(example_seed)
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        coords = lattice_coords(ps, ctx)
        recomposed = coords.x + coords.y.scale(ctx.beta)
        xi_pair = ctx.pair(ps.xi.value, ps.xi.value - ps.xi.value)
        diff = recomposed + (-xi_pair)
        assert diff.is_zero

    def test_symmetric_input_gives_zero_y(self, k5):
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        ctx = PairContext.create(seed)
        ps = PairState(make_state(seed, +1), make_state(seed.sigma(), +1), 0)
        coords = lattice_coords(ps, ctx)
        assert coords.y.is_zero
        assert coords.y.floor() == 0

    def test_requires_d5(self):
        k2 = FieldSpec(2)
        seed = QuadraticPolyK(k2.one, k2.zero, k2.element(-3))
        ctx = PairContext.create(seed)
        with pytest.raises(GoldenPreconditionError):
            lattice_coords(
                PairState(make_state(seed, 1), make_state(seed.sigma(), 1), 0), ctx
            )


class TestChooseQuotient:
    def test_example_first_quotient(self, k5, example_seed):
        ctx = PairContext.create(example_seed)
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), +1), 0)
        a, dist = choose_quotient(ps, ctx)
        assert a == 2
        assert float(dist) < 0.9

    def test_example_second_quotient(self, k5, example_seed):
        ctx = PairContext.create(example_seed)
        s = make_state(example_seed, +1)
        sp = make_state(example_seed.sigma(), +1)
        a0, _ = choose_quotient(PairState(s, sp, 0), ctx)
        s, sp = step_state(s, a0), step_state(sp, a0.conj())
        a1, _ = choose_quotient(PairState(s, sp, 1), ctx)
        assert a1 == k5.element(4, -2)

    def test_alternative_branch_takes_beta_squared(self, k5, example_seed):
        ctx = PairContext.create(example_seed)
        ps = PairState(make_state(example_seed, +1), make_state(example_seed.sigma(), -1), 0)
        a, _ = choose_quotient(ps, ctx)
        assert a == k5.element(1, 1)  # beta^2 = 1 + beta

    def test_dist_is_exact_squared_distance(self, example_seed, unlinked_seed):
        # choose_quotient hands back the exact RealPair it decided on, not an
        # enclosure; the float carries rounding error (about 1e-16 here)
        # that a 64-bit enclosure is far narrower than, hence the tolerance.
        for seed in (example_seed, unlinked_seed):
            ctx = PairContext.create(seed)
            for conj_branch in (1, -1):
                s, sp = make_state(seed, +1), make_state(seed.sigma(), conj_branch)
                for n in range(6):
                    a, dist = choose_quotient(PairState(s, sp, n), ctx)
                    assert isinstance(dist, RealPair)
                    assert dist.shift(-RADIUS_SQ).sign() < 0
                    assert dist.sign() >= 0
                    iv = dist.interval()
                    assert iv.lo - 1e-12 <= float(dist) <= iv.hi + 1e-12
                    s, sp = step_state(s, a), step_state(sp, a.conj())


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
        ctx = PairContext.create(example_seed)
        for conj in (+1, -1):
            r = expand_pair(example_seed, +1, conj)
            quots = list(r.expansion.preperiod) + list(r.expansion.period)
            s = make_state(example_seed, +1)
            sp = make_state(example_seed.sigma(), conj)
            for n, a in enumerate(quots):
                d1 = (s.value - a) * (s.value - a)
                d2 = (sp.value - a.conj()) * (sp.value - a.conj())
                assert ctx.pair(d1, d2).shift(-RADIUS_SQ).sign() < 0
                if n >= 1:
                    assert sign_of(s.value * s.value - LOWER_BOUND_SQ) > 0
                    assert sign_of(sp.value * sp.value - LOWER_BOUND_SQ) > 0
                s, sp = step_state(s, a), step_state(sp, a.conj())

    def test_unlinked_seed_cycles(self, k5, unlinked_seed):
        r = expand_pair(unlinked_seed, +1, +1)
        assert r.verified
        assert len(r.expansion.period) >= 1

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
            expand_pair(example_seed, +1, +1, ExpansionConfig(max_steps=1))
        assert len(err.value.quotients) >= 1

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
        from okcf.quartic import _tight_abs

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
                    s_abs = _tight_abs(xi * qn - qp.p_cur, 64)
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
