from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from okcf.cf import QPairState, qpair_states
from okcf.field import FieldSpec, InputRuleError, SurdElement, reals_equal, sign_of
from okcf.intervals import RealInterval, dyadic_interval
from okcf.quartic import (
    QuadraticPolyK,
    QuotientState,
    SeedError,
    SquareDiscriminantError,
    diagnostics,
    make_state,
    naive_height,
    periodicity_preconditions,
    run_trajectory,
    step_state,
    summarize,
    triple_recursion,
    weil_height,
    weil_height4,
    weil_height_element,
)
from conftest import random_k


@pytest.fixture
def example_seed(k5):
    """x^2 - 2x - beta^2, the root being 1 + sqrt(beta^2 + 1)."""
    beta = k5.omega
    return QuadraticPolyK(k5.one, k5.element(-2), -(beta * beta))


def random_seed(rng: random.Random, spec: FieldSpec, bound: int = 3) -> QuadraticPolyK:
    from okcf.field import is_square_in_k

    while True:
        a = random_k(rng, spec, bound, nonzero=True)
        b = random_k(rng, spec, bound)
        c = random_k(rng, spec, bound)
        seed = QuadraticPolyK(a, b, c)
        if sign_of(seed.delta) <= 0:
            continue
        if is_square_in_k(seed.delta) is not None:
            continue
        return seed


def random_quotients(rng: random.Random, spec: FieldSpec, n: int, bound: int = 3):
    out = [random_k(rng, spec, bound)]
    out.extend(random_k(rng, spec, bound, nonzero=True) for _ in range(n - 1))
    return out


class TestStates:
    def test_example_value(self, k5, example_seed):
        beta = k5.omega
        st = make_state(example_seed, +1)
        assert reals_equal(st.value, SurdElement(k5, beta * beta + 1, k5.one, k5.one))
        assert abs(float(st.value) - (1 + math.sqrt((1 + math.sqrt(5)) / 2 * (1 + math.sqrt(5)) / 2 + 1))) < 1e-9

    def test_branch_minus(self, k5, example_seed):
        beta = k5.omega
        st = make_state(example_seed, -1)
        assert reals_equal(
            st.value, SurdElement(k5, beta * beta + 1, k5.one, -k5.one)
        )

    def test_x2_minus_2_accepted(self, k5):
        # delta = 8; 8 is not a square in Q(sqrt(5)), so the state is valid.
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        st = make_state(seed, +1)
        assert st.value * st.value == 2

    def test_square_discriminant_rejected(self, k5):
        # x^2 - 3x + 2 has delta = 1
        with pytest.raises(SquareDiscriminantError):
            make_state(QuadraticPolyK(k5.one, k5.element(-3), k5.element(2)), +1)

    def test_negative_discriminant_rejected(self, k5):
        with pytest.raises(SeedError):
            make_state(QuadraticPolyK(k5.one, k5.zero, k5.one), +1)

    def test_non_integral_rejected(self, k5):
        with pytest.raises(SeedError):
            QuadraticPolyK(k5.element(Fraction(1, 2)), k5.zero, k5.one)

    def test_zero_lead_rejected(self, k5):
        with pytest.raises(SeedError, match="leading coefficient must be nonzero"):
            QuadraticPolyK(k5.zero, k5.one, k5.one)

    def test_branch_is_a_sign(self, example_seed):
        with pytest.raises(InputRuleError, match="branch must be"):
            QuotientState(example_seed, 0)


class TestStepState:
    def test_example_step(self, k5, example_seed):
        beta = k5.omega
        st = make_state(example_seed, +1)
        st1 = step_state(st, k5.element(2))
        # oracle: exact surd reciprocal of (value - 2)
        oracle = (st.value - 2).recip()
        assert st1.value == oracle
        # (1 + sqrt(beta^2+1))/beta^2 expanded over the seed family
        b2inv = k5.one / (beta * beta)
        assert st1.value.x == b2inv and st1.value.y == b2inv / 2

    def test_step_and_inverse(self, k5, rng):
        # step_state takes the new branch from an identity; the exact surd
        # reciprocal checks it at every step of whole trajectories.
        for _ in range(8):
            seed = random_seed(rng, k5)
            for branch in (1, -1):
                st = make_state(seed, branch)
                for a in random_quotients(rng, k5, 25, bound=4):
                    nxt = step_state(st, a)
                    assert a + nxt.value.recip() == st.value
                    st = nxt

    def test_discriminant_conservation(self, k5, rng):
        for _ in range(30):
            seed = random_seed(rng, k5)
            st = make_state(seed, 1)
            for a in random_quotients(rng, k5, 15):
                st = step_state(st, a)
                assert st.poly.delta == seed.delta

    def test_non_integral_quotient_rejected(self, k5, example_seed):
        st = make_state(example_seed, +1)
        with pytest.raises(ValueError):
            step_state(st, k5.element(Fraction(1, 2)))


class TestTripleRecursion:
    def test_base_case(self, k5, example_seed):
        a0 = k5.element(3, -1)
        qp = qpair_states(k5, [a0])[0]
        t = triple_recursion(example_seed, qp)
        s = example_seed
        assert t.A == s.A * a0 * a0 + s.B * a0 + s.C
        assert t.B == 2 * s.A * a0 + s.B
        assert t.C == s.A

    def test_inputs_outside_o_k_rejected(self, k5, example_seed):
        # The products run on integer pairs, so a hand-built pair that is
        # not integral, or not in the seed's field, must be refused.
        half = k5.element(Fraction(1, 2))
        qp = QPairState(k5.one, k5.zero, half, k5.one, 0)
        with pytest.raises(InputRuleError, match="convergent 1/2 is not integral in O_K"):
            triple_recursion(example_seed, qp)
        qp = QPairState(k5.one, k5.zero, FieldSpec(2).one, k5.one, 0)
        with pytest.raises(ValueError, match="mismatched field specs"):
            triple_recursion(example_seed, qp)
        with pytest.raises(ValueError, match="mismatched field specs"):
            step_state(make_state(example_seed, 1), FieldSpec(2).omega)
        with pytest.raises(ValueError, match="mismatched field specs"):
            QuadraticPolyK(k5.one, FieldSpec(2).omega, k5.one)

    def test_conservation_randomized(self, k5, rng):
        for _ in range(40):
            seed = random_seed(rng, k5)
            qs = random_quotients(rng, k5, rng.randint(1, 10))
            for qp in qpair_states(k5, qs):
                t = triple_recursion(seed, qp)
                assert t.delta == seed.delta

    def test_example_returns_to_seed(self, k5, example_seed):
        # prefix [2, 4-2*beta]: the state after one full period is the seed
        quots = [k5.element(2), k5.element(4, -2)]
        states = run_trajectory(example_seed, +1, quots)
        assert states[2].key == states[0].key
        t = triple_recursion(example_seed, qpair_states(k5, quots)[-1])
        assert (t.A, t.B, t.C) == (example_seed.A, example_seed.B, example_seed.C)

    def test_matches_iterated_step_randomized(self, k5, rng):
        for _ in range(25):
            seed = random_seed(rng, k5)
            n = rng.randint(2, 30)
            qs = random_quotients(rng, k5, n)
            states = run_trajectory(seed, +1, qs)
            for i, qp in enumerate(qpair_states(k5, qs)):
                t = triple_recursion(seed, qp)
                ref = states[i + 1].poly
                assert (t.A, t.B, t.C) == (ref.A, ref.B, ref.C)

    def test_consecutive_link(self, k5, rng):
        for _ in range(20):
            seed = random_seed(rng, k5)
            qs = random_quotients(rng, k5, 10)
            states = run_trajectory(seed, +1, qs)
            for prev, cur in zip(states, states[1:]):
                assert cur.poly.C == prev.poly.A


class TestStateEquality:
    def test_key_equality_matches_value_equality(self, k5, rng):
        for _ in range(60):
            seed = random_seed(rng, k5)
            s1 = make_state(seed, rng.choice((1, -1)))
            s2 = make_state(seed, rng.choice((1, -1)))
            same_key = s1.key == s2.key
            same_value = reals_equal(s1.value, s2.value)
            assert same_key == same_value

    def test_negated_triple_same_value(self, k5, example_seed):
        neg = QuadraticPolyK(-example_seed.A, -example_seed.B, -example_seed.C)
        s1 = make_state(example_seed, +1)
        s2 = make_state(neg, -1)
        assert s1.key != s2.key
        assert s1.canonical_key == s2.canonical_key
        assert reals_equal(s1.value, s2.value)


class TestHeights:
    def test_height_of_one(self, k5):
        iv = weil_height_element(k5.one)
        assert iv.lo == iv.hi == 1

    def test_height_of_a_rational(self, k5):
        # H(p/q) = max(|p|, q) in lowest terms, so H(0) = 1.
        for x, h in ((k5.zero, 1), (k5.element(Fraction(-7, 3)), 7), (k5.element(Fraction(2, 5)), 5)):
            iv = weil_height_element(x)
            assert iv.lo == iv.hi == h

    def test_submultiplicative_randomized(self, k5, rng):
        for _ in range(150):
            x = random_k(rng, k5, 5, nonzero=True)
            y = random_k(rng, k5, 5, nonzero=True)
            hxy = weil_height_element(x * y, 96)
            hx = weil_height_element(x, 96)
            hy = weil_height_element(y, 96)
            bound = hx * hy
            assert hxy.lo <= bound.hi

    @pytest.mark.parametrize("d", [5, 2, 13])
    def test_leading_coefficient_from_trace_and_norm(self, d, rng):
        # H(x)^2 = lead * max(1, |x|) * max(1, |x'|), where lead is the
        # leading coefficient of the primitive minimal polynomial of x: for
        # t^2 - Tr(x)*t + N(x) the lcm of the two denominators.
        spec = FieldSpec(d)
        leads = set()
        for _ in range(200):
            x = random_k(rng, spec, 30, integral=False)
            if x.is_rational:
                continue
            lead = math.lcm(x.trace().denominator, x.norm().denominator)
            sizes = [max(1.0, abs(float(x.embed(96, conjugate=c).lo))) for c in (False, True)]
            h = weil_height_element(x, 96)
            assert round(float(h.lo) ** 2 / (sizes[0] * sizes[1])) == lead, x
            leads.add(lead)
        assert len(leads) >= 5

    def test_orbit_heights_repeat(self, k5, example_seed):
        quots = [k5.element(2), k5.element(4, -2)] * 3
        states = run_trajectory(example_seed, +1, quots)
        keys = {s.key for s in states}
        assert len(keys) == 2  # finitely many exact states, period 2
        h0 = weil_height(states[0], 96)
        h2 = weil_height(states[2], 96)
        assert (h0.lo, h0.hi) == (h2.lo, h2.hi)
        h1 = weil_height(states[1], 96)
        h3 = weil_height(states[3], 96)
        assert (h1.lo, h1.hi) == (h3.lo, h3.hi)

    def test_height_at_least_one(self, k5, rng):
        for _ in range(60):
            seed = random_seed(rng, k5)
            st = make_state(seed, 1)
            assert weil_height4(st).lo >= 1

    def test_naive_example(self, k5):
        # (x^2 - 2)*sigma(x^2 - 2) = x^4 - 4x^2 + 4
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        assert naive_height(make_state(seed, 1)) == 4

    def test_naive_branch_invariance(self, k5, rng):
        for _ in range(40):
            seed = random_seed(rng, k5)
            assert naive_height(make_state(seed, 1)) == naive_height(make_state(seed, -1))

    def test_naive_bounded_on_orbit(self, k5, example_seed):
        quots = [k5.element(2), k5.element(4, -2)] * 10
        states = run_trajectory(example_seed, +1, quots)
        values = {naive_height(s) for s in states}
        assert len(values) <= 2

    def test_naive_weil_equivalence_randomized(self, k5, rng):
        # Degree-4 equivalence through the Mahler measure H^4:
        # H^4 <= sqrt(5) * naive and naive <= 16 * H^4, plus the one-sided
        # H <= sqrt(5) * naive.
        for _ in range(100):
            seed = random_seed(rng, k5, bound=8)
            st = make_state(seed, rng.choice((1, -1)))
            h4 = weil_height4(st, 96)
            h = weil_height(st, 96)
            nv = naive_height(st)
            assert h4.hi * h4.hi <= 5 * nv * nv
            assert h.hi * h.hi <= 5 * nv * nv
            assert nv <= 16 * h4.lo


class TestDiagnostics:
    def test_height_identity_rows(self, k5, example_seed):
        quots = [k5.element(2), k5.element(4, -2)] * 5
        rows = diagnostics(example_seed, +1, quots, 64)
        states = run_trajectory(example_seed, +1, quots)
        lead = abs(example_seed.A.norm())
        for n, row in enumerate(rows):
            prod = row.f1 * row.f2 * lead
            h4 = weil_height4(states[n + 1], 64)
            assert prod.lo <= h4.hi and h4.lo <= prod.hi

    def test_f1_f2_bounded_over_100_periods(self, k5, example_seed):
        quots = [k5.element(2), k5.element(4, -2)] * 100
        rows = diagnostics(example_seed, +1, quots, 64)
        # Frozen from the first oracle run: on this orbit F1 and F2 are
        # constant at |xi| and |xi'| respectively.
        assert all(2.901 < float(r.f1.lo) and float(r.f1.hi) < 2.903 for r in rows)
        assert all(2.175 < float(r.f2.lo) and float(r.f2.hi) < 2.176 for r in rows)

    def test_s_n_alternates_for_classical(self, k5):
        # all-positive rational quotients: xi*Q_n - P_n alternates sign
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(-2))
        xi = make_state(seed, 1).value
        quots = [k5.one] + [k5.element(2)] * 9
        for n, qp in enumerate(qpair_states(k5, quots)):
            s = xi * qp.q_cur - qp.p_cur
            assert sign_of(s) == (1 if n % 2 == 0 else -1)

    def test_row_count_and_columns(self, k5, example_seed):
        quots = [k5.element(2), k5.element(4, -2)] * 2
        rows = diagnostics(example_seed, +1, quots)
        assert len(rows) == len(quots)
        assert [r.index for r in rows] == list(range(len(quots)))


class TestPreconditions:
    def test_strongly_negative_rejected(self, k5):
        # delta = -8 + 12*beta > 0, sigma(delta) = 4 - 12*beta < -4
        seed = QuadraticPolyK(k5.one, k5.zero, k5.element(2, -3))
        rep = periodicity_preconditions(seed)
        assert rep.rejected and rep.sigma_delta_sign < 0
        assert rep.even_period_required
        assert not rep.ok

    def test_indeterminate_band(self, k5):
        # delta = 4*beta, sigma(delta) = 4 - 4*beta ~ -2.47
        seed = QuadraticPolyK(k5.one, k5.zero, -k5.omega)
        rep = periodicity_preconditions(seed)
        assert not rep.rejected
        assert rep.even_period_required and rep.indeterminate_range

    def test_example_seed_clean(self, k5, example_seed):
        # sigma(delta) = 12 - 4*beta = 4 + 4*(1-beta)^2 > 0
        rep = periodicity_preconditions(example_seed)
        assert rep.sigma_delta == k5.element(12, -4)
        assert rep.sigma_delta_sign == 1
        assert not rep.rejected and not rep.even_period_required

    def test_interval_window(self, k5, example_seed):
        # conjugate roots are 1 +- sqrt(3 - beta) ~ {2.1756, -0.1756}
        rep_fail = periodicity_preconditions(
            example_seed, a0=k5.element(10), a1=k5.one
        )
        assert rep_fail.interval_test is False
        rep_ok = periodicity_preconditions(
            example_seed, a0=k5.element(2), a1=k5.element(5)
        )
        assert rep_ok.interval_test is True

    def test_window_skipped_for_nonpositive_sigma_a1(self, k5, example_seed):
        rep = periodicity_preconditions(
            example_seed, a0=k5.element(2), a1=k5.omega * 2
        )
        # sigma(2*beta) = 2 - 2*beta < 0: test not applicable
        assert rep.interval_test is None

    def test_window_of_a_double_root(self, k5):
        # (x - beta)^2: delta = 0, and the conjugate double root is
        # sigma(beta) = 1 - beta ~ -0.618.
        seed = QuadraticPolyK(k5.one, -2 * k5.omega, k5.omega * k5.omega)
        assert seed.delta.is_zero
        inside = periodicity_preconditions(seed, a0=k5.element(-1), a1=k5.element(2))
        assert inside.sigma_delta_sign == 0 and inside.interval_test is True
        # (-1, -1 + 1/3) ends below the root.
        outside = periodicity_preconditions(seed, a0=k5.element(-1), a1=k5.element(3))
        assert outside.interval_test is False

    def test_window_tie_at_a_double_root(self, k5):
        # (x - r)^2 with r = 1 + beta: sigma(delta) = 0 and the conjugate
        # double root sigma(r) = 2 - beta lies on an open end of the window.
        r = 1 + k5.omega
        seed = QuadraticPolyK(k5.one, -2 * r, r * r)
        for a0 in (r, r - 1):
            rep = periodicity_preconditions(seed, a0=a0, a1=k5.one)
            assert rep.sigma_delta_sign == 0 and rep.interval_test is False

    def test_window_with_negative_sigma_delta(self, k5):
        # sigma(delta) = 4 - 4*beta < 0: the conjugate roots are not real,
        # so no window holds one, whatever sigma(a1) > 0 allows.
        seed = QuadraticPolyK(k5.one, k5.zero, -k5.omega)
        for a0 in (k5.element(-3), k5.zero, k5.element(2)):
            rep = periodicity_preconditions(seed, a0=a0, a1=k5.one)
            assert rep.sigma_delta_sign < 0 and rep.interval_test is False

    def test_window_holding_only_the_lesser_k_root(self, k5):
        # (x - beta)(x - 2*beta): sigma(delta) = (1 - beta)^2 is a square in
        # K, and the conjugate roots are 1 - beta ~ -0.618 and
        # 2 - 2*beta ~ -1.236.  (-2, -1) holds only (-B - root)/(2A).
        beta = k5.omega
        seed = QuadraticPolyK(k5.one, -3 * beta, 2 * beta * beta)
        rep = periodicity_preconditions(seed, a0=k5.element(-2), a1=k5.one)
        assert rep.sigma_delta_sign > 0 and rep.interval_test is True
        # (-1, 0) holds only the other root, and (-3, -2) neither.
        rep = periodicity_preconditions(seed, a0=k5.element(-1), a1=k5.one)
        assert rep.interval_test is True
        rep = periodicity_preconditions(seed, a0=k5.element(-3), a1=k5.one)
        assert rep.interval_test is False


class TestRowViews:
    """A `diagnostics` row keeps its enclosures as `Dyadic` triples; its
    interval attributes are views of them, and `summarize` reads from the
    triples the floats that the views' `Fraction` endpoints give."""

    SEEDS = {
        # x^2 - 2x - w^2: sigma(delta) = 12 - 4w > 0.
        "real sigma(delta)": lambda k: QuadraticPolyK(k.one, k.element(-2), -(k.omega * k.omega)),
        # x^2 + 2 - 3w: sigma(delta) = 4 - 12w < 0.
        "complex sigma(delta)": lambda k: QuadraticPolyK(k.one, k.zero, k.element(2, -3)),
    }

    @pytest.mark.parametrize("bits", [64, 300])
    @pytest.mark.parametrize("name", list(SEEDS))
    def test_views_are_the_stored_triples(self, k5, name, bits):
        seed = self.SEEDS[name](k5)
        rng = random.Random(bits)
        quots = [random_k(rng, k5, bound=3) for _ in range(12)]
        rows = diagnostics(seed, 1, quots, bits)
        states = run_trajectory(seed, 1, quots)
        real = sign_of(seed.delta.conj()) > 0
        for n, r in enumerate(rows):
            views = [(r.s_n, r.s_m), (r.f1, r.f1_m), (r.f2, r.f2_m), (r.weil, r.weil_m),
                     (r.qs_abs, r.qs_abs_m)]
            if real:
                views += list(zip(r.qs_sigma, r.qs_sigma_m))
            else:
                assert r.qs_sigma is None and r.qs_sigma_m is None
            for view, m in views:
                assert isinstance(view, RealInterval) and view == dyadic_interval(m)
            assert r.weil == weil_height(states[n], bits)

        summary = summarize(rows, bits)
        leads = [s.poly.A for s in states]
        assert summary.max_abs_a == max(float(abs(x.embed(bits)).hi) for x in leads)
        assert summary.max_abs_sigma_a == max(
            float(abs(x.embed(bits, conjugate=True)).hi) for x in leads
        )
        assert summary.max_abs_a != summary.max_abs_sigma_a
        assert summary.sup_qs == max(float(r.qs_abs.hi) for r in rows)
        assert summary.sup_qs_sigma == (
            min(max(float(r.qs_sigma[i].hi) for r in rows) for i in (0, 1)) if real else None
        )
        assert summary.weil_min == min(float(r.weil.lo) for r in rows)
        assert summary.weil_max == max(float(r.weil.hi) for r in rows)
