"""Acceptance suite: one test per criterion, each printing a PASS line and
enforcing its stated runtime budget.

Run with: pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from okcf.cf import (
    CFExpansion,
    EvalFailure,
    cf_matrix,
    continuant,
    e_matrix,
    eval_periodic,
    qpair_states,
)
from okcf.field import FieldSpec, SurdElement, reals_equal, sign_of
from okcf.golden import (
    RADIUS_SQ,
    RealPair,
    covering_radius,
    expand_pair,
)
from okcf.parsing import parse_expansion
from okcf.quartic import (
    QuadraticPolyK,
    make_state,
    naive_height,
    periodicity_preconditions,
    run_trajectory,
    step_state,
    triple_recursion,
    weil_height,
    weil_height4,
)
from okcf.cli import run_corpus
from conftest import LOWER_BOUND_SQ, mat2_inverse, random_k

K5 = FieldSpec(5)
BETA = K5.omega
EXAMPLE_SEED = QuadraticPolyK(K5.one, K5.element(-2), -(BETA * BETA))
XI = SurdElement(K5, BETA * BETA + 1, K5.one, K5.one)  # 1 + sqrt(beta^2 + 1)


class Budget:
    def __init__(self, num: int, name: str, seconds: float):
        self.num = num
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        if exc_type is None:
            assert dt < self.seconds, (
                f"criterion {self.num} exceeded its {self.seconds}s budget ({dt:.2f}s)"
            )
            print(f"\nACCEPTANCE {self.num} ({self.name}): PASS ({dt:.2f}s)")
        else:
            print(f"\nACCEPTANCE {self.num} ({self.name}): FAIL ({dt:.2f}s)")
        return False


def test_criterion_1_worked_example_expansions():
    with Budget(1, "worked-example expansions", 2.0):
        t0 = time.time()
        r = expand_pair(EXAMPLE_SEED, +1, +1)
        assert time.time() - t0 < 1.0
        assert r.expansion.preperiod == ()
        assert r.expansion.period == (K5.element(2), K5.element(4, -2))

        t0 = time.time()
        r2 = expand_pair(EXAMPLE_SEED, +1, -1)
        assert time.time() - t0 < 1.0
        assert r2.expansion.preperiod == (K5.element(1, 1),)
        assert r2.expansion.period == (K5.element(0, 2),)


def test_criterion_2_roundtrip_values():
    with Budget(2, "round-trip evaluation", 1.0):
        for conj in (+1, -1):
            r = expand_pair(EXAMPLE_SEED, +1, conj)
            res = eval_periodic(r.expansion)
            assert res.value is not None
            assert reals_equal(res.value, XI)
            sres = eval_periodic(r.expansion.sigma())
            xip = make_state(EXAMPLE_SEED.sigma(), conj).value
            assert reals_equal(sres.value, xip)
            assert r.verified


def test_criterion_3_decision_suite():
    with Budget(3, "periodic-evaluation decisions", 1.0):
        res = eval_periodic(parse_expansion("[1; 2]", K5))
        assert res.value is not None
        assert res.poly == (K5.one, K5.zero, K5.element(-2))
        assert res.value * res.value == 2 and sign_of(res.value) > 0

        res = eval_periodic(parse_expansion("[; 1, -1]", K5))
        assert res.failure is EvalFailure.UNIT_MODULUS and res.negative_discriminant
        assert res.discriminant == -3

        res = eval_periodic(parse_expansion("[; 0, 0]", K5))
        assert res.failure is EvalFailure.IDENTITY_MULTIPLE

        res = eval_periodic(CFExpansion(K5, (), (K5.one, BETA, K5.one - BETA)))
        assert res.failure is EvalFailure.INEQ_WINDOW
        window = [K5.one, BETA, K5.one - BETA]
        m = cf_matrix(K5, window)
        assert m.e21.is_zero and m.e22 == BETA and sign_of(m.e22 * m.e22 - 1) > 0


def test_criterion_4_identity_property_suite():
    with Budget(4, "matrix/continuant identities x1000", 30.0):
        rng = random.Random(41)
        for _ in range(1000):
            qs = [random_k(rng, K5, 8)] + [
                random_k(rng, K5, 8, nonzero=True) for _ in range(rng.randint(0, 6))
            ]
            for st in qpair_states(K5, qs):
                assert st.p_prev * st.q_cur - st.p_cur * st.q_prev == (-1) ** st.index

        rng = random.Random(42)
        for _ in range(1000):
            j = rng.randint(1, 6)
            l = rng.randint(1, 6)
            ts = [random_k(rng, K5, 8) for _ in range(j + l)]
            assert continuant(K5, ts) == continuant(K5, ts[::-1])
            assert continuant(K5, ts) == (
                continuant(K5, ts[:j]) * continuant(K5, ts[j:])
                + continuant(K5, ts[: j - 1]) * continuant(K5, ts[j + 1 :])
            )

        rng = random.Random(43)
        for _ in range(1000):
            f = [random_k(rng, K5, 8) for _ in range(rng.randint(1, 6))]
            word = [K5.zero] + [-a for a in reversed(f)] + [K5.zero]
            assert mat2_inverse(cf_matrix(K5, f)) == cf_matrix(K5, word)

        rng = random.Random(44)
        for _ in range(1000):
            pre = tuple(random_k(rng, K5, 8) for _ in range(rng.randint(0, 3)))
            per = tuple(random_k(rng, K5, 8) for _ in range(rng.randint(1, 5)))
            e = e_matrix(CFExpansion(K5, pre, per))
            assert e.det() == (-1) ** len(per)


def _random_valid_seed(rng: random.Random, bound: int = 3) -> QuadraticPolyK:
    from okcf.field import is_square_in_k

    while True:
        a = random_k(rng, K5, bound, nonzero=True)
        b = random_k(rng, K5, bound)
        c = random_k(rng, K5, bound)
        seed = QuadraticPolyK(a, b, c)
        if sign_of(seed.delta) > 0 and is_square_in_k(seed.delta) is None:
            return seed


def test_criterion_5_conservation_suite():
    with Budget(5, "conservation, 50 seeds x 200 steps", 60.0):
        rng = random.Random(55)
        for _ in range(50):
            seed = _random_valid_seed(rng)
            quotients = [random_k(rng, K5, 3)] + [
                random_k(rng, K5, 3, nonzero=True) for _ in range(199)
            ]
            states = run_trajectory(seed, +1, quotients)
            for prev, cur in zip(states, states[1:]):
                assert cur.poly.delta == seed.delta
                assert cur.poly.C == prev.poly.A
            for i, qp in enumerate(qpair_states(K5, quotients)):
                t = triple_recursion(seed, qp)
                ref = states[i + 1].poly
                assert (t.A, t.B, t.C) == (ref.A, ref.B, ref.C)


def test_criterion_6_expansion_step_invariants():
    with Budget(6, "expansion step invariants", 120.0):
        rng = random.Random(66)
        for _ in range(8):
            seed = _sample_expandable_seed(rng)
            for conj in (+1, -1):
                r = expand_pair(seed, +1, conj)
                s = make_state(seed, +1)
                sp = make_state(seed.sigma(), conj)
                quots = list(r.expansion.preperiod) + list(r.expansion.period)
                for n, a in enumerate(quots):
                    assert a.is_integral
                    d1 = (s.value - a) * (s.value - a)
                    d2 = (sp.value - a.conj()) * (sp.value - a.conj())
                    assert RealPair(d1, d2)._sign_minus(RADIUS_SQ) < 0
                    if n >= 1:
                        assert sign_of(s.value * s.value - LOWER_BOUND_SQ) > 0
                        assert sign_of(sp.value * sp.value - LOWER_BOUND_SQ) > 0
                    s, sp = step_state(s, a), step_state(sp, a.conj())


def _sample_expandable_seed(rng: random.Random, bound: int = 2) -> QuadraticPolyK:
    from okcf.field import is_square_in_k

    while True:
        seed = _random_valid_seed(rng, bound)
        sdelta = seed.delta.conj()
        if sign_of(sdelta) > 0 and is_square_in_k(sdelta) is None:
            return seed


def test_criterion_7_covering_radius_table():
    with Budget(7, "covering radius table", 1.0):
        expected = {
            2: Fraction(3, 2),
            3: Fraction(2),
            5: Fraction(9, 10),
            13: Fraction(49, 26),
        }
        for d, r_sq in expected.items():
            cr = covering_radius(d)
            assert cr.r_squared == r_sq
            assert cr.usable == (d == 5)


def test_criterion_8_periodicity_at_scale():
    with Budget(8, "25-seed corpus periodicity", 600.0):
        report = run_corpus(25, 3, max_steps=10_000, rng_seed=1)
        s = report["summary"]
        failures = [r for r in report["runs"] if not r["cycle"]]
        if failures:
            for f in failures:
                print("NO CYCLE:", f)
        assert not failures, "some corpus seed exceeded the step cap"
        assert s["cycles_detected"] == s["runs"] == 50
        assert s["verified_fraction"] == 1.0


def test_criterion_9_height_diagnostics():
    with Budget(9, "height diagnostics", 60.0):
        quots = [K5.element(2), K5.element(4, -2)] * 3
        states = run_trajectory(EXAMPLE_SEED, +1, quots)
        assert len({st.key for st in states}) == 2
        for st in states:
            h4 = weil_height4(st, 96)
            assert h4.lo >= 1
        h = [weil_height(st, 96) for st in states]
        assert (h[0].lo, h[0].hi) == (h[2].lo, h[2].hi) == (h[4].lo, h[4].hi)
        assert (h[1].lo, h[1].hi) == (h[3].lo, h[3].hi) == (h[5].lo, h[5].hi)

        rng = random.Random(99)
        for _ in range(100):
            seed = _random_valid_seed(rng, bound=8)
            st = make_state(seed, rng.choice((1, -1)))
            h4 = weil_height4(st, 96)
            h_val = weil_height(st, 96)
            nv = naive_height(st)
            assert h4.hi * h4.hi <= 5 * nv * nv
            assert h_val.hi * h_val.hi <= 5 * nv * nv
            assert nv <= 16 * h4.lo


def test_criterion_10_rejection_predicates():
    with Budget(10, "rejection predicates", 1.0):
        # sigma(delta) = 4 - 12*beta < -4
        bad = QuadraticPolyK(K5.one, K5.zero, K5.element(2, -3))
        rep = periodicity_preconditions(bad)
        assert rep.rejected and rep.even_period_required

        from okcf.golden import GoldenPreconditionError

        with pytest.raises(GoldenPreconditionError) as err:
            expand_pair(bad, +1, +1)
        assert "even-period" in str(err.value)

        rep_fail = periodicity_preconditions(
            EXAMPLE_SEED, a0=K5.element(10), a1=K5.one
        )
        assert rep_fail.interval_test is False
        rep_ok = periodicity_preconditions(
            EXAMPLE_SEED, a0=K5.element(2), a1=K5.element(5)
        )
        assert rep_ok.interval_test is True
