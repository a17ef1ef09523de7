from __future__ import annotations


import pytest

from okcf.cf import (
    CFExpansion,
    EvalFailure,
    Mat2,
    associated_poly,
    cf_matrix,
    continuant,
    convergents,
    e_matrix,
    eval_periodic,
    qpair_states,
)
from okcf.field import sign_of
from okcf.parsing import parse_expansion
from conftest import random_k


def mat_oracle(spec, quotients):
    """Direct 2x2 product, written out longhand as an independent path."""
    rows = ((spec.one, spec.zero), (spec.zero, spec.one))
    for a in quotients:
        q = ((a, spec.one), (spec.one, spec.zero))
        rows = tuple(
            tuple(
                rows[i][0] * q[0][j] + rows[i][1] * q[1][j] for j in range(2)
            )
            for i in range(2)
        )
    return rows


class TestContinuants:
    def test_base_cases(self, k5):
        assert continuant(k5, []) == 1
        a, b = k5.element(3, 1), k5.element(-2, 4)
        assert continuant(k5, [a]) == a
        assert continuant(k5, [a, b]) == a * b + 1

    def test_zero_value(self, k5):
        beta = k5.omega
        assert continuant(k5, [beta, k5.one - beta]) == 0

    def test_symmetry_randomized(self, k5, rng):
        for _ in range(300):
            ts = [random_k(rng, k5, 6) for _ in range(rng.randint(0, 8))]
            assert continuant(k5, ts) == continuant(k5, ts[::-1])

    def test_euler_splitting_randomized(self, k5, rng):
        for _ in range(300):
            j = rng.randint(1, 6)
            l = rng.randint(1, 6)
            ts = [random_k(rng, k5, 5) for _ in range(j + l)]
            lhs = continuant(k5, ts)
            rhs = continuant(k5, ts[:j]) * continuant(k5, ts[j:]) + continuant(
                k5, ts[: j - 1]
            ) * continuant(k5, ts[j + 1 :])
            assert lhs == rhs


class TestConvergents:
    def test_classical_sqrt2_prefix(self, k5):
        # Oracle: run the three-term recursion by hand.
        p_prev, p = 1, 1
        q_prev, q = 0, 1
        for a in (2, 2):
            p_prev, p = p, a * p + p_prev
            q_prev, q = q, a * q + q_prev
        assert (p, q) == (7, 5)
        sts = qpair_states(k5, [k5.one, k5.element(2), k5.element(2)])
        assert sts[-1].p_cur == 7 and sts[-1].q_cur == 5

    def test_base_case(self, k5):
        a0 = k5.element(9, -4)
        st = qpair_states(k5, [a0])[0]
        assert st.p_cur == a0 and st.q_cur == 1

    def test_determinant_invariant_randomized(self, k5, rng):
        for _ in range(200):
            qs = [random_k(rng, k5, 5)] + [
                random_k(rng, k5, 5, nonzero=True) for _ in range(rng.randint(0, 8))
            ]
            for st in qpair_states(k5, qs):
                assert st.determinant_ok()

    def test_zero_quotients_match_cf_matrix(self, k5, rng):
        # Zeros are valid anywhere: [.., a, 0, b, ..] = [.., a+b, ..].
        words = [[k5.one, k5.zero]]
        for _ in range(100):
            qs = [random_k(rng, k5, 3) for _ in range(rng.randint(1, 8))]
            for i in rng.sample(range(len(qs)), rng.randint(1, len(qs))):
                qs[i] = k5.zero
            words.append(qs)
        for qs in words:
            for n, st in enumerate(qpair_states(k5, qs)):
                m = cf_matrix(k5, qs[: n + 1])
                assert (st.p_cur, st.p_prev, st.q_cur, st.q_prev) == (
                    m.e11, m.e12, m.e21, m.e22,
                )

    def test_period_unrolling(self, k5):
        e = parse_expansion("[1; 2]", k5)
        sts = convergents(e, 4)
        assert len(sts) == 5
        assert sts[2].p_cur == 7 and sts[2].q_cur == 5

    def test_continuant_representation_randomized(self, k5, rng):
        for _ in range(200):
            qs = [random_k(rng, k5, 5)] + [
                random_k(rng, k5, 5, nonzero=True) for _ in range(rng.randint(1, 7))
            ]
            sts = qpair_states(k5, qs)
            n = len(qs) - 1
            assert sts[-1].p_cur == continuant(k5, qs)
            assert sts[-1].q_cur == continuant(k5, qs[1:])


class TestMatrices:
    def test_empty_product(self, k5):
        assert cf_matrix(k5, []) == Mat2.identity(k5)

    def test_zero_pair_is_identity(self, k5):
        m = cf_matrix(k5, [k5.zero, k5.zero])
        oracle = mat_oracle(k5, [k5.zero, k5.zero])
        assert (m.e11, m.e12, m.e21, m.e22) == (
            oracle[0][0], oracle[0][1], oracle[1][0], oracle[1][1],
        )
        assert m.is_identity_multiple and m.e11 == 1

    def test_one_two(self, k5):
        m = cf_matrix(k5, [k5.one, k5.element(2)])
        assert (m.e11, m.e12, m.e21, m.e22) == (
            k5.element(3), k5.one, k5.element(2), k5.one,
        )

    def test_det_randomized(self, k5, rng):
        for _ in range(300):
            qs = [random_k(rng, k5, 8) for _ in range(rng.randint(0, 8))]
            assert cf_matrix(k5, qs).det() == (-1) ** len(qs)

    def test_inverse_reversal_identity_randomized(self, k5, rng):
        for _ in range(300):
            qs = [random_k(rng, k5, 8) for _ in range(rng.randint(1, 7))]
            reversed_word = [k5.zero] + [-a for a in reversed(qs)] + [k5.zero]
            assert cf_matrix(k5, qs).inverse() == cf_matrix(k5, reversed_word)


class TestEMatrix:
    def test_purely_periodic_single(self, k5):
        a = k5.element(5, -3)
        e = e_matrix(CFExpansion(k5, (), (a,)))
        assert (e.e11, e.e12, e.e21, e.e22) == (a, k5.one, k5.one, k5.zero)

    def test_one_two_conjugated(self, k5):
        e = e_matrix(parse_expansion("[1; 2]", k5))
        pre = mat_oracle(k5, [k5.one])
        per = mat_oracle(k5, [k5.element(2)])
        # oracle: [[3,1],[2,1]] times inverse of [[1,1],[1,0]]
        assert (e.e11, e.e12, e.e21, e.e22) == (
            k5.one, k5.element(2), k5.one, k5.one,
        )

    def test_det_randomized(self, k5, rng):
        for _ in range(300):
            pre = tuple(random_k(rng, k5, 6) for _ in range(rng.randint(0, 3)))
            per = tuple(random_k(rng, k5, 6) for _ in range(rng.randint(1, 5)))
            e = e_matrix(CFExpansion(k5, pre, per))
            assert e.det() == (-1) ** len(per)

    def test_requires_period(self, k5):
        with pytest.raises(ValueError):
            e_matrix(CFExpansion(k5, (k5.one,), ()))


class TestAssociatedPoly:
    def test_single_quotient(self, k5):
        a = k5.element(4, 2)
        e = Mat2(a, k5.one, k5.one, k5.zero)
        assert associated_poly(e) == (k5.one, -a, -k5.one)

    def test_identity_degenerate(self, k5):
        poly = associated_poly(Mat2.identity(k5))
        assert all(c.is_zero for c in poly)

    def test_sqrt2_discriminant(self, k5):
        e = e_matrix(parse_expansion("[1; 2]", k5))
        ca, cb, cc = associated_poly(e)
        disc = (e.e22 - e.e11) ** 2 + 4 * e.e21 * e.e12
        assert disc == 8
        assert cb * cb - 4 * ca * cc == disc


class TestEvalPeriodic:
    def test_sqrt2(self, k5):
        res = eval_periodic(parse_expansion("[1; 2]", k5))
        assert res.exists and res.value is not None
        assert res.poly == (k5.one, k5.zero, k5.element(-2))
        # value is a root of x^2 - 2, i.e. squares to 2 exactly
        assert res.value * res.value == 2
        assert sign_of(res.value) == 1
        # numeric oracle: iterate convergents to 1e-12
        p_prev, p, q_prev, q = 1.0, 1.0, 0.0, 1.0
        for _ in range(40):
            p_prev, p = p, 2 * p + p_prev
            q_prev, q = q, 2 * q + q_prev
        assert abs(float(res.value) - p / q) < 1e-12

    def test_negative_discriminant(self, k5):
        res = eval_periodic(parse_expansion("[; 1, -1]", k5))
        assert not res.exists
        assert res.failure is EvalFailure.UNIT_MODULUS
        assert res.negative_discriminant
        assert res.discriminant == -3
        # oracle: E = D(1)D(-1) by direct product
        m = mat_oracle(k5, [k5.one, -k5.one])
        assert (res.e.e11, res.e.e12, res.e.e21, res.e.e22) == (
            m[0][0], m[0][1], m[1][0], m[1][1],
        )

    def test_identity_multiple(self, k5):
        res = eval_periodic(parse_expansion("[; 0, 0]", k5))
        assert res.failure is EvalFailure.IDENTITY_MULTIPLE

    def test_ineq_window(self, k5):
        beta = k5.omega
        res = eval_periodic(CFExpansion(k5, (), (k5.one, beta, k5.one - beta)))
        assert res.failure is EvalFailure.INEQ_WINDOW
        assert res.window == 0
        # oracle: exhaustive window products
        period = [k5.one, beta, k5.one - beta]
        hits = []
        for j in range(3):
            win = [period[(j + i) % 3] for i in range(3)]
            m = cf_matrix(k5, win)
            if m.e21.is_zero and sign_of(m.e22 * m.e22 - 1) > 0:
                hits.append((j, m.e22))
        assert hits and hits[0][0] == 0 and hits[0][1] == beta

    def test_window_is_first_exhaustive_hit(self, k5, rng):
        # Oracle: each cyclic window's product from scratch, longhand.
        def first_hit(period):
            k = len(period)
            for j in range(k):
                m = mat_oracle(k5, [period[(j + i) % k] for i in range(k)])
                if m[1][0].is_zero and sign_of(m[1][1] * m[1][1] - 1) > 0:
                    return j
            return None

        beta = k5.omega
        base = (k5.one, beta, k5.one - beta)
        cases = [CFExpansion(k5, (), base[j:] + base[:j]) for j in range(3)]
        for _ in range(400):
            pre = tuple(random_k(rng, k5, 1) for _ in range(rng.randint(0, 2)))
            per = tuple(random_k(rng, k5, 1) for _ in range(rng.randint(1, 6)))
            cases.append(CFExpansion(k5, pre, per))
        late_hits = 0
        for e in cases:
            res = eval_periodic(e)
            if res.failure in (None, EvalFailure.INEQ_WINDOW):
                hit = first_hit(e.period)
                assert res.window == hit
                assert (res.failure is EvalFailure.INEQ_WINDOW) == (hit is not None)
                late_hits += hit is not None and hit >= 1
            else:
                assert res.window is None
        assert late_hits >= 5

    def test_infinite_limit(self, k5):
        res = eval_periodic(parse_expansion("[; 1, 0]", k5))
        assert res.failure is EvalFailure.INFINITE_LIMIT
        assert res.linear_poly

    def test_double_root(self, k5):
        res = eval_periodic(parse_expansion("[; 0, 1]", k5))
        assert res.double_root and res.value_in_k == 0

    def test_root_and_modulus_properties_randomized(self, k5, rng):
        checked = 0
        attempts = 0
        while checked < 40 and attempts < 500:
            attempts += 1
            pre = tuple(random_k(rng, k5, 3) for _ in range(rng.randint(0, 2)))
            per = tuple(random_k(rng, k5, 3) for _ in range(rng.randint(1, 4)))
            res = eval_periodic(CFExpansion(k5, pre, per))
            if res.value is None:
                continue
            ca, cb, cc = res.poly
            g = res.value
            assert (ca * g * g + cb * g + cc).is_zero
            z = ca * g + res.e.e22
            assert sign_of(z * z - 1) > 0
            checked += 1
        assert checked == 40

    def test_classical_limits_numeric(self, k5):
        cases = ["[1; 2]", "[; 2]", "[; 1]", "[3; 1, 2]"]
        for text in cases:
            e = parse_expansion(text, k5)
            res = eval_periodic(e)
            assert res.exists
            value = res.value if res.value is not None else res.value_in_k
            sts = convergents(e, 60)
            approx = float(sts[-1].p_cur.a) / float(sts[-1].q_cur.a)
            assert abs(float(value) - approx) < 1e-10
