from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import pytest

from okcf.field import (
    FieldSpec,
    InputRuleError,
    KElement,
    SurdElement,
    is_square_in_k,
    is_squarefree,
    rational_sqrt,
    reals_equal,
    sign_of,
    surd_sign,
    surd_sum_sign,
)
from conftest import random_k


def high_precision(value_num: int, scale: int = 10**25) -> Fraction:
    """Rational approximation of sqrt(value_num) to ~25 digits."""
    return Fraction(isqrt(value_num * scale * scale), scale)


PHI = (1 + high_precision(5)) / 2
ORACLE_BITS = 512
TIE = Fraction(1, 1 << 80)


def oracle_sign(u: KElement | SurdElement) -> int:
    """Sign of a nonzero value from a 512-bit enclosure."""
    s = u.embed(ORACLE_BITS).sign
    assert s is not None
    return s


def k_near_ties(spec: FieldSpec) -> list[KElement]:
    """Nonzero elements of K within 2^-80 of zero.

    sigma(w^n) = (-1/w)^n, so u - v*sqrt(5) with u^2 - 5v^2 = +-1 and
    u ~ w^n; scaled by a few rationals of either sign.
    """
    return [
        scale * (spec.omega**n).conj()
        for n in range(120, 150, 3)
        for scale in (1, -1, Fraction(3, 7), Fraction(-5, 2))
    ]


def surd_near_ties(spec: FieldSpec) -> list[SurdElement]:
    """x + y*sqrt(2) within 2^-80 of zero: (1 - sqrt(2))^k = p - q*sqrt(2)
    with (1 + sqrt(2))^k = p + q*sqrt(2), times units and rationals of K."""
    out = []
    p, q = 1, 0
    for k in range(1, 80):
        p, q = p + 2 * q, p + q
        if k < 66:
            continue
        for unit in (spec.one, spec.omega, -(spec.omega**3), spec.omega.conj() / 3):
            out.append(SurdElement(spec, spec.element(2), unit * p, unit * (-q)))
    return out


@pytest.mark.parametrize("d", [9, 18, 25, 45, 98])
def test_field_spec_rejects_an_odd_square_factor(d):
    # 3^2, 2*3^2, 5^2, 3^2*5, 2*7^2: no factor 4 to give them away.
    with pytest.raises(InputRuleError, match=f"^d must be a squarefree integer > 1, got {d}$"):
        FieldSpec(d)


def trial_division_squarefree(n: int) -> bool:
    """The rule `is_squarefree` replaced: no 4 and no odd f^2, f^2 <= n."""
    if n < 1 or n % 4 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def test_is_squarefree_agrees_with_trial_division_to_sqrt_n():
    cases = list(range(-5, 30_000))
    # Products of a square of a prime near the cube-root bound with other
    # factors, and of two primes both above the cube root.
    primes = (101, 997, 1009, 9973, 10007)
    cases += [p * p * k for p in primes for k in (1, 2, 3, 7, 11, 101)]
    cases += [p * q for p in primes for q in primes]
    cases += [p * q * r for p in primes for q in primes[:2] for r in (2, 3, 5)]
    for n in cases:
        assert is_squarefree(n) == trial_division_squarefree(n), n


def test_is_squarefree_on_large_numbers():
    # A 21-digit prime, which trial division to sqrt(n) cannot finish, and
    # the square of a prime near 10^10.
    assert is_squarefree(100000000000000000039)
    assert not is_squarefree(10000000019 * 10000000019)


class TestKArithmetic:
    def test_minimal_polynomial_relation(self, k5):
        beta = k5.omega
        assert beta * beta == beta + 1

    def test_unit_inverse(self, k5):
        beta = k5.omega
        assert beta * (beta - 1) == 1
        assert k5.one / beta == beta - 1

    def test_additive_cancellation(self, k5):
        assert k5.element(4, -2) + k5.element(2, 2) == 6

    def test_division_errors(self, k5):
        with pytest.raises(ZeroDivisionError):
            k5.one / k5.zero
        with pytest.raises(ValueError):
            k5.one + FieldSpec(2).one

    def test_norm_closed_form_randomized(self, k5, rng):
        for spec in (k5, FieldSpec(2), FieldSpec(13)):
            for _ in range(500):
                x = random_k(rng, spec, bound=50, integral=False)
                prod = x * x.conj()
                assert prod.b == 0
                assert x.norm() == prod.a

    def test_non_half_basis(self):
        k2 = FieldSpec(2)
        w = k2.omega  # sqrt(2)
        assert w * w == 2
        assert w.conj() == -w


class TestConjugation:
    def test_beta_conjugate(self, k5):
        beta = k5.omega
        assert beta.conj() == k5.one - beta
        # sigma(beta) is also -1/beta
        assert beta.conj() == -(k5.one / beta)

    def test_fixes_rationals(self, k5):
        assert k5.element(7).conj() == 7

    def test_linearity_forced(self, k5):
        assert k5.element(4, -2).conj() == k5.element(2, 2)

    def test_ring_homomorphism_randomized(self, k5, rng):
        for _ in range(1000):
            x = random_k(rng, k5, integral=False)
            y = random_k(rng, k5, integral=False)
            assert (x + y).conj() == x.conj() + y.conj()
            assert (x * y).conj() == x.conj() * y.conj()
            assert x.conj().conj() == x

    def test_norm_multiplicative_randomized(self, k5, rng):
        for _ in range(1000):
            x = random_k(rng, k5, integral=False)
            y = random_k(rng, k5, integral=False)
            assert (x * y).norm() == x.norm() * y.norm()


class TestEmbedding:
    def test_beta_identity(self, k5):
        iv = k5.omega.embed(20)
        assert iv.lo <= PHI <= iv.hi
        assert iv.width <= Fraction(1, 1 << 19) * max(1, abs(iv.lo))

    def test_beta_sigma(self, k5):
        iv = k5.omega.embed(20, conjugate=True)
        assert iv.lo <= 1 - PHI <= iv.hi

    def test_rational_exact(self, k5):
        iv = k5.element(Fraction(3, 2)).embed(4)
        assert iv.lo == iv.hi == Fraction(3, 2)

    def test_nesting_randomized(self, k5, rng):
        for _ in range(60):
            x = random_k(rng, k5, integral=False, nonzero=True)
            for p in (16, 24, 48, 96):
                inner = x.embed(p + 8)
                outer = x.embed(p)
                assert outer.lo <= inner.lo and inner.hi <= outer.hi

    def test_requested_quality(self, k5, rng):
        for _ in range(40):
            x = random_k(rng, k5, bound=50, integral=False, nonzero=True)
            for p in (16, 64, 128):
                assert x.embed(p).precision_bits >= p


class TestSquares:
    def test_omega_square(self, k5):
        beta = k5.omega
        assert is_square_in_k(beta + 1) == beta

    def test_two_is_not_square(self, k5):
        # Oracle: 2 = (s + t*sqrt(5))^2 forces s*t = 0, so either s^2 = 2
        # or 5*t^2 = 2; neither has a rational solution.
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(2, 5)) is None
        assert is_square_in_k(k5.element(2)) is None

    def test_rational_square(self, k5):
        assert is_square_in_k(k5.element(Fraction(9, 4))) == Fraction(3, 2)

    def test_randomized_roots(self, k5, rng):
        for _ in range(300):
            y = random_k(rng, k5, integral=False)
            root = is_square_in_k(y * y)
            assert root is not None
            assert root * root == y * y
            assert sign_of(root) >= 0

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_zero(self, d):
        spec = FieldSpec(d)
        assert is_square_in_k(spec.zero) == 0

    def test_nonsquares_randomized(self, k5, rng):
        # A square has nonnegative norm; flip a random square's sign.
        for _ in range(100):
            y = random_k(rng, k5, nonzero=True)
            sq = y * y
            assert is_square_in_k(-sq) is None


def sqrt_family(spec: FieldSpec, delta: KElement) -> SurdElement:
    return SurdElement(spec, delta, spec.zero, spec.one)


class TestSurds:
    def test_conjugate_sum(self, k5):
        delta = k5.element(3)
        u = SurdElement(k5, delta, k5.element(5, 2), k5.element(1, 1))
        assert u + u.conj_sqrt() == 2 * k5.element(5, 2)

    def test_defining_relation(self, k5):
        delta = k5.omega + 2
        root = sqrt_family(k5, delta)
        assert root * root == delta

    def test_reciprocal_worked_value(self, k5):
        # 1/(sqrt(delta) - 1) = (1 + sqrt(delta))/ (delta - 1); with
        # delta = beta^2 + 1 the denominator is beta^2.
        beta = k5.omega
        delta = beta * beta + 1
        root = sqrt_family(k5, delta)
        inv = (root - 1).recip()
        b2 = k5.one / (beta * beta)
        assert inv.x == b2 and inv.y == b2
        # numeric cross-check
        assert abs(float(inv) - 1 / (float(root) - 1)) < 1e-12

    def test_mixed_family_rejected(self, k5):
        u = sqrt_family(k5, k5.element(2))
        v = sqrt_family(k5, k5.element(3))
        with pytest.raises(ValueError):
            u + v

    def test_division_by_zero(self, k5):
        u = sqrt_family(k5, k5.element(2))
        with pytest.raises(ZeroDivisionError):
            u / (u - u)

    def test_components_must_be_elements_of_the_field(self, k5):
        # A surd of plain ints would fail deep inside the embedding at its
        # floor; each component must be a KElement of the surd's field.
        big = 10**400
        with pytest.raises(TypeError, match="surd component of type int is not a KElement"):
            SurdElement(k5, 3, big, -big)
        with pytest.raises(TypeError, match="of type Fraction is not a KElement"):
            SurdElement(k5, k5.element(3), k5.one, Fraction(1, 2))
        other = FieldSpec(2)
        for parts in ((other.element(3), k5.one, k5.one), (k5.element(3), other.one, k5.one),
                      (k5.element(3), k5.one, other.omega)):
            with pytest.raises(ValueError, match="mismatched field specs"):
                SurdElement(k5, *parts)
        # An equal spec, though another object, is the same field.
        assert SurdElement(FieldSpec(5), k5.element(3), k5.one, k5.one).y == k5.one

    def test_a_surd_in_k_hashes_like_the_values_it_equals(self, k5):
        # A surd with y = 0 equals its x, and across families too, so it
        # must hash like x and, for an integer x, like the int.
        for delta in (k5.element(2), k5.element(3)):
            three = SurdElement(k5, delta, k5.element(3), k5.zero)
            assert three == k5.element(3) == 3
            assert hash(three) == hash(k5.element(3)) == hash(3)
            half = SurdElement(k5, delta, k5.element(Fraction(1, 2)), k5.zero)
            assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert len({SurdElement(k5, k5.element(d), k5.omega, k5.zero) for d in (2, 3)}) == 1
        root = SurdElement(k5, k5.element(2), k5.zero, k5.one)
        assert len({root, root * 1, three}) == 2

    def test_a_scalar_over_a_surd_is_its_reciprocal_times_the_scalar(self, k5):
        s = SurdElement(k5, k5.element(2), k5.element(1, 1), k5.element(-2, 1))
        assert 2 / s == s.recip() * 2
        assert k5.omega / s == s.recip() * k5.omega
        assert Fraction(1, 3) / s == s.recip() * Fraction(1, 3)

    def test_field_axioms_randomized(self, k5, rng):
        delta = k5.element(2)
        for _ in range(300):
            us = [
                SurdElement(
                    k5, delta,
                    random_k(rng, k5, 5, integral=False),
                    random_k(rng, k5, 5, integral=False),
                )
                for _ in range(3)
            ]
            u, v, w = us
            assert (u + v) + w == u + (v + w)
            assert (u * v) * w == u * (v * w)
            assert u * (v + w) == u * v + u * w
            if not u.is_zero:
                assert u * u.recip() == 1


class TestSign:
    def test_sqrt2_minus_1(self, k5):
        u = sqrt_family(k5, k5.element(2)) - 1
        assert sign_of(u) == 1

    def test_zero(self, k5):
        assert sign_of(k5.zero) == 0
        assert sign_of(Fraction(0)) == 0

    def test_sqrt_delta_minus_beta(self, k5):
        # delta - beta^2 = 1 > 0 so sqrt(delta) > beta
        beta = k5.omega
        delta = beta * beta + 1
        u = sqrt_family(k5, delta) - beta
        assert sign_of(u) == 1
        iv = u.embed(64)
        assert iv.lo > 0

    def test_hidden_zero(self, k5):
        # beta - sqrt(beta^2) written as a surd with opposing signs
        beta = k5.omega
        u = SurdElement(k5, beta * beta, beta, -k5.one)
        assert surd_sign(u.x, u.y, u.delta) == 0
        assert sign_of(u) == 0

    def test_zero_delta(self, k5):
        # y*sqrt(0) is 0 whatever the sign of y.
        for y in (k5.one, -k5.omega):
            assert sign_of(SurdElement(k5, k5.zero, k5.zero, y)) == 0
            assert sign_of(SurdElement(k5, k5.zero, k5.omega, y)) == 1

    def test_sum_with_a_zero_first_surd(self, k5):
        # 0 + 0*sqrt(2) and the hidden zero w - sqrt(w^2): the sum takes the
        # sign of y2*sqrt(delta2).
        beta = k5.omega
        for x, y1, delta1 in ((k5.zero, k5.zero, k5.element(2)), (beta, -k5.one, beta * beta)):
            for y2 in (k5.element(3), -beta):
                assert surd_sum_sign(x, y1, delta1, y2, k5.element(7)) == sign_of(y2)

    def test_agrees_with_intervals_randomized(self, k5, rng):
        delta = k5.element(7)
        for _ in range(200):
            u = SurdElement(
                k5, delta,
                random_k(rng, k5, integral=False),
                random_k(rng, k5, integral=False),
            )
            s = sign_of(u)
            for p in (32, 64, 128):
                ivs = u.embed(p).sign
                if ivs is not None:
                    assert ivs == s


class TestExactSign:
    def test_k_near_ties(self, k5):
        for x in k_near_ties(k5):
            iv = x.embed(ORACLE_BITS)
            assert max(abs(iv.lo), abs(iv.hi)) < TIE
            assert sign_of(x) == oracle_sign(x)
            assert sign_of(-x) == -sign_of(x)

    def test_k_randomized_against_oracle(self, k5):
        rng = random.Random(5)
        for spec in (k5, FieldSpec(2), FieldSpec(13)):
            for _ in range(1000):
                x = random_k(rng, spec, bound=10**6, integral=False, nonzero=True)
                assert sign_of(x) == oracle_sign(x)

    def test_surd_near_ties(self, k5):
        for u in surd_near_ties(k5):
            iv = u.embed(ORACLE_BITS)
            assert max(abs(iv.lo), abs(iv.hi)) < TIE
            assert sign_of(u) == oracle_sign(u)
            assert sign_of(u.conj_sqrt()) == sign_of(u.x)

    def test_surd_randomized_against_oracle(self, k5):
        rng = random.Random(6)
        beta = k5.omega
        for delta in (k5.element(2), beta + 5, 6 - beta, k5.element(Fraction(7, 3), 1)):
            for _ in range(300):
                u = SurdElement(
                    k5, delta,
                    random_k(rng, k5, bound=1000, integral=False),
                    random_k(rng, k5, bound=1000, integral=False, nonzero=True),
                )
                assert sign_of(u) == oracle_sign(u)

    def test_square_delta(self, k5):
        # delta = beta^2 is a square in K: x + y*sqrt(delta) = x + y*beta,
        # including an exact zero that only the squaring reveals.
        beta = k5.omega
        for x, y in ((beta, -1), (beta + Fraction(1, 3), -1), (beta, -2), (-beta, 1)):
            u = SurdElement(k5, beta * beta, x, k5.element(y))
            assert sign_of(u) == sign_of(u.x + u.y * beta)


class TestRealsEqual:
    def test_linked_families(self, k5):
        beta = k5.omega
        delta = beta * beta + 1
        a = SurdElement(k5, 4 * delta, k5.one, k5.element(Fraction(1, 2)))
        b = SurdElement(k5, delta, k5.one, k5.one)
        assert reals_equal(a, b)
        assert not reals_equal(a, b + 1)

    def test_unlinked_families(self, k5):
        a = sqrt_family(k5, k5.element(2))
        b = sqrt_family(k5, k5.element(3))
        assert not reals_equal(a, b)

    def test_k_values(self, k5):
        a = SurdElement(k5, k5.element(2), k5.omega, k5.zero)
        assert reals_equal(a, k5.omega)

    def test_two_elements_of_k_compare_as_elements(self, k5, rng):
        for _ in range(100):
            a = random_k(rng, k5, integral=False)
            for b in (a, random_k(rng, k5, integral=False), a + Fraction(1, 1 << 100)):
                assert reals_equal(a, b) == (a == b)

    def test_linked_families_randomized(self, k5, rng):
        # sqrt(k^2 * delta) = |k| * sqrt(delta): the same value written over
        # delta and over k^2 * delta, and that value moved by 2^-100.
        tiny = Fraction(1, 1 << 100)
        beta = k5.omega
        for delta in (k5.element(2), beta + 5, k5.element(Fraction(7, 3), 1)):
            for _ in range(40):
                x = random_k(rng, k5, integral=False)
                y = random_k(rng, k5, integral=False, nonzero=True)
                k = random_k(rng, k5, integral=False, nonzero=True)
                a = SurdElement(k5, delta, x, y)
                b = SurdElement(k5, k * k * delta, x, y / (k if sign_of(k) > 0 else -k))
                assert reals_equal(a, b) and reals_equal(b, a)
                assert not reals_equal(a, b + tiny)
                assert not reals_equal(a - tiny, b)
                assert not reals_equal(a, -b)

    def test_square_delta_compares_values(self, k5):
        # (3 + beta) - sqrt(beta^2) is 3, which only the exact sign sees.
        beta = k5.omega
        u = SurdElement(k5, beta * beta, 3 + beta, -k5.one)
        assert reals_equal(u, k5.element(3)) and reals_equal(k5.element(3), u)
        assert not reals_equal(u, k5.element(3) + Fraction(1, 1 << 100))
        v = SurdElement(k5, k5.element(2), k5.element(3), k5.zero)
        assert reals_equal(u, v)


class TestOrdering:
    """`<`, `<=`, `>` and `>=` on K agree with the exact sign of the
    difference, for K, int and Fraction operands on either side."""

    @pytest.mark.parametrize("d", [5, 2, 13])
    def test_matches_sign_of_difference(self, d, rng):
        spec = FieldSpec(d)
        for _ in range(150):
            a = random_k(rng, spec, integral=False)
            others = [
                random_k(rng, spec, integral=False),
                a,
                spec.element(a.a, a.b),
                rng.randint(-8, 8),
                Fraction(rng.randint(-8, 8), rng.randint(1, 4)),
                a.a,  # equal to a when a is rational
            ]
            for b in others:
                s = sign_of(a - b)
                assert (a < b, a <= b, a > b, a >= b) == (s < 0, s <= 0, s > 0, s >= 0)
                assert (b < a, b <= a, b > a, b >= a) == (s > 0, s >= 0, s < 0, s <= 0)

    def test_other_types_raise(self, k5):
        for compare in (
            lambda k: k < "x", lambda k: k <= "x", lambda k: k > "x", lambda k: k >= "x",
            lambda k: "x" < k, lambda k: 1.5 < k,
        ):
            with pytest.raises(TypeError):
                compare(k5.omega)
