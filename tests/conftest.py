from __future__ import annotations

import random
from fractions import Fraction

import pytest

from okcf.cf import Mat2
from okcf.field import FieldSpec, KElement

# Every complete quotient of a pair expansion after the first has
# xi_n^2 > 10/9: the distance test below 9/10 proves it, and the tests
# assert it on every step.
LOWER_BOUND_SQ = Fraction(10, 9)


def mat2_inverse(m: Mat2) -> Mat2:
    d = m.det()
    return Mat2(m.e22 / d, -m.e12 / d, -m.e21 / d, m.e11 / d)


@pytest.fixture(scope="session")
def k5() -> FieldSpec:
    return FieldSpec(5)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240517)


def random_k(rng: random.Random, spec: FieldSpec, bound: int = 8,
             integral: bool = True, nonzero: bool = False) -> KElement:
    while True:
        if integral:
            x = spec.element(rng.randint(-bound, bound), rng.randint(-bound, bound))
        else:
            x = spec.element(
                Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
                Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
            )
        if not nonzero or not x.is_zero:
            return x


@pytest.fixture
def rand_k(k5):
    def make(rng: random.Random, bound: int = 8, integral: bool = True,
             nonzero: bool = False) -> KElement:
        return random_k(rng, k5, bound, integral, nonzero)

    return make
