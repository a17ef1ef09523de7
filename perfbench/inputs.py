"""Benchmark inputs made from a seed with the benchmark's own arithmetic.

Elements of O_K, K = Q(sqrt(5)), are integer pairs (a, b) standing for
a + b*w with w = (1 + sqrt(5))/2.  Seed admissibility is decided here on
those pairs, never by the package under test, so the inputs a run
measures cannot move when the package's decision code changes.
"""

from __future__ import annotations

import random
from math import isqrt

Pair = tuple[int, int]
Seed = tuple[Pair, Pair, Pair]

BOUND = 3


def k_add(x: Pair, y: Pair) -> Pair:
    return (x[0] + y[0], x[1] + y[1])


def k_mul(x: Pair, y: Pair) -> Pair:
    # w^2 = w + 1
    a1, b1 = x
    a2, b2 = y
    return (a1 * a2 + b1 * b2, a1 * b2 + a2 * b1 + b1 * b2)


def k_conj(x: Pair) -> Pair:
    # sigma(w) = 1 - w
    return (x[0] + x[1], -x[1])


def k_sign(x: Pair) -> int:
    """Sign of a + b*w = (p + q*sqrt(5))/2 with p = 2a + b, q = b."""
    p, q = 2 * x[0] + x[1], x[1]
    if p == 0 and q == 0:
        return 0
    if p >= 0 and q >= 0:
        return 1
    if p <= 0 and q <= 0:
        return -1
    # Opposite signs: the larger of p^2 and 5q^2 wins (never equal).
    return (1 if p > 0 else -1) if p * p > 5 * q * q else (1 if q > 0 else -1)


def _int_sqrt(n: int) -> int | None:
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


def k_is_square(x: Pair) -> bool:
    """Whether x = a + b*w is a square in O_K (equivalently in K).

    With x = (P + Q*sqrt(5))/2 and a root y = (r + s*sqrt(5))/2, the
    equations are r^2 + 5s^2 = 2P, rs = Q and (r^2 - 5s^2)/4 = N(y) with
    N(y)^2 = N(x) = a^2 + ab - b^2.
    """
    a, b = x
    if a == 0 and b == 0:
        return True
    n = _int_sqrt(a * a + a * b - b * b)
    if n is None:
        return False
    p, q = 2 * a + b, b
    for ny in (n, -n):
        r = _int_sqrt(p + 2 * ny)
        s5 = p - 2 * ny
        if r is None or s5 % 5:
            continue
        s = _int_sqrt(s5 // 5)
        if s is None or (r - s) % 2 or r * s != abs(q):
            continue
        return True
    return False


def discriminant(seed: Seed) -> Pair:
    a, b, c = seed
    four_ac = k_mul((4, 0), k_mul(a, c))
    return k_add(k_mul(b, b), (-four_ac[0], -four_ac[1]))


def admissible(seed: Seed) -> bool:
    """delta > 0 and not a square in K; the same for sigma(delta)."""
    if seed[0] == (0, 0):
        return False
    delta = discriminant(seed)
    return all(k_sign(d) > 0 and not k_is_square(d) for d in (delta, k_conj(delta)))


def random_pair(rng: random.Random, nonzero: bool = False) -> Pair:
    while True:
        x = (rng.randint(-BOUND, BOUND), rng.randint(-BOUND, BOUND))
        if not nonzero or x != (0, 0):
            return x


def random_seed(rng: random.Random) -> Seed:
    while True:
        seed = (random_pair(rng), random_pair(rng), random_pair(rng))
        if admissible(seed):
            return seed


def random_quotients(rng: random.Random, count: int) -> list[Pair]:
    """a_0 anywhere in the box, later quotients nonzero."""
    return [random_pair(rng, nonzero=i > 0) for i in range(count)]


def fmt(x: Pair) -> str:
    """The package's element syntax: 3, -2*w, 1+2*w, -1-1*w."""
    a, b = x
    if b == 0:
        return str(a)
    w = f"{abs(b)}*w"
    if a == 0:
        return w if b > 0 else f"-{w}"
    return f"{a}{'+' if b > 0 else '-'}{w}"
