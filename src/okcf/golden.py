"""Continued fraction expansion over Q(sqrt(5)) for real quartic
irrationals with all-real conjugates.

The pair (xi_n, xi'_n) is tracked exactly; each partial quotient is the
first lattice point v(a) = (a, sigma(a)) among the four floor/ceil corner
candidates whose squared distance to the pair is below 9/10 (the
circumradius bound of the fundamental cell of v(O_K)).  Cycle detection
on exact quotient-state keys yields an ultimately periodic expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import floor as _floor, sqrt
from typing import Iterator

from .cf import CFExpansion, eval_periodic
from .field import (
    FieldSpec,
    InputRuleError,
    KElement,
    SurdElement,
    is_square_in_k,
    reals_equal,
    sign_of,
    surd_is_zero,
    surd_sign,
    surd_sum_sign,
)
from .intervals import DEFAULT_BITS, RealInterval
from .quartic import QuadraticPolyK, QuotientState, make_state, step_state

RADIUS_SQ = Fraction(9, 10)
LOWER_BOUND_SQ = Fraction(10, 9)

CANDIDATE_ORDER = (("floor", "floor"), ("floor", "ceil"), ("ceil", "floor"), ("ceil", "ceil"))


class ExpansionError(RuntimeError):
    pass


class NoCandidateError(ExpansionError):
    """No corner candidate satisfied the distance bound.

    The circumradius argument guarantees a candidate exists, so this is an
    internal-consistency failure, not an input error.
    """


class MaxStepsError(ExpansionError):
    def __init__(self, message: str, quotients: list[KElement], keys: list[tuple]):
        super().__init__(message)
        self.quotients = quotients
        self.keys = keys


class GoldenPreconditionError(InputRuleError):
    pass


@dataclass(frozen=True)
class RealPair:
    """An exact real u + v with u, v surds over two (possibly different)
    families.  When the product of the deltas is a square in K the second
    component is folded into the first family and v is None."""

    u: SurdElement
    v: SurdElement | None

    @property
    def is_zero(self) -> bool:
        if self.v is None:
            return surd_is_zero(self.u)
        return self.u.y.is_zero and self.v.y.is_zero and (self.u.x + self.v.x).is_zero

    def __neg__(self) -> RealPair:
        return RealPair(-self.u, None if self.v is None else -self.v)

    def __add__(self, other: RealPair) -> RealPair:
        if (self.v is None) != (other.v is None):
            raise ValueError("mismatched pair structure")
        if self.v is None:
            return RealPair(self.u + other.u, None)
        return RealPair(self.u + other.u, self.v + other.v)

    def shift(self, k: KElement | Fraction | int) -> RealPair:
        return RealPair(self.u + k, self.v)

    def scale(self, k: KElement | Fraction | int) -> RealPair:
        return RealPair(self.u * k, None if self.v is None else self.v * k)

    def interval(self, bits: int = DEFAULT_BITS) -> RealInterval:
        iv = self.u.embed(bits)
        if self.v is not None:
            iv = iv + self.v.embed(bits)
        return iv

    def _sign_minus(self, k: Fraction | int) -> int:
        """Exact sign of self - k."""
        u, v = self.u, self.v
        if v is None:
            return surd_sign(u.x - k, u.y, u.delta)
        return surd_sum_sign(u.x + v.x - k, u.y, u.delta, v.y, v.delta)

    def sign(self) -> int:
        return self._sign_minus(0)

    def _as_rational(self) -> Fraction | None:
        if self.v is None:
            if self.u.y.is_zero and self.u.x.is_rational:
                return self.u.x.a
            return None
        if self.u.y.is_zero and self.v.y.is_zero:
            k = self.u.x + self.v.x
            if k.is_rational:
                return k.a
        return None

    def __float__(self) -> float:
        """A float approximation with no error bound; `interval` encloses."""
        approx = _surd_float(self.u)
        if self.v is not None:
            approx += _surd_float(self.v)
        return approx

    def _floor_guess(self) -> int:
        """floor of a float approximation, or of one enclosure when a float
        overflows.  Only a starting point: `_floor_parts` checks it exactly."""
        try:
            return _floor(float(self))
        except (OverflowError, ValueError):
            return _floor(self.interval().lo)

    @cached_property
    def _floor_parts(self) -> tuple[int, bool]:
        """(floor(self), whether self is that integer), decided by exact signs."""
        q = self._as_rational()
        if q is not None:
            return q.numerator // q.denominator, q.denominator == 1
        # Largest n with self >= n: gallop from the guess until the answer is
        # bracketed by lo (self >= lo) and hi (self < hi), then bisect.  A
        # good guess costs two signs.
        signs: dict[int, int] = {}

        def above(m: int) -> bool:
            signs[m] = self._sign_minus(m)
            return signs[m] >= 0

        n = self._floor_guess()
        step = 1
        if above(n):
            while above(n + step):
                step *= 2
            lo, hi = n + step // 2, n + step
        else:
            while not above(n - step):
                step *= 2
            lo, hi = n - step, n - step // 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                lo = mid
            else:
                hi = mid
        return lo, signs[lo] == 0

    def floor(self) -> int:
        return self._floor_parts[0]

    def ceil(self) -> int:
        n, exact = self._floor_parts
        return n if exact else n + 1


def _surd_float(u: SurdElement) -> float:
    return float(u.x) + float(u.y) * sqrt(float(u.delta))


@dataclass(frozen=True)
class PairContext:
    """Session constants for one expansion: the two discriminant families
    and the exact lattice geometry of Q(sqrt(5))."""

    spec: FieldSpec
    delta: KElement
    delta_prime: KElement
    link: KElement | None

    @staticmethod
    def create(seed: QuadraticPolyK) -> PairContext:
        spec = seed.spec
        delta = seed.delta
        delta_prime = delta.conj()
        return PairContext(spec, delta, delta_prime, is_square_in_k(delta * delta_prime))

    def pair(self, a: SurdElement, b: SurdElement) -> RealPair:
        """The real a + b with a over delta and b over delta_prime."""
        if self.link is not None:
            # sqrt(delta_prime) = link / sqrt(delta): fold b into a's family.
            folded_y = b.y * self.link / self.delta
            return RealPair(
                SurdElement(self.spec, self.delta, a.x + b.x, a.y + folded_y), None
            )
        return RealPair(a, b)

    @property
    def beta(self) -> KElement:
        return self.spec.omega

    @property
    def inv_sqrt5(self) -> KElement:
        # 1/sqrt(5) = (2*beta - 1)/5
        return self.spec.element(Fraction(-1, 5), Fraction(2, 5))


@dataclass(frozen=True)
class PairState:
    xi: QuotientState
    xi_prime: QuotientState
    index: int

    @property
    def key(self) -> tuple:
        """Exact value-level key of the pair, used for cycle detection."""
        return (*self.xi.canonical_key, *self.xi_prime.canonical_key)


@dataclass(frozen=True)
class ExpansionConfig:
    max_steps: int = 10_000

    def __post_init__(self) -> None:
        if self.max_steps < 1:
            raise InputRuleError("max_steps must be >= 1")


@dataclass(frozen=True)
class LatticeCoords:
    x: RealPair
    y: RealPair

    # Enclosures for display and tests; the rounding decisions never read them.
    @cached_property
    def x_interval(self) -> RealInterval:
        return self.x.interval()

    @cached_property
    def y_interval(self) -> RealInterval:
        return self.y.interval()


@dataclass(frozen=True)
class RoundTrip:
    ok: bool
    forward_ok: bool
    sigma_ok: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class ExpansionResult:
    expansion: CFExpansion
    keys: tuple[tuple, ...]
    cycle_start: int
    verified: bool
    seed: QuadraticPolyK
    branch: int
    conj_branch: int

    @property
    def steps(self) -> int:
        return len(self.expansion.preperiod) + len(self.expansion.period)


def lattice_coords(p: PairState, ctx: PairContext) -> LatticeCoords:
    """Exact solution of x + y*beta = xi_n, x - y/beta = xi'_n.

    Subtracting the equations gives y = (xi_n - xi'_n)/sqrt(5) since
    beta + 1/beta = sqrt(5) = 2*beta - 1 lies in K.
    """
    if ctx.spec.d != 5:
        raise GoldenPreconditionError("lattice rounding requires D = 5")
    xi = p.xi.value
    xip = p.xi_prime.value
    inv = ctx.inv_sqrt5
    y = ctx.pair(xi * inv, -(xip * inv))
    x = ctx.pair(xi * (ctx.spec.one - inv * ctx.beta), xip * (inv * ctx.beta))
    return LatticeCoords(x, y)


def choose_quotient(p: PairState, ctx: PairContext) -> tuple[KElement, RealPair]:
    """First corner candidate a = x + y*beta with
    |xi_n - a|^2 + |xi'_n - sigma(a)|^2 < 9/10, decided exactly; returns a
    and that exact squared distance."""
    coords = lattice_coords(p, ctx)
    xf, xc = coords.x.floor(), coords.x.ceil()
    yf, yc = coords.y.floor(), coords.y.ceil()
    corners = {"floor": (xf, yf), "ceil": (xc, yc)}
    seen: set[tuple[int, int]] = set()
    xi = p.xi.value
    xip = p.xi_prime.value
    for cx, cy in CANDIDATE_ORDER:
        x = corners[cx][0]
        y = corners[cy][1]
        if (x, y) in seen:
            continue
        seen.add((x, y))
        a = ctx.spec.element(x, y)
        d1 = (xi - a) * (xi - a)
        d2 = (xip - a.conj()) * (xip - a.conj())
        dist = ctx.pair(d1, d2)
        if dist.shift(-RADIUS_SQ).sign() < 0:
            return a, dist
    raise NoCandidateError(
        f"no corner candidate within the circumradius bound at index {p.index}"
    )


class SeedRejection(Enum):
    """Why a seed cannot drive the pair expansion, in corpus counter order.

    ZERO_LEAD never comes from `classify_seed`: a QuadraticPolyK cannot
    have A = 0, so samplers test the drawn leading coefficient themselves.
    """

    ZERO_LEAD = "zero_lead"
    DELTA_NONPOSITIVE = "delta_nonpositive"
    DELTA_SQUARE = "delta_square"
    SIGMA_DELTA_NONPOSITIVE = "sigma_delta_nonpositive"
    SIGMA_DELTA_SQUARE = "sigma_delta_square"
    PROVABLY_NONPERIODIC = "provably_nonperiodic"


def classify_seed(seed: QuadraticPolyK) -> SeedRejection | None:
    """First failed requirement of the pair expansion on delta and
    sigma(delta), or None when the seed is admissible.

    sigma(delta) <= 0 splits at -4: below it no ultimately periodic
    expansion over K exists at all (the even-period constraint fails).
    """
    delta = seed.delta
    if sign_of(delta) <= 0:
        return SeedRejection.DELTA_NONPOSITIVE
    if is_square_in_k(delta) is not None:
        return SeedRejection.DELTA_SQUARE
    sdelta = delta.conj()
    if sign_of(sdelta) <= 0:
        if sign_of(sdelta + 4) < 0:
            return SeedRejection.PROVABLY_NONPERIODIC
        return SeedRejection.SIGMA_DELTA_NONPOSITIVE
    if is_square_in_k(sdelta) is not None:
        return SeedRejection.SIGMA_DELTA_SQUARE
    return None


_SIGMA_NONPOSITIVE_MSG = (
    "sigma(discriminant) <= 0: the conjugates of the root are not all real, "
    "so the pair expansion does not apply"
)
_REJECTION_MESSAGES = {
    SeedRejection.DELTA_NONPOSITIVE: "discriminant must be positive",
    SeedRejection.DELTA_SQUARE:
        "discriminant is a square in K: the root is quadratic, not quartic",
    SeedRejection.SIGMA_DELTA_NONPOSITIVE: _SIGMA_NONPOSITIVE_MSG,
    SeedRejection.PROVABLY_NONPERIODIC: _SIGMA_NONPOSITIVE_MSG + (
        "; moreover sigma(discriminant) < -4, so no ultimately periodic "
        "expansion over K exists at all (the even-period constraint fails)"
    ),
    SeedRejection.SIGMA_DELTA_SQUARE: "sigma(discriminant) is a square in K",
}


def _check_preconditions(seed: QuadraticPolyK) -> None:
    if seed.spec.d != 5:
        raise GoldenPreconditionError(
            f"expansion requires K = Q(sqrt(5)): for D = {seed.spec.d} the covering "
            "radius of v(O_K) exceeds 1 and the rounding step has no guarantee"
        )
    reason = classify_seed(seed)
    if reason is not None:
        raise GoldenPreconditionError(_REJECTION_MESSAGES[reason])


def pair_steps(
    seed: QuadraticPolyK, branch: int, conj_branch: int
) -> Iterator[tuple[KElement | None, PairState]]:
    """The pair states of the expansion of (seed, branch, conj_branch).

    Yields (a_{n-1}, state_n), with None in place of a_{-1}.  The quotient
    a_n is chosen only when the caller asks for state n+1, so a caller that
    stops at a repeated state pays for no candidate search there.  The seed
    is checked when the first state is asked for, before any state is built.
    """
    _check_preconditions(seed)
    ctx = PairContext.create(seed)
    s = make_state(seed, branch)
    sp = make_state(seed.sigma(), conj_branch)
    a = None
    for n in count():
        state = PairState(s, sp, n)
        yield a, state
        if n >= 1:
            # Both complete quotients must stay above sqrt(10/9) in modulus.
            if sign_of(s.value * s.value - LOWER_BOUND_SQ) <= 0:
                raise ExpansionError("complete quotient modulus invariant violated")
            if sign_of(sp.value * sp.value - LOWER_BOUND_SQ) <= 0:
                raise ExpansionError("conjugate quotient modulus invariant violated")
        a, _ = choose_quotient(state, ctx)
        s = step_state(s, a)
        sp = step_state(sp, a.conj())


def expand_pair(
    seed: QuadraticPolyK,
    branch: int,
    conj_branch: int,
    cfg: ExpansionConfig = ExpansionConfig(),
) -> ExpansionResult:
    """Run the pair expansion until the exact state key repeats.

    Returns the pre-period and period, the visited state keys and the
    round-trip verification flag.
    """
    seen: dict[tuple, int] = {}
    keys: list[tuple] = []
    quotients: list[KElement] = []
    for a, state in pair_steps(seed, branch, conj_branch):
        n = state.index
        if a is not None:
            quotients.append(a)
        if n > cfg.max_steps:
            break
        key = state.key
        if key in seen:
            m = seen[key]
            result = ExpansionResult(
                expansion=CFExpansion(seed.spec, tuple(quotients[:m]), tuple(quotients[m:n])),
                keys=tuple(keys),
                cycle_start=m,
                verified=False,
                seed=seed,
                branch=branch,
                conj_branch=conj_branch,
            )
            return replace(result, verified=bool(verify_roundtrip(result)))
        seen[key] = n
        keys.append(key)
    raise MaxStepsError(
        f"no state repetition within {cfg.max_steps} steps", quotients, keys
    )


# Per side of the round trip: its name, the tail of its "evaluates into K"
# text and the root it must evaluate to.
_ROUNDTRIP_SIDES = (
    ("expansion", ", not to the quartic root", "the seed root"),
    ("sigma expansion", "", "the chosen conjugate root"),
)


def verify_roundtrip(r: ExpansionResult) -> RoundTrip:
    """Evaluate the expansion and its sigma image back to the seed pair."""
    sides = (
        (r.expansion, make_state(r.seed, r.branch)),
        (r.expansion.sigma(), make_state(r.seed.sigma(), r.conj_branch)),
    )
    details = []
    oks = []
    for (expansion, state), (name, into_k, root) in zip(sides, _ROUNDTRIP_SIDES):
        res = eval_periodic(expansion)
        ok = res.value is not None and reals_equal(res.value, state.value)
        if res.value_in_k is not None:
            details.append(f"{name} evaluates into K{into_k}")
        elif res.value is None:
            details.append(f"{name} has no value: {res.failure.value}")
        elif not ok and not details:
            details.append(f"{name} value differs from {root}")
        oks.append(ok)
    return RoundTrip(all(oks), *oks, detail="; ".join(details))


@dataclass(frozen=True)
class CoveringRadius:
    d: int
    r_squared: Fraction
    interval: RealInterval
    usable: bool


def covering_radius(d: int, precision_bits: int = DEFAULT_BITS) -> CoveringRadius:
    """Covering radius of the lattice v(O_K) in R^2.

    r^2 = (d+1)/2 for d = 2, 3 (mod 4) and r^2 = (d+1)^2/(8d) for
    d = 1 (mod 4); the rounding step of the expansion needs r < 1, which
    holds only for d = 5.
    """
    spec = FieldSpec(d)  # validates squarefree d > 1
    if d % 4 == 1:
        r_sq = Fraction((d + 1) ** 2, 8 * d)
    else:
        r_sq = Fraction(d + 1, 2)
    iv = RealInterval.point(r_sq).sqrt(precision_bits)
    return CoveringRadius(d=spec.d, r_squared=r_sq, interval=iv, usable=r_sq < 1)
