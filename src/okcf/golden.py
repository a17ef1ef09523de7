"""Continued fraction expansion over Q(sqrt(5)) for real quartic
irrationals with all-real conjugates.

The pair (xi_n, xi'_n) is tracked exactly; each partial quotient is the
first lattice point v(a) = (a, sigma(a)) among the four floor/ceil corner
candidates whose squared distance to the pair is below 9/10 (the
circumradius bound of the fundamental cell of v(O_K)).  Cycle detection
on exact quotient-state keys yields an ultimately periodic expansion.

The loop runs on integers: xi'_n is sigma of xi_n's polynomial, so only
the integers of xi_n's coefficients and its branch are stepped, and the
cycle table is keyed on them.  `KElement`s are made for the quotients
and keys of the result, and a `PairState` for the exact path of a
decision; `pair_steps` and `choose_quotient` are the views on states.

Every decision of a step (the two lattice floors and each corner's
distance test) is exact.  A certified float filter answers it from
binary64 enclosures when their error bound proves the answer, and exact
squaring answers the rest; on the corpus pool the exact path sees under 1%
of the decisions.  The modulus invariant xi_n^2 > 10/9 follows from the
previous step's distance test and is asserted by the tests, not checked.

The round trip reads only the quotients and the seed.  For an admitted
seed it holds exactly when E = M(pre)*M(period)*M(pre)^(-1) is
proportional to the seed polynomial and the signs of E21, A and tr(E),
and of their conjugates on the sigma side, select the seed's branches.
`expand_pair` admitted its seed, so this test alone decides it.
`verify_roundtrip` evaluates both sides in full by `eval_periodic` and
`reals_equal`, for any seed, and writes the failure texts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import floor as _floor, prod, sqrt
from typing import Iterator

from .cf import CFExpansion, _e_pairs, eval_periodic
from .field import (
    FieldSpec,
    InputRuleError,
    KElement,
    SurdElement,
    _int_mul,
    _make,
    _root_sign,
    is_square_in_k,
    reals_equal,
    sign_of,
    surd_sum_sign,
)
from .intervals import DEFAULT_BITS, RealInterval
from .quartic import QuadraticPolyK, QuotientState, _poly, _step_pairs

RADIUS_SQ = Fraction(9, 10)

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
    families; a real of one family is RealPair(u, 0 * u)."""

    u: SurdElement
    v: SurdElement

    def interval(self, bits: int = DEFAULT_BITS) -> RealInterval:
        return self.u.embed(bits) + self.v.embed(bits)

    def _sign_minus(self, k: Fraction | int) -> int:
        """Exact sign of self - k."""
        u, v = self.u, self.v
        return surd_sum_sign(u.x + v.x - k, u.y, u.delta, v.y, v.delta)

    def sign(self) -> int:
        return self._sign_minus(0)

    def __float__(self) -> float:
        """A float approximation with no error bound; `interval` encloses."""
        return _surd_float(self.u) + _surd_float(self.v)

    def _floor_guess(self) -> int:
        """floor of a float approximation, or 0 when that float overflows or
        is NaN.  Only a starting point: `_floor_parts` decides the floor
        exactly from any start."""
        try:
            return _floor(float(self))
        except (OverflowError, ValueError):
            return 0

    @cached_property
    def _floor_parts(self) -> tuple[int, bool]:
        """(floor(self), whether self is that integer), decided by exact signs."""
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


# A state of `_expansion`: the integers (A_p, A_q, B_p, B_q, C_p, C_q) of
# the main track's polynomial, A = A_p + A_q*w and so on, and its branch s.
PairTuple = tuple[int, int, int, int, int, int, int]


@dataclass(frozen=True)
class PairState:
    """The pair (xi_n, xi'_n) at index n; in every state that `pair_steps`
    yields, xi'_n is sigma of xi_n's polynomial, on its own branch."""

    xi: QuotientState
    xi_prime: QuotientState
    index: int


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


# -- The certified float filter ------------------------------------------
#
# A semi-static filter (Shewchuk, "Adaptive Precision Floating-Point
# Arithmetic and Fast Robust Geometric Predicates", DCG 18, 1997): each
# decision of a step is first asked of binary64 enclosures, and only an
# undecided one goes to the exact squarings.  An enclosure (v, e) holds a
# float v and a running absolute bound e >= |true - v|.  CPython rounds
# float(int), + - * / and math.sqrt correctly, so each result v adds
# u*|v| with u = 2^-53 (and _ETA for underflow in a product or quotient);
# the propagated error follows the usual product and quotient bounds.  The
# bound is itself rounded, so a decision doubles it, and it compares
# strictly against a representable threshold, which rounding v -+ 2e
# cannot cross.  The filter abstains (the enclosure is None, or the
# decision helper returns None) on an OverflowError, on a radicand whose
# enclosure reaches 0, on a divisor whose enclosure reaches half its
# value or that is not finite, and when floats are not binary64.  Float
# operations overflow to inf without raising, but a result that is inf or
# NaN carries an inf or NaN bound, and those fail every comparison a
# decision makes; division by an infinite divisor is the one operation
# that would turn such a value finite again, hence its own check.
#
# The helpers `_int`, `_add`, `_sub`, `_mul` and `_div` are the
# specification, and the tests check each of them against exact
# arithmetic.  `_xi_enclosure`, `_pair_enclosures` and `_corner_distance`
# compute the same float operations in the same order, written out in
# straight-line code, so every enclosure and abstention is bit for bit the
# helpers' own; a test holds them to the helper composition.

Enclosure = tuple[float, float]
# (xi, xi', x, y)
PairEnclosures = tuple[Enclosure, Enclosure, Enclosure, Enclosure]

_U = 2.0**-53
_ETA = 2.0**-1022
_INF = float("inf")
_BINARY64 = (
    sys.float_info.radix == 2
    and sys.float_info.mant_dig == 53
    and sys.float_info.max_exp == 1024
    and sys.float_info.min_exp == -1021
)
# Strict thresholds 2^-50 either side of 9/10, and the floor range
# |n| < 2^52; all are exact floats.
_MARGIN = 2.0**-50
_RADIUS_SQ_BELOW, _RADIUS_SQ_ABOVE = 0.9 - _MARGIN, 0.9 + _MARGIN
_FLOOR_MIN, _FLOOR_MAX = 1 - 2.0**52, 2.0**52


class _Abstain(ArithmeticError):
    """An enclosure the filter cannot bound; the exact path decides."""


def _int(n: int) -> Enclosure:
    v = float(n)
    return v, _U * abs(v)


def _add(a: Enclosure, b: Enclosure) -> Enclosure:
    v = a[0] + b[0]
    return v, a[1] + b[1] + _U * abs(v)


def _sub(a: Enclosure, b: Enclosure) -> Enclosure:
    v = a[0] - b[0]
    return v, a[1] + b[1] + _U * abs(v)


def _mul(a: Enclosure, b: Enclosure) -> Enclosure:
    av, ae = a
    bv, be = b
    v = av * bv
    return v, abs(av) * be + abs(bv) * ae + ae * be + _U * abs(v) + _ETA


def _div(a: Enclosure, b: Enclosure) -> Enclosure:
    av, ae = a
    bv, be = b
    m = abs(bv)
    # be < m/2 keeps m - be above m/2, so a few ulps of rounding in be move
    # m - be, and the bound below, by a few ulps only: the doubled bound of
    # a decision covers that.  Near be = m they would not.
    if not 2 * be < m < _INF:
        raise _Abstain("divisor enclosure reaches half its value, or inf")
    v = av / bv
    # |a/b - av/bv| <= (ae + |av/bv|*be) / (|bv| - be).  The product |v|*be
    # may underflow, and the quotient scales that loss by 1/(m - be): _ETA
    # in the numerator covers it.
    return v, (ae + abs(v) * be + _ETA) / (m - be) + _U * abs(v) + _ETA


def _sqrt(a: Enclosure) -> Enclosure:
    av, ae = a
    if not ae < av:
        raise _Abstain("radicand enclosure reaches 0")
    v = sqrt(av)
    # |sqrt(t) - sqrt(av)| = |t - av| / (sqrt(t) + sqrt(av)) <= ae / sqrt(av)
    return v, ae / v + _U * v


_SQRT5 = _sqrt((5.0, 0.0))
_INV_SQRT5 = _div((1.0, 0.0), _SQRT5)
# w = (1 + sqrt(5))/2; halving is exact.
_W = tuple(t / 2 for t in _add((1.0, 0.0), _SQRT5))
# Their floats are positive, so each abs() of them in a helper is the float.
_WV, _WE = _W
_INV_SQRT5_V, _INV_SQRT5_E = _INV_SQRT5


def _k_enclosure(k: KElement) -> Enclosure:
    """Enclosure of an integral element p + q*w of Q(sqrt(5))."""
    return _add(_int(k.p), _mul(_int(k.q), _W))


def float_roots(seed: QuadraticPolyK) -> tuple[Enclosure, Enclosure] | None:
    """Float enclosures of sqrt(delta) and sqrt(sigma(delta)), or None
    when the filter abstains.  The discriminant is conserved along the
    expansion, so these serve every state of both tracks."""
    if not _BINARY64 or seed.spec.d != 5:
        return None
    try:
        return _sqrt(_k_enclosure(seed.delta)), _sqrt(_k_enclosure(seed.delta.conj()))
    except ArithmeticError:
        return None


def _xi_enclosure(a_p: int, a_q: int, b_p: int, b_q: int, branch: int,
                  root: Enclosure) -> Enclosure | None:
    """Enclosure of (-B + branch*sqrt(delta))/(2A) for A = a_p + a_q*w and
    B = b_p + b_q*w, from their integers and an enclosure of sqrt(delta);
    None when the filter abstains:
    _div((v, be + root[1] + u*|v|), (2*av, 2*ae)), v = branch*root[0] - bv,
    with (bv, be) and (av, ae) the `_k_enclosure` of B and A."""
    try:
        p, q = float(b_p), float(b_q)
        qe, w = _U * abs(q), q * _WV
        bv = p + w
        be = _U * abs(p) + (abs(q) * _WE + _WV * qe + qe * _WE + _U * abs(w) + _ETA) + _U * abs(bv)
        p, q = float(a_p), float(a_q)
    except OverflowError:
        return None
    qe, w = _U * abs(q), q * _WV
    av = p + w
    ae = _U * abs(p) + (abs(q) * _WE + _WV * qe + qe * _WE + _U * abs(w) + _ETA) + _U * abs(av)
    v = branch * root[0] - bv
    ve = be + root[1] + _U * abs(v)
    dv, de = 2 * av, 2 * ae
    m = abs(dv)
    if not 2 * de < m < _INF:
        return None
    x = v / dv
    return x, (ve + abs(x) * de + _ETA) / (m - de) + _U * abs(x) + _ETA


def _pair_enclosures(
    a_p: int, a_q: int, b_p: int, b_q: int, s: int, t: int,
    roots: tuple[Enclosure, Enclosure] | None,
) -> PairEnclosures | None:
    """Enclosures of xi, xi', and the lattice coordinates
    y = _mul(_sub(xi, xi'), 1/sqrt(5)) and x = _sub(xi, _mul(y, w)), from
    the integers of xi's A and B, its branch s, the branch product
    t = branch*conj_branch of the run and the `float_roots` of the seed;
    None when the filter abstains.  xi' is sigma of xi's polynomial on
    branch t*s (`_expansion` proves it), and over Q(sqrt(5)), the one field
    `float_roots` serves, sigma(p + q*w) = (p + q) - q*w: the integers that
    `KElement.conj` makes, so the floats are the same."""
    if roots is None:
        return None
    xi = _xi_enclosure(a_p, a_q, b_p, b_q, s, roots[0])
    xip = _xi_enclosure(a_p + a_q, -a_q, b_p + b_q, -b_q, t * s, roots[1])
    if xi is None or xip is None:
        return None
    (v, e), (vp, ep) = xi, xip
    dv = v - vp
    de = e + ep + _U * abs(dv)
    yv = dv * _INV_SQRT5_V
    ye = abs(dv) * _INV_SQRT5_E + _INV_SQRT5_V * de + de * _INV_SQRT5_E + _U * abs(yv) + _ETA
    wv = yv * _WV
    we = abs(yv) * _WE + _WV * ye + ye * _WE + _U * abs(wv) + _ETA
    xv = v - wv
    return xi, xip, (xv, e + we + _U * abs(xv)), (yv, ye)


def _corner_distance(xi: Enclosure, xip: Enclosure, x: int, y: int) -> Enclosure | None:
    """Enclosure of |xi - a|^2 + |xi' - sigma(a)|^2 for a = x + y*w, with
    sigma(a) = (x + y) - y*w: the _add of the _mul squares of
    d1 = _sub(_sub(xi, _int(x)), yw) and d2 = _add(_sub(xi', _int(x + y)), yw),
    yw = _mul(_int(y), w)."""
    try:
        fy, fx, fs = float(y), float(x), float(x + y)
    except OverflowError:
        return None
    qe, yv = _U * abs(fy), fy * _WV
    ye = abs(fy) * _WE + _WV * qe + qe * _WE + _U * abs(yv) + _ETA
    v = xi[0] - fx
    d1 = v - yv
    e1 = xi[1] + _U * abs(fx) + _U * abs(v) + ye + _U * abs(d1)
    v = xip[0] - fs
    d2 = v + yv
    e2 = xip[1] + _U * abs(fs) + _U * abs(v) + ye + _U * abs(d2)
    s1, s2 = d1 * d1, d2 * d2
    e1 = abs(d1) * e1 + abs(d1) * e1 + e1 * e1 + _U * abs(s1) + _ETA
    e2 = abs(d2) * e2 + abs(d2) * e2 + e2 * e2 + _U * abs(s2) + _ETA
    v = s1 + s2
    return v, e1 + e2 + _U * abs(v)


def _float_floor(z: Enclosure | None) -> tuple[int, int] | None:
    """(floor, ceil) of the enclosed value when the enclosure, its bound
    doubled, lies strictly inside (n, n + 1) with |n| < 2^52; else None."""
    if z is None:
        return None
    v, e = z
    lo, hi = v - 2 * e, v + 2 * e
    if _FLOOR_MIN < lo and hi < _FLOOR_MAX:
        n = _floor(lo)
        if n < lo and hi < n + 1:
            return n, n + 1
    return None


def _float_below(z: Enclosure | None, below: float, above: float) -> bool | None:
    """Whether the enclosed value is below a threshold t with
    below < t < above, when the enclosure, its bound doubled, lies
    strictly on one side of [below, above]; else None."""
    if z is None:
        return None
    v, e = z
    if v + 2 * e < below:
        return True
    if v - 2 * e > above:
        return False
    return None


def lattice_coords(p: PairState) -> tuple[RealPair, RealPair]:
    """Exact solution (x, y) of x + y*beta = xi_n, x - y/beta = xi'_n.

    Subtracting the equations gives y = (xi_n - xi'_n)/sqrt(5) since
    beta + 1/beta = sqrt(5) = 2*beta - 1 lies in K.
    """
    spec = p.xi.poly.spec
    if spec.d != 5:
        raise GoldenPreconditionError("lattice rounding requires D = 5")
    xi = p.xi.value
    xip = p.xi_prime.value
    # 1/sqrt(5) = (2*beta - 1)/5
    inv = spec.element(Fraction(-1, 5), Fraction(2, 5))
    inv_beta = inv * spec.omega
    y = RealPair(xi * inv, -(xip * inv))
    x = RealPair(xi * (spec.one - inv_beta), xip * inv_beta)
    return x, y


def squared_distance(p: PairState, a: KElement) -> RealPair:
    """The exact |xi_n - a|^2 + |xi'_n - sigma(a)|^2."""
    e1 = p.xi.value - a
    e2 = p.xi_prime.value - a.conj()
    return RealPair(e1 * e1, e2 * e2)


def _choose(spec: FieldSpec, state: PairTuple, t: int,
            roots: tuple[Enclosure, Enclosure] | None, index: int) -> tuple[int, int]:
    """The integers (x, y) of the first corner candidate a = x + y*w with
    |xi_n - a|^2 + |xi'_n - sigma(a)|^2 < 9/10, for the pair of the main
    track's `state` at `index` and the branch product t (see `_expansion`).

    The float filter answers each floor and each distance test that its
    enclosure decides.  The exact squarings answer the rest, on the
    `PairState` that is built for them only then.
    """
    a_p, a_q, b_p, b_q, _, _, s = state
    enc = _pair_enclosures(a_p, a_q, b_p, b_q, s, t, roots)
    xs = _float_floor(None if enc is None else enc[2])
    ys = _float_floor(None if enc is None else enc[3])
    p = None
    if xs is None or ys is None:
        p = _pair_state(spec, state, t, index)
        x, y = lattice_coords(p)
        xs = xs or (x.floor(), x.ceil())
        ys = ys or (y.floor(), y.ceil())
    for cx, cy in CANDIDATE_ORDER:
        # xs and ys are (floor, ceil) pairs.
        x, y = xs[cx == "ceil"], ys[cy == "ceil"]
        z = None if enc is None else _corner_distance(enc[0], enc[1], x, y)
        inside = _float_below(z, _RADIUS_SQ_BELOW, _RADIUS_SQ_ABOVE)
        if inside is None:
            if p is None:
                p = _pair_state(spec, state, t, index)
            inside = squared_distance(p, spec.element(x, y))._sign_minus(RADIUS_SQ) < 0
        if inside:
            return x, y
    raise NoCandidateError(
        f"no corner candidate within the circumradius bound at index {index}"
    )


def choose_quotient(p: PairState) -> KElement:
    """First corner candidate a = x + y*beta with
    |xi_n - a|^2 + |xi'_n - sigma(a)|^2 < 9/10, chosen by `_choose`, the
    float filter first and exact squarings where it abstains.  The filter
    takes the `float_roots` of xi_n's polynomial: its discriminant is the
    seed's at every step.  `p` must be a conjugate pair, as every state
    that `pair_steps` yields is: xi'_n's polynomial is sigma of xi_n's, on
    either branch.
    """
    poly, spec = p.xi.poly, p.xi.poly.spec
    if p.xi_prime.poly != poly.sigma():
        raise InputRuleError("xi' must be a root of sigma of xi's polynomial")
    state = (poly.A.p, poly.A.q, poly.B.p, poly.B.q, poly.C.p, poly.C.q, p.xi.branch)
    t = p.xi.branch * p.xi_prime.branch
    return spec.element(*_choose(spec, state, t, float_roots(poly), p.index))


class SeedRejection(Enum):
    """Why a seed cannot drive the pair expansion, in corpus counter order.

    ZERO_LEAD never comes from `classify_seed`: a QuadraticPolyK cannot
    have A = 0, so samplers test the drawn leading coefficient themselves.
    SIGMA_DELTA_SQUARE never comes from it either: sigma is an involution
    of K, so sigma(delta) = s^2 gives delta = sigma(s)^2, which DELTA_SQUARE
    has already reported; it stays as a corpus counter that reads 0.
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


def _expansion(
    seed: QuadraticPolyK, branch: int, conj_branch: int
) -> Iterator[tuple[tuple[int, int] | None, PairTuple]]:
    """The expansion of (seed, branch, conj_branch) on integers: yields
    (a_{n-1}, state_n), a_{n-1} = x + y*w as (x, y) and None in place of
    a_{-1}, and state_n = (A_p, A_q, B_p, B_q, C_p, C_q, s), the integers
    of A_n = A_p + A_q*w, B_n and C_n and the branch s of xi_n.  The
    quotient a_n is chosen only when the caller asks for state n+1, and
    the seed is checked when the first state is asked for.

    Only the main track xi_n is stepped.  xi'_n, the conjugate track, is
    sigma of xi_n's polynomial on branch t*s, t = branch*conj_branch:
    xi'_0 is sigma of the seed on conj_branch = t*branch, and xi'_n steps
    by sigma(a_n) where xi_n steps by a_n.  sigma is a ring automorphism
    of K and the step is polynomial in the quotient, so the polynomials
    stay conjugate, and each step negates both branches, so their product
    stays t.  `_pair_state` builds the pair of a state.

    No state after the first needs a modulus check: xi_(n+1) = 1/(xi_n - a_n)
    and |xi_n - a_n|^2 < 9/10, because the distance test bounds each of its
    two summands, so xi_(n+1)^2 > 10/9, and the same holds for xi'_(n+1).
    Neither does a derived leading coefficient: A_(n+1) = f_n(a_n) is 0
    only for a root a_n of f_n in K, and the admitted delta is not a square.
    """
    _check_preconditions(seed)
    if branch not in (1, -1) or conj_branch not in (1, -1):
        raise InputRuleError("branch must be +1 or -1")
    roots = float_roots(seed)
    spec = seed.spec
    c, l = spec.omega_sq_const, spec.omega_sq_lin
    t = branch * conj_branch
    A, B, C = seed.A, seed.B, seed.C
    state = A.p, A.q, B.p, B.q, C.p, C.q, branch
    a = None
    for n in count():
        yield a, state
        a = _choose(spec, state, t, roots, n)
        a_p, a_q, b_p, b_q, c_p, c_q, s = state
        state = (*_step_pairs(c, l, a_p, a_q, b_p, b_q, c_p, c_q, *a), a_p, a_q, -s)


def _pair_state(spec: FieldSpec, state: PairTuple, t: int, index: int) -> PairState:
    """The `PairState` of an `_expansion` state whose run has the branch
    product t: xi' is sigma of xi's polynomial on branch t*s."""
    a_p, a_q, b_p, b_q, c_p, c_q, s = state
    a, b, c = _make(spec, a_p, a_q, 1), _make(spec, b_p, b_q, 1), _make(spec, c_p, c_q, 1)
    return PairState(QuotientState(_poly(a, b, c), s),
                     QuotientState(_poly(a.conj(), b.conj(), c.conj()), t * s), index)


def _pair_key(spec: FieldSpec, key: tuple[int, int, int, int], t: int) -> tuple:
    """The key of the states whose cycle key is `key` in a run with branch
    product t.  The key of a pair state p is the exact value-level pair
    (*p.xi.canonical_key, *p.xi_prime.canonical_key).

    An `_expansion` state (A, B, C, s) has the cycle key s*(A_p, A_q, B_p,
    B_q), the integers of `xi.canonical_key` = (s*A, s*B).  xi' is
    sigma(A, B, C) on branch t*s, so its canonical key is
    t*s*(sigma(A), sigma(B)) = t*sigma(s*A, s*B), and the key is
    (k1, k2, t*sigma(k1), t*sigma(k2)) for (k1, k2) the elements of the
    cycle key.  Integral elements have one triple each, so two states of a
    run have equal cycle keys exactly when they have equal keys: the cycle
    table keyed on integers closes where one keyed on the pairs would, at
    the same first visit.  sigma maps p + q*w to (p + l*q) - q*w.
    """
    a_p, a_q, b_p, b_q = key
    l = spec.omega_sq_lin
    return (_make(spec, a_p, a_q, 1), _make(spec, b_p, b_q, 1),
            _make(spec, t * (a_p + l * a_q), -t * a_q, 1),
            _make(spec, t * (b_p + l * b_q), -t * b_q, 1))


def pair_steps(
    seed: QuadraticPolyK, branch: int, conj_branch: int
) -> Iterator[tuple[KElement | None, PairState]]:
    """The pair states of the expansion of (seed, branch, conj_branch).

    Yields (a_{n-1}, state_n), with None in place of a_{-1}.  The quotient
    a_n is chosen only when the caller asks for state n+1, so a caller that
    stops at a repeated state pays for no candidate search there.  The seed
    is checked when the first state is asked for, before any state is built.
    Each state is built from the integers of `expand_pair`'s loop.
    """
    spec = seed.spec
    for n, (a, state) in enumerate(_expansion(seed, branch, conj_branch)):
        yield (None if a is None else _make(spec, a[0], a[1], 1),
               _pair_state(spec, state, branch * conj_branch, n))


def expand_pair(
    seed: QuadraticPolyK,
    branch: int,
    conj_branch: int,
    max_steps: int = 10_000,
) -> ExpansionResult:
    """Run the pair expansion until the exact state key repeats, or raise
    MaxStepsError past `max_steps` steps.

    Returns the pre-period and period, the visited state keys and the
    round-trip flag: `_expansion` admitted the seed, so the proportional
    test alone decides it.  The cycle table `seen`, keyed on the integers
    of each state's main track, is the one record of the visited states;
    `_pair_key` builds each state's key from it once, when the run ends.
    """
    if max_steps < 1:
        raise InputRuleError("max_steps must be >= 1")
    spec = seed.spec
    # Cycle key -> index of its first visit, in the order of the visits.
    seen: dict[tuple[int, int, int, int], int] = {}
    quotients: list[KElement] = []
    for n, (a, state) in enumerate(_expansion(seed, branch, conj_branch)):
        if a is not None:
            quotients.append(_make(spec, a[0], a[1], 1))
        if n > max_steps:
            break
        a_p, a_q, b_p, b_q, _, _, s = state
        key = (a_p, a_q, b_p, b_q) if s > 0 else (-a_p, -a_q, -b_p, -b_q)
        # The index of the state's first visit; n on a first visit.
        m = seen.setdefault(key, n)
        if m != n:
            break
    # `_expansion` has checked both branches.  `seen` holds states 0 to
    # n - 1 after a repeat at n, and 0 to max_steps at the cap.
    keys = [_pair_key(spec, k, branch * conj_branch) for k in seen]
    if n > max_steps:
        raise MaxStepsError(f"no state repetition within {max_steps} steps", quotients, keys)
    expansion = CFExpansion(spec, tuple(quotients[:m]), tuple(quotients[m:n]))
    return ExpansionResult(
        expansion=expansion,
        keys=tuple(keys),
        cycle_start=m,
        verified=_proportional_roundtrip(seed, expansion, branch, conj_branch),
        seed=seed,
        branch=branch,
        conj_branch=conj_branch,
    )


# Per side of the round trip: its name, the tail of its "evaluates into K"
# text and the root it must evaluate to.
_ROUNDTRIP_SIDES = (
    ("expansion", ", not to the quartic root", "the seed root"),
    ("sigma expansion", "", "the chosen conjugate root"),
)


def verify_roundtrip(r: ExpansionResult) -> RoundTrip:
    """Evaluate the expansion and its sigma image back to the seed pair."""
    # QuotientState checks only the branch; the values compare for any seed.
    sides = (
        (r.expansion, QuotientState(r.seed, r.branch)),
        (r.expansion.sigma(), QuotientState(r.seed.sigma(), r.conj_branch)),
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


def _selected_branch(d: int, forms: list[tuple[int, int]], sigma: int) -> int:
    """The branch of the seed root that `eval_periodic` selects for a
    matrix E = lambda*(seed), from the forms (u, v) of u + v*sqrt(d) of A,
    E21 = lambda*A and tr(E); 0 when the selection cannot be decided this
    way.  sigma = -1 selects on the sigma side, whose forms are (u, -v).

    The root of E's associated polynomial with the positive square root of
    its discriminant lambda^2*delta is the seed root on branch sign(lambda),
    and `eval_periodic` keeps it exactly when tr(E) > 0 (its docstring
    proves the rule).
    """
    return prod(_root_sign(u, sigma * v, d) for u, v in forms)


def _proportional_roundtrip(
    seed: QuadraticPolyK, expansion: CFExpansion, branch: int, conj_branch: int
) -> bool:
    """Whether both sides of the round trip hold, decided from the
    quotients and the seed alone.  The caller has admitted the seed
    (`classify_seed` returned None); the test is complete only then.

    For an admissible seed (A, B, C), the minimal polynomial of its root
    over K is the seed itself, so the expansion can evaluate to that root
    only if E's associated polynomial is lambda*(A, B, C) with lambda != 0.
    Its discriminant lambda^2*delta is then not a square in K, so
    `eval_periodic` takes its surd branch, whose one decision is the root
    selection by sign(tr E); its docstring proves the rule, and that the
    branch needs no window scan.  The identity-multiple, double-root,
    linear and K-root branches need a zero E21 or a square discriminant.
    sigma is a ring automorphism of K and e_matrix has no division, so the
    sigma image's E is the entrywise conjugate of E, proportional to the
    conjugate seed, whose discriminant sigma(delta) admission also made
    positive and not a square.
    """
    e11_p, e11_q, e12_p, e12_q, e21_p, e21_q, e22_p, e22_q = _e_pairs(expansion)
    spec, a = seed.spec, seed.A
    # E and the seed are integral: the products run on their integer pairs.
    c, l = spec.omega_sq_const, spec.omega_sq_lin
    if (not e21_p and not e21_q
            or _int_mul(c, l, e21_p, e21_q, seed.B.p, seed.B.q)
            != _int_mul(c, l, e22_p - e11_p, e22_q - e11_q, a.p, a.q)
            or _int_mul(c, l, e21_p, e21_q, -seed.C.p, -seed.C.q)
            != _int_mul(c, l, e12_p, e12_q, a.p, a.q)):
        return False
    # The forms over sqrt(d) of A, E21 and tr(E); 2*(p + q*w) = (2p + q) + q*sqrt(d)
    # when w = (1 + sqrt(d))/2, and a positive factor keeps the sign.
    pairs = ((a.p, a.q), (e21_p, e21_q), (e11_p + e22_p, e11_q + e22_q))
    forms = [(2 * p + q, q) if spec.omega_is_half else (p, q) for p, q in pairs]
    return (
        _selected_branch(spec.d, forms, 1) == branch
        and _selected_branch(spec.d, forms, -1) == conj_branch
    )


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
