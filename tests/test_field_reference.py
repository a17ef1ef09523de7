"""Differential test of `KElement` against the frozen Fraction-backed
reference in `fraction_k.py`: every operation on random operands, integral
and not, over D = 5, 2 and 13, must give the same value, string and hash,
and `is_square_in_k` must find the root the Fraction version finds."""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from fraction_k import RefK, ref_is_square  # noqa: E402
from okcf.field import FieldSpec, KElement, is_square_in_k  # noqa: E402

SPECS = {d: FieldSpec(d) for d in (5, 2, 13)}

coordinate = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**80), 2**80),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(2**70), 2**70), st.integers(1, 2**40)),
)
scalar = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
)


@st.composite
def operands(draw):
    d = draw(st.sampled_from(sorted(SPECS)))
    pairs = [(draw(coordinate), draw(coordinate)) for _ in range(2)]
    # A rational or zero operand now and then, to reach the b = 0 paths.
    if draw(st.booleans()):
        pairs[1] = (pairs[1][0], 0)
    if draw(st.integers(0, 9)) == 0:
        pairs[1] = (0, 0)
    spec = SPECS[d]
    ks = [spec.element(a, b) for a, b in pairs]
    refs = [RefK(d, a, b) for a, b in pairs]
    return ks, refs, draw(scalar), draw(st.integers(-3, 5))


def agree(k: KElement, r: RefK) -> None:
    """k and r are the same element, seen through every public reading."""
    assert type(k.p) is type(k.q) is type(k.den) is int
    assert k.den > 0 and gcd(k.p, k.q, k.den) == 1
    assert (k.a, k.b) == (r.a, r.b)
    assert str(k) == str(r)
    assert hash(k) == hash(r)
    assert (k == r.a) == (r == r.a)
    if r.a.denominator == 1:
        assert (k == int(r.a)) == (r == int(r.a))
    assert (k.is_zero, k.is_rational, k.is_integral) == (r.is_zero, r.is_rational, r.is_integral)


def both(op, *args):
    """op on the package's operands and the reference's, or the error both raise."""
    try:
        return op(*args[::2]), op(*args[1::2])
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            op(*args[1::2])
        return None


@settings(derandomize=True, max_examples=400, deadline=None)
@given(operands())
def test_matches_fraction_reference(case):
    (x, y), (rx, ry), s, n = case
    agree(x, rx)
    agree(y, ry)
    binary = [
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u / v,
    ]
    for op in binary:
        for args in ((x, rx, y, ry), (y, ry, x, rx), (x, rx, s, s), (s, s, x, rx)):
            pair = both(op, *args)
            if pair is not None:
                agree(*pair)
    unary = [
        lambda u: -u,
        lambda u: u.conj(),
        lambda u: u ** n,
    ]
    for op in unary:
        for k, r in ((x, rx), (y, ry)):
            pair = both(op, k, r)
            if pair is not None:
                agree(*pair)
    for k, r in ((x, rx), (y, ry)):
        assert k.norm() == r.norm() and type(k.norm()) is Fraction
        assert k.trace() == r.trace() and type(k.trace()) is Fraction
    assert (x == y) == (rx == ry)
    assert (x == s) == (rx == s)
    assert (y == s) == (ry == s)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SPECS)), st.sampled_from(sorted(SPECS)), scalar, coordinate)
def test_equality_across_fields(d1, d2, a, b):
    # Elements of different fields are equal exactly when both are the same
    # rational; equal elements hash alike.
    x, y = SPECS[d1].element(a), SPECS[d2].element(a, b)
    assert (x == y) == (RefK(d1, a, 0) == RefK(d2, a, b))
    if x == y:
        assert hash(x) == hash(y)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.sampled_from(sorted(SPECS)), coordinate, coordinate, st.booleans(),
       st.sampled_from(("square", "negated", "scaled", "raw")), st.integers(2, 13))
def test_is_square_in_k_matches_fraction_reference(d, a, b, rational, kind, k):
    # Squares, their negatives, squares times 2..13 (times d among them,
    # which is a square exactly when the root is rational) and raw elements.
    if rational:
        b = 0
    y, ry = SPECS[d].element(a, b), RefK(d, a, b)
    x, rx = {
        "square": (y * y, ry * ry),
        "negated": (-(y * y), -(ry * ry)),
        "scaled": (y * y * k, ry * ry * k),
        "raw": (y, ry),
    }[kind]
    root, ref_root = is_square_in_k(x), ref_is_square(rx)
    if ref_root is None:
        assert root is None
    else:
        agree(root, ref_root)
    if kind == "square":
        assert ref_root is not None


def test_mismatched_specs_raise():
    x, y = SPECS[5].element(1, 1), SPECS[2].element(1, 1)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(ValueError, match="mismatched field specs"):
            op()


def test_immutable_without_dict():
    x = SPECS[5].element(Fraction(1, 2), 3)
    assert not hasattr(x, "__dict__")
    for name in ("p", "q", "den", "spec", "a", "extra"):
        with pytest.raises(AttributeError):
            setattr(x, name, 1)
    with pytest.raises(AttributeError):
        del x.p
    assert (x.p, x.q, x.den) == (1, 6, 2)


def test_pickle_and_copy_round_trip():
    # Setting attributes raises, so copying must rebuild from the triple.
    x = SPECS[13].element(Fraction(-5, 6), Fraction(7, 4))
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
        assert y == x and hash(y) == hash(x) and str(y) == str(x)
