from __future__ import annotations

from fractions import Fraction

import pytest

from okcf.field import SurdElement
from okcf.parsing import ParseError, parse_expansion, parse_k, parse_rational, parse_surd
from conftest import random_k


def test_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("  7 ") == 7
    with pytest.raises(ParseError):
        parse_rational("x")


def test_k_elements(k5):
    assert parse_k("4-2*w", k5) == k5.element(4, -2)
    assert parse_k("1/2+1/2*w", k5) == k5.element(Fraction(1, 2), Fraction(1, 2))
    assert parse_k("w", k5) == k5.omega
    assert parse_k("-w", k5) == -k5.omega
    assert parse_k("2*w", k5) == k5.element(0, 2)
    assert parse_k(" 4 - 2 * w ", k5) == k5.element(4, -2)
    assert parse_k("1+1*w-2", k5) == k5.element(-1, 1)


def test_k_errors(k5):
    with pytest.raises(ParseError) as err:
        parse_k("w*w", k5)
    assert err.value.position == 1
    with pytest.raises(ParseError):
        parse_k("", k5)
    with pytest.raises(ParseError):
        parse_k("3*", k5)
    with pytest.raises(ParseError):
        parse_k("3 4", k5)


def test_integrality_flag(k5):
    parse_k("1/2+1/2*w", k5)  # fine without the requirement
    with pytest.raises(ParseError):
        parse_k("1/2+1/2*w", k5, require_integral=True)


def test_surd_round_trip(k5):
    s = SurdElement(k5, k5.element(8, 4), k5.one, k5.element(Fraction(-1, 2)))
    assert parse_surd(str(s), k5) == s
    t = parse_surd("(1) + (1)*sqrt(2+1*w)", k5)
    assert t.x == 1 and t.y == 1 and t.delta == k5.element(2, 1)


def test_expansion_forms(k5):
    e = parse_expansion("[1; 2]", k5)
    assert e.preperiod == (k5.one,) and e.period == (k5.element(2),)
    e2 = parse_expansion("[; 1, -1]", k5)
    assert e2.preperiod == () and len(e2.period) == 2
    e3 = parse_expansion("[; 2, 4-2*w]", k5)
    assert e3.period[1] == k5.element(4, -2)
    with pytest.raises(ParseError):
        parse_expansion("1; 2", k5)
    with pytest.raises(ParseError):
        parse_expansion("[1/2; 2]", k5)  # non-integral entry


def test_k_round_trip_randomized(k5, rng):
    for _ in range(300):
        x = random_k(rng, k5, integral=False)
        assert parse_k(str(x), k5) == x


def test_expansion_round_trip(k5, rng):
    from okcf.cf import CFExpansion

    for _ in range(100):
        pre = tuple(random_k(rng, k5) for _ in range(rng.randint(0, 3)))
        per = tuple(random_k(rng, k5) for _ in range(rng.randint(1, 4)))
        e = CFExpansion(k5, pre, per)
        assert parse_expansion(str(e), k5) == e


def test_zero_denominator_is_parse_error(k5):
    for text in ("1/0", " 3 / 0 "):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_rational(text)
    for text in ("1/0", "2+3/0*w", "0/0*w"):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_k(text, k5)
    with pytest.raises(ParseError, match="zero denominator"):
        parse_expansion("[; 1/0]", k5)
