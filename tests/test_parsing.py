from __future__ import annotations

import re
from fractions import Fraction

import pytest

from okcf.field import SurdElement
from okcf.parsing import (
    ParseError,
    parse_element_list,
    parse_expansion,
    parse_k,
    parse_rational,
    parse_surd,
)
from conftest import random_k


def test_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("  7 ") == 7
    # Integer literals are read as ints inside parse_k, never here.
    assert type(parse_rational("7")) is Fraction
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
    u = parse_surd("(1) - (2)*sqrt(3)", k5)
    assert u.x == 1 and u.y == -2 and u.delta == 3


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("  1 + (1)*sqrt(2)", "surd must start with '('", 2),
        ("(1)  ", "missing '*sqrt(...)' part", 3),
        (" (1 + (1)*sqrt(2)", "unbalanced parentheses", 1),
    ],
)
def test_surd_errors_name_their_fault(k5, text, message, position):
    with pytest.raises(ParseError) as err:
        parse_surd(text, k5)
    assert str(err.value) == f"{message} (at position {position})"


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


def _reference_number(text: str) -> Fraction:
    """A numeral read as one string, whitespace removed, by `Fraction`."""
    return Fraction(re.sub(r"\s", "", text))


# Spaces around '/', leading zeros, and Unicode decimal digits (Arabic-Indic,
# fullwidth, Devanagari), which both `\d` and `int` accept.
NUMERALS = ["7", "3/4", "3 / 4", "3\t/\u20034", "0007", "007/0012", "0/5", "000",
            "\u0661\u0662", "\uff13/\uff14", "\u0967\u0966 / \u0966\u0966\u096a", "12/\u0668"]


@pytest.mark.parametrize("text", NUMERALS)
def test_numbers_read_from_their_digit_groups(k5, text):
    value = _reference_number(text)
    assert parse_rational(f" {text} ") == value
    assert parse_k(text, k5) == k5.element(value)
    assert parse_k(f"1 - {text}*w", k5) == k5.element(1, -value)


def test_zero_denominator_text_and_position(k5):
    with pytest.raises(ParseError) as err:
        parse_k("2+3 / 0*w", k5)
    assert err.value.position == 2
    assert str(err.value) == "zero denominator in '3 / 0' (at position 2)"
    with pytest.raises(ParseError) as err:
        parse_rational(" 0012/000 ")
    assert err.value.position == 0
    assert str(err.value) == "zero denominator in '0012/000' (at position 0)"


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "2" * 5000, "3" * 4400 + "/" + "5" * 4500])
def test_overlong_numeral_raises_as_fraction_does(k5, text):
    with pytest.raises(ValueError) as expected:
        _reference_number(text)
    for parse in (parse_rational, lambda t: parse_k(t, k5)):
        with pytest.raises(ValueError) as err:
            parse(text)
        assert type(err.value) is type(expected.value)
        assert str(err.value) == str(expected.value)


# A fault inside an element of a list, an expansion or a surd is reported
# at its index in the whole argument, not in the element's own slice.
POSITIONED = [
    (parse_element_list, "1,2,3 4", 6),
    (parse_element_list, " 1 , 2 ,, 3", 8),
    (parse_expansion, "[1; 2, 3 4]", 9),
    (parse_expansion, "  [1, 3*; 2]", 8),
    (parse_surd, "(1) + 2", 6),
    (parse_surd, " (1) + (1)*sqrt(2 w)", 18),
    (parse_surd, "(1 2) + (1)*sqrt(2)", 3),
    (parse_surd, "(1) + (3*)*sqrt(2)", 9),
    (parse_surd, "(1) + (1) sqrt(2)", 9),
    (parse_surd, "(1) 1", 4),
]


@pytest.mark.parametrize("parse, text, position", POSITIONED, ids=[t for _, t, _ in POSITIONED])
def test_errors_inside_a_slice_point_into_the_argument(k5, parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text, k5)
    assert err.value.position == position
    assert str(err.value).endswith(f" (at position {position})")
