"""`parse_k` against the character scanner it replaced, kept here verbatim
as the oracle: on every string both give the same element, or the same
`ParseError` text and position, or the same exception type and text.

The strings are drawn on a fixed seed: characters from an alphabet that
holds the syntax, stray `*`, `/` and letters, and Unicode decimal digits
and spaces; and well-formed elements with whitespace put in and one
character inserted, deleted or replaced.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest

from okcf.field import FieldSpec, KElement
from okcf.parsing import ParseError, parse_k

# The scanner, its numeral pattern and its numeral reader, as they were.
_NUMBER = re.compile(r"(\d+)(?:\s*/\s*(\d+))?")


def _number(m: re.Match) -> int | Fraction:
    """The rational that an `_NUMBER` match spells, an `int` when it has no
    `/`; `p/0` is a parse error."""
    if m[2] is None:
        return int(m[1])
    try:
        return Fraction(int(m[1]), int(m[2]))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {m.group()!r}", m.start()) from None


def scanner_parse_k(text: str, spec: FieldSpec, require_integral: bool = False) -> KElement:
    pos = 0
    n = len(text)

    def skip_ws() -> None:
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    a = b = 0
    first = True
    skip_ws()
    if pos == n:
        raise ParseError("empty element", pos)
    while True:
        skip_ws()
        if pos == n:
            break
        sign = 1
        if text[pos] in "+-":
            sign = -1 if text[pos] == "-" else 1
            pos += 1
            skip_ws()
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        m = _NUMBER.match(text, pos)
        if m:
            q = _number(m)
            pos = m.end()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
                skip_ws()
                if pos < n and text[pos] in "wW":
                    pos += 1
                    b += sign * q
                else:
                    raise ParseError("expected 'w' after '*'", pos)
            else:
                a += sign * q
        elif pos < n and text[pos] in "wW":
            pos += 1
            b += sign
        else:
            raise ParseError("expected a number or 'w'", pos)
        first = False
    element = spec.element(a, b)
    if require_integral and not element.is_integral:
        raise ParseError(f"element {element} is not integral in O_K")
    return element


DIGITS = "0123456789\u0661\uff13\u096a\u0660"
SPACES = " \t\n\x85\x1c\u2003\u00a0"
ALPHABET = DIGITS + SPACES + "wW+-*/x()." + "0123456789w+-*/ "


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12)))


def structured_text(rng: random.Random) -> str:
    """A well-formed element with whitespace around its tokens, then with
    one character inserted, deleted or replaced half of the time."""
    def ws() -> str:
        return "".join(rng.choice(SPACES) for _ in range(rng.choice((0, 0, 0, 1, 2))))

    def numeral() -> str:
        num = "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.3:
            num += ws() + "/" + ws() + "".join(rng.choice(DIGITS) for _ in range(rng.randint(1, 2)))
        return num

    terms = []
    for i in range(rng.randint(1, 4)):
        sign = rng.choice("+-") if i or rng.random() < 0.4 else ""
        body = rng.choice((numeral(), numeral() + ws() + "*" + ws() + rng.choice("wW"), "w"))
        terms.append(ws() + sign + ws() + body + ws())
    text = "".join(terms)
    if rng.random() < 0.5:
        i = rng.randint(0, len(text))
        edit = rng.choice(("insert", "delete", "replace"))
        char = rng.choice("*/+-w ")
        text = {"insert": text[:i] + char + text[i:], "delete": text[:i] + text[i + 1:],
                "replace": text[:i] + char + text[i + 1:]}[edit]
    return text


def outcome(parse, text: str, spec: FieldSpec, require_integral: bool) -> tuple:
    try:
        x = parse(text, spec, require_integral)
    except ParseError as exc:
        return "ParseError", str(exc), exc.position
    except Exception as exc:  # the ValueError of an overlong numeral
        return type(exc).__name__, str(exc)
    return "value", x.p, x.q, x.den


FIXED = ["", "   ", "w*w", "3*", "3 4", "3 *", "3* x", "1/0*", "1/0 3", "3 1/0", "3 /",
         "+", "- ", "--1", "+-w", "w w", "2*ww", "-\x85w", "\u0661/\u0660", "1" * 5000,
         "2+1/" + "2" * 5000, "3" * 4400 + "/" + "5" * 4500 + "*w"]


def kind(result: tuple) -> str:
    """The exception type, or the ParseError text without its particulars."""
    if result[0] != "ParseError":
        return result[0]
    return re.match(r"empty element|zero denominator|expected [^(]*|element", result[1])[0].strip()


@pytest.mark.parametrize("d", [5, 2])
def test_matches_the_scanner_on_random_strings(d):
    spec = FieldSpec(d)
    rng = random.Random(25000 + d)
    texts = FIXED + [random_text(rng) for _ in range(10_000)]
    texts += [structured_text(rng) for _ in range(10_000)]
    kinds = set()
    for text in texts:
        integral = rng.random() < 0.25
        want = outcome(scanner_parse_k, text, spec, integral)
        assert outcome(parse_k, text, spec, integral) == want, text
        kinds.add(kind(want))
    # Every outcome of the scanner is reached: an element, each error text
    # (a non-integral element's too) and an overlong numeral.
    assert kinds == {"value", "ValueError", "empty element", "zero denominator",
                     "expected '+' or '-' between terms", "expected a number or 'w'",
                     "expected 'w' after '*'", "element"}
