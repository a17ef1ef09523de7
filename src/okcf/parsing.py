"""Text syntax for field elements and continued fraction expansions.

Rationals are written `p` or `p/q`; K-elements combine rational terms and
`w`-terms, e.g. `4-2*w`, `1/2+1/2*w`, `w`; surds are
`(kx) + (ky)*sqrt(kd)` with each parenthesized part a K-element.
Expansions are `[a0, ..., aN; p1, ..., pk]` with `;` separating the
pre-period from the period.  Whitespace is ignored everywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .field import FieldSpec, KElement, SurdElement

_NUMBER = re.compile(r"(\d+)(?:\s*/\s*(\d+))?")


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _number(m: re.Match) -> int | Fraction:
    """The rational that an `_NUMBER` match spells, an `int` when it has no
    `/`; `p/0` is a parse error."""
    if m[2] is None:
        return int(m[1])
    try:
        return Fraction(int(m[1]), int(m[2]))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {m.group()!r}", m.start()) from None


def parse_rational(text: str) -> Fraction:
    m = _NUMBER.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad rational {text!r}", 0)
    return Fraction(_number(m))


def parse_k(text: str, spec: FieldSpec, require_integral: bool = False) -> KElement:
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


def _matching_paren(text: str, start: int) -> int:
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise ParseError("unbalanced parentheses", start)


def parse_surd(text: str, spec: FieldSpec) -> SurdElement:
    s = text.strip()
    if not s.startswith("("):
        raise ParseError("surd must start with '('", 0)
    i = _matching_paren(s, 0)
    x = parse_k(s[1:i], spec)
    rest = s[i + 1 :].strip()
    if not rest:
        raise ParseError("missing '*sqrt(...)' part", i + 1)
    if rest[0] not in "+-":
        raise ParseError("expected '+' or '-' after first component", i + 1)
    negate = rest[0] == "-"
    rest = rest[1:].strip()
    if not rest.startswith("("):
        raise ParseError("expected parenthesized coefficient", 0)
    j = _matching_paren(rest, 0)
    y = parse_k(rest[1:j], spec)
    if negate:
        y = -y
    tail = rest[j + 1 :].strip()
    m = re.fullmatch(r"\*\s*sqrt\s*\((.*)\)", tail, re.DOTALL)
    if not m:
        raise ParseError("expected '*sqrt(<element>)'", 0)
    delta = parse_k(m.group(1), spec)
    return SurdElement(spec, delta, x, y)


def parse_element_list(text: str, spec: FieldSpec, require_integral: bool = False) -> list[KElement]:
    body = text.strip()
    if not body:
        return []
    return [parse_k(part, spec, require_integral) for part in body.split(",")]


def parse_expansion(text: str, spec: FieldSpec):
    from .cf import CFExpansion

    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ParseError("expansion must be bracketed as [pre; period]", 0)
    body = s[1:-1]
    if ";" in body:
        pre_text, per_text = body.split(";", 1)
    else:
        pre_text, per_text = body, ""
    pre = parse_element_list(pre_text, spec, require_integral=True)
    per = parse_element_list(per_text, spec, require_integral=True)
    return CFExpansion(spec, tuple(pre), tuple(per))
