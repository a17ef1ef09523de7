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

_NUMBER = re.compile(r"(?P<numeral>(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?)")
# One term of a K-element: its sign with the space after it, then a numeral
# with an optional `*w`, or a bare `w`.  Every part is optional, so a match
# always succeeds, and `parse_k` reads a malformed term from its groups.
_TERM = re.compile(
    rf"\s*(?P<sign>[+-]?\s*)(?:{_NUMBER.pattern}\s*(?P<star>\*\s*(?P<w>[wW])?)?|(?P<bare_w>[wW]))?\s*"
)


class ParseError(ValueError):
    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _number(m: re.Match) -> int | Fraction:
    """The rational that the numeral of an `_NUMBER` or `_TERM` match
    spells, an `int` when it has no `/`; `p/0` is a parse error."""
    if m["den"] is None:
        return int(m["num"])
    try:
        return Fraction(int(m["num"]), int(m["den"]))
    except ZeroDivisionError:
        raise ParseError(f"zero denominator in {m['numeral']!r}", m.start("numeral")) from None


def parse_rational(text: str) -> Fraction:
    m = _NUMBER.fullmatch(text.strip())
    if not m:
        raise ParseError(f"bad rational {text!r}", 0)
    return Fraction(_number(m))


def parse_k(text: str, spec: FieldSpec, require_integral: bool = False) -> KElement:
    if not text.strip():
        raise ParseError("empty element", len(text))
    a = b = pos = 0
    while pos < len(text):
        t = _TERM.match(text, pos)
        # Only the first term, the one read at position 0, may omit its sign.
        if pos and not t["sign"]:
            raise ParseError("expected '+' or '-' between terms", t.start("sign"))
        if t["numeral"] is None and t["bare_w"] is None:
            raise ParseError("expected a number or 'w'", t.end("sign"))
        q = (-1 if t["sign"][:1] == "-" else 1) * (1 if t["bare_w"] else _number(t))
        if t["star"] and not t["w"]:
            raise ParseError("expected 'w' after '*'", t.end("star"))
        if t["star"] or t["bare_w"]:
            b += q
        else:
            a += q
        pos = t.end()
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
