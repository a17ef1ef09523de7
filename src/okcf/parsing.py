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

from .cf import CFExpansion
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
    return _parse_k(text, 0, len(text), spec, require_integral)


def _parse_k(text: str, start: int, end: int, spec: FieldSpec,
             require_integral: bool = False) -> KElement:
    """`parse_k` of text[start:end], each error's position an index into `text`."""
    if not text[start:end].strip():
        raise ParseError("empty element", end)
    a = b = 0
    pos = start
    while pos < end:
        t = _TERM.match(text, pos, end)
        # Only the first term, the one read at `start`, may omit its sign.
        if pos > start and not t["sign"]:
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
    # Positions index `text`; its leading and trailing space is skipped.
    start, end = len(text) - len(text.lstrip()), len(text.rstrip())
    if not text.startswith("(", start):
        raise ParseError("surd must start with '('", start)
    i = _matching_paren(text, start)
    x = _parse_k(text, start + 1, i, spec)
    k = end - len(text[i + 1 : end].lstrip())
    if k == end:
        raise ParseError("missing '*sqrt(...)' part", i + 1)
    if text[k] not in "+-":
        raise ParseError("expected '+' or '-' after first component", k)
    negate = text[k] == "-"
    k = end - len(text[k + 1 : end].lstrip())
    if not text.startswith("(", k, end):
        raise ParseError("expected parenthesized coefficient", k)
    j = _matching_paren(text, k)
    y = _parse_k(text, k + 1, j, spec)
    if negate:
        y = -y
    m = re.compile(r"\s*\*\s*sqrt\s*\((.*)\)", re.DOTALL).fullmatch(text, j + 1, end)
    if not m:
        raise ParseError("expected '*sqrt(<element>)'", j + 1)
    delta = _parse_k(text, m.start(1), m.end(1), spec)
    return SurdElement(spec, delta, x, y)


def parse_element_list(text: str, spec: FieldSpec, require_integral: bool = False) -> list[KElement]:
    return _parse_list(text, 0, len(text), spec, require_integral)


def _parse_list(text: str, start: int, end: int, spec: FieldSpec,
                require_integral: bool) -> list[KElement]:
    """`parse_element_list` of text[start:end], with positions into `text`."""
    if not text[start:end].strip():
        return []
    elements = []
    for part in text[start:end].split(","):
        elements.append(_parse_k(text, start, start + len(part), spec, require_integral))
        start += len(part) + 1
    return elements


def parse_expansion(text: str, spec: FieldSpec) -> CFExpansion:
    start, end = len(text) - len(text.lstrip()), len(text.rstrip())
    if not (text.startswith("[", start) and text.endswith("]", start, end)):
        raise ParseError("expansion must be bracketed as [pre; period]", 0)
    # The body text[start + 1 : end - 1], split at its first ';'.
    semi = text.find(";", start + 1, end - 1)
    if semi < 0:
        semi = end - 1
    pre = _parse_list(text, start + 1, semi, spec, require_integral=True)
    per = _parse_list(text, semi + 1, end - 1, spec, require_integral=True)
    return CFExpansion(spec, tuple(pre), tuple(per))
