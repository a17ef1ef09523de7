"""`okcf analyze --output json` prints exactly what `json.dumps(..., indent=2)`
prints for the document it holds.

The writer lays the document out field by field, so the check is the
round trip: load the output and dump it again with `indent=2`.  Floats
print by `float.__repr__` in both, and loading one back gives the same
float, so any difference is one of layout.  Covered: seeded random seeds
and quotients, with sigma(delta) real and complex (a null
`sup_Q_S_sigma`), through the CLI at --precision 16 and 64, and through
the writer itself at 1 bit, below the CLI's floor of 16.
"""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest

from conftest import random_k
from okcf.cli import _analyze_json, main
from okcf.field import FieldSpec, is_square_in_k, sign_of
from okcf.quartic import QuadraticPolyK, diagnostics, summarize

STEPS = 6


def dumped_again(out: str) -> str:
    return json.dumps(json.loads(out), indent=2) + "\n"


def random_cases(seed: int, count: int) -> list[tuple[QuadraticPolyK, list]]:
    """Seeds with delta > 0 non-square, with STEPS + 1 nonzero quotients."""
    spec = FieldSpec(5)
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        a, b, c = (random_k(rng, spec, bound=4) for _ in range(3))
        if a.is_zero:
            continue
        poly = QuadraticPolyK(a, b, c)
        delta = poly.delta
        if sign_of(delta) <= 0 or sign_of(delta.conj()) == 0 or is_square_in_k(delta):
            continue
        quotients = [random_k(rng, spec, bound=3, nonzero=True) for _ in range(STEPS + 1)]
        cases.append((poly, quotients))
    return cases


CASES = random_cases(2301, 12)


def analyze_json(poly: QuadraticPolyK, quotients: list, precision: int) -> tuple[int, str]:
    argv = ["analyze", str(poly.A), str(poly.B), str(poly.C), "-n", str(STEPS),
            "--quotients=" + ",".join(map(str, quotients)), "--output", "json",
            "--precision", str(precision)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def test_cases_have_real_and_complex_sigma_delta():
    signs = {sign_of(poly.delta.conj()) for poly, _ in CASES}
    assert signs == {1, -1}


@pytest.mark.parametrize("precision", [16, 64])
def test_cli_output_is_json_dumps_with_indent_2(precision):
    nulls = set()
    for poly, quotients in CASES:
        code, out = analyze_json(poly, quotients, precision)
        assert code == 0, (poly, quotients)
        assert out == dumped_again(out), (poly, quotients)
        nulls.add(json.loads(out)["summary"]["sup_Q_S_sigma"] is None)
    assert nulls == {False, True}


def test_writer_at_one_bit_is_json_dumps_with_indent_2():
    for poly, quotients in CASES:
        rows = diagnostics(poly, 1, quotients, 1)
        out = _analyze_json(poly, rows, summarize(rows, 1)) + "\n"
        assert out == dumped_again(out), (poly, quotients)
