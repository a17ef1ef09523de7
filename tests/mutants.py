"""A catalogue of planted faults that the named tests must catch.

    python tests/mutants.py

Each entry is (name, file under src/, exact old text, new text, tests,
applies), where `applies` is False on a Python whose code path the fault
cannot reach.  The script first checks every anchor: an old text that
occurs zero times or more than once in its file is an error in the
catalogue, and the script exits 2 before running anything.  It then
copies src/, tests/ and pyproject.toml to a temporary directory, runs the
union of the applicable entries' tests there once unmutated (they must
pass, or the script exits 2), and for each applicable entry applies its
one edit to a fresh copy and runs its tests, on min(2, cpu count) entries
at a time.  A mutant counts as killed only if those tests fail (pytest
exit code 1) or time out.  The script prints one line per mutant in
catalogue order, an entry that does not apply as "not applicable", then
killed/total over the applicable entries and the wall time, and exits 1
if any of them survives.  It needs only the standard library and pytest
(plus what the named tests import); pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# Entries run side by side, each pytest in its own copy.
WORKERS = min(2, os.cpu_count() or 1)


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]
    applies: bool = True


# cli.main lifts and restores Python's int <-> str cap only where the
# interpreter has one (3.10.7 and later).
HAS_INT_STR_CAP = hasattr(sys, "get_int_max_str_digits")


ROUNDTRIP_TESTS = ("tests/test_roundtrip.py",)
CONJUGATE_TRACK_TEST = "tests/test_conjugate_track.py"
EXPAND_PAIR_ROUNDTRIP_TEST = (
    "tests/test_roundtrip.py::test_expand_pair_admits_once_and_decides_by_proportionality"
)
TRACE_TEST = "tests/test_identities.py::test_trace_rule_matches_the_squared_rule"
ROOT_TABLE_TEST = "tests/test_root_table.py"
ROW_VIEWS_TEST = "tests/test_quartic.py::TestRowViews"
INTEGRAL_RECURRENCE_TEST = "tests/test_cf.py::TestIntegralRecurrence"
E_MATRIX_REFERENCE_TEST = "tests/test_cf.py::TestEMatrix::test_matches_fraction_reference"
WEIL_SKIP_TEST = "tests/test_weil_skip.py"
EMBED_KERNEL_TEST = "tests/test_embed_kernel.py"
EMBED_LEVELS_TEST = "tests/test_embed_levels.py"
FLOAT_OPS_TEST = "tests/test_float_ops.py"
ERROR_FORMS_TEST = "tests/test_form_kernel.py::test_error_term_forms_match_surd_arithmetic"
LARGE_BOUND_TEST = "tests/test_float_filter.py::test_forced_exact_path_agrees_at_large_bounds"
K_SYNTAX_TEST = "tests/test_parsing.py::test_k_elements"
K_ERRORS_TEST = "tests/test_parsing.py::test_k_errors"
SCANNER_TEST = "tests/test_parse_k_scanner.py"
SLICE_POSITIONS_TEST = "tests/test_parsing.py::test_errors_inside_a_slice_point_into_the_argument"
ROOT_COUNT_TEST = "tests/test_root_table.py::test_each_discriminant_is_tested_for_a_root_in_k_once"
SUMMARY_OVERFLOW_TEST = "tests/test_cli.py::TestAnalyze::test_summary_selects_before_it_converts"
GROWTH_LAW_TEST = "tests/test_growth_law.py"
STRAIGHT_LINE_TEST = "tests/test_filter_straight_line.py"
INT_MUL_COMPOSITION_TEST = "tests/test_quartic_formulas.py::test_inline_products_match_the_int_mul_composition"
FLOAT_RANGE_TEST = "tests/test_cli.py::TestAnalyze::test_a_row_past_the_float_range_is_a_rejection"
ONE_WRITER_TEST = "tests/test_cli.py::test_a_success_writes_stdout_once"
ANALYZE_NO_VALUE_TEST = "tests/test_cli.py::TestAnalyze::test_an_input_without_a_quartic_value"
CLI_FLAGS_TESTS = (
    "tests/test_cli.py::test_each_command_declares_only_the_flags_it_reads",
    "tests/test_cli.py::test_unread_flag_is_usage_error",
)

CATALOGUE = (
    Mutant(
        "eval_periodic keeps the other root",
        "okcf/cf.py",
        "inv2a if t > 0 else -inv2a",
        "inv2a if t < 0 else -inv2a",
        (TRACE_TEST,),
    ),
    Mutant(
        "eval_periodic flips the sign of the K root",
        "okcf/cf.py",
        "value_in_k = (-cb + t * root) / (2 * ca)",
        "value_in_k = (-cb - t * root) / (2 * ca)",
        (TRACE_TEST,),
    ),
    Mutant(
        "eval_periodic skips the window scan on every branch",
        "okcf/cf.py",
        "        if m.e21.is_zero and sign_of(m.e22 * m.e22 - 1) > 0:\n",
        "        if False:\n",
        (TRACE_TEST,),
    ),
    Mutant(
        "the expansion loop runs the other conjugate branch",
        "okcf/golden.py",
        "    t = branch * conj_branch\n    A, B, C = seed.A, seed.B, seed.C\n",
        "    t = -branch * conj_branch\n    A, B, C = seed.A, seed.B, seed.C\n",
        ("tests/test_golden.py",),
    ),
    Mutant(
        "the conjugate track's branch takes s in place of t*s",
        "okcf/golden.py",
        "    xip = _xi_enclosure(a_p + a_q, -a_q, b_p + b_q, -b_q, t * s, roots[1])\n",
        "    xip = _xi_enclosure(a_p + a_q, -a_q, b_p + b_q, -b_q, s, roots[1])\n",
        (CONJUGATE_TRACK_TEST, "tests/test_golden.py::TestExpandPair::test_example_both_branches"),
    ),
    Mutant(
        "the expansion loop keeps the branch",
        "okcf/golden.py",
        "c_p, c_q, *a), a_p, a_q, -s)\n",
        "c_p, c_q, *a), a_p, a_q, s)\n",
        (CONJUGATE_TRACK_TEST,),
    ),
    Mutant(
        "the cycle key drops its sign fold",
        "okcf/golden.py",
        "        key = (a_p, a_q, b_p, b_q) if s > 0 else (-a_p, -a_q, -b_p, -b_q)\n",
        "        key = (a_p, a_q, b_p, b_q)\n",
        (CONJUGATE_TRACK_TEST,),
    ),
    Mutant(
        "the keys' conjugate half drops t",
        "okcf/golden.py",
        "            _make(spec, t * (a_p + l * a_q), -t * a_q, 1),\n"
        "            _make(spec, t * (b_p + l * b_q), -t * b_q, 1))\n",
        "            _make(spec, a_p + l * a_q, -a_q, 1),\n"
        "            _make(spec, b_p + l * b_q, -b_q, 1))\n",
        (CONJUGATE_TRACK_TEST,),
    ),
    Mutant(
        "the result's keys skip the table's first state",
        "okcf/golden.py",
        "        keys=tuple(keys),\n",
        "        keys=tuple(keys[1:]),\n",
        (CONJUGATE_TRACK_TEST,),
    ),
    Mutant(
        "the capped run's keys drop the table's last state",
        "okcf/golden.py",
        "steps\", quotients, keys)\n",
        "steps\", quotients, keys[:-1])\n",
        (CONJUGATE_TRACK_TEST,),
    ),
    Mutant(
        "round trip drops the cross product of B",
        "okcf/golden.py",
        "\n            or _int_mul(c, l, e21_p, e21_q, seed.B.p, seed.B.q)\n"
        "            != _int_mul(c, l, e22_p - e11_p, e22_q - e11_q, a.p, a.q)",
        "",
        ROUNDTRIP_TESTS,
    ),
    Mutant(
        "round trip drops the cross product of C",
        "okcf/golden.py",
        "\n            or _int_mul(c, l, e21_p, e21_q, -seed.C.p, -seed.C.q)\n"
        "            != _int_mul(c, l, e12_p, e12_q, a.p, a.q)",
        "",
        ROUNDTRIP_TESTS,
    ),
    Mutant(
        "round trip flips sign(lambda)",
        "okcf/golden.py",
        "    return prod(_root_sign(u, sigma * v, d) for u, v in forms)",
        "    return -prod(_root_sign(u, sigma * v, d) for u, v in forms)",
        ROUNDTRIP_TESTS,
    ),
    Mutant(
        "round trip drops the sigma side's root selection",
        "okcf/golden.py",
        "\n        and _selected_branch(spec.d, forms, -1) == conj_branch",
        "",
        ROUNDTRIP_TESTS,
    ),
    Mutant(
        "the round trip's sigma side keeps v unnegated",
        "okcf/golden.py",
        "_selected_branch(spec.d, forms, -1) == conj_branch",
        "_selected_branch(spec.d, forms, 1) == conj_branch",
        ROUNDTRIP_TESTS,
    ),
    Mutant(
        "expand_pair verifies every expansion",
        "okcf/golden.py",
        "verified=_proportional_roundtrip(seed, expansion, branch, conj_branch),",
        "verified=True,",
        (EXPAND_PAIR_ROUNDTRIP_TEST,),
    ),
    Mutant(
        "expand_pair verifies through the full round trip",
        "okcf/golden.py",
        "verified=_proportional_roundtrip(seed, expansion, branch, conj_branch),",
        "verified=bool(verify_roundtrip(ExpansionResult(\n"
        "                expansion, tuple(keys), m, False, seed, branch, conj_branch\n"
        "            ))),",
        (EXPAND_PAIR_ROUNDTRIP_TEST,),
    ),
    Mutant(
        "float filter decides with a zero error bound",
        "okcf/golden.py",
        "    if v + 2 * e < below:\n        return True\n    if v - 2 * e > above:",
        "    if v < below:\n        return True\n    if v > above:",
        ("tests/test_float_filter.py",),
    ),
    Mutant(
        "distance test against 1 instead of 9/10",
        "okcf/golden.py",
        "_RADIUS_SQ_BELOW, _RADIUS_SQ_ABOVE = 0.9 - _MARGIN, 0.9 + _MARGIN",
        "_RADIUS_SQ_BELOW, _RADIUS_SQ_ABOVE = 1.0 - _MARGIN, 1.0 + _MARGIN",
        ("tests/test_golden.py", "tests/test_acceptance.py"),
    ),
    Mutant(
        "is_square_in_k returns the negative root",
        "okcf/field.py",
        "        if _root_sign(s, t, d) < 0:\n            s, t = -s, -t\n",
        "",
        ("tests/test_field.py", "tests/test_field_reference.py"),
    ),
    Mutant(
        "root table keys sqrt(delta) by bits only",
        "okcf/field.py",
        "        key = (delta.p, delta.q, delta.den, bits)\n",
        "        key = bits\n",
        (ROOT_TABLE_TEST,),
    ),
    Mutant(
        "root table reuses isqrt(d << 2*bits) across levels",
        "okcf/field.py",
        "        r = isqrt_d.get(bits)\n",
        "        r = next(iter(isqrt_d.values()), None)\n",
        (ROOT_TABLE_TEST,),
    ),
    Mutant(
        "naive_height turns the trace term -2*c*q1*q2 to +",
        "okcf/quartic.py",
        "l * (pa * qb + qa * pb) - 2 * c * qa * qb",
        "l * (pa * qb + qa * pb) + 2 * c * qa * qb",
        ("tests/test_quartic_formulas.py",),
    ),
    Mutant(
        "naive_height's middle coefficient drops N(B)",
        "okcf/quartic.py",
        "\n            + pb * pb + l * pb * qb - c * qb * qb),\n",
        "),\n",
        ("tests/test_quartic_formulas.py",),
    ),
    Mutant(
        "summarize takes max|sigma(A_n)| from the identity embedding",
        "okcf/quartic.py",
        "        for conj in (False, True)\n",
        "        for conj in (False, False)\n",
        (ROW_VIEWS_TEST,),
    ),
    Mutant(
        "summarize takes the last row's triple as the seed's form",
        "okcf/quartic.py",
        "rows[0].triple, rows[-1].p, rows[-1].q",
        "rows[-1].triple, rows[-1].p, rows[-1].q",
        (ROW_VIEWS_TEST,),
    ),
    Mutant(
        "KElement.__str__ drops the sign of q on an integral element",
        "okcf/field.py",
        "(self.p, self.q) if self.den == 1",
        "(self.p, abs(self.q)) if self.den == 1",
        ("tests/test_field_reference.py",),
    ),
    Mutant(
        "the sqrt(d) form drops the 2 of a half-integral basis",
        "okcf/field.py",
        "return 2 * k.p + k.q, k.q, 2 * k.den",
        "return 2 * k.p + k.q, k.q, k.den",
        ("tests/test_field.py", "tests/test_field_reference.py"),
    ),
    Mutant(
        "KElement.__lt__ holds for equal elements",
        "okcf/field.py",
        "        return sign_of(self - o) < 0\n",
        "        return sign_of(self - o) <= 0\n",
        ("tests/test_field.py::TestOrdering",),
    ),
    Mutant(
        "the integer-pair product drops its l*q1*q2 term",
        "okcf/field.py",
        "    return p1 * p2 + c * qq, p1 * q2 + q1 * p2 + l * qq\n",
        "    return p1 * p2 + c * qq, p1 * q2 + q1 * p2\n",
        (INTEGRAL_RECURRENCE_TEST, "tests/test_field_reference.py"),
    ),
    Mutant(
        "triple_recursion's B_(n+1) form swaps the coordinates of P_n",
        "okcf/quartic.py",
        "    qq = b_q * pn_q\n    t_p, t_q = b_p * pn_p + c * qq + 2 * c_p, b_p * pn_q + b_q * pn_p ",
        "    qq = b_q * pn_p\n    t_p, t_q = b_p * pn_q + c * qq + 2 * c_p, b_p * pn_p + b_q * pn_q ",
        ("tests/test_quartic_formulas.py::test_step_and_triple_match_longhand",),
    ),
    Mutant(
        "_reduced skips its gcd normalisation",
        "okcf/field.py",
        "    if den != 1:\n        g = gcd(p, q, den)\n"
        "        if g != 1:\n            p, q, den = p // g, q // g, den // g\n",
        "",
        ("tests/test_field_reference.py::test_matches_fraction_reference",),
    ),
    Mutant(
        "start-window test takes the greater root twice",
        "okcf/quartic.py",
        "(plus, plus.conj_sqrt())",
        "(plus, plus)",
        ("tests/test_quartic.py::TestPreconditions",),
    ),
    Mutant(
        "surd_sign reads y*sqrt(0) as y",
        "okcf/field.py",
        "        return sy * _k_sign(delta)\n",
        "        return sy\n",
        ("tests/test_quartic.py::TestPreconditions::test_window_tie_at_a_double_root",),
    ),
    Mutant(
        "reals_equal adds the second surd instead of subtracting it",
        "okcf/field.py",
        "a.y, a.delta, -b.y, b.delta",
        "a.y, a.delta, b.y, b.delta",
        (*ROUNDTRIP_TESTS, "tests/test_field.py::TestRealsEqual"),
    ),
    Mutant(
        "float floor with its error bound scaled by 2^-20",
        "okcf/golden.py",
        "    lo, hi = v - 2 * e, v + 2 * e\n",
        "    lo, hi = v - 2 * e * 2.0**-20, v + 2 * e * 2.0**-20\n",
        ("tests/test_float_filter.py",),
    ),
    Mutant(
        "e_matrix undoes a pre-period quotient with +a",
        "okcf/cf.py",
        "        p11, q11, p12, q12 = p12, q12, p11 - x, q11 - y\n",
        "        p11, q11, p12, q12 = p12, q12, p11 + x, q11 + y\n",
        (E_MATRIX_REFERENCE_TEST,),
    ),
    Mutant(
        "e_matrix undoes the pre-period first to last",
        "okcf/cf.py",
        "    for a in reversed(expansion.preperiod):\n",
        "    for a in expansion.preperiod:\n",
        (E_MATRIX_REFERENCE_TEST,),
    ),
    Mutant(
        "KElement.norm drops its l*p*q term",
        "okcf/field.py",
        "p * p + spec.omega_sq_lin * p * q - spec.omega_sq_const * q * q",
        "p * p - spec.omega_sq_const * q * q",
        ("tests/test_field.py::TestKArithmetic", "tests/test_field_reference.py"),
    ),
    Mutant(
        "_root_sign lets the smaller square win",
        "okcf/field.py",
        "    return sx if x * x > y * y * d else sy\n",
        "    return sy if x * x > y * y * d else sx\n",
        ("tests/test_field.py::TestExactSign",),
    ),
    Mutant(
        "RealPair.ceil ignores exactness",
        "okcf/golden.py",
        "        return n if exact else n + 1\n",
        "        return n + 1\n",
        ("tests/test_golden.py::TestRealPair",),
    ),
    Mutant(
        "_div accepts an infinite divisor",
        "okcf/golden.py",
        "    if not 2 * be < m < _INF:\n",
        "    if not 2 * be < m:\n",
        ("tests/test_float_filter.py::test_enclosures_hold_on_crafted_states", STRAIGHT_LINE_TEST),
    ),
    # Each rounding (u*|v|) and underflow (_ETA) term of the filter's
    # operations, dropped alone.
    Mutant(
        "_int drops its rounding term",
        "okcf/golden.py",
        "    v = float(n)\n    return v, _U * abs(v)\n",
        "    v = float(n)\n    return v, 0.0\n",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_add drops its rounding term",
        "okcf/golden.py",
        "    v = a[0] + b[0]\n    return v, a[1] + b[1] + _U * abs(v)\n",
        "    v = a[0] + b[0]\n    return v, a[1] + b[1]\n",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_sub drops its rounding term",
        "okcf/golden.py",
        "    v = a[0] - b[0]\n    return v, a[1] + b[1] + _U * abs(v)\n",
        "    v = a[0] - b[0]\n    return v, a[1] + b[1]\n",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_mul drops its rounding term",
        "okcf/golden.py",
        "ae * be + _U * abs(v) + _ETA",
        "ae * be + _ETA",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_mul drops its underflow term",
        "okcf/golden.py",
        "ae * be + _U * abs(v) + _ETA",
        "ae * be + _U * abs(v)",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_div drops its rounding term",
        "okcf/golden.py",
        "(m - be) + _U * abs(v) + _ETA",
        "(m - be) + _ETA",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_div drops its underflow term",
        "okcf/golden.py",
        "(m - be) + _U * abs(v) + _ETA",
        "(m - be) + _U * abs(v)",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_div drops the underflow term of its numerator",
        "okcf/golden.py",
        "(ae + abs(v) * be + _ETA) / (m - be)",
        "(ae + abs(v) * be) / (m - be)",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "_sqrt drops its rounding term",
        "okcf/golden.py",
        "    return v, ae / v + _U * v\n",
        "    return v, ae / v\n",
        (FLOAT_OPS_TEST,),
    ),
    Mutant(
        "radius declares --field-d again",
        "okcf/cli.py",
        '"covering radius of v(O_K)", "--precision")',
        '"covering radius of v(O_K)", "--precision", "--field-d")',
        CLI_FLAGS_TESTS,
    ),
    Mutant(
        "eval declares --precision again",
        "okcf/cli.py",
        '"evaluate a periodic expansion", "--field-d")',
        '"evaluate a periodic expansion", "--field-d", "--precision")',
        CLI_FLAGS_TESTS,
    ),
    Mutant(
        "the Weil skip tests |z| against t = 1",
        "okcf/quartic.py",
        "    s, t = 1 << k, (1 << k) - 1\n    (au, av, _), (bu, bv, _), (cu, cv, _) = a, b, c\n",
        "    s, t = 1 << k, 1 << k\n    (au, av, _), (bu, bv, _), (cu, cv, _) = a, b, c\n",
        (WEIL_SKIP_TEST,),
    ),
    Mutant(
        "the Weil skip swaps the smaller and the larger root",
        "okcf/quartic.py",
        "    return (larger, smaller) if sa > 0 else (smaller, larger)\n",
        "    return (larger, smaller) if sa < 0 else (smaller, larger)\n",
        (WEIL_SKIP_TEST,),
    ),
    # One root-location test per quadratic, on forms shared by the row.
    Mutant(
        "the Weil skip orders its two verdicts without sign(a)",
        "okcf/quartic.py",
        "    return (larger, smaller) if sa > 0 else (smaller, larger)\n",
        "    return larger, smaller\n",
        (WEIL_SKIP_TEST,),
    ),
    Mutant(
        "the Weil skip tests sigma(f_n)'s roots on unnegated v",
        "okcf/quartic.py",
        "quadratics.append((sa, sb, sc, sx, sy, delta.conj()))",
        "quadratics.append((a, b, c, sx, sy, delta.conj()))",
        (WEIL_SKIP_TEST,),
    ),
    Mutant(
        "the complex-pair skip reads sign(sigma(A)) on unnegated v",
        "okcf/quartic.py",
        "    if _root_sign(au, -av, d) * _root_sign(",
        "    if _root_sign(au, av, d) * _root_sign(",
        (WEIL_SKIP_TEST,),
    ),
    Mutant(
        "the Weil lead |N(A)| keeps its factor m^2",
        "okcf/quartic.py",
        "return _form_mul(d, (-bu, -bv, bm), y), y, abs(n) // (am * am)",
        "return _form_mul(d, (-bu, -bv, bm), y), y, abs(n)",
        (WEIL_SKIP_TEST,),
    ),
    Mutant(
        "the embedding kernel accepts a level at P - 1 bits",
        "okcf/field.py",
        "    p = precision_bits\n",
        "    p = precision_bits - 1\n",
        (EMBED_KERNEL_TEST,),
    ),
    Mutant(
        "the embedding kernel accepts a level past MAX_BITS",
        "okcf/field.py",
        "p <= 1 or p <= MAX_BITS and (",
        "p <= 1 or (",
        (f"{EMBED_KERNEL_TEST}::test_past_max_bits_raises_precision_error",),
    ),
    Mutant(
        "the form kernel's straddling product takes ylo * rlo",
        "okcf/field.py",
        "plo, phi = ylo * rhi, yhi * rhi",
        "plo, phi = ylo * rlo, yhi * rhi",
        (EMBED_LEVELS_TEST,),
    ),
    Mutant(
        "the form kernel keeps a rejected first level of x",
        "okcf/field.py",
        "        xlo, xhi, xe = _form_embed(xu, xv, xden, d, bits, isqrt_d)\n",
        # x's level at `bits`, taken without its acceptance test.
        "        r = isqrt(d << 2 * bits)\n"
        "        xlo, xhi = sorted(((xu << bits) + xv * r, (xu << bits) + xv * (r + 1)))\n"
        "        xlo, xhi, xe = xlo // xden, -(-xhi // xden), bits\n",
        (EMBED_LEVELS_TEST,),
    ),
    Mutant(
        "the analyze JSON writer prints each [lo, hi] on one line",
        "okcf/cli.py",
        'return f"[\\n        {lo!r},\\n        {hi!r}\\n      ]"',
        'return f"[{lo!r}, {hi!r}]"',
        ("tests/test_cli.py::test_reference_output_is_pinned",),
    ),
    Mutant(
        "the sigma error term keeps the v sign of Q_n",
        "okcf/quartic.py",
        "        e, f = error_forms(sx, sy, (qu, -qv, qm), (pu, -pv))\n",
        "        e, f = error_forms(sx, sy, (qu, qv, qm), (pu, -pv))\n",
        (ERROR_FORMS_TEST,),
    ),
    Mutant(
        "the tau error term keeps the sign of y",
        "okcf/quartic.py",
        "s_tau = _tight_abs_m(e, (-branch * fu, -branch * fv, fm),",
        "s_tau = _tight_abs_m(e, (branch * fu, branch * fv, fm),",
        (ERROR_FORMS_TEST,),
    ),
    # The kernel decides a hidden zero once, before its levels, from the
    # root of delta in K that the root table keeps per discriminant.
    Mutant(
        "the form kernel skips the zero test",
        "okcf/field.py",
        "    if s is not None and _from_form(delta.spec, x) + _from_form(delta.spec, y) * s == 0:\n"
        "        return 0, 0, 0\n",
        "",
        ("tests/test_form_kernel.py::test_a_hidden_zero_in_unreduced_forms_is_the_point_zero",),
    ),
    Mutant(
        "the form kernel's zero rule takes -s for sqrt(delta)",
        "okcf/field.py",
        "_from_form(delta.spec, y) * s == 0:",
        "_from_form(delta.spec, y) * -s == 0:",
        ("tests/test_form_kernel.py::test_a_nonzero_value_over_a_square_delta_takes_its_levels",),
    ),
    Mutant(
        "the root table forgets the root of delta in K",
        "okcf/field.py",
        "    if dkey not in roots.root_in_k:\n",
        "    if True:\n",
        (ROOT_COUNT_TEST,),
    ),
    Mutant(
        "analyze drops its --expansion mode check",
        "okcf/cli.py",
        "        if any(x is not None for x in (args.A, args.quotients, args.branch, "
        "args.conj_branch)):\n"
        '            raise ParseError("--expansion takes no A B C, --quotients, --branch or '
        '--conj-branch")\n',
        "",
        ("tests/test_cli.py::TestAnalyze::test_mixed_input_modes_are_parse_errors",),
    ),
    # Linked seeds (delta*sigma(delta) a square in K) decide their exact
    # floors and distances across both families, as every other seed does.
    Mutant(
        "surd_sum_sign drops y2^2*delta2 from the squared sum",
        "okcf/field.py",
        "x * x + y1 * y1 * delta1 - y2 * y2 * delta2, 2 * x * y1, delta1)",
        "x * x + y1 * y1 * delta1, 2 * x * y1, delta1)",
        ("tests/test_golden.py::TestRealPair", LARGE_BOUND_TEST),
    ),
    Mutant(
        "lattice_coords takes -1/sqrt(5) for 1/sqrt(5)",
        "okcf/golden.py",
        "    inv = spec.element(Fraction(-1, 5), Fraction(2, 5))\n",
        "    inv = spec.element(Fraction(1, 5), Fraction(-2, 5))\n",
        ("tests/test_golden.py::TestLatticeCoords", LARGE_BOUND_TEST),
    ),
    Mutant(
        "the exact distance test shifts by +9/10",
        "okcf/golden.py",
        "._sign_minus(RADIUS_SQ)",
        "._sign_minus(-RADIUS_SQ)",
        (LARGE_BOUND_TEST,),
    ),
    Mutant(
        "the power loop skips the product of the top bit",
        "okcf/field.py",
        "        if n & 1:\n            out = out * base\n",
        "        if n & 1 and n > 1:\n            out = out * base\n",
        ("tests/test_field_reference.py::test_matches_fraction_reference",),
    ),
    Mutant(
        "analyze --output csv builds the summary",
        "okcf/cli.py",
        "    try:\n        if args.output == \"csv\":\n",
        "    summarize(rows, args.precision)\n    try:\n        if args.output == \"csv\":\n",
        ("tests/test_cli.py::TestAnalyze::test_csv_builds_no_summary",),
    ),
    # parse_k reads each term with one pattern; the frozen scanner in
    # test_parse_k_scanner is the oracle for every value and error.
    Mutant(
        "parse_k accepts a missing sign between terms",
        "okcf/parsing.py",
        '        if pos > start and not t["sign"]:\n',
        "        if False:\n",
        (K_ERRORS_TEST,),
    ),
    Mutant(
        "parse_k reads '3*' as a plain number",
        "okcf/parsing.py",
        '        if t["star"] and not t["w"]:\n'
        '            raise ParseError("expected \'w\' after \'*\'", t.end("star"))\n'
        '        if t["star"] or t["bare_w"]:\n',
        '        if t["w"] or t["bare_w"]:\n',
        (K_ERRORS_TEST,),
    ),
    Mutant(
        "parse_k drops a minus sign that has a space after it",
        "okcf/parsing.py",
        't["sign"][:1] == "-"',
        't["sign"] == "-"',
        (K_SYNTAX_TEST,),
    ),
    Mutant(
        "parse_k takes no space between '*' and 'w'",
        "okcf/parsing.py",
        "(?P<star>\\*\\s*(?P<w>",
        "(?P<star>\\*(?P<w>",
        (K_SYNTAX_TEST,),
    ),
    Mutant(
        "parse_k reports a missing number before the sign's space",
        "okcf/parsing.py",
        "raise ParseError(\"expected a number or 'w'\", t.end(\"sign\"))",
        "raise ParseError(\"expected a number or 'w'\", t.start(\"sign\"))",
        (SCANNER_TEST,),
    ),
    Mutant(
        "parse_k reads blank text as a missing number",
        "okcf/parsing.py",
        "    if not text[start:end].strip():\n        raise ParseError(\"empty element\", end)\n",
        "    if not text[start:end]:\n        raise ParseError(\"empty element\", end)\n",
        (SCANNER_TEST,),
    ),
    Mutant(
        "a zero denominator is reported at its term, not its numeral",
        "okcf/parsing.py",
        'm.start("numeral")) from None',
        "m.start()) from None",
        ("tests/test_parsing.py::test_zero_denominator_text_and_position",),
    ),
    Mutant(
        "_prepare_argv puts '--' before a stray token of corpus",
        "okcf/cli.py",
        "    declared = cmd in commands and any(",
        "    declared = True or any(",
        ("tests/test_cli.py::test_stray_token_is_named_as_given",),
    ),
    Mutant(
        "_prepare_argv never puts in '--'",
        "okcf/cli.py",
        "    declared = cmd in commands and any(",
        "    declared = False and any(",
        ("tests/test_cli.py::TestAnalyze::test_seed_mode_runs",),
    ),
    Mutant(
        "weil_height_element drops den from the trace coefficient",
        "okcf/quartic.py",
        "gcd(den * den, den * (2 * p + l * q), ",
        "gcd(den * den, (2 * p + l * q), ",
        ("tests/test_quartic.py::TestHeights::test_leading_coefficient_from_trace_and_norm",),
    ),
    Mutant(
        "weil_height_element adds c*q^2 to the norm",
        "okcf/quartic.py",
        "p * p + l * p * q - c * q * q)\n",
        "p * p + l * p * q + c * q * q)\n",
        ("tests/test_quartic.py::TestHeights::test_leading_coefficient_from_trace_and_norm",),
    ),
    # The sigma-side sup is selected on the triples; only it becomes a float.
    Mutant(
        "summarize converts each sup before it selects",
        "okcf/quartic.py",
        "        sups = (reduce(dyadic_max, (r.qs_sigma_m[i] for r in rows)) for i in (0, 1))\n"
        "        _, hi0, _, hi1, e = _aligned(*sups)\n"
        "        sigma_sup = min(hi0, hi1) / (1 << e)\n",
        "        sigma_sup = min(max(dyadic_floats(r.qs_sigma_m[i])[1] for r in rows)\n"
        "                        for i in (0, 1))\n",
        (SUMMARY_OVERFLOW_TEST,),
    ),
    Mutant(
        "summarize takes the larger root's sup",
        "okcf/quartic.py",
        "sigma_sup = min(hi0, hi1) / (1 << e)",
        "sigma_sup = max(hi0, hi1) / (1 << e)",
        (SUMMARY_OVERFLOW_TEST,),
    ),
    # A fault inside a slice is reported at its index in the argument.
    Mutant(
        "parse_k reports a missing sign at its index in the slice",
        "okcf/parsing.py",
        "between terms\", t.start(\"sign\"))",
        "between terms\", t.start(\"sign\") - start)",
        (SLICE_POSITIONS_TEST,),
    ),
    Mutant(
        "parse_element_list reads each element as its own string",
        "okcf/parsing.py",
        "_parse_k(text, start, start + len(part), spec, require_integral)",
        "_parse_k(part, 0, len(part), spec, require_integral)",
        (SLICE_POSITIONS_TEST,),
    ),
    Mutant(
        "parse_expansion reads the period as its own string",
        "okcf/parsing.py",
        "per = _parse_list(text, semi + 1, end - 1, spec, require_integral=True)",
        "per = _parse_list(text[semi + 1 : end - 1], 0, end - semi - 2, spec, "
        "require_integral=True)",
        (SLICE_POSITIONS_TEST,),
    ),
    Mutant(
        "parse_surd reads delta as its own string",
        "okcf/parsing.py",
        "delta = _parse_k(text, m.start(1), m.end(1), spec)",
        "delta = _parse_k(m[1], 0, len(m[1]), spec)",
        (SLICE_POSITIONS_TEST,),
    ),
    Mutant(
        "parse_surd reports a missing coefficient at 0",
        "okcf/parsing.py",
        'raise ParseError("expected parenthesized coefficient", k)',
        'raise ParseError("expected parenthesized coefficient", 0)',
        (SLICE_POSITIONS_TEST,),
    ),
    # The growth law X_(n+2L) = tr(R)*X_(n+L) - (-1)^L*X_n past the pre-period.
    Mutant(
        "the convergents unroll the period one place late",
        "okcf/cf.py",
        "return self.period[(i - len(self.preperiod)) % len(self.period)]",
        "return self.period[(i - len(self.preperiod) - 1) % len(self.period)]",
        (GROWTH_LAW_TEST,),
    ),
    Mutant(
        "the convergent recurrence drops the w part of Q_(n-2)",
        "okcf/cf.py",
        "q_p, q_q, qp_p, qp_q = u + qp_p, v + qp_q, q_p, q_q",
        "q_p, q_q, qp_p, qp_q = u + qp_p, v, q_p, q_q",
        (GROWTH_LAW_TEST,),
    ),
    Mutant(
        "qpair_states never advances P_(n-1) and Q_(n-1)",
        "okcf/cf.py",
        '        fields["p_cur"] = p = _make(spec, p_p, p_q, 1)\n'
        '        fields["q_cur"] = q = _make(spec, q_p, q_q, 1)\n',
        '        fields["p_cur"] = _make(spec, p_p, p_q, 1)\n'
        '        fields["q_cur"] = _make(spec, q_p, q_q, 1)\n',
        (INTEGRAL_RECURRENCE_TEST,),
    ),
    Mutant(
        "e_matrix undoes a pre-period quotient with +a in its second row",
        "okcf/cf.py",
        "        p21, q21, p22, q22 = p22, q22, p21 - x, q21 - y\n",
        "        p21, q21, p22, q22 = p22, q22, p21 + x, q21 + y\n",
        (GROWTH_LAW_TEST,),
    ),
    # With sigma(delta)'s square rung gone, delta's is the only square test.
    Mutant(
        "classify_seed admits a square discriminant",
        "okcf/golden.py",
        "    if is_square_in_k(delta) is not None:\n        return SeedRejection.DELTA_SQUARE\n",
        "",
        ("tests/test_golden.py::TestExpandPair::test_rejects_square_discriminant",),
    ),
    # The straight-line kernels: the float filter against its helper
    # composition, the recursion against its _int_mul composition, and
    # the one check that the polynomial builder keeps.
    Mutant(
        "the inline corner distance drops the rounding term of d1",
        "okcf/golden.py",
        " + ye + _U * abs(d1)\n",
        " + ye\n",
        (STRAIGHT_LINE_TEST,),
    ),
    Mutant(
        "the inline xi division drops its abstention",
        "okcf/golden.py",
        "    if not 2 * de < m < _INF:\n        return None\n",
        "",
        (STRAIGHT_LINE_TEST,),
    ),
    Mutant(
        "triple_recursion drops the 2c term of B_(n+1)",
        "okcf/quartic.py",
        "+ c * qq + 2 * c_p, b_p * pn_q + b_q * pn_p + l * qq + 2 * c_q\n",
        "+ c * qq, b_p * pn_q + b_q * pn_p + l * qq\n",
        (INT_MUL_COMPOSITION_TEST,),
    ),
    Mutant(
        "the polynomial builder drops its zero-lead check",
        "okcf/quartic.py",
        '    if not A.p and not A.q:\n        raise SeedError("leading coefficient must be nonzero")\n',
        "",
        ("tests/test_identities.py::test_a_root_in_k_still_trips_the_check",),
    ),
    Mutant(
        "step_state writes a branch other than +1 or -1",
        "okcf/quartic.py",
        '    fields["branch"] = -state.branch\n',
        '    fields["branch"] = -2 * state.branch\n',
        ("tests/test_identities.py::test_derived_polynomials_rebuild_through_the_constructor",),
    ),
    # A value past the float range is the quotients' doing: exit 3, with
    # the first row that leaves the range.
    Mutant(
        "analyze names the last row past the float range",
        "okcf/cli.py",
        "    return bisect_left(range(len(rows)), True, key=past)\n",
        "    return len(rows) - 1\n",
        (FLOAT_RANGE_TEST,),
    ),
    # One path per K operation: every operand goes through _coerce, a sum
    # takes the cross-denominator formula, and a square root takes T = 2V/S
    # unchecked, as is_square_in_k's docstring proves.
    Mutant(
        "KElement operators admit an element of another field",
        "okcf/field.py",
        "            if other.spec is not self.spec and other.spec != self.spec:\n"
        '                raise ValueError("mismatched field specs")\n',
        "",
        ("tests/test_field_reference.py::test_mismatched_specs_raise",),
    ),
    Mutant(
        "the cross-denominator sum drops * d2",
        "okcf/field.py",
        "self.p * d2 + o.p * d1, self.q * d2 + o.q * d1, d1 * d2",
        "self.p + o.p * d1, self.q * d2 + o.q * d1, d1 * d2",
        ("tests/test_field_reference.py::test_matches_fraction_reference",),
    ),
    Mutant(
        "is_square_in_k takes T = 2V/S + 1",
        "okcf/field.py",
        "            t = 2 * m * v // s\n",
        "            t = 2 * m * v // s + 1\n",
        ("tests/test_field.py::TestSquares",),
    ),
    # Branches that no other test runs.
    Mutant(
        "parse_surd ignores the '-' before its second part",
        "okcf/parsing.py",
        '    negate = text[k] == "-"\n',
        "    negate = False\n",
        ("tests/test_parsing.py::test_surd_round_trip",),
    ),
    Mutant(
        "parse_surd reports a missing '(' at 0",
        "okcf/parsing.py",
        "raise ParseError(\"surd must start with '('\", start)",
        "raise ParseError(\"surd must start with '('\", 0)",
        ("tests/test_parsing.py::test_surd_errors_name_their_fault",),
    ),
    Mutant(
        "QuadraticPolyK drops its zero-lead check",
        "okcf/quartic.py",
        '        if self.A.is_zero:\n            raise SeedError("leading coefficient must be nonzero")\n',
        "",
        ("tests/test_quartic.py::TestStates::test_zero_lead_rejected",),
    ),
    Mutant(
        "QuotientState admits a branch of 0",
        "okcf/quartic.py",
        "if self.branch not in (1, -1):",
        "if self.branch not in (1, 0, -1):",
        ("tests/test_quartic.py::TestStates::test_branch_is_a_sign",),
    ),
    Mutant(
        "surd_sum_sign flips the sign of a lone second surd",
        "okcf/field.py",
        "    if sa == 0:\n        return sb\n",
        "    if sa == 0:\n        return -sb\n",
        ("tests/test_field.py::TestSign::test_sum_with_a_zero_first_surd",),
    ),
    Mutant(
        "CFExpansion admits an entry of another field",
        "okcf/cf.py",
        "            if entry.spec != self.spec:\n",
        "            if False:\n",
        ("tests/test_cf.py::test_expansion_checks_its_entries",),
    ),
    Mutant(
        "a finite expansion's missing entry divides by zero",
        "okcf/cf.py",
        '        if not self.period:\n            raise IndexError(f"finite expansion has no entry {i}")\n',
        "",
        ("tests/test_cf.py::test_expansion_checks_its_entries",),
    ),
    Mutant(
        "weil_height_element drops the sign of a rational's numerator",
        "okcf/quartic.py",
        "RealInterval.point(max(abs(x.p), x.den))",
        "RealInterval.point(max(x.p, x.den))",
        ("tests/test_quartic.py::TestHeights::test_height_of_a_rational",),
    ),
    Mutant(
        "the floor guess lets a NaN float through",
        "okcf/golden.py",
        "        except (OverflowError, ValueError):\n",
        "        except OverflowError:\n",
        ("tests/test_golden.py::TestRealPair::test_floor_past_the_float_range",),
    ),
    Mutant(
        "the floor guess embeds again",
        "okcf/golden.py",
        "        except (OverflowError, ValueError):\n            return 0\n",
        "        except (OverflowError, ValueError):\n            return _floor(self.interval().lo)\n",
        ("tests/test_golden.py::TestRealPair::test_floor_of_a_pell_surd_past_max_bits",
         "tests/test_golden.py::TestExactPairDecisions::test_no_enclosure_past_the_float_range"),
    ),
    Mutant(
        "the CLI reports an ExpansionError as an unforeseen fault",
        "okcf/cli.py",
        "    except (ExpansionError, PrecisionError, AssertionError) as exc:\n",
        "    except (PrecisionError, AssertionError) as exc:\n",
        ("tests/test_cli.py::test_expansion_error_is_internal_failure",),
    ),
    # One writer: each command returns its output, and main writes it once,
    # only on success.  Each command's text is the same bytes either way.
    Mutant(
        "main returns before it writes",
        "okcf/cli.py",
        "        sys.stdout.write(args.run(args))\n",
        "        args.run(args)\n        return EXIT_OK\n",
        (ONE_WRITER_TEST,),
    ),
    Mutant(
        "cmd_radius prints its line itself",
        "okcf/cli.py",
        '    return (f"D={cr.d}: r^2 = {cr.r_squared}, r ~ {float(cr.interval):.6f}, "\n'
        "            f\"{'usable (r < 1)' if cr.usable else 'not usable (r >= 1)'}\\n\")\n",
        '    print(f"D={cr.d}: r^2 = {cr.r_squared}, r ~ {float(cr.interval):.6f}, "\n'
        "          f\"{'usable (r < 1)' if cr.usable else 'not usable (r >= 1)'}\")\n"
        '    return ""\n',
        (ONE_WRITER_TEST,),
    ),
    Mutant(
        "SurdElement drops its component check",
        "okcf/field.py",
        "            if not isinstance(part, KElement):\n"
        '                raise TypeError(f"surd component of type {type(part).__name__} is not a '
        'KElement")\n'
        "            if part.spec is not self.spec and part.spec != self.spec:\n"
        '                raise ValueError("mismatched field specs")\n',
        "            pass\n",
        ("tests/test_field.py::TestSurds::test_components_must_be_elements_of_the_field",),
    ),
    Mutant(
        "choose_quotient returns the first candidate's floor corner whatever the test says",
        "okcf/golden.py",
        "        if inside:\n            return x, y\n",
        "        return xs[0], ys[0]\n",
        ("tests/test_golden.py::TestChooseQuotient",),
    ),
    Mutant(
        "choose_quotient accepts a non-conjugate pair",
        "okcf/golden.py",
        "    if p.xi_prime.poly != poly.sigma():\n"
        "        raise InputRuleError(\"xi' must be a root of sigma of xi's polynomial\")\n",
        "",
        ("tests/test_golden.py::TestChooseQuotient::test_a_pair_that_is_not_conjugate_is_rejected",),
    ),
    Mutant(
        "choose_quotient takes its roots from the conjugate track's polynomial",
        "okcf/golden.py",
        "float_roots(poly), p.index)",
        "float_roots(p.xi_prime.poly), p.index)",
        ("tests/test_golden.py::TestChooseQuotient",),
    ),
    Mutant(
        "a distance test the filter leaves open after two filtered floors has no exact pair",
        "okcf/golden.py",
        "            if p is None:\n                p = _pair_state(spec, state, t, index)\n",
        "",
        ("tests/test_float_filter.py::"
         "test_exact_distance_tests_after_filtered_floors_give_the_same_expansions",),
    ),
    Mutant(
        "float_roots serves any D",
        "okcf/golden.py",
        "    if not _BINARY64 or seed.spec.d != 5:\n",
        "    if not _BINARY64:\n",
        ("tests/test_float_filter.py::test_float_roots_abstain_off_q_sqrt5",),
    ),
    # The step cap and the corpus's field are plain values: expand_pair and
    # cmd_corpus check them themselves.
    Mutant(
        "expand_pair accepts max_steps below 1",
        "okcf/golden.py",
        "    if max_steps < 1:\n        raise InputRuleError(\"max_steps must be >= 1\")\n",
        "",
        ("tests/test_golden.py::TestExpandPair::test_max_steps_below_one_is_rejected",),
    ),
    Mutant(
        "corpus accepts any D",
        "okcf/cli.py",
        "    if args.field_d != 5:\n"
        "        raise GoldenPreconditionError(\"corpus expansion requires D = 5\")\n",
        "",
        ("tests/test_cli.py::TestCorpus::test_rejects_any_d_but_5",),
    ),
    Mutant(
        "the expansion loop admits any branch",
        "okcf/golden.py",
        "    if branch not in (1, -1) or conj_branch not in (1, -1):\n",
        "    if False:\n",
        ("tests/test_golden.py::TestExpandPair::test_branches_must_be_signs",),
    ),
    Mutant(
        "is_squarefree takes a prime squared for squarefree",
        "okcf/field.py",
        "    return m == 1 or isqrt(m) ** 2 != m\n",
        "    return True\n",
        ("tests/test_field.py::test_is_squarefree_on_large_numbers",
         "tests/test_field.py::test_field_spec_rejects_an_odd_square_factor"),
    ),
    Mutant(
        "is_squarefree skips odd square factors",
        "okcf/field.py",
        "            if m % f == 0:\n                return False\n",
        "",
        ("tests/test_field.py::test_field_spec_rejects_an_odd_square_factor",
         "tests/test_cli.py::TestRadius::test_not_squarefree"),
    ),
    # Each analyze input that leaves nothing to analyze has its own exit
    # code and text, and a corpus run that reaches the cap is no cycle.
    Mutant(
        "analyze reports a missing input mode as a rejection",
        "okcf/cli.py",
        'raise ParseError("analyze requires either --expansion or A B C")',
        'raise SeedError("analyze requires either --expansion or A B C")',
        (ANALYZE_NO_VALUE_TEST,),
    ),
    Mutant(
        "analyze reports an empty period as a rejection",
        "okcf/cli.py",
        '\n            raise ParseError("expansion must have a nonempty period")',
        '\n            raise SeedError("expansion must have a nonempty period")',
        (ANALYZE_NO_VALUE_TEST,),
    ),
    Mutant(
        "corpus marks a run with no cycle as verified",
        "okcf/cli.py",
        "entry.update(cycle=False, verified=False)",
        "entry.update(cycle=False, verified=True)",
        ("tests/test_cli.py::TestCorpus::test_a_run_past_max_steps_is_no_cycle_and_not_verified",),
    ),
    Mutant(
        "qpair_states numbers its states from 1",
        "okcf/cf.py",
        '        fields["p_prev"], fields["q_prev"], fields["index"] = p, q, i\n',
        '        fields["p_prev"], fields["q_prev"], fields["index"] = p, q, i + 1\n',
        ("tests/test_cf.py::TestConvergents::test_determinant_invariant_randomized",),
    ),
    Mutant(
        "cf_matrix drops the last quotient",
        "okcf/cf.py",
        "_matrix_pairs(spec, quotients)",
        "_matrix_pairs(spec, quotients[:-1])",
        ("tests/test_cf.py::TestMatrices::test_inverse_reversal_identity_randomized",),
    ),
    Mutant(
        "step_state keeps the branch, the other root of f_(n+1)",
        "okcf/quartic.py",
        '    fields["branch"] = -state.branch\n',
        '    fields["branch"] = state.branch\n',
        ("tests/test_golden.py::TestExpandPair::test_step_invariants_replay",),
    ),
    # One product rule in K(sqrt(delta)) and one formula per interval
    # operation, with scalars coerced to the operand type.
    Mutant(
        "the surd product subtracts a cross term",
        "okcf/field.py",
        "x * o.y + y * o.x",
        "x * o.y - y * o.x",
        ("tests/test_quartic_formulas.py::test_surd_scalar_and_square_products",),
    ),
    Mutant(
        "interval subtraction takes the wrong endpoint",
        "okcf/intervals.py",
        "self.lo - o.hi",
        "self.lo - o.lo",
        ("tests/test_intervals.py::test_operations_are_the_hull_of_their_corners",),
    ),
    # A command runs without Python's int <-> str cap, and the caller's
    # cap is restored after it.
    Mutant(
        "main keeps the int <-> str cap",
        "okcf/cli.py",
        "sys.set_int_max_str_digits(0)",
        "sys.set_int_max_str_digits(limit)",
        ("tests/test_cli.py::TestIntegersPastTheStrCap::test_a_discriminant_past_the_cap",),
        HAS_INT_STR_CAP,
    ),
    Mutant(
        "main leaves the int <-> str cap lifted",
        "okcf/cli.py",
        "            sys.set_int_max_str_digits(limit)\n",
        "            pass\n",
        ("tests/test_cli.py::TestIntegersPastTheStrCap::test_main_restores_the_callers_cap",),
        HAS_INT_STR_CAP,
    ),
)


def check_anchors(catalogue: tuple[Mutant, ...]) -> list[str]:
    """One message per entry whose old text is not found exactly once."""
    errors = []
    for m in catalogue:
        n = (ROOT / "src" / m.file).read_text(encoding="utf-8").count(m.old)
        if n != 1:
            errors.append(f"{m.name}: anchor occurs {n} times in src/{m.file}")
    return errors


def fresh_copy(parent: Path) -> Path:
    work = Path(tempfile.mkdtemp(dir=parent))
    shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "tests", work / "tests", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
    return work


def run_tests(work: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit code on the copy in `work`, or None on a timeout."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(cmd, cwd=work, stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def run_mutant(parent: Path, m: Mutant) -> tuple[str, float]:
    """The verdict on `m` in a fresh copy under `parent`, and its seconds."""
    work = fresh_copy(parent)
    path = work / "src" / m.file
    path.write_text(path.read_text(encoding="utf-8").replace(m.old, m.new), encoding="utf-8")
    start = time.perf_counter()
    code = run_tests(work, m.tests)
    shutil.rmtree(work)
    verdict = {1: "killed", None: "killed (timeout)"}.get(code, f"SURVIVED (exit {code})")
    return verdict, time.perf_counter() - start


def main() -> int:
    start = time.perf_counter()
    errors = check_anchors(CATALOGUE)
    if errors:
        print("catalogue error:\n  " + "\n  ".join(errors))
        return 2
    applicable = tuple(m for m in CATALOGUE if m.applies)
    with tempfile.TemporaryDirectory() as parent:
        tmp = Path(parent)
        union = tuple(dict.fromkeys(t for m in applicable for t in m.tests))
        code = run_tests(fresh_copy(tmp), union)
        if code != 0:
            print(f"the unmutated tests do not pass (pytest exit {code}); nothing to measure")
            return 2
        killed = 0
        with ThreadPoolExecutor(max_workers=WORKERS) as pool:
            verdicts = pool.map(partial(run_mutant, tmp), applicable)
            for m in CATALOGUE:
                if not m.applies:
                    print(f"{'not applicable':<22} {'':>7}  {m.name}", flush=True)
                    continue
                verdict, seconds = next(verdicts)
                killed += verdict.startswith("killed")
                print(f"{verdict:<22} {seconds:6.1f}s  {m.name}", flush=True)
    print(f"killed {killed}/{len(applicable)} in {time.perf_counter() - start:.0f}s "
          f"on {WORKERS} worker(s), {len(CATALOGUE) - len(applicable)} not applicable")
    return 0 if killed == len(applicable) else 1


if __name__ == "__main__":
    sys.exit(main())
