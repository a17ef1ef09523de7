from __future__ import annotations

import argparse
import decimal
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

from okcf import cli
from okcf.cf import eval_periodic
from okcf.cli import decimal_str, main
from okcf.field import FieldSpec, KElement, SurdElement
from okcf.golden import NoCandidateError
from okcf.parsing import parse_expansion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_sqrt2_text(self, capsys):
        code, out, _ = run(capsys, "eval", "[1; 2]")
        assert code == 0
        assert "(1)*x^2 + (0)*x + (-2)" in out
        assert "1.4142135623" in out

    def test_sqrt2_json(self, capsys):
        code, out, _ = run(capsys, "eval", "[1; 2]", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "value"
        assert payload["discriminant"] == "8"
        assert payload["poly"] == {"A": "1", "B": "0", "C": "-2"}

    def test_negative_discriminant(self, capsys):
        code, out, _ = run(capsys, "eval", "[; 1, -1]", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["outcome"] == "does_not_exist"
        assert payload["reason"] == "unit_modulus"
        assert payload["negative_discriminant"] is True

    def test_identity_multiple(self, capsys):
        code, out, _ = run(capsys, "eval", "[; 0, 0]")
        assert code == 0
        assert "identity_multiple" in out

    def test_ineq_window(self, capsys):
        code, out, _ = run(capsys, "eval", "[; 1, 1*w, 1-1*w]", "--output", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["reason"] == "ineq_window"
        assert payload["window"] == 0

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "eval", "[1; 2")
        assert code == 2
        assert "parse error" in err

    def test_finite_expansion_rejected(self, capsys):
        code, _, err = run(capsys, "eval", "[1, 2]")
        assert code == 2

    def test_digits_leave_global_decimal_context(self, capsys):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            code, out, _ = run(capsys, "eval", "[1; 2]", "--digits", "7")
            assert code == 0
            assert "decimal        1.414214\n" in out
            assert decimal.getcontext().prec == 50


    def test_digits_at_display_cap(self, capsys):
        code, out, _ = run(capsys, "eval", "[1; 2]", "--digits", "19675")
        assert code == 0
        assert "decimal        1.41421356237309504880" in out

    def test_digits_above_display_cap_is_usage_error(self, capsys):
        # 19676 digits would need more than MAX_BITS bits of enclosure.
        with pytest.raises(SystemExit) as exc:
            main(["eval", "[1; 2]", "--digits", "19676"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be at most 19675" in err


class TestDecimalStr:
    def test_one_embedding_meets_display_width(self, k5, monkeypatch):
        # decimal_str embeds once; that embedding alone is already within
        # 10^-(digits+2) * max(1, |lo|), so no wider search is needed.
        beta = k5.omega
        unit = beta ** 80  # its conjugate (1 - beta)^80 is tiny
        tiny = unit.conj()
        delta = k5.element(2)
        big_surd = SurdElement(k5, delta, k5.element(10**40), k5.element(10**40, 3))
        # (1 + sqrt(2))^-60 written as x + y*sqrt(2) with huge x, y.
        p = SurdElement(k5, delta, k5.one, k5.one) ** 60
        cancelling = SurdElement(k5, delta, p.x, -p.y)
        values = [
            k5.element(Fraction(1, 3)),
            k5.element(10**60, -(10**59)),
            unit, tiny, -tiny,
            k5.element(Fraction(1, 10**45)),
            big_surd, cancelling, -cancelling,
            SurdElement(k5, beta + 5, k5.element(Fraction(-2, 7)), k5.element(1, -1)),
        ]
        calls = []
        for cls in (KElement, SurdElement):
            original = cls.embed

            def recording(self, *args, _original=original, **kwargs):
                iv = _original(self, *args, **kwargs)
                calls.append((self, iv))
                return iv

            monkeypatch.setattr(cls, "embed", recording)
        for value in values:
            for digits in (1, 2, 7, 30, 64, 100, 333, 1000):
                calls.clear()
                decimal_str(value, digits)
                own = [iv for owner, iv in calls if owner is value]
                assert len(own) == 1
                iv = own[0]
                assert iv.width <= Fraction(1, 10 ** (digits + 2)) * max(1, abs(iv.lo))


class TestExpand:
    def test_example_text(self, capsys):
        code, out, _ = run(capsys, "expand", "1", "-2", "-1-1*w")
        assert code == 0
        assert "period         [2, 4-2*w]" in out
        assert "verified       True" in out

    def test_example_json_schema(self, capsys):
        code, out, _ = run(
            capsys, "expand", "1", "-2", "-1-1*w", "--conj-branch", "-",
            "--output", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "seed": {"A": "1", "B": "-2", "C": "-1-1*w"},
            "branch": "+",
            "conj_branch": "-",
            "preperiod": ["1+1*w"],
            "period": ["2*w"],
            "steps": 2,
            "verified": True,
        }

    def test_rejection_cites_even_period(self, capsys):
        code, _, err = run(capsys, "expand", "1", "0", "2-3*w")
        assert code == 3
        assert "even-period" in err

    def test_wrong_field_rejected(self, capsys):
        code, _, err = run(capsys, "expand", "1", "0", "-3", "--field-d", "2")
        assert code == 3
        assert "covering" in err

    def test_non_integral_seed(self, capsys):
        code, _, err = run(capsys, "expand", "1/2", "0", "-3")
        assert code == 2

    def test_max_steps_exit(self, capsys):
        code, _, err = run(capsys, "expand", "1", "-2", "-1-1*w", "--max-steps", "1")
        assert code == 4


class TestAnalyze:
    def test_csv_row_count(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--expansion", "[1; 2]", "-n", "9", "--output", "csv"
        )
        assert code == 0
        lines = [l for l in out.strip().splitlines() if l]
        assert len(lines) == 11  # header + n+1 rows
        assert lines[0].startswith("n,A_n,B_n,C_n,P_n,Q_n,s_n_lo")

    def test_csv_builds_no_summary(self, capsys, monkeypatch):
        # The CSV table prints rows only, so it must not pay for the summary.
        def forbidden(*args, **kwargs):
            raise AssertionError("csv output built the summary")

        expected = run(capsys, "analyze", "--expansion", "[1; 2]", "-n", "9", "--output", "csv")
        monkeypatch.setattr(cli, "summarize", forbidden)
        assert run(capsys, "analyze", "--expansion", "[1; 2]", "-n", "9", "--output", "csv") == expected

    def test_summary_selects_before_it_converts(self, capsys):
        # From n = 282 on, the rejected conjugate root's sup |Q_n S_n| is
        # past the float range; only the selected sup becomes a float.
        code, out, err = run(capsys, "analyze", "--expansion", "[; 2, 4-2*w]", "-n", "282",
                             "--output", "json")
        assert (code, err) == (0, "")
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    @pytest.mark.parametrize("output", ["csv", "json", "text"])
    def test_a_row_past_the_float_range_is_a_rejection(self, capsys, output):
        # These quotients are not the seed's expansion, so the error terms
        # grow: row 297 is the first whose printed values pass 2^1024.
        threes = "--quotients=" + ",".join(["3"] * 301)
        argv = ("analyze", "1", "-2", "-1-1*w", threes, "--output", output)
        assert run(capsys, *argv, "-n", "300") == (
            3, "", "rejected: row 297 leaves the float range: the quotients drive a value "
            "printed for it past 2^1024\n")
        assert run(capsys, *argv, "-n", "296")[0] == 0

    def test_seed_mode_runs(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "1", "-2", "-1-1*w", "-n", "7", "--output", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 8
        assert payload["summary"]["naive_max"] >= 1
        # discriminant column is constant: conservation shows through A_n, B_n, C_n
        for row in payload["rows"]:
            assert row["naive"] >= 1

    def test_explicit_quotients(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "1", "-2", "-1-1*w",
            "--quotients", "2, 4-2*w, 2, 4-2*w", "-n", "3", "--output", "csv",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_too_few_quotients_is_parse_error(self, capsys):
        code, out, err = run(capsys, "analyze", "1", "-2", "-1-1*w", "-n", "5", "--quotients=1,2")
        assert (code, out) == (2, "")
        assert err == "parse error: need 6 quotients for 5 steps, got 2\n"

    def test_quotients_with_leading_minus(self, capsys):
        head = ("analyze", "1", "-2", "-1-1*w", "-n", "2")
        code_space, out_space, _ = run(capsys, *head, "--quotients", "-1-1*w,2,3")
        code_eq, out_eq, _ = run(capsys, *head, "--quotients=-1-1*w,2,3")
        assert code_space == code_eq == 0
        assert out_space == out_eq
        assert "5+12*w" in out_space

    def test_short_value_flag_with_equals(self, capsys):
        head = ("analyze", "1", "-2", "-1-1*w")
        code_space, out_space, _ = run(capsys, *head, "-n", "2")
        code_eq, out_eq, _ = run(capsys, *head, "-n=2")
        assert code_space == code_eq == 0
        assert out_space == out_eq

    def test_short_value_flag_with_attached_value(self, capsys):
        head = ("analyze", "1", "-2", "-1-1*w", "--output", "csv")
        code_space, out_space, _ = run(capsys, *head, "-n", "5")
        code_attached, out_attached, _ = run(capsys, *head, "-n5")
        assert code_space == code_attached == 0
        assert out_space == out_attached
        assert len(out_space.splitlines()) == 7

    def test_seed_mode_rejects_like_expand(self, capsys):
        # delta = -4+8*w > 0 but sigma(delta) = 4-8*w < -4: the reason is
        # about the seed, not a discriminant of the conjugate track.
        expand_code, _, expand_err = run(capsys, "expand", "1", "0", "1-2*w")
        code, out, err = run(capsys, "analyze", "1", "0", "1-2*w", "-n", "3")
        assert expand_code == code == 3
        assert err == expand_err
        assert "sigma(discriminant) < -4" in err
        assert out == ""

    @pytest.mark.parametrize("flags", [
        ["--expansion", "[; 2, 4-2*w]", "1", "0", "-3"],
        ["--expansion", "[; 2, 4-2*w]", "--quotients=1,2,3"],
        ["--expansion", "[; 2, 4-2*w]", "--branch=-"],
        ["--expansion", "[; 2, 4-2*w]", "--conj-branch=+"],
        ["1", "-2", "-1-1*w", "--quotients=1,2,3", "--conj-branch=-"],
    ], ids=["expansion-seed", "expansion-quotients", "expansion-branch",
            "expansion-conj-branch", "quotients-conj-branch"])
    def test_mixed_input_modes_are_parse_errors(self, capsys, flags):
        code, out, err = run(capsys, "analyze", "-n", "2", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("flags", [
        ["--expansion", "", "1", "-2", "-1-1*w"],
        ["1", "-2", "-1-1*w", "--quotients=", "--conj-branch=-"],
    ], ids=["empty-expansion-seed", "empty-quotients-conj-branch"])
    def test_an_empty_mode_flag_still_selects_its_mode(self, capsys, flags):
        # An empty --expansion or --quotients is given, not absent: the
        # other mode's arguments are mixed in, and nothing is printed.
        code, out, err = run(capsys, "analyze", "-n", "1", *flags)
        assert (code, out) == (2, "")
        assert err.startswith("parse error: ")

    @pytest.mark.parametrize("flags, code, err", [
        ([], 2, "parse error: analyze requires either --expansion or A B C\n"),
        (["--expansion", "[1;]"], 2, "parse error: expansion must have a nonempty period\n"),
        (["--expansion", "[; 1]"], 3,
         "rejected: expansion has no quartic value; nothing to analyze (in K)\n"),
    ], ids=["no-input", "empty-period", "value-in-k"])
    def test_an_input_without_a_quartic_value(self, capsys, flags, code, err):
        assert run(capsys, "analyze", "-n", "1", *flags) == (code, "", err)

    def test_decreasing_s_for_classical(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--expansion", "[1; 2]", "-n", "8", "--output", "json"
        )
        payload = json.loads(out)
        s_upper = [row["s_n"][1] for row in payload["rows"]]
        assert all(b < a for a, b in zip(s_upper, s_upper[1:]))


class TestRadius:
    def test_usable_d5(self, capsys):
        code, out, _ = run(capsys, "radius", "5")
        assert code == 0
        assert "r^2 = 9/10" in out and "usable" in out

    def test_not_usable_d2(self, capsys):
        code, out, _ = run(capsys, "radius", "2")
        assert code == 0
        assert "r^2 = 3/2" in out and "not usable" in out

    def test_not_squarefree(self, capsys):
        code, _, err = run(capsys, "radius", "4")
        assert code == 3
        # 9 = 3^2 has no factor 4 to give it away.
        assert run(capsys, "radius", "9") == (
            3, "", "rejected: d must be a squarefree integer > 1, got 9\n"
        )


class TestCorpus:
    def test_frozen_summary(self, capsys):
        # Deterministic fixture: count=10, bound=3, rng seed 1.
        code, out, _ = run(
            capsys, "corpus", "--count", "10", "--bound", "3", "--seed", "1",
            "--output", "json",
        )
        assert code == 0
        s = json.loads(out)["summary"]
        assert s["runs"] == 20
        assert s["cycles_detected"] == 20
        assert s["verified_fraction"] == 1.0
        assert s["preperiod_lengths"] == [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 5, 9, 9, 15]
        assert s["period_lengths"] == [1, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 3, 4, 4, 4, 4, 4, 5, 6]
        assert s["rejections"]["provably_nonperiodic"] == 1

    def test_determinism(self, capsys):
        args = ["corpus", "--count", "4", "--bound", "2", "--seed", "7", "--output", "json"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_a_run_past_max_steps_is_no_cycle_and_not_verified(self, capsys):
        args = ["corpus", "--count", "2", "--max-steps", "1"]
        code, out, _ = run(capsys, *args, "--output", "json")
        assert code == 0
        report = json.loads(out)
        assert [
            (r["conj_branch"], r["cycle"], r["verified"], "period" in r) for r in report["runs"]
        ] == [("+", False, False, False), ("-", False, False, False)] * 2
        s = report["summary"]
        assert (s["runs"], s["cycles_detected"], s["verified_fraction"]) == (4, 0, None)
        assert (s["preperiod_lengths"], s["period_lengths"]) == ([], [])
        code, out, _ = run(capsys, *args)
        assert code == 0
        assert "\ncycles detected: 0/4 (verified: None)\n" in out

    @pytest.mark.parametrize("d", ["2", "4"])
    def test_rejects_any_d_but_5(self, capsys, d):
        # The D = 5 check comes before sampling, and before FieldSpec would
        # reject the non-squarefree 4.
        code, out, err = run(capsys, "corpus", "--count", "1", "--field-d", d)
        assert (code, out) == (3, "")
        assert err == "rejected: corpus expansion requires D = 5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus", "--count", "0"],
        ["eval", "[1; 2]", "--digits", "-5"],
        ["eval", "[1; 2]", "--digits", "0"],
        ["analyze", "1", "-2", "-1-1*w", "-n", "-1"],
        ["expand", "1", "-2", "-1-1*w", "--max-steps", "0"],
    ],
)
def test_numeric_flag_below_minimum_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least" in err


def test_precision_below_minimum_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["radius", "13", "--precision", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least 16" in err


# Each subcommand takes exactly the flags its cmd_* reads.
_COMMAND_FLAGS = {
    "eval": {"--field-d", "--output", "--digits"},
    "expand": {"--field-d", "--output", "--max-steps", "--branch", "--conj-branch"},
    "analyze": {"--field-d", "--precision", "--output", "--expansion", "--quotients",
                "--branch", "--conj-branch", "-n"},
    "radius": {"--precision", "--output"},
    "corpus": {"--field-d", "--output", "--max-steps", "--count", "--bound", "--seed"},
}
_BASE_ARGV = {
    "eval": ["eval", "[1; 2]"],
    "expand": ["expand", "1", "-2", "-1-1*w"],
    "analyze": ["analyze", "1", "-2", "-1-1*w", "-n", "1"],
    "radius": ["radius", "13"],
    "corpus": ["corpus", "--count", "1"],
}
_FLAG_VALUES = {"--field-d": "2", "--precision": "64", "--max-steps": "10", "--digits": "7",
                "--seed": "4"}


def test_each_command_declares_only_the_flags_it_reads():
    commands = next(
        a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )
    declared = {
        name: {a.option_strings[0] for a in p._actions
               if a.option_strings and a.option_strings != ["-h", "--help"]}
        for name, p in commands.items()
    }
    assert declared == _COMMAND_FLAGS
    assert sum(map(len, declared.values())) == 24


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command in _COMMAND_FLAGS for flag in _FLAG_VALUES
    if flag not in _COMMAND_FLAGS[command]
])
def test_unread_flag_is_usage_error(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([*_BASE_ARGV[command], flag, _FLAG_VALUES[flag]])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}={_FLAG_VALUES[flag]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unrecognized", [
    (["--bou=2"], "--bou=2"),
    (["--bou", "2"], "--bou 2"),
    (["--cou", "1"], "--cou 1"),
])
def test_abbreviated_flag_is_usage_error(capsys, argv, unrecognized):
    # Each command takes its flags exactly as the README spells them.
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--count", "1", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {unrecognized}\n")


@pytest.mark.parametrize("argv", [
    ["corpus", "--count", "1", "-5"],
    ["corpus", "--count", "1", "-1-1*w"],
    ["radius", "13", "-5"],
], ids=["corpus-number", "corpus-element", "radius-number"])
def test_stray_token_is_named_as_given(capsys, argv):
    # No '--' shows in the message of a command that takes no such positional.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {argv[-1]}\n")


@pytest.mark.parametrize("argv, position", [
    (["eval", "[1; 2, 3 4]"], 9),
    (["analyze", "1", "-2", "-1-1*w", "-n", "3", "--quotients=1,2,3 4"], 6),
    (["analyze", "--expansion", " [; 2, 4-2 w]", "-n", "3"], 11),
], ids=["eval", "quotients", "expansion"])
def test_parse_error_points_into_the_argument(capsys, argv, position):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"parse error: expected '+' or '-' between terms (at position {position})\n"


@pytest.mark.parametrize("argv", [
    ["eval", "[0; 1]"],
    ["expand", "1", "-2", "-1-1*w"],
    ["radius", "13"],
    ["corpus", "--count", "1"],
])
def test_csv_only_where_a_table_exists(capsys, argv):
    # Only analyze prints a table; the other commands refuse csv.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", "csv"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def parser_state(parser: argparse.ArgumentParser) -> list:
    """Help text, defaults and action objects of the parser and of each
    subcommand's parser."""
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return [(p.format_help(), dict(p._defaults), list(p._actions))
            for p in (parser, *commands.values())]


def test_main_leaves_the_parser_unchanged(capsys):
    parser = cli._PARSER
    before = parser_state(parser)
    outcomes = []
    for argv in (
        ["eval", "[1; 2]"],
        ["eval", "[;1/0]"],
        ["eval", "[1; 2]", "--precision", "8"],
        ["--help"],
        ["analyze", "--help"],
    ):
        try:
            outcomes.append(main(argv))
        except SystemExit as exc:
            outcomes.append(("exit", exc.code))
    capsys.readouterr()
    # A success, a ParseError, an argparse usage error and two --help.
    assert outcomes == [0, 2, ("exit", 2), ("exit", 0), ("exit", 0)]
    assert cli._PARSER is parser
    after = parser_state(parser)
    assert len(after) == len(before)
    for (help_before, defaults_before, actions_before), (help_after, defaults_after,
                                                         actions_after) in zip(before, after):
        assert help_after == help_before
        assert defaults_after == defaults_before
        assert len(actions_after) == len(actions_before)
        assert all(a is b for a, b in zip(actions_after, actions_before))


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_corpus_bound_below_one_is_usage_error(capsys, bound):
    # --bound 0 draws only zero leads and would never finish.
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "--count", "1", "--bound", bound])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least 1" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "[;1/0]"],
        ["expand", "1", "0", "20/0"],
        ["analyze", "1", "-2", "-1-1*w", "-n", "1", "--quotients=1/0,2"],
    ],
)
def test_zero_denominator_is_parse_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("parse error: zero denominator")


def test_unforeseen_exception_is_internal_failure(capsys, monkeypatch):
    def broken(expansion):
        raise RuntimeError("broken evaluator")

    monkeypatch.setattr("okcf.cli.eval_periodic", broken)
    code, out, err = run(capsys, "eval", "[1; 2]")
    assert code == 5
    assert out == ""
    assert err == "internal consistency failure: RuntimeError: broken evaluator\n"


def test_expansion_error_is_internal_failure(capsys, monkeypatch):
    def broken(*args):
        raise NoCandidateError("no corner candidate at step 3")

    monkeypatch.setattr("okcf.cli.expand_pair", broken)
    code, out, err = run(capsys, "expand", "1", "-2", "-1-1*w")
    assert code == 5
    assert out == ""
    assert err == "internal consistency failure: no corner candidate at step 3\n"


@pytest.mark.parametrize(
    "error",
    [ValueError("mismatched field specs"), ValueError("interval endpoints out of order")],
    ids=["specs", "interval"],
)
def test_internal_value_error_is_not_a_rejection(capsys, monkeypatch, error):
    # Exit 3 is for the library's own rejections; any other ValueError is a
    # fault of the program.
    def broken(expansion):
        raise error

    monkeypatch.setattr("okcf.cli.eval_periodic", broken)
    code, out, err = run(capsys, "eval", "[1; 2]")
    assert code == 5
    assert out == ""
    assert err == f"internal consistency failure: ValueError: {error}\n"


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["eval", "[1; 2]", "--field-d", "4"], "d must be a squarefree integer > 1, got 4"),
        (["expand", "0", "1", "1"], "leading coefficient must be nonzero"),
    ],
)
def test_input_rule_is_a_rejection(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"rejected: {reason}\n"


HAS_INT_STR_CAP = hasattr(sys, "get_int_max_str_digits")


@pytest.fixture
def int_str_cap():
    """Python's default int <-> str cap of 4300 digits during the test, and
    the caller's after it; None on a Python without the cap."""
    if not HAS_INT_STR_CAP:
        yield None
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(old)


def long_period(count: int) -> str:
    """A purely periodic expansion of `count` random quotients p + q*w with
    |p|, |q| <= 20."""
    rng = random.Random(7)
    quotients = (f"{rng.randint(-20, 20)}{rng.randint(-20, 20):+d}*w" for _ in range(count))
    return f"[; {', '.join(quotients)}]"


class TestIntegersPastTheStrCap:
    def test_a_discriminant_past_the_cap(self, capsys, int_str_cap):
        text = long_period(2000)
        code, out, err = run(capsys, "eval", text, "--output", "json")
        assert (code, err) == (0, "")
        if HAS_INT_STR_CAP:
            assert sys.get_int_max_str_digits() == int_str_cap
            sys.set_int_max_str_digits(0)
        disc = eval_periodic(parse_expansion(text, FieldSpec(5))).discriminant
        assert len(str(abs(disc.p))) > 4300
        assert json.loads(out)["discriminant"] == str(disc)

    def test_a_quotient_past_the_cap(self, capsys, int_str_cap):
        big = "1" + "0" * 4300
        code, out, err = run(capsys, "eval", f"[; {big}]", "--output", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["expansion"]["period"] == [big]

    @pytest.mark.skipif(not HAS_INT_STR_CAP, reason="this Python has no int <-> str cap")
    @pytest.mark.parametrize("cap", [0, 640, 4300])
    def test_main_restores_the_callers_cap(self, capsys, monkeypatch, int_str_cap, cap):
        sys.set_int_max_str_digits(cap)
        for argv, code in ((["eval", "[1; 2]"], 0), (["eval", "[1; 2"], 2),
                           (["eval", "[1; 2]", "--field-d", "4"], 3),
                           (["eval", f"[; 1{'0' * 4300}]"], 0)):
            assert run(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == cap
        monkeypatch.setattr("okcf.cli.eval_periodic", lambda expansion: 1 / 0)
        assert run(capsys, "eval", "[1; 2]")[0] == 5
        assert sys.get_int_max_str_digits() == cap


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--expansion", "[; 2, 0, w]", "-n", "3"],
        ["analyze", "1", "-2", "-1-1*w", "-n", "2", "--quotients=1,0,2"],
    ],
    ids=["expansion", "quotients"],
)
def test_zero_quotient_is_accepted(capsys, argv):
    # `eval` gives [; 2, 0, w] a value, so `analyze` takes zeros as well.
    code, out, err = run(capsys, *argv, "--output", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"]
    assert len(rows) == int(argv[argv.index("-n") + 1]) + 1
    if "--expansion" in argv:
        code, evaluated, _ = run(capsys, "eval", argv[2], "--output", "json")
        assert code == 0
        assert json.loads(out)["seed"] == json.loads(evaluated)["poly"]


@pytest.mark.parametrize(
    "argv",
    [
        # Small enough to sit in the stdout buffer until main's final flush.
        ["eval", "[1; 2]"],
        # Larger than the buffer: print itself hits the closed pipe.
        ["analyze", "--expansion", "[; 2, 4-2*w]", "-n", "20", "--output", "json"],
    ],
)
def test_closed_stdout_exits_1_silently(argv):
    # As in `okcf ... | head -1`: the reader is gone before the output is
    # written.  The process reports nothing and exits 1, not 5.
    src = Path(__file__).resolve().parents[1] / "src"
    paths = [str(src), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.Popen(
        [sys.executable, "-c", "import sys; from okcf.cli import main; sys.exit(main())", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""


def test_precision_above_maximum_is_usage_error(capsys):
    # At 16385 bits an error-term enclosure would ask `embed` for more than
    # MAX_BITS, which no enclosure can reach.
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--expansion", "[; 2, 4-2*w]", "-n", "2", "--precision", "16385"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at most 16384" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "5"],
        ["analyze", "--expansion", "[; 2, 4-2*w]", "-n", "1"],
    ],
)
def test_precision_at_maximum_succeeds(capsys, argv):
    code, out, err = run(capsys, *argv, "--precision", "16384")
    assert code == 0
    assert err == ""
    assert out


# 201 quotients for a 200-step analyze run over a complex sigma(delta).
_LONG_QUOTIENTS = ",".join((["1", "w", "2", "1", "-w", "3", "1-w", "2", "w", "1", "-2", "1", "2"]
                            * 16)[:201])

# sha256 of stdout and the exit code of reference commands. Printed answers
# are part of the CLI's contract: a refactor must keep them byte-identical.
_PINNED_OUTPUTS = [
    ("corpus --count 25 --bound 3 --seed 1 --output json", 0,
     "9aa4ef28c2a7ba0e91368c0783624178d92b1fbf9650b633ebd310bbb9f09266"),
    # Large coefficients: periods reach the hundreds at bound 40.
    ("corpus --count 100 --bound 12 --seed 7 --output json", 0,
     "9943780245609bc674a6010b5146da25f786f3da96c8da76b5201a03b44e18bb"),
    ("corpus --count 30 --bound 40 --seed 11 --output json", 0,
     "cfa9e7f360a1f372f94996e77df4b533782a29ab724f46d9c8f30216f210e21a"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40 --output json", 0,
     "53a3cd6070f65d8d0a059cc49c1fb1396a614b3799fcdd775373a3593ec57f43"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40", 0,
     "e5f200a77d798b4779d373705f45995e2b77beae8e439305c8e752c24d796396"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40 --output csv --precision 128", 0,
     "23866d1fd7b864269df80d3f90bb48aae95c745045dd81dd8e40a4b55c198082"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 1 --precision 16384 --output json", 0,
     "5fc33da2c012c5de5766ae6dc3f6bab6d56b2498a59b0ab6591fc7d1931cb16e"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 8 --precision 4096 --output json", 0,
     "6582d6e939f1bd5656b8d186efa589e443bbf82ff10186f969cc64c358117ca5"),
    # Long horizons: each row's error term needs more bits than the last.
    ("analyze --expansion '[; 2, 4-2*w]' -n 400 --output csv", 0,
     "c10acf7504c765c1b85b5058e8314c15d6c5d9e1941479e45291bcaac5126a19"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 281 --output json", 0,
     "7f4336e8ef7f7bdf25e5aeb3ff1abd96fd926d8fcd197744564882c8614c1ed3"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 400 --output json", 0,
     "82d465d9e46c393160eb1ff5384865db493925762a2c484f2f98cb84e375cb27"),
    ("analyze 1 -2 -1-1*w -n 10", 0,
     "af827bdf1d205e59b62b8c2f9e768e9433b1425519709b1f8f1dbd2c9cf74985"),
    # A complex sigma(delta): the rows' sigma-side error terms are moduli.
    ("analyze 1 0 2-3*w -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2 --output json", 0,
     "072debb439ba98169f167aa349d5ed239b6941fb360e8600bbd57e70908b7cdc"),
    ("analyze 1 0 2-3*w -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2 --output csv "
     "--precision 256", 0,
     "1beff98f8629b8872efdd49d205aa6f66cba92d93df1137f5f8a5e6a03a534c4"),
    ("analyze 1 0 2-3*w -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2", 0,
     "aef160e1a88f586ef012ced867fc5d658f9d4d90d3e7be8f0fe4de317098ce4c"),
    (f"analyze 1 0 2-3*w -n 200 --quotients={_LONG_QUOTIENTS} --output csv --precision 256", 0,
     "42db3adaa79b6888781fa49482f8fbe11cd5125c60190e1a56386e590a91e679"),
    # At 16 bits the Weil factors are proved 1 below t = 1 - 2^-15.
    ("analyze --expansion '[; 2, 4-2*w]' -n 40 --precision 16 --output json", 0,
     "d30aae78326137f1598c4c55fe1310304f54737286f210dc6bcdc91feb918154"),
    ("analyze 1 0 2-3*w -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2 --precision 16 "
     "--output csv", 0,
     "442d56bc3763f46438b4935abda3a69371b22ed88671e5168bda0d4b47f82f5a"),
    # Other fields: w = sqrt(2) over m = 1 (real sigma(delta)), and
    # w = (1 + sqrt(13))/2 over m = 2 (complex sigma(delta)).
    ("analyze 1 -2 -1-1*w --field-d 2 -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2 "
     "--output json", 0,
     "3b861b7533d1fab0cc1013c98b0048e2de395e7db81f7edc49eeb4ce205fe210"),
    ("analyze 1 0 2-3*w --field-d 13 -n 12 --quotients=1,w,2,1,-w,3,1-w,2,w,1,-2,1,2 "
     "--output json", 0,
     "08274a0c87199d698833b8a88db41c9e94f9cd79dd89f3b8b352310a24b35905"),
    ("expand 1 -2 -1-1*w --conj-branch=+ --output json", 0,
     "fc78197ce6cf37ef02896e4d253edf132e944bb3d6c7bce8404dc68bc06fc785"),
    ("expand 1 -2 -1-1*w --conj-branch=- --output json", 0,
     "fc5d2f362679e92f98691aecaa81a284eae8b3c95ccc6b716063cc0e0306d280"),
    ("eval '[; 2, 4-2*w]' --digits 40", 0,
     "122a86cb9c58eaab3ba0008b0b6bf9490b733e452c83d840266888055bb208d1"),
    ("eval '[; 2, 4-2*w]' --digits 1000", 0,
     "c2a7f5093f2561578284dde11a0f76d42ed8212ae18de1ec27a1c5e8b7ca1211"),
    ("radius 13 --output json", 0,
     "0ab3467a58c156d87faf0d15eefca3f2de3054e38cb170261d99b3daa16926a8"),
    # A value in K, a double root, a negative discriminant and a window.
    ("eval '[; 1]'", 0,
     "b04f25f3d92d8fc6fe464069bd69e2fbdad25c31d3310efd9cc7fd293be865b1"),
    ("eval '[; 1]' --output json", 0,
     "e6f1d49322f297ebb524a470a8e2500065cf54904e3de923c69345cd42aa8eeb"),
    ("eval '[; 2, -2]' --output json", 0,
     "20f38bbca75cce230cbdb6884eb5734b78881bbd3463f8587e5c0258fe0051f4"),
    ("eval '[; 1, -1]'", 0,
     "bf6cbed8ae49ad4c67b777044c970991819361c716e5310136364a75ae75c3d0"),
    ("eval '[; -2-1*w, -1-1*w, 2-1*w]'", 0,
     "f871c0e34570cfbf4a7a2990cbad45077a69fb57a78f69ae0c91c66298786ace"),
    # Pre-periods: one quotient, three, and three with a zero among them.
    ("eval '[1; 2]' --output json", 0,
     "e0cfe35ee78be882ab1f26ca743ba9678656ccf5bcd5b6537c09293d1e2409df"),
    ("eval '[1+1*w, -2, w; 2, 4-2*w]' --output json", 0,
     "652db3031b6fbbb61ef5bb56d57420b7cc0e3803f899394bc8dd423bc99c29b3"),
    ("eval '[2, 0, -1; 1, w]'", 0,
     "9a6aab43c8d0647de07d3afcee116f9c22b469cbd7673469374ceaa11a66c31c"),
]


@pytest.mark.parametrize(
    "command, code, digest", _PINNED_OUTPUTS, ids=[c for c, _, _ in _PINNED_OUTPUTS]
)
def test_reference_output_is_pinned(capsys, command, code, digest):
    got_code, out, _ = run(capsys, *shlex.split(command))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class CountingStdout(io.StringIO):
    """A standard output stand-in that counts its `write` calls."""

    def __init__(self) -> None:
        super().__init__()
        self.writes = 0

    def write(self, text: str) -> int:
        self.writes += 1
        return super().write(text)


def _output_choices(command: str) -> tuple[str, ...]:
    commands = next(
        a.choices for a in cli._PARSER._actions if isinstance(a, argparse._SubParsersAction)
    )
    return next(a.choices for a in commands[command]._actions if a.dest == "output")


# Each command returns its output, and `main` alone writes it: once, and
# only on success.
@pytest.mark.parametrize("command, output", [
    (command, output) for command in _BASE_ARGV for output in _output_choices(command)
])
def test_a_success_writes_stdout_once(monkeypatch, command, output):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main([*_BASE_ARGV[command], "--output", output]) == 0
    assert stdout.writes == 1
    assert stdout.getvalue().endswith("\n")


@pytest.mark.parametrize("argv, code", [
    (["eval", "[1; 2"], 2),
    (["analyze", "1", "-2", "-1-1*w", "-n", "300", "--quotients=" + ",".join(["3"] * 301),
      "--output", "csv"], 3),
    (["expand", "1", "-2", "-1-1*w", "--max-steps", "1"], 4),
    (["radius", "13", "--seed", "4"], 2),
], ids=["parse", "float-range", "max-steps", "usage"])
def test_a_failure_writes_no_stdout(monkeypatch, argv, code):
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    try:
        got = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        got = exc.code
    assert got == code
    assert stdout.writes == 0


def test_an_internal_failure_writes_no_stdout(monkeypatch):
    # analyze's CSV makes its floats row by row: fail at the last row's.
    calls = []

    def failing(m, _real=cli.dyadic_floats):
        calls.append(m)
        if len(calls) == 4 * 6:
            raise NoCandidateError("planted at the last row")
        return _real(m)

    monkeypatch.setattr("okcf.cli.dyadic_floats", failing)
    stdout = CountingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["analyze", "1", "-2", "-1-1*w", "-n", "5", "--output", "csv"]) == 5
    assert len(calls) == 4 * 6
    assert stdout.writes == 0
