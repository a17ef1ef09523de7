from __future__ import annotations

import decimal
import hashlib
import json
import os
import shlex
import subprocess
import sys

from fractions import Fraction
from pathlib import Path

import pytest

from okcf.cli import decimal_str, main
from okcf.field import KElement, SurdElement


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

    def test_seed_mode_rejects_like_expand(self, capsys):
        # delta = -4+8*w > 0 but sigma(delta) = 4-8*w < -4: the reason is
        # about the seed, not a discriminant of the conjugate track.
        expand_code, _, expand_err = run(capsys, "expand", "1", "0", "1-2*w")
        code, out, err = run(capsys, "analyze", "1", "0", "1-2*w", "-n", "3")
        assert expand_code == code == 3
        assert err == expand_err
        assert "sigma(discriminant) < -4" in err
        assert out == ""

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
        main(["eval", "[1; 2]", "--precision", "8"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be at least 16" in err


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
    ],
)
def test_input_rule_is_a_rejection(capsys, argv, reason):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == f"rejected: {reason}\n"


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


# sha256 of stdout and the exit code of reference commands. Printed answers
# are part of the CLI's contract: a refactor must keep them byte-identical.
_PINNED_OUTPUTS = [
    ("corpus --count 25 --bound 3 --seed 1 --output json", 0,
     "9aa4ef28c2a7ba0e91368c0783624178d92b1fbf9650b633ebd310bbb9f09266"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40 --output json", 0,
     "53a3cd6070f65d8d0a059cc49c1fb1396a614b3799fcdd775373a3593ec57f43"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40", 0,
     "e5f200a77d798b4779d373705f45995e2b77beae8e439305c8e752c24d796396"),
    ("analyze --expansion '[; 2, 4-2*w]' -n 40 --output csv --precision 128", 0,
     "23866d1fd7b864269df80d3f90bb48aae95c745045dd81dd8e40a4b55c198082"),
    ("analyze 1 -2 -1-1*w -n 10", 0,
     "af827bdf1d205e59b62b8c2f9e768e9433b1425519709b1f8f1dbd2c9cf74985"),
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
]


@pytest.mark.parametrize(
    "command, code, digest", _PINNED_OUTPUTS, ids=[c for c, _, _ in _PINNED_OUTPUTS]
)
def test_reference_output_is_pinned(capsys, command, code, digest):
    got_code, out, _ = run(capsys, *shlex.split(command))
    assert got_code == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
