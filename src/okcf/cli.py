"""Command-line interface.

Commands: eval, expand, analyze, radius, corpus.  Exit codes: 0 success,
1 standard output closed by its reader, 2 parse error, 3 precondition
rejection, 4 max-steps exceeded, 5 internal consistency failure.  Each
command returns its output as one string; `main` writes it to standard
output once, and only on success: a run that exits nonzero writes none.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
from bisect import bisect_left
from decimal import Context, Decimal
from itertools import islice
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .cf import eval_periodic
from .field import FieldSpec, InputRuleError, KElement, SurdElement
from .golden import (
    ExpansionError,
    ExpansionResult,
    GoldenPreconditionError,
    MaxStepsError,
    SeedRejection,
    classify_seed,
    covering_radius,
    expand_pair,
    pair_steps,
)
from .intervals import MAX_BITS, Dyadic, PrecisionError, dyadic_floats, dyadic_mid_float
from .parsing import ParseError, parse_element_list, parse_expansion, parse_k
from .quartic import (
    QuadraticPolyK,
    SeedError,
    TrajectoryRow,
    TrajectorySummary,
    diagnostics,
    summarize,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MAX_STEPS = 4
EXIT_INTERNAL = 5


# The most digits whose display bits, int(3.33*digits) + 16, stay within
# MAX_BITS; more would ask `embed` for an enclosure it cannot reach.
_MAX_DIGITS = int((MAX_BITS - 16) / 3.33)

# The most bits whose nested enclosure requests stay within MAX_BITS. An
# error term's relative enclosure (`quartic._tight_abs_m`) may ask
# `field._surd_form_embed` for 2p bits, that may refine to 4p and ask
# `_form_embed` for as many, and no request above MAX_BITS can be met:
# `_form_embed` accepts a level only at p <= MAX_BITS.
_MAX_PRECISION = MAX_BITS // 4


def decimal_str(value: KElement | SurdElement, digits: int) -> str:
    """Display-only decimal rendering at `digits` significant digits.

    One embedding suffices: its width <= 2^(1-bits) * max(1, |lo|) is at
    most 10^-(digits+2) * max(1, |lo|) for bits >= 3.33*digits + 15."""
    mid = value.embed(max(64, int(digits * 3.33) + 16)).mid
    return str(Context(prec=digits).divide(Decimal(mid.numerator), Decimal(mid.denominator)))


def _poly_json(a: KElement, b: KElement, c: KElement) -> dict:
    return {"A": str(a), "B": str(b), "C": str(c)}


def cmd_eval(args: argparse.Namespace) -> str:
    expansion = parse_expansion(args.expansion, FieldSpec(args.field_d))
    if not expansion.is_periodic:
        raise ParseError("expansion must have a nonempty period")
    res = eval_periodic(expansion)
    payload: dict = {
        "expansion": {
            "preperiod": [str(a) for a in expansion.preperiod],
            "period": [str(a) for a in expansion.period],
        },
        "e_matrix": [
            [str(res.e.e11), str(res.e.e12)],
            [str(res.e.e21), str(res.e.e22)],
        ],
        "poly": _poly_json(*res.poly),
        "discriminant": str(res.discriminant),
    }
    in_k = res.value is None
    value = res.value_in_k if in_k else res.value
    if value is not None:
        payload["outcome"] = "value_in_k" if in_k else "value"
        payload["value"] = str(value)
        payload["decimal"] = decimal_str(value, args.digits)
    else:
        payload["outcome"] = "does_not_exist"
        payload["reason"] = res.failure.value
        if res.window is not None:
            payload["window"] = res.window
        if res.negative_discriminant:
            payload["negative_discriminant"] = True
    if res.double_root:
        payload["double_root"] = True
    if res.linear_poly:
        payload["linear_poly"] = True

    if args.output == "json":
        return json.dumps(payload, indent=2) + "\n"
    text = (
        f"expansion      {expansion}\n"
        f"E(P)           {res.e}\n"
        f"f(P)           ({res.poly[0]})*x^2 + ({res.poly[1]})*x + ({res.poly[2]})\n"
        f"discriminant   {res.discriminant}\n"
    )
    if value is not None:
        return (text + f"{'value (in K)' if in_k else 'value':<15}{value}\n"
                f"decimal        {payload['decimal']}\n")
    reason = res.failure.value
    if res.negative_discriminant:
        reason += " (negative discriminant)"
    if res.window is not None:
        reason += f" (window j={res.window})"
    return text + f"value          doesn't exist: {reason}\n"


def _parse_seed(args: argparse.Namespace) -> QuadraticPolyK:
    spec = FieldSpec(args.field_d)
    a = parse_k(args.A, spec, require_integral=True)
    b = parse_k(args.B, spec, require_integral=True)
    c = parse_k(args.C, spec, require_integral=True)
    return QuadraticPolyK(a, b, c)


def _branch(flag: str | None) -> int:
    return -1 if flag == "-" else 1


def _expansion_json(r: ExpansionResult) -> dict:
    return {
        "seed": _poly_json(r.seed.A, r.seed.B, r.seed.C),
        "branch": "+" if r.branch > 0 else "-",
        "conj_branch": "+" if r.conj_branch > 0 else "-",
        "preperiod": [str(a) for a in r.expansion.preperiod],
        "period": [str(a) for a in r.expansion.period],
        "steps": r.steps,
        "verified": r.verified,
    }


def cmd_expand(args: argparse.Namespace) -> str:
    seed = _parse_seed(args)
    result = expand_pair(
        seed,
        _branch(args.branch),
        _branch(args.conj_branch),
        args.max_steps,
    )
    if args.output == "json":
        return json.dumps(_expansion_json(result), indent=2) + "\n"
    pre = ", ".join(str(a) for a in result.expansion.preperiod)
    per = ", ".join(str(a) for a in result.expansion.period)
    return (
        f"seed           {seed}\n"
        f"preperiod      [{pre}]\n"
        f"period         [{per}]\n"
        f"steps          {result.steps}\n"
        f"cycle start    {result.cycle_start}\n"
        f"verified       {result.verified}\n"
    )


def _analyze_quotients(args: argparse.Namespace):
    n = args.steps
    if args.expansion is not None:
        if any(x is not None for x in (args.A, args.quotients, args.branch, args.conj_branch)):
            raise ParseError("--expansion takes no A B C, --quotients, --branch or --conj-branch")
        expansion = parse_expansion(args.expansion, FieldSpec(args.field_d))
        if not expansion.is_periodic:
            raise ParseError("expansion must have a nonempty period")
        res = eval_periodic(expansion)
        if res.value is None:
            raise SeedError(
                "expansion has no quartic value; nothing to analyze "
                f"({'in K' if res.value_in_k is not None else res.failure.value})"
            )
        seed = QuadraticPolyK(*res.poly)
        # value.y = branch/(2A), so branch = 2A*y exactly.
        t = 2 * res.poly[0] * res.value.y
        branch = 1 if t == 1 else -1
        return seed, branch, expansion.prefix(n)
    if not (args.A and args.B and args.C):
        raise ParseError("analyze requires either --expansion or A B C")
    seed = _parse_seed(args)
    branch = _branch(args.branch)
    if args.quotients is not None:
        if args.conj_branch is not None:
            raise ParseError("--quotients takes no --conj-branch")
        quotients = parse_element_list(args.quotients, seed.spec, require_integral=True)
        if len(quotients) < n + 1:
            raise ParseError(
                f"need {n + 1} quotients for {n} steps, got {len(quotients)}"
            )
        return seed, branch, quotients[: n + 1]
    # Drive the pair expansion for n+1 quotients (no cycle needed).
    steps = pair_steps(seed, branch, _branch(args.conj_branch))
    return seed, branch, [a for a, _ in islice(steps, 1, n + 2)]


def _analyze_json(seed: QuadraticPolyK, rows: list[TrajectoryRow],
                  summary: TrajectorySummary) -> str:
    """What `json.dumps(payload, indent=2)` gives for analyze's payload of
    seed, rows and summary, written from the fields in the same layout: a
    string by `encode_basestring_ascii`, a float by `float.__repr__` and
    None as null.  No float here is infinite: an endpoint past the float
    range raises OverflowError in `dyadic_floats`."""
    text = encode_basestring_ascii

    def pair(m: Dyadic) -> str:
        lo, hi = dyadic_floats(m)
        return f"[\n        {lo!r},\n        {hi!r}\n      ]"

    rows_text = ",\n".join(
        f'    {{\n      "n": {r.index},\n'
        f'      "A_n": {text(str(r.triple[0]))},\n'
        f'      "B_n": {text(str(r.triple[1]))},\n'
        f'      "C_n": {text(str(r.triple[2]))},\n'
        f'      "P_n": {text(str(r.p))},\n'
        f'      "Q_n": {text(str(r.q))},\n'
        f'      "s_n": {pair(r.s_m)},\n'
        f'      "f1": {pair(r.f1_m)},\n'
        f'      "f2": {pair(r.f2_m)},\n'
        f'      "weil": {pair(r.weil_m)},\n'
        f'      "naive": {r.naive}\n    }}'
        for r in rows
    )
    sigma = "null" if summary.sup_qs_sigma is None else repr(summary.sup_qs_sigma)
    return (
        f'{{\n  "seed": {{\n    "A": {text(str(seed.A))},\n'
        f'    "B": {text(str(seed.B))},\n    "C": {text(str(seed.C))}\n  }},\n'
        f'  "rows": [\n{rows_text}\n  ],\n'
        f'  "summary": {{\n    "steps": {summary.steps},\n'
        f'    "max_abs_A": {summary.max_abs_a!r},\n'
        f'    "max_abs_sigma_A": {summary.max_abs_sigma_a!r},\n'
        f'    "sup_Q_S": {summary.sup_qs!r},\n'
        f'    "sup_Q_S_sigma": {sigma},\n'
        f'    "weil_min": {summary.weil_min!r},\n'
        f'    "weil_max": {summary.weil_max!r},\n'
        f'    "naive_max": {summary.naive_max}\n  }}\n}}'
    )


# Analyze's CSV columns: a row's fields, each [lo, hi] pair split in two.
_CSV_HEADER = ("n", "A_n", "B_n", "C_n", "P_n", "Q_n", "s_n_lo", "s_n_hi", "f1_lo", "f1_hi",
               "f2_lo", "f2_hi", "weil_lo", "weil_hi", "naive")


def _first_row_past_floats(rows: list[TrajectoryRow], precision: int,
                           summarized: bool) -> int:
    """The least n such that row n, or with `summarized` the summary of
    rows 0..n, holds a value past the float range; len(rows) if none.  The
    summary takes maxima, so this is monotone in n, and a bisection finds
    it.  Only an output that overflowed asks."""
    def past(n: int) -> bool:
        try:
            for r in rows[: n + 1]:
                for m in (r.s_m, r.f1_m, r.f2_m, r.weil_m):
                    dyadic_floats(m)
            if summarized:
                summarize(rows[: n + 1], precision)
        except OverflowError:
            return True
        return False

    return bisect_left(range(len(rows)), True, key=past)


def cmd_analyze(args: argparse.Namespace) -> str:
    seed, branch, quotients = _analyze_quotients(args)
    rows = diagnostics(seed, branch, quotients, args.precision)
    # A value past the float range is the quotients' doing: a rejection.
    try:
        if args.output == "csv":
            out = io.StringIO()
            writer = csv.writer(out)
            writer.writerow(_CSV_HEADER)
            writer.writerows(
                (r.index, *r.triple, r.p, r.q, *dyadic_floats(r.s_m), *dyadic_floats(r.f1_m),
                 *dyadic_floats(r.f2_m), *dyadic_floats(r.weil_m), r.naive)
                for r in rows
            )
            return out.getvalue()
        summary = summarize(rows, args.precision)
        if args.output == "json":
            return _analyze_json(seed, rows, summary) + "\n"
        return _analyze_text(seed, branch, rows, summary)
    except OverflowError:
        n = _first_row_past_floats(rows, args.precision, args.output != "csv")
        if n == len(rows):
            raise
        raise InputRuleError(
            f"row {n} leaves the float range: the quotients drive a value printed for it "
            "past 2^1024"
        ) from None


def _analyze_text(seed: QuadraticPolyK, branch: int, rows: list[TrajectoryRow],
                  summary: TrajectorySummary) -> str:
    lines = [
        f"seed     {seed}   branch {'+' if branch > 0 else '-'}",
        f"{'n':>4}  {'A_n':>14}  {'s_n':>12}  {'f1':>12}  {'f2':>12}  {'H':>10}  {'naive':>7}",
    ]
    lines += (
        f"{r.index:>4}  {str(r.triple[0]):>14}  {dyadic_mid_float(r.s_m):>12.5g}  "
        f"{dyadic_mid_float(r.f1_m):>12.5g}  {dyadic_mid_float(r.f2_m):>12.5g}  "
        f"{dyadic_mid_float(r.weil_m):>10.5g}  {r.naive:>7}"
        for r in rows
    )
    sigma_side = (
        f"{summary.sup_qs_sigma:.6g}" if summary.sup_qs_sigma is not None else "n/a"
    )
    lines.append(
        f"summary: max|A_n|={summary.max_abs_a:.6g} max|sigma(A_n)|={summary.max_abs_sigma_a:.6g} "
        f"sup|Q_n S_n|={summary.sup_qs:.6g} sigma-side={sigma_side}"
    )
    lines.append(
        f"         H in [{summary.weil_min:.6g}, {summary.weil_max:.6g}] "
        f"naive max={summary.naive_max}"
    )
    return "\n".join(lines) + "\n"


def cmd_radius(args: argparse.Namespace) -> str:
    cr = covering_radius(args.D, args.precision)
    if args.output == "json":
        return json.dumps({
            "D": cr.d,
            "r_squared": str(cr.r_squared),
            "r": [float(cr.interval.lo), float(cr.interval.hi)],
            "usable": cr.usable,
        }) + "\n"
    return (f"D={cr.d}: r^2 = {cr.r_squared}, r ~ {float(cr.interval):.6f}, "
            f"{'usable (r < 1)' if cr.usable else 'not usable (r >= 1)'}\n")


def _random_k(rng: random.Random, spec: FieldSpec, bound: int) -> KElement:
    return spec.element(rng.randint(-bound, bound), rng.randint(-bound, bound))


def _sample_seed(rng: random.Random, spec: FieldSpec, bound: int, counters: dict) -> QuadraticPolyK | None:
    # A is drawn and tested before B and C: the corpus depends on this order.
    a = _random_k(rng, spec, bound)
    if a.is_zero:
        counters[SeedRejection.ZERO_LEAD.value] += 1
        return None
    b = _random_k(rng, spec, bound)
    c = _random_k(rng, spec, bound)
    seed = QuadraticPolyK(a, b, c)
    reason = classify_seed(seed)
    if reason is not None:
        counters[reason.value] += 1
        return None
    return seed


def run_corpus(count: int, bound: int, max_steps: int, rng_seed: int) -> dict:
    spec = FieldSpec(5)
    rng = random.Random(rng_seed)
    counters = {reason.value: 0 for reason in SeedRejection}
    seeds: list[QuadraticPolyK] = []
    while len(seeds) < count:
        seed = _sample_seed(rng, spec, bound, counters)
        if seed is not None:
            seeds.append(seed)
    runs = []
    for i, seed in enumerate(seeds):
        for conj in (1, -1):
            entry: dict = {
                "seed_index": i,
                "seed": _poly_json(seed.A, seed.B, seed.C),
                "conj_branch": "+" if conj > 0 else "-",
            }
            try:
                r = expand_pair(seed, 1, conj, max_steps)
                entry.update(
                    cycle=True,
                    preperiod=len(r.expansion.preperiod),
                    period=len(r.expansion.period),
                    steps=r.steps,
                    verified=r.verified,
                )
            except MaxStepsError:
                entry.update(cycle=False, verified=False)
            runs.append(entry)
    cycles = [r for r in runs if r["cycle"]]
    summary = {
        "count": count,
        "bound": bound,
        "random_seed": rng_seed,
        "runs": len(runs),
        "cycles_detected": len(cycles),
        "cycle_fraction": len(cycles) / len(runs),
        "verified_fraction": (
            sum(1 for r in cycles if r["verified"]) / len(cycles) if cycles else None
        ),
        "preperiod_lengths": sorted(r["preperiod"] for r in cycles),
        "period_lengths": sorted(r["period"] for r in cycles),
        "rejections": counters,
    }
    return {"summary": summary, "runs": runs}


def cmd_corpus(args: argparse.Namespace) -> str:
    if args.field_d != 5:
        raise GoldenPreconditionError("corpus expansion requires D = 5")
    report = run_corpus(args.count, args.bound, args.max_steps, args.seed)
    if args.output == "json":
        return json.dumps(report, indent=2) + "\n"
    s = report["summary"]
    return (
        f"corpus: {s['count']} seeds (bound {s['bound']}, rng seed {s['random_seed']}), "
        f"{s['runs']} expansions\n"
        f"cycles detected: {s['cycles_detected']}/{s['runs']} "
        f"(verified: {s['verified_fraction']})\n"
        f"preperiod lengths: {s['preperiod_lengths']}\n"
        f"period lengths:    {s['period_lengths']}\n"
        f"rejection counters: {s['rejections']}\n"
    )


def _int_at_least(minimum: int, maximum: int | None = None):
    """argparse type: an int no smaller than `minimum` (and no larger than
    `maximum`, if given)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse reports "invalid int value" for non-integers
    return parse


def build_parser() -> argparse.ArgumentParser:
    # No abbreviations: each command takes exactly the flags the README lists.
    parser = argparse.ArgumentParser(
        prog="okcf",
        allow_abbrev=False,
        description="Continued fractions with partial quotients in O_K, K = Q(sqrt(D))",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    branch = dict(choices=("+", "-"))  # no default: analyze tells a given branch from none
    options = {
        "--field-d": dict(type=int, default=5, help="squarefree D of Q(sqrt(D))"),
        "--precision": dict(type=_int_at_least(16, _MAX_PRECISION), default=64, help="enclosure bits"),
        "--max-steps": dict(type=_int_at_least(1), default=10_000),
        "--branch": branch,
        "--conj-branch": branch,
    }

    def command(name: str, run, help: str, *flags: str, outputs=("text", "json")):
        """A subcommand with `--output` and the named shared `options`."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(run=run)
        p.add_argument("--output", choices=outputs, default="text")
        for flag in flags:
            p.add_argument(flag, **options[flag])
        return p

    p = command("eval", cmd_eval, "evaluate a periodic expansion", "--field-d")
    p.add_argument("expansion", help='e.g. "[1; 2]" or "[; 2, 4-2*w]"')
    p.add_argument("--digits", type=_int_at_least(1, _MAX_DIGITS), default=30,
                   help="decimal digits for display")

    p = command("expand", cmd_expand, "expand a quartic root over Q(sqrt(5))",
                "--field-d", "--max-steps", "--branch", "--conj-branch")
    for name in "ABC":
        p.add_argument(name)

    # Only analyze prints a table, so only analyze writes CSV.
    p = command("analyze", cmd_analyze, "trajectory diagnostics table", "--field-d",
                "--precision", "--branch", "--conj-branch", outputs=("text", "json", "csv"))
    for name in "ABC":
        p.add_argument(name, nargs="?")
    p.add_argument("--expansion", help="analyze along an explicit periodic expansion")
    p.add_argument("--quotients", help="comma-separated explicit partial quotients")
    p.add_argument("-n", "--steps", type=_int_at_least(0), default=20)

    command("radius", cmd_radius, "covering radius of v(O_K)", "--precision").add_argument("D", type=int)

    p = command("corpus", cmd_corpus, "random-seed expansion corpus", "--field-d", "--max-steps")
    p.add_argument("--seed", type=int, default=0, help="corpus randomness seed")
    p.add_argument("--count", type=_int_at_least(1), default=10)
    p.add_argument("--bound", type=_int_at_least(1), default=3)

    return parser


# The one parser `main` reads, built once at import and never changed:
# argparse keeps what it parses in a fresh namespace per call.
_PARSER = build_parser()


def _prepare_argv(argv: Sequence[str], parser: argparse.ArgumentParser) -> list[str]:
    """Reorder one subcommand's argv as [cmd, flags..., '--', positionals...]
    so that element arguments with a leading '-' parse as positionals.

    A value flag is joined to its value as flag=value, so that a value with
    a leading '-' (say --quotients -1-1*w,2) is not taken for a flag; a
    short one keeps a value it holds already (-n5 or -n=5).  Any other
    token that starts with '--' stays among the flags for argparse to
    judge: no element is spelled so.  The '--' goes in only before a
    positional with a leading '-', and only for a command that declares a
    positional: elsewhere argparse names the stray token as it was given.
    """
    argv = list(argv)
    if not argv or argv[0].startswith("-"):
        return argv
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    # Option strings, over all subcommands, that take a value.
    value_flags = {
        opt for sub in commands.values() for action in sub._actions
        if action.nargs != 0 for opt in action.option_strings
    }
    cmd, rest = argv[0], argv[1:]
    flags: list[str] = []
    positionals: list[str] = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--":
            positionals.extend(rest[i + 1 :])
            break
        if tok in value_flags:
            # A trailing flag with no value is left for argparse to report.
            flags.append(f"{tok}={rest[i + 1]}" if i + 1 < len(rest) else tok)
            i += 2
        elif tok == "-h" or tok.startswith("--") or tok[:2] in value_flags:
            flags.append(tok)
            i += 1
        else:
            positionals.append(tok)
            i += 1
    declared = cmd in commands and any(not a.option_strings for a in commands[cmd]._actions)
    if declared and any(tok.startswith("-") for tok in positionals):
        return [cmd, *flags, "--", *positionals]
    return [cmd, *flags, *positionals]


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_prepare_argv(argv, _PARSER))
    # Valid input can need integers past Python's int <-> str cap of 4300
    # digits (3.10.7 on; earlier versions have none), so a command runs
    # without it and the caller's cap is restored after.
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        sys.stdout.write(args.run(args))
        sys.stdout.flush()
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed standard output (say, `| head`).  As the Python
        # `signal` docs advise, point stdout at devnull so that the flush at
        # interpreter exit cannot fail again, and print nothing.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InputRuleError as exc:
        print(f"rejected: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MaxStepsError as exc:
        print(f"max steps exceeded: {exc}", file=sys.stderr)
        return EXIT_MAX_STEPS
    except (ExpansionError, PrecisionError, AssertionError) as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        # A fault nobody foresaw: name it, but print no traceback.
        print(f"internal consistency failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
