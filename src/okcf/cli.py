"""Command-line interface.

Commands: eval, expand, analyze, radius, corpus.  Exit codes: 0 success,
1 standard output closed by its reader, 2 parse error, 3 precondition
rejection, 4 max-steps exceeded, 5 internal consistency failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from dataclasses import dataclass
from decimal import Context, Decimal
from itertools import islice
from typing import Sequence

from .cf import eval_periodic
from .field import FieldSpec, InputRuleError, KElement, SurdElement
from .golden import (
    ExpansionConfig,
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
from .intervals import MAX_BITS, PrecisionError, RealInterval
from .parsing import ParseError, parse_element_list, parse_expansion, parse_k
from .quartic import QuadraticPolyK, SeedError, TrajectoryRow, diagnostics, summarize

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_MAX_STEPS = 4
EXIT_INTERNAL = 5


@dataclass
class SessionConfig:
    """The inputs of `run_corpus` besides its count and bound."""

    d: int = 5
    max_steps: int = 10_000
    seed: int = 0


# The most digits whose display bits, int(3.33*digits) + 16, stay within
# MAX_BITS; more would ask `embed` for an enclosure it cannot reach.
_MAX_DIGITS = int((MAX_BITS - 16) / 3.33)

# The most bits whose nested enclosure requests stay within MAX_BITS. An
# error term's relative enclosure (`quartic._tight_abs`) may ask `embed` for
# 2p bits, that `embed` may refine to 4p and ask its components for as many,
# and no request above MAX_BITS can be met: `effective_bits` caps there.
_MAX_PRECISION = MAX_BITS // 4


def decimal_str(value: KElement | SurdElement, digits: int) -> str:
    """Display-only decimal rendering at `digits` significant digits.

    One embedding suffices: its width <= 2^(1-bits) * max(1, |lo|) is at
    most 10^-(digits+2) * max(1, |lo|) for bits >= 3.33*digits + 15."""
    mid = value.embed(max(64, int(digits * 3.33) + 16)).mid
    return str(Context(prec=digits).divide(Decimal(mid.numerator), Decimal(mid.denominator)))


def _poly_json(poly: tuple[KElement, KElement, KElement] | QuadraticPolyK) -> dict:
    if isinstance(poly, QuadraticPolyK):
        a, b, c = poly.A, poly.B, poly.C
    else:
        a, b, c = poly
    return {"A": str(a), "B": str(b), "C": str(c)}


def cmd_eval(args: argparse.Namespace) -> int:
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
        "poly": _poly_json(res.poly),
        "discriminant": str(res.discriminant),
    }
    if res.value is not None:
        payload["outcome"] = "value"
        payload["value"] = str(res.value)
        payload["decimal"] = decimal_str(res.value, args.digits)
    elif res.value_in_k is not None:
        payload["outcome"] = "value_in_k"
        payload["value"] = str(res.value_in_k)
        payload["decimal"] = decimal_str(res.value_in_k, args.digits)
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
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"expansion      {expansion}")
    print(f"E(P)           {res.e}")
    print(f"f(P)           ({res.poly[0]})*x^2 + ({res.poly[1]})*x + ({res.poly[2]})")
    print(f"discriminant   {res.discriminant}")
    if res.value is not None:
        print(f"value          {res.value}")
        print(f"decimal        {payload['decimal']}")
    elif res.value_in_k is not None:
        print(f"value (in K)   {res.value_in_k}")
        print(f"decimal        {payload['decimal']}")
    else:
        reason = res.failure.value
        if res.negative_discriminant:
            reason += " (negative discriminant)"
        if res.window is not None:
            reason += f" (window j={res.window})"
        print(f"value          doesn't exist: {reason}")
    return EXIT_OK


def _parse_seed(args: argparse.Namespace) -> QuadraticPolyK:
    spec = FieldSpec(args.field_d)
    a = parse_k(args.A, spec, require_integral=True)
    b = parse_k(args.B, spec, require_integral=True)
    c = parse_k(args.C, spec, require_integral=True)
    return QuadraticPolyK(a, b, c)


def _branch(flag: str) -> int:
    return 1 if flag == "+" else -1


def _expansion_json(r: ExpansionResult) -> dict:
    return {
        "seed": _poly_json(r.seed),
        "branch": "+" if r.branch > 0 else "-",
        "conj_branch": "+" if r.conj_branch > 0 else "-",
        "preperiod": [str(a) for a in r.expansion.preperiod],
        "period": [str(a) for a in r.expansion.period],
        "steps": r.steps,
        "verified": r.verified,
    }


def cmd_expand(args: argparse.Namespace) -> int:
    seed = _parse_seed(args)
    result = expand_pair(
        seed,
        _branch(args.branch),
        _branch(args.conj_branch),
        ExpansionConfig(max_steps=args.max_steps),
    )
    if args.output == "json":
        print(json.dumps(_expansion_json(result), indent=2))
        return EXIT_OK
    pre = ", ".join(str(a) for a in result.expansion.preperiod)
    per = ", ".join(str(a) for a in result.expansion.period)
    print(f"seed           {seed}")
    print(f"preperiod      [{pre}]")
    print(f"period         [{per}]")
    print(f"steps          {result.steps}")
    print(f"cycle start    {result.cycle_start}")
    print(f"verified       {result.verified}")
    return EXIT_OK


def _analyze_quotients(args: argparse.Namespace):
    n = args.steps
    if args.expansion:
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
    if args.quotients:
        quotients = parse_element_list(args.quotients, seed.spec, require_integral=True)
        if len(quotients) < n + 1:
            raise ParseError(
                f"need {n + 1} quotients for {n} steps, got {len(quotients)}"
            )
        return seed, branch, quotients[: n + 1]
    # Drive the pair expansion for n+1 quotients (no cycle needed).
    steps = pair_steps(seed, branch, _branch(args.conj_branch))
    return seed, branch, [a for a, _ in islice(steps, 1, n + 2)]


def _endpoints(iv: RealInterval) -> list[float]:
    return [float(iv.lo), float(iv.hi)]


def _row_json(r: TrajectoryRow) -> dict:
    return {
        "n": r.index,
        "A_n": str(r.triple[0]),
        "B_n": str(r.triple[1]),
        "C_n": str(r.triple[2]),
        "P_n": str(r.p),
        "Q_n": str(r.q),
        "s_n": _endpoints(r.s_n),
        "f1": _endpoints(r.f1),
        "f2": _endpoints(r.f2),
        "weil": _endpoints(r.weil),
        "naive": r.naive,
    }


def _csv_record(row: dict) -> dict:
    """A JSON row with each [lo, hi] pair split into <key>_lo, <key>_hi."""
    record = {}
    for key, value in row.items():
        if isinstance(value, list):
            record[f"{key}_lo"], record[f"{key}_hi"] = value
        else:
            record[key] = value
    return record


def cmd_analyze(args: argparse.Namespace) -> int:
    seed, branch, quotients = _analyze_quotients(args)
    rows = diagnostics(seed, branch, quotients, args.precision)
    summary = summarize(rows, quotients, args.precision)
    if args.output == "csv":
        records = [_csv_record(_row_json(r)) for r in rows]
        writer = csv.writer(sys.stdout)
        writer.writerow(records[0])
        writer.writerows(record.values() for record in records)
        return EXIT_OK
    if args.output == "json":
        payload = {
            "seed": _poly_json(seed),
            "rows": [_row_json(r) for r in rows],
            "summary": {
                "steps": summary.steps,
                "max_abs_A": summary.max_abs_a,
                "max_abs_sigma_A": summary.max_abs_sigma_a,
                "sup_Q_S": summary.sup_qs,
                "sup_Q_S_sigma": summary.sup_qs_sigma,
                "weil_min": summary.weil_min,
                "weil_max": summary.weil_max,
                "naive_max": summary.naive_max,
            },
        }
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    print(f"seed     {seed}   branch {'+' if branch > 0 else '-'}")
    print(f"{'n':>4}  {'A_n':>14}  {'s_n':>12}  {'f1':>12}  {'f2':>12}  {'H':>10}  {'naive':>7}")
    for r in rows:
        print(
            f"{r.index:>4}  {str(r.triple[0]):>14}  {float(r.s_n):>12.5g}  "
            f"{float(r.f1):>12.5g}  {float(r.f2):>12.5g}  {float(r.weil):>10.5g}  {r.naive:>7}"
        )
    sigma_side = (
        f"{summary.sup_qs_sigma:.6g}" if summary.sup_qs_sigma is not None else "n/a"
    )
    print(
        f"summary: max|A_n|={summary.max_abs_a:.6g} max|sigma(A_n)|={summary.max_abs_sigma_a:.6g} "
        f"sup|Q_n S_n|={summary.sup_qs:.6g} sigma-side={sigma_side}"
    )
    print(
        f"         H in [{summary.weil_min:.6g}, {summary.weil_max:.6g}] "
        f"naive max={summary.naive_max}"
    )
    return EXIT_OK


def cmd_radius(args: argparse.Namespace) -> int:
    cr = covering_radius(args.D, args.precision)
    if args.output == "json":
        print(
            json.dumps(
                {
                    "D": cr.d,
                    "r_squared": str(cr.r_squared),
                    "r": _endpoints(cr.interval),
                    "usable": cr.usable,
                }
            )
        )
        return EXIT_OK
    print(f"D={cr.d}: r^2 = {cr.r_squared}, r ~ {float(cr.interval):.6f}, "
          f"{'usable (r < 1)' if cr.usable else 'not usable (r >= 1)'}")
    return EXIT_OK


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


def run_corpus(count: int, bound: int, cfg: SessionConfig) -> dict:
    if cfg.d != 5:
        raise GoldenPreconditionError("corpus expansion requires D = 5")
    spec = FieldSpec(cfg.d)
    rng = random.Random(cfg.seed)
    counters = {reason.value: 0 for reason in SeedRejection}
    seeds: list[QuadraticPolyK] = []
    while len(seeds) < count:
        seed = _sample_seed(rng, spec, bound, counters)
        if seed is not None:
            seeds.append(seed)
    runs = []
    econfig = ExpansionConfig(max_steps=cfg.max_steps)
    for i, seed in enumerate(seeds):
        for conj in (1, -1):
            entry: dict = {
                "seed_index": i,
                "seed": _poly_json(seed),
                "conj_branch": "+" if conj > 0 else "-",
            }
            try:
                r = expand_pair(seed, 1, conj, econfig)
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
        "random_seed": cfg.seed,
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


def cmd_corpus(args: argparse.Namespace) -> int:
    cfg = SessionConfig(d=args.field_d, max_steps=args.max_steps, seed=args.seed)
    report = run_corpus(args.count, args.bound, cfg)
    if args.output == "json":
        print(json.dumps(report, indent=2))
        return EXIT_OK
    s = report["summary"]
    print(
        f"corpus: {s['count']} seeds (bound {s['bound']}, rng seed {s['random_seed']}), "
        f"{s['runs']} expansions"
    )
    print(
        f"cycles detected: {s['cycles_detected']}/{s['runs']} "
        f"(verified: {s['verified_fraction']})"
    )
    print(f"preperiod lengths: {s['preperiod_lengths']}")
    print(f"period lengths:    {s['period_lengths']}")
    print(f"rejection counters: {s['rejections']}")
    return EXIT_OK


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--field-d", type=int, default=5, help="squarefree D of Q(sqrt(D))")
    common.add_argument("--precision", type=_int_at_least(16, _MAX_PRECISION), default=64,
                        help="enclosure precision in bits for analyze and radius")
    common.add_argument("--output", choices=("text", "json", "csv"), default="text")
    common.add_argument("--max-steps", type=_int_at_least(1), default=10_000)
    common.add_argument("--digits", type=_int_at_least(1, _MAX_DIGITS), default=30,
                        help="decimal digits for display")
    common.add_argument("--seed", type=int, default=0, help="corpus randomness seed")

    parser = argparse.ArgumentParser(
        prog="okcf",
        description="Continued fractions with partial quotients in O_K, K = Q(sqrt(D))",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", parents=[common], help="evaluate a periodic expansion")
    p_eval.add_argument("expansion", help='e.g. "[1; 2]" or "[; 2, 4-2*w]"')
    p_eval.set_defaults(run=cmd_eval)

    p_expand = sub.add_parser("expand", parents=[common], help="expand a quartic root over Q(sqrt(5))")
    p_expand.add_argument("A")
    p_expand.add_argument("B")
    p_expand.add_argument("C")
    p_expand.add_argument("--branch", choices=("+", "-"), default="+")
    p_expand.add_argument("--conj-branch", choices=("+", "-"), default="+")
    p_expand.set_defaults(run=cmd_expand)

    p_an = sub.add_parser("analyze", parents=[common], help="trajectory diagnostics table")
    p_an.add_argument("A", nargs="?")
    p_an.add_argument("B", nargs="?")
    p_an.add_argument("C", nargs="?")
    p_an.add_argument("--expansion", help="analyze along an explicit periodic expansion")
    p_an.add_argument("--quotients", help="comma-separated explicit partial quotients")
    p_an.add_argument("--branch", choices=("+", "-"), default="+")
    p_an.add_argument("--conj-branch", choices=("+", "-"), default="+")
    p_an.add_argument("-n", "--steps", type=_int_at_least(0), default=20)
    p_an.set_defaults(run=cmd_analyze)

    p_rad = sub.add_parser("radius", parents=[common], help="covering radius of v(O_K)")
    p_rad.add_argument("D", type=int)
    p_rad.set_defaults(run=cmd_radius)

    p_cor = sub.add_parser("corpus", parents=[common], help="random-seed expansion corpus")
    p_cor.add_argument("--count", type=_int_at_least(1), default=10)
    p_cor.add_argument("--bound", type=_int_at_least(1), default=3)
    p_cor.set_defaults(run=cmd_corpus)

    return parser


def _value_flags(parser: argparse.ArgumentParser) -> set[str]:
    """Option strings, over all subcommands, that take a value."""
    commands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        opt for sub in commands.values() for action in sub._actions
        if action.nargs != 0 for opt in action.option_strings
    }


def _prepare_argv(argv: Sequence[str], parser: argparse.ArgumentParser) -> list[str]:
    """Reorder one subcommand's argv as [cmd, flags..., '--', positionals...]
    so that element arguments with a leading '-' parse as positionals.

    A value flag is joined to its value as flag=value, so that a value with
    a leading '-' (say --quotients -1-1*w,2) is not taken for a flag.
    """
    argv = list(argv)
    if not argv or argv[0].startswith("-"):
        return argv
    value_flags = _value_flags(parser)
    cmd, rest = argv[0], argv[1:]
    flags: list[str] = []
    positionals: list[str] = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if tok == "--":
            positionals.extend(rest[i + 1 :])
            break
        if tok in ("-h", "--help") or (
            "=" in tok and (tok.startswith("--") or tok.partition("=")[0] in value_flags)
        ):
            flags.append(tok)
            i += 1
        elif tok in value_flags:
            # A trailing flag with no value is left for argparse to report.
            flags.append(f"{tok}={rest[i + 1]}" if i + 1 < len(rest) else tok)
            i += 2
        else:
            positionals.append(tok)
            i += 1
    if not positionals:
        return [cmd, *flags]
    return [cmd, *flags, "--", *positionals]


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_prepare_argv(argv, parser))
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
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


if __name__ == "__main__":
    sys.exit(main())
