"""Seeded in-process benchmark of the okcf package.

    python3 perfbench/run.py --workload {corpus,trajectory,analyze}
        --seed N --seconds S --trace {0,1} [--smoke] [--references PATH]

Run from a checkout of the repository: the package is imported from the
checkout's ``src/`` and the run refuses to start if ``okcf`` resolves
anywhere else.  One closed-loop client runs one op at a time.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs ops
untraced for half the time, then the same ops again under the span
tracer (``tracer.py``), and reports the per-layer metrics and the
tracing overhead; spans go to ``.perfbench/trace-<workload>-<seed>.jsonl``.
The last line of standard output is the JSON result; the lines above it
are the environment and a human-readable report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7
SMOKE_OPS = 2
EXIT_REFUSED = 2


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 1]."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def import_package():
    """Import okcf afresh from this checkout's src/, or refuse."""
    for name in [n for n in sys.modules if n == "okcf" or n.startswith("okcf.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        import okcf
        import okcf.cli  # noqa: F401  (imports every layer)
    except ImportError as exc:
        raise SystemExit(refuse(f"cannot import okcf from {SRC}: {exc}"))
    where = Path(okcf.__file__).resolve()
    if where.parent != SRC / "okcf":
        raise SystemExit(refuse(f"okcf resolves to {where}, not to this checkout's src/"))
    return okcf


def refuse(message: str) -> int:
    print(f"perfbench: refusing to run: {message}", file=sys.stderr)
    return EXIT_REFUSED


def environment(okcf) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for path in sorted((SRC / "okcf").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": h.hexdigest()[:16],
        "okcf_file": str(Path(okcf.__file__).resolve().relative_to(ROOT)),
    }


# Host speed on shared machines drifts by tens of percent over tens of
# seconds, for wall and CPU time alike, so a fixed stdlib-only probe runs
# before every op and every op time is rescaled to the speed at which the
# probe takes PROBE_REF_S (its typical time on a 2-core x86-64 VM under
# Python 3.11).  The probe touches no package code, so a faster package
# still reads faster; raw times are printed in the report lines.
PROBE_REF_S = 1.8e-3
PROBE_WINDOW = 2  # ops on each side whose probes set an op's local speed
_PA = Fraction(3**90 + 1, 2**70 + 3)
_PB = Fraction(7**60, 5**40 + 1)


def probe() -> tuple[float, float]:
    """(wall, cpu) seconds of a fixed mix of small and large Fraction work."""
    c0, t0 = process_time(), perf_counter()
    acc, x = Fraction(0), Fraction(355, 113)
    for i in range(1, 60):
        acc = acc * x / (acc + i) + Fraction(i, i + 7)
        (_PA * _PB + i) / (_PA - i)
    return perf_counter() - t0, process_time() - c0


def rescale(times: list[float], probes: list[float]) -> list[float]:
    """Each time scaled by PROBE_REF_S over the median of nearby probes."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(probes[max(0, i - PROBE_WINDOW) : i + PROBE_WINDOW + 1])
        out.append(t * PROBE_REF_S / local)
    return out


class Outcome:
    """Per-op samples of one measuring phase."""

    def __init__(self) -> None:
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.probe_wall: list[float] = []
        self.probe_cpu: list[float] = []
        self.steps: list[int] = []
        self.attempted = 0
        self.failed = 0

    def scaled_wall(self) -> list[float]:
        return rescale(self.wall, self.probe_wall)

    def scaled_cpu(self) -> list[float]:
        return rescale(self.cpu, self.probe_cpu)

    def steps_per_s(self, scaled: bool = True) -> float:
        busy = sum(self.scaled_wall() if scaled else self.wall)
        return sum(self.steps) / busy if busy else 0.0


def run_op(wl, arg, out: Outcome, check_now: bool = True):
    """Probe, then one timed op; returns its result (None if it raised)."""
    pw, pc = probe()
    out.probe_wall.append(pw)
    out.probe_cpu.append(pc)
    out.attempted += 1
    c0, t0 = process_time(), perf_counter()
    try:
        result = wl.op(arg)
    except Exception:  # a raising op is a failed op, not a crash
        result = None
        traceback.print_exc()
    t1, c1 = perf_counter(), process_time()
    out.wall.append(t1 - t0)
    out.cpu.append(c1 - c0)
    out.steps.append(0 if result is None else wl.steps(arg, result))
    if result is None:
        out.failed += 1
    elif check_now and not wl.check(arg, result):
        out.failed += 1
    return result


def setup(wl, seed: int, refs_path: Path, reps: int):
    """Import, input generation and one warm-up op, `reps` times.

    Returns the last repetition's prepared inputs and the median set-up
    time, each repetition rescaled by probes taken before and after it.
    The warm-up op uses a fixed input, so set-up cost does not depend on
    the workload seed.
    """
    import workloads

    times, raw = [], []
    for _ in range(reps):
        before = probe()[0]
        t0 = perf_counter()
        okcf = import_package()
        refs = workloads.load_references(refs_path)
        args = [wl.prepare(item) for item in wl.make(seed, refs)]
        wl.op(wl.prepare(wl.make(0, refs)[0]))
        t = perf_counter() - t0
        raw.append(t)
        times.append(t * PROBE_REF_S / statistics.fmean((before, probe()[0])))
    return okcf, args, statistics.median(times), statistics.median(raw)


def measure(wl, args: list, seconds: float, max_ops: int | None) -> Outcome:
    out = Outcome()
    gc.collect()
    start = perf_counter()
    i = 0
    while i == 0 or (perf_counter() - start < seconds and (max_ops is None or i < max_ops)):
        run_op(wl, args[i % len(args)], out)
        i += 1
    return out


def end_to_end(out: Outcome, setup_s: float) -> dict:
    ms = [w * 1e3 for w in out.scaled_wall()]
    cpu_ms = [c * 1e3 for c in out.scaled_cpu()]
    return {
        "steps_per_s": (out.steps_per_s(), "1/s"),
        "op_ms_p50": (percentile(ms, 0.5), "ms"),
        "op_ms_p90": (percentile(ms, 0.9), "ms"),
        "op_cpu_ms_p50": (percentile(cpu_ms, 0.5), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def raw_report(out: Outcome, setup_raw: float) -> str:
    ms = [w * 1e3 for w in out.wall]
    return (f"raw (unscaled): steps_per_s {out.steps_per_s(scaled=False):.6g}  "
            f"op_ms_p50 {percentile(ms, 0.5):.6g}  op_ms_p90 {percentile(ms, 0.9):.6g}  "
            f"op_cpu_ms_p50 {percentile([c * 1e3 for c in out.cpu], 0.5):.6g}  "
            f"setup_s {setup_raw:.6g}  probe_ms_p50 {percentile(out.probe_wall, 0.5) * 1e3:.6g}")


_INT = re.compile(r"\d+")


def bits_of(texts) -> int:
    return max((int(m).bit_length() for t in texts for m in _INT.findall(t)), default=0)


def traced(wl, args: list, base: Outcome, trace_path: Path, env: dict):
    """Re-run the ops of `base` under the tracer; per-layer metrics."""
    from tracer import Tracer

    n = base.attempted
    tr = Tracer()
    out = Outcome()
    results = []
    gc.collect()
    tr.install()
    try:
        for i in range(n):
            tr.op = i
            results.append(run_op(wl, args[i % len(args)], out, check_now=False))
    finally:
        tr.uninstall()
    coeff_bits = []
    for i, result in enumerate(results):
        if result is None:
            continue
        arg = args[i % len(args)]
        if not wl.check(arg, result):
            out.failed += 1
        coeff_bits.append(bits_of(wl.coeff_texts(arg, result)))

    calls, self_s = tr.calls, tr.self_s

    def per_op(x: float) -> float:
        return x / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m: dict[str, tuple[float, str]] = {}
    for name in ("golden.expand_pair", "golden.choose_quotient", "golden.pair_sign",
                 "golden.pair_floor", "golden.verify_roundtrip", "field.sign_of",
                 "field.embed", "field.is_square_in_k", "quartic.step_state",
                 "quartic.triple_recursion", "cf.eval_periodic"):
        m[f"{name}.calls"] = (per_op(calls[name]), "calls/op")
        m[f"{name}.self_s"] = (per_op(self_s[name]), "s/op")
    for name in ("golden.lattice_coords", "quartic.diagnostics", "quartic.summarize",
                 "quartic.weil_height", "quartic.naive_height", "cli.main", "intervals"):
        m[f"{name}.self_s"] = (per_op(self_s[name]), "s/op")
    m["parsing.self_s"] = (
        per_op(sum(v for k, v in self_s.items() if k.startswith("parsing."))), "s/op")
    for name in ("intervals.of", "field.kmul", "field.kdiv", "field.surd_recip"):
        m[f"{name}.calls"] = (per_op(calls[name]), "calls/op")
    for name in ("quartic.run_trajectory", "cf.qpair_states"):
        m[f"{name}.calls_per_op"] = (per_op(calls[name]), "calls/op")
    m["golden.candidates_per_quotient"] = (
        ratio(calls["golden.pair_sign"], calls["golden.choose_quotient"]), "calls/call")
    m["field.sign_of.embeds_per_call"] = (ratio(tr.sign_embeds, calls["field.sign_of"]),
                                          "calls/call")
    m["field.sign_of.first_try_frac"] = (ratio(tr.sign_first_try, tr.sign_with_embed),
                                         "fraction")
    m["quartic.coeff_bits_max"] = (
        statistics.fmean(coeff_bits) if coeff_bits else 0.0, "bits")
    untraced, traced_rate = base.steps_per_s(), out.steps_per_s()
    m["trace.steps_per_s"] = (traced_rate, "1/s")
    m["trace.untraced_steps_per_s"] = (untraced, "1/s")
    m["trace.overhead_frac"] = (1 - ratio(traced_rate, untraced), "fraction")

    busy = sum(out.wall)
    # Hot spots: the steps an op blocks on, i.e. spans right under its root.
    hot = sorted(((v / busy, k) for k, v in tr.step_s.items()), reverse=True)
    header = {**env, "workload": wl.name, "ops": n,
              "hot_step_share": {k: round(v, 4) for v, k in hot}}
    trace_path.parent.mkdir(exist_ok=True)
    tr.write_jsonl(trace_path, header)
    for share, name in hot[:6]:
        print(f"hot  {name:<28} {share:7.1%} of traced op time")
    print(f"trace: {n} ops, {len(tr.spans)} spans kept, {tr.dropped} dropped -> "
          f"{trace_path.relative_to(ROOT)}")
    return out, m


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"one set-up and at most {SMOKE_OPS} ops per phase")
    parser.add_argument("--references", type=Path, default=workloads.REFERENCES,
                        help="reference digests (default: perfbench/references.json)")
    a = parser.parse_args(argv)
    if a.seconds <= 0:
        parser.error("--seconds must be positive")

    wl = workloads.WORKLOADS[a.workload]
    okcf, args, setup_s, setup_raw = setup(
        wl, a.seed, a.references, 1 if a.smoke else SETUP_REPS)
    env = environment(okcf)
    print("env " + json.dumps(env, sort_keys=True))
    max_ops = SMOKE_OPS if a.smoke else None

    if a.trace:
        base = measure(wl, args, a.seconds / 2, max_ops)
        trace_path = ROOT / ".perfbench" / f"trace-{a.workload}-{a.seed}.jsonl"
        out, metrics = traced(wl, args, base, trace_path, env)
        attempted, failed = base.attempted + out.attempted, base.failed + out.failed
    else:
        out = measure(wl, args, a.seconds, max_ops)
        metrics = end_to_end(out, setup_s)
        attempted, failed = out.attempted, out.failed

    print(f"workload {a.workload}  seed {a.seed}  samples {len(out.wall)}  "
          f"failed_frac {failed / attempted:.4g} ({failed}/{attempted})")
    if not a.trace:
        print(raw_report(out, setup_raw))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
