"""Property test of the CLI contract: for any argv, `main` returns one of the
documented exit codes or argparse exits with 0 (help) or 2 (usage), and no
other exception escapes."""

from __future__ import annotations

import contextlib
import io

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from okcf.cli import main  # noqa: E402

EXIT_CODES = {0, 2, 3, 4, 5}

# Small coefficients, plus malformed tokens and zero denominators.
atom = st.one_of(
    st.integers(-3, 3).map(str),
    st.sampled_from(["w", "-w", "1+1*w", "-1-1*w", "4-2*w", "2*w", "1/2", "3/4*w"]),
    st.sampled_from(["", " ", "x", "1*", "+", "--", "w*w", "1/0", "2-3/0*w", "(", "[", ";"]),
)
atoms = st.lists(atom, max_size=3).map(",".join)
expansion = st.one_of(
    st.builds(lambda pre, per: f"[{pre}; {per}]", atoms, atoms),
    st.sampled_from(["[1; 2", "[]", "[;]", "1; 2", "[1, 2]", "[; 0, 0]", "[; 2, 0, w]"]),
)
field_d = st.sampled_from(["5", "2", "13", "4", "1", "0", "-3", "x"])
output = st.sampled_from(["text", "json", "csv"])


def flags(**values):
    """argv fragment holding each given flag with probability 1/2."""
    return st.fixed_dictionaries({}, optional=values).map(
        lambda d: [tok for flag, value in d.items()
                   for tok in (f"--{flag.replace('_', '-')}", value)]
    )


common = flags(field_d=field_d, output=output)
eval_argv = st.tuples(
    st.just(["eval"]), expansion.map(lambda e: [e]), common,
    flags(digits=st.integers(-1, 60).map(str)),
)
expand_argv = st.tuples(
    st.just(["expand"]), st.lists(atom, min_size=0, max_size=4), common,
    st.integers(0, 50).map(lambda m: ["--max-steps", str(m)]),
    flags(branch=st.sampled_from(["+", "-", "0"]), conj_branch=st.sampled_from(["+", "-"])),
)
analyze_argv = st.tuples(
    st.just(["analyze"]),
    st.one_of(st.lists(atom, max_size=3), expansion.map(lambda e: ["--expansion", e])),
    st.integers(-1, 3).map(lambda n: ["-n", str(n)]),
    common,
    flags(quotients=atoms, precision=st.sampled_from(["8", "16", "64", "128"]),
          branch=st.sampled_from(["+", "-"]), conj_branch=st.sampled_from(["+", "-"])),
)
radius_argv = st.tuples(
    st.just(["radius"]), st.one_of(st.integers(-3, 30).map(str), atom).map(lambda d: [d]),
    common, flags(precision=st.sampled_from(["8", "16", "64"])),
)
corpus_argv = st.tuples(
    st.just(["corpus", "--count", "1"]), common,
    st.integers(0, 50).map(lambda m: ["--max-steps", str(m)]),
    flags(bound=st.integers(-1, 3).map(str), seed=st.integers(0, 9).map(str)),
)
argv = st.one_of(eval_argv, expand_argv, analyze_argv, radius_argv, corpus_argv).map(
    lambda parts: [tok for part in parts for tok in part]
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv)
def test_main_exits_only_with_documented_codes(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            return
    assert code in EXIT_CODES, (argv, code)
