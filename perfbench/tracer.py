"""Spans and counters around the package's layer boundaries.

The package has no instrumentation of its own, so the traced run wraps
its public functions from outside: every module binding of a wrapped
function is replaced (``golden.sign_of`` and ``field.sign_of`` are the same
function bound twice), and methods are replaced on their class.

* Span wrappers record (id, parent, name, start, end, op) and aggregate
  call counts and self time online.  Self time is a span's duration minus
  the time its child spans and interval calls cover.  The inclusive time
  of the spans directly under an op's root span ranks the steps an op
  blocks on.
* Count-only wrappers sit on the hot arithmetic (``KElement`` multiply and
  divide, ``SurdElement.recip``, ``RealInterval.of``), where a clock read
  per call would swamp the work.
* Interval wrappers time the other ``intervals`` entry points as one
  layer; they record no spans, but their time is taken out of the
  enclosing span's self time.

Spans are kept in memory and written as JSONL by ``write_jsonl``.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

# Spans kept for the JSONL file; aggregation continues past the cap.
MAX_KEPT_SPANS = 50_000


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        # inclusive time of spans directly under an op's root span
        self.step_s: defaultdict = defaultdict(float)
        self.sign_embeds = 0
        self.sign_with_embed = 0
        self.sign_first_try = 0
        self.spans: list[tuple] = []
        self.dropped = 0
        # frame: [name, start, child_s, embed_children, span_id, depth]
        self._stack: list[list] = []
        self._interval_depth = 0
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn):
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = t._stack
            parent = stack[-1] if stack else None
            if parent is not None and name == "field.embed" and parent[0] == "field.sign_of":
                parent[3] += 1
            sid = t._next_id
            t._next_id += 1
            depth = 0 if parent is None else parent[5] + 1
            frame = [name, perf_counter(), 0.0, 0, sid, depth]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - frame[1]
                t.calls[name] += 1
                t.self_s[name] += dur - frame[2]
                if depth == 1:
                    t.step_s[name] += dur
                if parent is not None:
                    parent[2] += dur
                if name == "field.sign_of" and frame[3]:
                    t.sign_with_embed += 1
                    t.sign_embeds += frame[3]
                    t.sign_first_try += frame[3] == 1
                if len(t.spans) < MAX_KEPT_SPANS:
                    t.spans.append(
                        (sid, None if parent is None else parent[4], name, frame[1], end, t.op)
                    )
                else:
                    t.dropped += 1

        return wrapper

    def count(self, name: str, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def interval(self, fn):
        """Time an intervals entry point into the ``intervals`` layer."""
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t._interval_depth:
                return fn(*args, **kwargs)
            t._interval_depth = 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                t._interval_depth = 0
                t.self_s["intervals"] += dur
                if t._stack:
                    t._stack[-1][2] += dur

        return wrapper

    # -- patching ---------------------------------------------------------

    def _rebind(self, original, replacement, modules) -> None:
        """Replace every module-level binding of `original`."""
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def _set_method(self, cls, attr: str, make) -> None:
        raw = cls.__dict__[attr]
        self._undo.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(make(raw.__func__)))
        else:
            setattr(cls, attr, make(raw))

    def install(self) -> None:
        """Wrap the package's layer boundaries; ``uninstall`` undoes it."""
        from okcf import cf, cli, field, golden, intervals, parsing, quartic

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "okcf" or n.startswith("okcf."))]
        functions = [
            (golden, ["expand_pair", "choose_quotient", "lattice_coords", "verify_roundtrip"]),
            (field, ["sign_of", "is_square_in_k"]),
            (quartic, ["step_state", "triple_recursion", "run_trajectory", "diagnostics",
                       "summarize", "weil_height", "naive_height"]),
            (cf, ["qpair_states", "eval_periodic"]),
            (parsing, ["parse_k", "parse_rational", "parse_surd", "parse_element_list",
                       "parse_expansion"]),
        ]
        for mod, names in functions:
            layer = mod.__name__.rsplit(".", 1)[1]
            for fname in names:
                fn = vars(mod)[fname]
                self._rebind(fn, self.span(f"{layer}.{fname}", fn), modules)
        self._rebind(cli.main, self.span("cli.main", cli.main), modules)

        self._set_method(golden.RealPair, "sign", lambda f: self.span("golden.pair_sign", f))
        self._set_method(golden.RealPair, "floor", lambda f: self.span("golden.pair_floor", f))
        for cls in (field.KElement, field.SurdElement):
            self._set_method(cls, "embed", lambda f: self.span("field.embed", f))
        for attr in ("__mul__", "__rmul__"):
            self._set_method(field.KElement, attr, lambda f: self.count("field.kmul", f))
        self._set_method(field.KElement, "__truediv__", lambda f: self.count("field.kdiv", f))
        self._set_method(field.SurdElement, "recip", lambda f: self.count("field.surd_recip", f))
        self._set_method(intervals.RealInterval, "of", lambda f: self.count("intervals.of", f))
        for attr in ("__neg__", "__add__", "__sub__", "__mul__", "__rmul__", "__abs__",
                     "max_with", "sqrt", "root4", "rounded", "point"):
            self._set_method(intervals.RealInterval, attr, self.interval)
        for fname in ("round_down", "round_up", "sqrt_down", "sqrt_up", "effective_bits"):
            fn = vars(intervals)[fname]
            self._rebind(fn, self.interval(fn), modules)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"header": header, "spans_kept": len(self.spans),
                                  "spans_dropped": self.dropped}) + "\n")
            for sid, parent, name, start, end, op in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start": start, "end": end, "op": op}) + "\n")
