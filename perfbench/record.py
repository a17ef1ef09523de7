"""Record the reference outputs that ``run.py`` checks ops against.

    python3 perfbench/record.py

Runs every corpus and analyze pool entry once with the package in this
checkout's ``src/`` and rewrites ``references.json``.  Re-record only when
a change is meant to alter the package's answers; the digests are what
holds later changes to byte-identical output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    run.import_package()
    from okcf import cli, golden

    spec = workloads._spec()
    corpus = {}
    for seed, conj in workloads.corpus_pool():
        r = golden.expand_pair(workloads._poly(spec, seed), 1, conj)
        if not r.verified:
            raise SystemExit(f"unverified expansion for {workloads.corpus_key(seed, conj)}")
        corpus[workloads.corpus_key(seed, conj)] = {
            "steps": r.steps, "digest": workloads.digest(str(r.expansion))}
    analyze = {}
    for argv in workloads.analyze_pool():
        code, stdout = workloads.analyze_op((argv, None))
        if code != 0:
            raise SystemExit(f"analyze exited {code} for {argv}")
        analyze[workloads.analyze_key(argv)] = {"digest": workloads.digest(stdout)}
    refs = {"pool_seed": workloads.POOL_SEED, "corpus": corpus, "analyze": analyze}
    with open(workloads.REFERENCES, "w", encoding="utf-8") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(corpus)} corpus and {len(analyze)} analyze references")
    return 0


if __name__ == "__main__":
    sys.exit(main())
