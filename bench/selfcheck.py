"""Self-checks of the benchmark, run from the root of a checkout:

    python3 bench/selfcheck.py [WORKLOAD ...]

For each workload (all by default) it makes two pairs of an untraced and a
traced run of seed 42 and checks that

- each traced run's output digest equals the untraced run's;
- every call count and exact counter repeats across the two traced runs;
- the spans nest, and the per-layer self times plus the root span's own
  time sum to the traced wall time, less at most ``run.UNSPANNED_MAX_MS``
  of interpreter start-up and exit outside the root span;
- ``BENCHMARK.json`` lists exactly the per-layer metrics the run computes.

It prints one line per workload and exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import sys

from run import WORK_DIR, child_env, count_mismatches, merge, preflight, traced_pair
from workloads import WORKLOADS

SEED = 42
# Computed by run.py outside the spans, not by layers.per_layer.
RUN_LEVEL = {"bench.trace_overhead_pct", "bench.ref_kernel_s"}


def check(workload: str, listed: set[str]) -> list[str]:
    work = os.path.join(WORK_DIR, workload)
    os.makedirs(work, exist_ok=True)
    env = child_env()
    pairs = [traced_pair(workload, SEED, env, work) for _ in range(2)]
    _, problems = merge([r.outcome for plain, run, _, _ in pairs for r in (plain, run)])
    layer_runs = [m for _, _, m, _ in pairs]
    problems += [p for _, _, _, more in pairs for p in more]
    if all(layer_runs):
        problems += count_mismatches(layer_runs)
        computed = set(layer_runs[0]) | RUN_LEVEL
        if computed != listed:
            problems.append(f"BENCHMARK.json per_layer differs: only listed {sorted(listed - computed)}, "
                            f"only computed {sorted(computed - listed)}")
    return problems


def main(argv: list[str]) -> int:
    names = argv or sorted(WORKLOADS)
    for name in names:
        problem = preflight(name)
        if problem:
            print(f"selfcheck: {problem}", file=sys.stderr)
            return 2
    with open("BENCHMARK.json") as fh:
        listed = {m["name"] for m in json.load(fh)["per_layer"]}
    failed = False
    for name in names:
        problems = check(name, listed)
        failed |= bool(problems)
        print(f"{name}: {'ok' if not problems else 'FAIL'}")
        for p in problems:
            print(f"  {p}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
