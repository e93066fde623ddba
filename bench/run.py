"""muonlab benchmark: end-to-end and per-layer metrics of four workloads.

    python3 bench/run.py --workload NAME [--seed 42] [--seconds 25] [--trace 0|1]

Run it from the root of a checkout; it imports muonlab from ``src`` and
writes only under ``.bench_run/``.  NAME is one of ``workloads.WORKLOADS``
or ``all``.  BLAS is pinned to one thread in this process and in every
child.  The seed goes to ``muonlab run --seed``; ``mf_protocol_d100``
(criterion 10 at its own master seed) and ``verify_all`` have fixed inputs
and ignore it.

``--trace 0`` is a closed loop with one client: it times ``SETUP_REPS``
set-up subprocesses, then runs the workload one subprocess at a time until
the next run would end after ``--seconds``, and checks every run's outputs.
``wall_s``, ``steps_per_s`` and ``setup_s`` are given at reference speed
(see ``speed.py``): a quarter of the reference kernel is timed between any
two subprocesses, and each workload subprocess also samples the kernel
itself as it runs.  The report prints the times as measured too.
``--trace 1`` alternates untraced and traced runs in the same way, turns the
spans into per-layer metrics, and reports the tracing overhead.  Both print
a readable report, then one JSON line with the metrics ``BENCHMARK.json``
lists for the mode.  The exit code is 0 whenever that line is printed, and
2 when the checkout lacks what the benchmark needs.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402

import numpy as np  # noqa: E402

from layers import Spans, per_layer, self_time_sum_ms  # noqa: E402
from speed import (  # noqa: E402
    KERNEL_S, at_reference_speed, bracketed, kernel_equivalent_s, reference_kernel_s,
)
from tracer import read_spans  # noqa: E402
from workloads import (  # noqa: E402
    FIXED_INPUTS, SWEEP, VERIFY, WORKLOADS, Outcome, check_protocol, check_sweep, check_verify,
)

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUP_REPS = 11
CHILD_TIMEOUT_S = 120.0
BRACKET_FRACTION = 0.25  # of the reference kernel, timed between subprocesses
# A traced child spends this long at most outside its root span: interpreter
# start-up and the import of numpy before the root opens, and writing the
# spans after it closes.
UNSPANNED_MAX_MS = 1000.0
WORK_DIR = ".bench_run"
# Exact counts: they must repeat across traced runs of one seed.
COUNT_SUFFIXES = (".calls", ".bytes_in", "_bytes", ".steps", ".plateau_decays",
                  ".ns_iterations", ".ns_converged_ratio", ".spans")


def preflight(workload: str) -> str | None:
    """Why this directory cannot run the workload, or None."""
    needed = ["BENCHMARK.json", "src/muonlab/__init__.py"]
    names = sorted(WORKLOADS) if workload == "all" else [workload]
    needed += [WORKLOADS[n][1] for n in names if WORKLOADS[n][1]]
    missing = [p for p in needed if not os.path.isfile(p)]
    return f"missing {', '.join(missing)} (run from the root of a muonlab checkout)" if missing else None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], env: dict[str, str], log_path: str) -> tuple[float, float, int, float]:
    """(``perf_counter`` at spawn, at exit, exit code, peak RSS in MB) of one child."""
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
            watchdog.join()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, end, proc.returncode, usage.ru_maxrss / 1024.0


@dataclass
class Run:
    spawned: float
    exited: float
    peak_rss_mb: float
    steps: int
    outcome: Outcome
    spans: str | None
    probes: list

    @property
    def wall_s(self) -> float:
        return self.exited - self.spawned


def run_once(workload: str, seed: int, env: dict, work: str, trace: bool, probe: bool = False) -> Run:
    """One workload subprocess, timed, then its outputs checked; ``probe``
    makes it sample the machine's speed as it runs."""
    kind, config = WORKLOADS[workload]
    out_dir = os.path.join(work, "out")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    result_path = os.path.join(work, "result.json")
    spans = os.path.join(work, "spans.npz") if trace else None
    for stale in (result_path, spans):
        if stale and os.path.exists(stale):
            os.remove(stale)
    argv = [sys.executable, CHILD, "run", workload, "--seed", str(seed),
            "--out", out_dir, "--result", result_path]
    argv += ["--trace", spans] if trace else ["--probe"] if probe else []
    log = os.path.join(work, "stdout.txt")
    spawned, exited, code, rss = spawn(argv, env, log)
    result = None
    if code == 0:
        with open(result_path) as fh:
            result = json.load(fh)
        code = result["exit"]
    if kind == SWEEP:
        outcome = check_sweep(config, out_dir, code)
        if result and not outcome.failed and result["steps"] != outcome.steps:
            outcome.fail("run_trajectory steps disagree with summary.csv", outcome.attempted)
    elif kind == VERIFY:
        with open(log) as fh:
            outcome = check_verify(fh.read(), code)
    else:
        outcome = check_protocol(result, code)
    steps = result["steps"] if result else 0
    probes = result.get("probes", []) if result else []
    return Run(spawned, exited, rss, steps, outcome, spans, probes)


def setup_times(workload: str, seed: int, env: dict, work: str) -> tuple[list[float], list[float]]:
    """(at reference speed, as measured) of ``SETUP_REPS`` set-up
    subprocesses, each between two bracket timings of the kernel."""
    argv = [sys.executable, CHILD, "setup", workload, "--seed", str(seed)]
    times, kernels = [], [kernel_equivalent_s(BRACKET_FRACTION)]
    for _ in range(SETUP_REPS):
        spawned, exited, code, _ = spawn(argv, env, os.path.join(work, "setup.txt"))
        if code != 0:
            raise RuntimeError(f"set-up of {workload} exited with {code}")
        times.append(exited - spawned)
        kernels.append(kernel_equivalent_s(BRACKET_FRACTION))
    return bracketed(times, kernels), times


def loop(seconds: float, start: float, one) -> list:
    """Closed loop: call ``one`` until the next call would end after
    ``seconds``; at least once."""
    results = []
    while True:
        t = time.perf_counter()
        results.append(one())
        if time.perf_counter() - start + (time.perf_counter() - t) > seconds:
            return results


def fingerprint() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "reference_kernel_s": reference_kernel_s(),
    }


def merge(outcomes: list[Outcome]) -> tuple[Outcome, list[str]]:
    """Sum the operation counts of several runs of one seed; their digests
    and claim misses must agree."""
    total = Outcome(attempted=sum(o.attempted for o in outcomes),
                    failed=sum(o.failed for o in outcomes),
                    claim_misses=outcomes[0].claim_misses, digest=outcomes[0].digest)
    problems = [p for o in outcomes for p in o.problems]
    if len({o.digest for o in outcomes}) > 1:
        problems.append("outputs differ between runs of one seed")
    if len({tuple(o.claim_misses) for o in outcomes}) > 1:
        problems.append("claim misses differ between runs of one seed")
    return total, problems


def untraced(workload: str, seed: int, seconds: float, env: dict, work: str):
    start = time.perf_counter()
    setups, setups_measured = setup_times(workload, seed, env, work)
    kernels = [kernel_equivalent_s(BRACKET_FRACTION)]

    def one() -> Run:
        run = run_once(workload, seed, env, work, False, probe=True)
        kernels.append(kernel_equivalent_s(BRACKET_FRACTION))
        return run

    runs = loop(seconds, start, one)
    timed = [at_reference_speed(r.spawned, r.exited, a, b, r.probes)
             for r, a, b in zip(runs, kernels, kernels[1:])]
    scaled, walls = [t[0] for t in timed], [t[1] for t in timed]
    metrics = {
        "wall_s": statistics.median(scaled),
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(r.steps / w for r, w in zip(runs, scaled)),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs),
    }
    outcome, problems = merge([r.outcome for r in runs])
    probes = statistics.median(len(r.probes) for r in runs)
    notes = [
        f"wall_s: median of {len(runs)} runs at reference speed, range "
        f"{min(scaled):.4f}-{max(scaled):.4f} s; no tail percentile: it needs 10 samples beyond it",
        f"as measured: wall {statistics.median(walls):.4f} s (range {min(walls):.4f}-"
        f"{max(walls):.4f}) without {probes:g} speed probes per run, "
        f"{statistics.median(r.steps / w for r, w in zip(runs, walls)):.6g} steps/s, "
        f"set-up {statistics.median(setups_measured):.4f} s; reference kernel "
        f"{statistics.median(kernels):.4f} s (nominal {KERNEL_S} s)",
        f"setup_s: median of {len(setups)} set-ups at reference speed, range "
        f"{min(setups):.4f}-{max(setups):.4f} s",
        f"steps per run: {runs[0].steps}",
    ]
    return metrics, outcome, problems, notes


def layer_metrics(plain: Run, run: Run) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced run, checked against the untraced
    run before it: same outputs, spans that nest, and self times that sum
    to the traced wall time less at most ``UNSPANNED_MAX_MS``."""
    if run.spans is None or not os.path.exists(run.spans):
        return {}, ["traced run wrote no spans"]
    spans = Spans(read_spans(run.spans))
    problems = spans.problems()
    m = per_layer(spans)
    self_ms = self_time_sum_ms(m)
    if abs(self_ms - m["bench.root_ms"]) > 1e-6 * max(m["bench.root_ms"], 1.0):
        problems.append(f"layers share spans: self times sum to {self_ms:.3f} ms, "
                        f"the root span lasts {m['bench.root_ms']:.3f} ms")
    if run.outcome.digest != plain.outcome.digest:
        problems.append("traced outputs differ from untraced outputs")
    m["bench.traced_wall_s"] = run.wall_s
    m["bench.untraced_wall_s"] = plain.wall_s
    m["bench.unspanned_ms"] = run.wall_s * 1e3 - self_ms
    if not 0.0 <= m["bench.unspanned_ms"] <= UNSPANNED_MAX_MS:
        problems.append(f"self times sum to {self_ms:.3f} ms of a {run.wall_s * 1e3:.3f} ms "
                        f"traced run; at most {UNSPANNED_MAX_MS:g} ms may lie outside the spans")
    return m, problems


def count_mismatches(layer_runs: list[dict]) -> list[str]:
    """Exact counts that differ between traced runs of one seed."""
    return [
        f"{k} differs between traced runs: {[m[k] for m in layer_runs]}"
        for k in layer_runs[0]
        if k.endswith(COUNT_SUFFIXES) and len({m[k] for m in layer_runs}) > 1
    ]


def traced_pair(workload: str, seed: int, env: dict, work: str):
    """An untraced run, then a traced one whose spans are read at once,
    before the next traced run overwrites them: (untraced run, traced run,
    its per-layer metrics, problems)."""
    plain = run_once(workload, seed, env, work, False)
    run = run_once(workload, seed, env, work, True)
    return (plain, run) + layer_metrics(plain, run)


def traced(workload: str, seed: int, seconds: float, env: dict, work: str):
    start = time.perf_counter()
    pairs = loop(seconds, start, lambda: traced_pair(workload, seed, env, work))
    layer_runs = [m for _, _, m, _ in pairs if m]
    problems = [p for _, _, _, more in pairs for p in more]
    outcome, more = merge([r.outcome for plain, run, _, _ in pairs for r in (plain, run)])
    problems += more
    if not layer_runs:
        return {}, outcome, problems, []
    problems += count_mismatches(layer_runs)
    metrics = {k: statistics.median(m[k] for m in layer_runs) for k in layer_runs[0]}
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        metrics["bench.traced_wall_s"] / metrics["bench.untraced_wall_s"] - 1.0)
    notes = [f"{len(pairs)} untraced/traced pairs; tracing overhead "
             f"{metrics['bench.trace_overhead_pct']:.1f}% of untraced wall time",
             f"spans of the last traced run in {pairs[-1][1].spans}"]
    return metrics, outcome, problems, notes


def measure(workload: str, seed: int, seconds: float, trace: bool, spec: dict, machine: dict):
    """Run one workload, print its report, and return its result object."""
    work = os.path.join(WORK_DIR, workload)
    os.makedirs(work, exist_ok=True)
    env = child_env()
    how = traced if trace else untraced
    print(f"== {workload} (seed {seed}{', ignored' if WORKLOADS[workload][0] in FIXED_INPUTS else ''}, "
          f"{'traced' if trace else 'untraced'}) ==")
    try:
        computed, outcome, problems, notes = how(workload, seed, seconds, env, work)
    except RuntimeError as exc:  # a set-up subprocess failed
        print(f"  problem: {exc}")
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    computed["bench.ref_kernel_s"] = machine["reference_kernel_s"]
    listed = spec["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in computed]
    if missing:
        problems.append(f"{len(missing)} metrics not computed, such as {missing[0]}")
    metrics = {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
               for m in listed if m["name"] in computed}
    error_rate = outcome.failed / outcome.attempted
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{'error_rate':<44} {error_rate:>14.6g} fraction "
          f"({outcome.failed} of {outcome.attempted} operations failed)")
    print(f"{'claim_misses':<44} {len(outcome.claim_misses):>14d} count")
    for miss in outcome.claim_misses:
        print(f"  claim miss: {miss}")
    for line in notes + [f"problem: {p}" for p in problems]:
        print(f"  {line}")
    print(f"  output sha256 {outcome.digest}")
    return {
        "correct": not problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = preflight(args.workload)
    if problem is None and args.seed < 0:
        problem = "--seed must be nonnegative"
    if problem:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    machine = fingerprint()
    print(f"machine {json.dumps(machine)}")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: measure(n, args.seed, args.seconds, bool(args.trace), spec, machine) for n in names}
    if len(results) == 1:
        line = results[args.workload]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
