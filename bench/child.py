"""One workload run (or its set-up alone) inside a fresh interpreter.

    python bench/child.py run <workload> --seed N --out DIR --result FILE [--trace FILE | --probe]
    python bench/child.py setup <workload> --seed N

``run`` drives muonlab through its public entry points: ``muonlab.cli.main``
(the ``muonlab`` console script) for the sweeps and ``verify --suite all``,
and the library calls of acceptance criterion 10 for the d = 100 protocol,
whose inputs, like those of the verification suites, do not depend on the
seed.  It writes a small JSON result: exit code, optimizer steps taken and, for the
protocol, which keeps its trajectories in memory, the per-cell checks and
the output digest.  Untraced, the only wrapper is a step counter on
``run_trajectory`` (tens of calls per run); with ``--trace`` every public
function records spans (see ``tracer.py``).  With ``--probe`` every
schedule's ``eta`` (one call per step) also lets a ``speed.Probe`` time a
slice of the reference kernel every ``speed.PROBE_EVERY_S`` seconds, and
the result lists those samples.

``setup`` imports muonlab, parses the config and builds every instance and
initial point of the workload, then exits without an optimizer step.

Run with ``PYTHONPATH`` pointing at the checkout's ``src`` and BLAS pinned to
one thread; ``run.py`` does both.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

from speed import Probe
from tracer import SCHEDULES, Tracer, rebind
from workloads import (
    PROTOCOL, PROTOCOL_CELLS, PROTOCOL_D, PROTOCOL_EPS, PROTOCOL_R, PROTOCOL_SEED, PROTOCOL_T,
    SWEEP, VERIFY, WORKLOADS,
)


def _count_steps(counter: list[int]) -> None:
    """Add each returned trajectory's step count to ``counter[0]``."""
    from muonlab import optimizers

    original = optimizers.run_trajectory

    @functools.wraps(original)
    def counted(*args, **kwargs):
        traj = original(*args, **kwargs)
        counter[0] += len(traj.records) - 1
        return traj

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "muonlab"]
    rebind({id(original): counted}, modules)


def _tick_every_step(probe: Probe) -> None:
    """Wrap each schedule's ``eta`` so that it ticks ``probe`` first."""
    from muonlab import optimizers

    def ticking(eta):
        @functools.wraps(eta)
        def wrapped(*args, **kwargs):
            probe.tick()
            return eta(*args, **kwargs)

        return wrapped

    for name in SCHEDULES:
        cls = getattr(optimizers, name)
        cls.eta = ticking(cls.eta)


def _protocol_inputs():
    """Instance, initial point and trajectory stream of each criterion-10
    cell, derived from the criterion's master seed as the acceptance test
    derives them."""
    from muonlab import RandomStream, make_mf_instance
    from muonlab.experiments import scaled_orthonormal_init

    master = RandomStream(PROTOCOL_SEED)
    for cell, (algorithm, kappa, k) in enumerate(PROTOCOL_CELLS, start=1):
        inst = make_mf_instance(
            master.derive(1000 + cell), PROTOCOL_D, PROTOCOL_R, k, kappa, lambda_max=1.0
        )
        init = scaled_orthonormal_init(master.derive(2000 + cell), PROTOCOL_D, k, 0.1)
        yield algorithm, kappa, k, inst, init, master.derive(3000 + cell)


def _run_protocol() -> dict:
    from muonlab import first_hit_time
    from muonlab.experiments import default_eta0
    from muonlab.optimizers import OptimizerConfig, PlateauSchedule, run_trajectory

    digest = hashlib.sha256()
    cells = []
    for algorithm, kappa, k, inst, init, stream in _protocol_inputs():
        sched = PlateauSchedule(initial_eta=default_eta0(algorithm, inst))
        traj = run_trajectory(
            inst, OptimizerConfig(algorithm), sched, init, PROTOCOL_T,
            stream=stream, stop_below=PROTOCOL_EPS,
        )
        errors = [r.spectral_error for r in traj.records]
        problem = None
        for t, r in enumerate(traj.records):
            row = (r.t, r.eta, r.loss, r.spectral_error, r.grad_sigma_min)
            if r.t != t or not all(math.isfinite(v) for v in row[1:]):
                problem = f"record {t} malformed or non-finite"
                break
            digest.update(",".join(repr(v) for v in row).encode() + b"\n")
        cells.append({
            "algorithm": algorithm, "kappa": kappa, "k": k,
            "iterations": len(traj.records) - 1,
            "first_hit": first_hit_time(errors, PROTOCOL_EPS),
            "problem": problem,
        })
    return {"cells": cells, "digest": digest.hexdigest()}


def _setup(workload: str, seed: int) -> None:
    kind, config = WORKLOADS[workload]
    if kind == PROTOCOL:
        list(_protocol_inputs())
    elif kind == SWEEP:
        from muonlab import RandomStream, make_icl_instance, make_mf_instance
        from muonlab.experiments import parse_config, scaled_orthonormal_init

        with open(config) as fh:
            cfg = parse_config(fh.read())
        master = RandomStream(seed)
        for p_idx, kappa in enumerate(cfg.kappa):
            stream = master.derive(10_000 + p_idx)
            if cfg.kind == "icl_sweep":
                make_icl_instance(stream, cfg.d, kappa ** (1.0 / 3.0), sigma_min=1.0)
            else:
                make_mf_instance(stream, cfg.d, cfg.r, cfg.k, kappa, lambda_max=1.0)
                scaled_orthonormal_init(master.derive(20_000 + p_idx * 1_000), cfg.d, cfg.k, cfg.alpha)


def _run(workload: str, seed: int, out_dir: str, tracer: Tracer | None, probe: Probe | None) -> dict:
    import muonlab.cli

    kind, config = WORKLOADS[workload]
    steps = [0]
    if tracer:
        tracer.install()
    else:
        _count_steps(steps)
    if probe:
        _tick_every_step(probe)
    result: dict = {}
    if kind == SWEEP:
        code = muonlab.cli.main(["run", "--config", config, "--seed", str(seed), "--out", out_dir])
    elif kind == VERIFY:
        code = muonlab.cli.main(["verify", "--suite", "all"])
    else:
        result = _run_protocol()
        code = 0
    sys.stdout.flush()
    if tracer:
        steps[0] = tracer.counters.get("optimizers.steps", 0)
    result.update(exit=code, steps=steps[0])
    if probe:
        probe.sample()
        result["probes"] = probe.samples
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("run", "setup"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--result")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--trace")
    group.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.start_root()  # the root span covers the import of muonlab
    import muonlab

    src = os.path.join(os.getcwd(), "src")
    if os.path.dirname(os.path.dirname(os.path.abspath(muonlab.__file__))) != src:
        print(f"muonlab imported from {muonlab.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        _setup(args.workload, args.seed)
        return 0
    result = _run(args.workload, args.seed, args.out, tracer, Probe() if args.probe else None)
    if tracer:
        tracer.stop_root()
        tracer.write(args.trace)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
