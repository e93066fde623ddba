"""``run_trajectory`` computes the metrics that do not steer a run in
stacked blocks, and a record's spectral error on the spot only where the
loss cannot rule out an early stop.  Against a reference loop that computes
every metric per record as it goes, the records, iterates, final point and
divergence diagnostics are identical."""

import numpy as np
import pytest

from muonlab import (
    ConstantSchedule,
    ExponentialSchedule,
    NumericalDivergenceError,
    OptimizerConfig,
    PlateauSchedule,
    RandomStream,
    make_icl_instance,
    make_mf_instance,
    run_trajectory,
)
from muonlab import optimizers
from muonlab.experiments import default_eta0
from muonlab.optimizers import _UPDATES, Trajectory, TrajectoryRecord
from muonlab.problems import MfInstance

STOPS = (None, 1e-6, 1e-12, 1e-15, 1e-16)  # times the problem's scale
ALGOS = {
    "muon": OptimizerConfig("muon"),
    "muon_mu": OptimizerConfig("muon", mu=0.5),
    "muon_ns": OptimizerConfig("muon", msign_backend="newton_schulz"),
    "gd": OptimizerConfig("gd"),
    "signgd": OptimizerConfig("signgd"),
    "scaledgd": OptimizerConfig("scaledgd"),
}


def reference_trajectory(inst, algo, sched, init, T, stream=None, keep_iterates=False, stop_below=None):
    """The driver loop with every metric computed per record, on the spot."""
    x = np.array(init, dtype=float)
    buffer = np.zeros(x.shape) if algo.mu else None
    update = _UPDATES[algo.algorithm]
    factored = algo.algorithm == "muon" and algo.msign_backend == "exact" and algo.mu == 0.0
    records = []
    iterates = [x.copy()] if keep_iterates else None
    for t in range(T + 1):
        loss, grad = inst.loss_grad(x)
        if not np.isfinite(loss):
            raise NumericalDivergenceError(f"non-finite loss at iteration {t}", iteration=t, records=records)
        err = float(inst.spectral_errors(x[None])[0])
        factors = np.linalg.svd(grad, full_matrices=False) if factored else None
        svals = factors[1] if factored else np.linalg.svd(grad, compute_uv=False)
        gsm = float(svals[-1])
        eta = float(sched.eta(t, loss, stream))
        if t == T or (stop_below is not None and err <= stop_below):
            records.append(TrajectoryRecord(t, eta, loss, err, gsm, True))
            break
        x, buffer, converged = update(x, grad, eta, buffer, algo, factors)
        records.append(TrajectoryRecord(t, eta, loss, err, gsm, converged))
        if keep_iterates:
            iterates.append(x.copy())
    return Trajectory(records=records, final=x, iterates=iterates)


def _both(monkeypatch, block_records, inst, algo, sched, init, T, **kw):
    """(reference, driver) on fresh copies of the schedule and stream, with
    the driver's metric block cut to ``block_records`` records if given."""
    if block_records is not None:
        monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", block_records * init.nbytes)
    runs = []
    for run in (reference_trajectory, run_trajectory):
        runs.append(run(inst, algo, sched(), init, T, stream=RandomStream(5), keep_iterates=True, **kw))
    return runs


def _assert_same(ref, got):
    assert got.records == ref.records
    assert np.array_equal(got.final, ref.final)
    assert len(got.iterates) == len(ref.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, ref.iterates))


@pytest.mark.parametrize("block_records", [None, 3])
@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_mf_matches_the_reference_loop(monkeypatch, name, stop, block_records):
    monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 10)
    inst = make_mf_instance(RandomStream(1), 12, 2, 2, 25.0)
    init = RandomStream(2).gaussian_matrix(12, 2) * 0.3
    algo = ALGOS[name]
    eta0 = default_eta0(algo.algorithm, inst)
    ref, got = _both(monkeypatch, block_records, inst, algo,
                     lambda: PlateauSchedule(initial_eta=eta0), init, 400,
                     stop_below=None if stop is None else stop * inst.lambda_max)
    _assert_same(ref, got)


@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("lam_max", [1e-3, 1e3])
def test_mf_scale_matches_the_reference_loop(monkeypatch, lam_max, stop):
    # d = 5 < 2(k + r): the dense error, not the core
    for d in (5, 12):
        inst = make_mf_instance(RandomStream(3), d, 2, 2, 5.0, lambda_max=lam_max)
        init = RandomStream(4).gaussian_matrix(d, 2) * 0.3 * np.sqrt(lam_max)
        ref, got = _both(monkeypatch, 3, inst, ALGOS["muon"],
                         lambda: ExponentialSchedule(0.9, np.sqrt(lam_max), prefactor_mode="per_iteration"),
                         init, 300, stop_below=None if stop is None else stop * lam_max)
        _assert_same(ref, got)


@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("name", ["muon", "gd", "signgd"])
def test_icl_matches_the_reference_loop(monkeypatch, name, stop):
    monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 10)
    inst = make_icl_instance(RandomStream(6), 6, 3.0, sigma_min=0.5)
    algo = ALGOS[name]
    eta0 = default_eta0(algo.algorithm, inst)
    ref, got = _both(monkeypatch, 3, inst, algo,
                     lambda: PlateauSchedule(initial_eta=eta0), np.zeros((6, 6)), 300,
                     stop_below=None if stop is None else stop / inst.sigma_min)
    _assert_same(ref, got)


@pytest.mark.parametrize("block_records", [None, 3])
@pytest.mark.parametrize("problem", ["mf", "icl"])
def test_divergence_records_match_the_reference_loop(monkeypatch, problem, block_records):
    # GD past its stable step size: the mf factor overflows at t = 6, the
    # icl parameter after about 400 geometric steps
    if problem == "mf":
        inst, eta = make_mf_instance(RandomStream(7), 8, 2, 2, 4.0), 0.5
        init = RandomStream(8).gaussian_matrix(8, 2)
    else:
        inst, eta = make_icl_instance(RandomStream(6), 6, 3.0, sigma_min=0.5), 1.0
        init = np.zeros((6, 6))
    if block_records is not None:
        monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", block_records * init.nbytes)
    raised = []
    for run in (reference_trajectory, run_trajectory):
        with pytest.raises(NumericalDivergenceError) as info, np.errstate(over="ignore", invalid="ignore"):
            run(inst, ALGOS["gd"], ConstantSchedule(eta), init, 1000, stop_below=1e-12)
        raised.append(info.value)
    ref, got = raised
    assert got.iteration == ref.iteration > 3
    assert got.records == ref.records


def _converged_mf():
    inst = make_mf_instance(RandomStream(106), 8, 2, 2, 5.0)
    aligned = inst.eigenvectors * np.sqrt(inst.eigenvalues)
    u = aligned @ RandomStream(107).haar_orthonormal(2, 2)
    return inst, u, 2.0 * np.sqrt(inst.loss_grad(u)[0]) / np.sqrt(4)


def _converged_icl():
    inst = make_icl_instance(RandomStream(98), 2, 1.5)
    q = np.linalg.solve(inst.covariance, np.eye(2))
    return inst, q, np.sqrt(2.0 * inst.loss_grad(q)[0] / (inst.eigenvalues[0] ** 3 * 2))


@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("converged", [_converged_mf, _converged_icl])
def test_floor_slack_keeps_rounding_level_stops(monkeypatch, converged, stop):
    """At these converged points rounding alone puts the bare loss bound
    above twice the computed error, which is below 1e-16 times the scale:
    only the floor's absolute slack has the driver stop at t = 0 as the loop
    does."""
    inst, x, bare = converged()
    err = inst.spectral_errors(x[None])[0]
    assert bare > 2.0 * err
    assert inst.error_floor(inst.loss_grad(x)[0]) <= err
    scale = getattr(inst, "lambda_max", None) or 1.0 / inst.sigma_min
    ref, got = _both(monkeypatch, None, inst, ALGOS["muon"], lambda: ConstantSchedule(1e-3), x, 20,
                     stop_below=None if stop is None else stop * scale)
    assert len(ref.records) == (21 if stop is None else 1)
    _assert_same(ref, got)


def _far_mf():
    """d = k = 3 factors with U U^T = M + c I at lam_max = 1e-6: the loss
    bound is tight, and the error so far above the floor's absolute slack
    that rounding of relative size eps sets the gap between them."""
    for seed in range(200):
        inst = make_mf_instance(RandomStream(seed), 3, 1, 3, 1.0, lambda_max=1e-6)
        for c in (3.0, 1e3):
            w, v = np.linalg.eigh(c * np.eye(3) + inst.target)
            u = v * np.sqrt(w)
            yield inst, u, 2.0 * np.sqrt(inst.loss_grad(u)[0]) / np.sqrt(3)


def _far_icl():
    """``_far_mf`` for ICL: S = I and Q = S^-1 + 1e6 I."""
    for d in (2, 5, 10):
        for seed in range(10):
            inst = make_icl_instance(RandomStream(100 * d + seed), d, 1.0, sigma_min=1.0)
            q = inst.inverse + 1e6 * np.eye(d)
            yield inst, q, np.sqrt(2.0 * inst.loss_grad(q)[0] / d)


@pytest.mark.parametrize("far", [_far_mf, _far_icl])
def test_floor_relative_margin_keeps_rounding_level_stops(monkeypatch, far):
    """Where rounding puts the bare loss bound above the computed error,
    by thousands of times the floor's absolute slack, only its relative
    margin has the driver stop at ``stop_below = error`` at t = 0."""
    points = [(inst, x) for inst, x, bare in far() if bare > inst.spectral_errors(x[None])[0]]
    assert len(points) >= 3
    for inst, x in points:
        err = inst.spectral_errors(x[None])[0]
        assert inst.error_floor(inst.loss_grad(x)[0]) <= err
        ref, got = _both(monkeypatch, None, inst, ALGOS["gd"], lambda: ConstantSchedule(1e-9), x, 5,
                         stop_below=err)
        assert len(ref.records) == 1
        _assert_same(ref, got)


@pytest.mark.parametrize("name", ["gd", "muon"])
def test_metric_blocks_keep_to_the_byte_budget(monkeypatch, name):
    batches = {"errors": [], "svd": []}
    errors, svd = MfInstance.spectral_errors, np.linalg.svd

    def counting_errors(inst, us):
        batches["errors"].append(len(us))
        return errors(inst, us)

    def counting_svd(a, **kw):
        if a.ndim == 3:
            batches["svd"].append(len(a))
        return svd(a, **kw)

    monkeypatch.setattr(MfInstance, "spectral_errors", counting_errors)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    inst = make_mf_instance(RandomStream(9), 8, 2, 2, 4.0)
    init = RandomStream(10).gaussian_matrix(8, 2) * 0.1
    monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", 3 * init.nbytes + 1)
    run_trajectory(inst, ALGOS[name], ConstantSchedule(0.01), init, 10)
    # 11 records; exact Muon takes its sigma_min from the SVD it steps with
    assert batches["errors"] == [3, 3, 3, 2]
    assert batches["svd"] == ([3, 3, 3, 2] if name == "gd" else [])
