"""``run_trajectory`` computes the metrics that do not steer a run in
stacked blocks, and a record's spectral error on the spot only where the
loss cannot rule out an early stop.  Against a reference loop that computes
every metric per record as it goes, the records, iterates, final point and
divergence diagnostics are identical."""

from unittest import mock

import numpy as np
import pytest

from muonlab import (
    ConstantSchedule,
    ExponentialSchedule,
    NumericalDivergenceError,
    OptimizerConfig,
    PlateauSchedule,
    RandomStream,
    RankDeficiencyError,
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
    "gd": OptimizerConfig("gd"),
    "signgd": OptimizerConfig("signgd"),
    "scaledgd": OptimizerConfig("scaledgd"),
}


def reference_trajectory(inst, algo, sched, init, T, stream=None, keep_iterates=False, stop_below=None):
    """The driver loop with every metric computed per record, on the spot."""
    x = np.array(init, dtype=float)
    update = _UPDATES[algo.algorithm]
    factored = algo.algorithm == "muon"
    records = []
    iterates = [x.copy()] if keep_iterates else None
    for t in range(T + 1):
        loss, grad, operand = inst.loss_grad(x)
        if not np.isfinite(loss):
            raise NumericalDivergenceError(f"non-finite loss at iteration {t}", iteration=t, records=records)
        err = float(inst.operand_errors(operand[None])[0])
        factors = np.linalg.svd(grad, full_matrices=False) if factored else None
        svals = factors[1] if factored else np.linalg.svd(grad, compute_uv=False)
        gsm = float(svals[-1])
        eta = float(sched.eta(t, loss, stream))
        if t == T or (stop_below is not None and err <= stop_below):
            records.append(TrajectoryRecord(t, eta, loss, err, gsm))
            break
        try:
            x = update(x, grad, eta, factors)
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(f"{exc} at iteration {t}", iteration=t, records=records) from None
        records.append(TrajectoryRecord(t, eta, loss, err, gsm))
        if keep_iterates:
            iterates.append(x.copy())
    return Trajectory(records=records, final=x, iterates=iterates)


def error(inst, x) -> float:
    """The recovery error ``run_trajectory`` records for iterate x: the instance's
    error of the operand ``loss_grad`` returns."""
    return inst.operand_errors(inst.loss_grad(x)[2][None])[0]


def _both(monkeypatch, block_records, inst, algo, sched, init, T, **kw):
    """(reference, driver) on fresh copies of the schedule and stream, with
    the driver's metric block cut to ``block_records`` records if given."""
    if block_records is not None:
        monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", block_records * inst.loss_grad(init)[2].nbytes)
    runs = []
    for run in (reference_trajectory, run_trajectory):
        runs.append(run(inst, algo, sched(), init, T, stream=RandomStream(5), keep_iterates=True, **kw))
    return runs


def _assert_same(ref, got):
    assert got.records == ref.records
    assert np.array_equal(got.final, ref.final)
    assert len(got.iterates) == len(ref.iterates)
    assert all(np.array_equal(a, b) for a, b in zip(got.iterates, ref.iterates))


# (d, k) at r = 2: the core error, then the dense one (2(k + r) > d) at
# k = d, k > d and a d = 30 factor whose residual outweighs it; every
# algorithm but ScaledGD at k > d, where U^T U is singular
MF_CELLS = [(d, k, name) for d, k in [(12, 2), (12, 12), (8, 10), (30, 14)]
            for name in sorted(ALGOS) if name != "scaledgd" or k <= d]


@pytest.mark.parametrize("block_records", [None, 3])
@pytest.mark.parametrize("stop", STOPS)
@pytest.mark.parametrize("d,k,name", MF_CELLS)
def test_mf_matches_the_reference_loop(monkeypatch, d, k, name, stop, block_records):
    monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 10)
    inst = make_mf_instance(RandomStream(1), d, 2, k, 25.0)
    init = RandomStream(2).gaussian_matrix(d, k) * (0.3 * np.sqrt(2 / k))  # ||U|| about 1 or less
    algo = ALGOS[name]
    eta0 = default_eta0(algo.algorithm, inst)
    stop_below = None if stop is None else stop * inst.lambda_max
    try:
        ref, got = _both(monkeypatch, block_records, inst, algo,
                         lambda: PlateauSchedule(initial_eta=eta0), init, 400, stop_below=stop_below)
    except RankDeficiencyError as ref:
        # ScaledGD at k > r: U^T U turns singular as U U^T nears rank r,
        # unless the run stops first; the driver raises as the loop does,
        # with the same iteration and records
        assert name == "scaledgd" and k > 2
        with pytest.raises(RankDeficiencyError) as info:
            run_trajectory(inst, algo, PlateauSchedule(initial_eta=eta0), init, 400, stop_below=stop_below)
        assert info.value.iteration == ref.iteration > 0
        assert info.value.records == ref.records
        return
    _assert_same(ref, got)


# per algorithm, a decay that takes the run below 1e-6 * lambda_max within
# 400 steps; GD stalls near 1e-3 at every decay
DRAWN_RHO = {"muon": 0.9, "gd": 0.999, "signgd": 0.96, "scaledgd": 0.99}


@pytest.mark.parametrize("block_records", [None, 3])
@pytest.mark.parametrize("mode", ["fixed", "per_iteration"])
@pytest.mark.parametrize("name", sorted(ALGOS))
def test_mf_drawn_etas_match_the_reference_loop(monkeypatch, name, mode, block_records):
    # the prefactor is drawn from the stream once, or at every record
    inst = make_mf_instance(RandomStream(1), 12, 2, 2, 25.0)
    init = RandomStream(2).gaussian_matrix(12, 2) * 0.3
    algo = ALGOS[name]
    eta0 = default_eta0(algo.algorithm, inst)
    ref, got = _both(monkeypatch, block_records, inst, algo,
                     lambda: ExponentialSchedule(DRAWN_RHO[name], eta0, prefactor_mode=mode), init, 400,
                     stop_below=1e-6 * inst.lambda_max)
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
        monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", block_records * inst.loss_grad(init)[2].nbytes)
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
    err = error(inst, x)
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
    points = [(inst, x) for inst, x, bare in far() if bare > error(inst, x)]
    assert len(points) >= 3
    for inst, x in points:
        err = error(inst, x)
        assert inst.error_floor(inst.loss_grad(x)[0]) <= err
        ref, got = _both(monkeypatch, None, inst, ALGOS["gd"], lambda: ConstantSchedule(1e-9), x, 5,
                         stop_below=err)
        assert len(ref.records) == 1
        _assert_same(ref, got)


@pytest.mark.parametrize("name", ["gd", "muon"])
@pytest.mark.parametrize("k", [2, 3])
def test_metric_blocks_keep_to_the_byte_budget(monkeypatch, k, name):
    # d = 8, r = 2: k = 2 queues the 8 x 2 factors, k = 3 the 8 x 8 residuals
    stacks, svd_batches = [], []
    errors, svd = MfInstance.operand_errors, np.linalg.svd

    def counting_errors(inst, ops):
        stacks.append(ops.nbytes)
        return errors(inst, ops)

    def counting_svd(a, **kw):
        if a.ndim == 3:
            svd_batches.append(len(a))
        return svd(a, **kw)

    monkeypatch.setattr(MfInstance, "operand_errors", counting_errors)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    inst = make_mf_instance(RandomStream(9), 8, 2, k, 4.0)
    init = RandomStream(10).gaussian_matrix(8, k) * 0.1
    operand = {2: 8 * 2 * 8, 3: 8 * 8 * 8}[k]  # bytes of one factor, or of one residual
    budget = 3 * operand + 1
    monkeypatch.setattr(optimizers, "METRIC_BLOCK_BYTES", budget)
    run_trajectory(inst, ALGOS[name], ConstantSchedule(0.01), init, 10)
    # 11 records; exact Muon takes its sigma_min from the SVD it steps with
    assert stacks == [3 * operand, 3 * operand, 3 * operand, 2 * operand]
    assert max(stacks) <= budget
    assert svd_batches == ([3, 3, 3, 2] if name == "gd" else [])


@pytest.mark.parametrize("d,k,name", [cell for cell in MF_CELLS if 2 * (cell[1] + 2) > cell[0]])
def test_dense_residual_is_formed_once_per_evaluated_iterate(monkeypatch, d, k, name):
    """In the dense regime the driver's errors come from the residuals
    ``loss_grad`` formed, stacked as they are: no residual is formed again
    from the iterates, and the records are the reference loop's."""
    inst = make_mf_instance(RandomStream(1), d, 2, k, 25.0)
    init = RandomStream(2).gaussian_matrix(d, k) * (0.3 * np.sqrt(2 / k))  # ||U|| about 1 or less
    sched = lambda: PlateauSchedule(initial_eta=default_eta0(name, inst))  # noqa: E731
    ref = reference_trajectory(inst, ALGOS[name], sched(), init, 100, stop_below=1e-6)
    formed, stacked = [], []
    loss_grad, errors = MfInstance.loss_grad, MfInstance.operand_errors

    def recording_loss_grad(self, u):
        out = loss_grad(self, u)
        formed.append(out[2].copy())
        return out

    def recording_errors(self, ops):
        stacked.extend(ops)
        return errors(self, ops)

    monkeypatch.setattr(MfInstance, "loss_grad", recording_loss_grad)
    monkeypatch.setattr(MfInstance, "operand_errors", recording_errors)
    got = run_trajectory(inst, ALGOS[name], sched(), init, 100, stop_below=1e-6)
    assert got.records == ref.records and np.array_equal(got.final, ref.final)
    assert all(op.shape == (d, d) for op in formed)
    assert len(stacked) == len(formed) and all(np.array_equal(a, b) for a, b in zip(stacked, formed))


@pytest.mark.parametrize("problem", ["mf", "icl"])
def test_error_floor_runs_at_most_64_times_per_run(problem):
    """``run_trajectory`` tests each loss against one threshold found per run,
    so the floor's call count does not grow with T."""
    if problem == "mf":
        inst = make_mf_instance(RandomStream(9), 8, 2, 2, 4.0)
        init, eta, stop = RandomStream(10).gaussian_matrix(8, 2) * 0.1, 0.01, 1e-12
    else:
        inst = make_icl_instance(RandomStream(11), 6, 10.0)
        init, eta, stop = np.zeros((6, 6)), 1e-3, 1e-12 / inst.sigma_min
    cls = type(inst)
    # autospec binds the instance; side_effect calls the real floor
    with mock.patch.object(cls, "error_floor", autospec=True, side_effect=cls.error_floor) as floor:
        for T in (1, 50, 600):
            floor.reset_mock()
            traj = run_trajectory(inst, ALGOS["gd"], ConstantSchedule(eta), init, T, stop_below=stop)
            assert len(traj.records) == T + 1  # no early stop: every step tested its loss
            assert 1 <= floor.call_count <= 64
