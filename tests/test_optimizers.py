"""Optimizer step, schedule, and trajectory-driver contracts."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import (
    ConstantSchedule,
    ExponentialSchedule,
    NumericalDivergenceError,
    OptimizerConfig,
    PlateauSchedule,
    PreconditionError,
    RandomStream,
    RankDeficiencyError,
    SequenceSchedule,
    make_icl_instance,
    make_mf_instance,
    materialize_etas,
    msign_exact,
    msign_newton_schulz,
    run_trajectory,
)
from muonlab import optimizers
from muonlab.experiments import default_eta0
from muonlab.optimizers import PLATEAU_MIN_GAIN, PLATEAU_PATIENCE, TrajectoryRecord


class TestExponentialSchedule:
    def test_geometric_sequence(self):
        sched = ExponentialSchedule(rho=0.5, base_scale=1.0, fixed_prefactor=1.0)
        assert [sched.eta(t) for t in range(3)] == [1.0, 0.5, 0.25]

    def test_fixed_mode_monotone(self):
        sched = ExponentialSchedule(rho=0.7, base_scale=2.0)
        stream = RandomStream(1)
        etas = [sched.eta(t, stream=stream) for t in range(20)]
        assert all(b <= a for a, b in zip(etas, etas[1:]))
        # the sampled prefactor is shared by every step
        assert etas[0] / 2.0 == pytest.approx(etas[5] / (2.0 * 0.7**5))

    def test_per_iteration_range(self):
        sched = ExponentialSchedule(rho=0.8, base_scale=1.5, prefactor_mode="per_iteration")
        stream = RandomStream(2)
        for t in range(50):
            c = sched.eta(t, stream=stream) / (1.5 * 0.8**t)
            assert 1.0 <= c <= 2.0

    @pytest.mark.parametrize("mode", ["fixed", "per_iteration"])
    def test_only_fixed_prefactor_pins_c(self, mode):
        # no stream is no silent C = 1: a draw without one raises, and
        # fixed_prefactor pins C in either mode without a draw
        with pytest.raises(PreconditionError, match="stream"):
            ExponentialSchedule(0.5, 1.0, prefactor_mode=mode).eta(0)
        pinned = ExponentialSchedule(0.5, 1.0, prefactor_mode=mode, fixed_prefactor=1.5)
        assert [pinned.eta(t) for t in range(3)] == [1.5, 0.75, 0.375]

    def test_rejects_bad_rho(self):
        with pytest.raises(PreconditionError):
            ExponentialSchedule(rho=1.5, base_scale=1.0)
        with pytest.raises(PreconditionError):
            ExponentialSchedule(rho=0.4, base_scale=1.0)


class TestPlateauSchedule:
    def test_decays_after_patience_stalls(self):
        sched = PlateauSchedule(initial_eta=0.1)
        etas = [sched.eta(t, 1.0) for t in range(51)]  # loss never improves
        assert etas[49] == pytest.approx(0.1)
        assert etas[50] == pytest.approx(0.03)

    def test_improvement_resets_counter(self):
        # the improvement at index P stops the decay due there; P stalls later it comes
        sched = PlateauSchedule(initial_eta=1.0)
        losses = [5.0] * PLATEAU_PATIENCE + [4.0] * (PLATEAU_PATIENCE + 1)
        etas = [sched.eta(t, v) for t, v in enumerate(losses)]
        assert etas[:2 * PLATEAU_PATIENCE] == [1.0] * (2 * PLATEAU_PATIENCE)
        assert etas[2 * PLATEAU_PATIENCE] == pytest.approx(0.3)

    def test_rejects_a_missing_loss(self):
        # a plateau schedule reads the loss, so it has no loss-free etas
        with pytest.raises(PreconditionError):
            materialize_etas(PlateauSchedule(initial_eta=0.1), 3)

    def test_never_increases(self, monkeypatch):
        monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 2)
        sched = PlateauSchedule(initial_eta=1.0)
        stream = RandomStream(3)
        prev = np.inf
        for t in range(200):
            eta = sched.eta(t, stream.uniform(0.0, 1.0))
            assert eta <= prev
            prev = eta

    @settings(max_examples=200, deadline=None)
    @given(
        patience=st.integers(1, 8),
        factors=st.lists(st.one_of(st.just(1.0), st.floats(0.998, 1.002), st.floats(0.5, 2.0)),
                         min_size=1, max_size=120),
    )
    def test_decays_only_after_patience_calls_without_a_relative_gain(self, patience, factors):
        # a non-improving call gains less than PLATEAU_MIN_GAIN on the best
        # loss, which is one of the earlier losses, so it also gains less on
        # their minimum; each decay must end a run of ``patience`` such calls,
        # none of them the baseline call.  The schedule reads PLATEAU_PATIENCE
        # on each call, so a short patience makes short lists decay.
        losses = list(np.cumprod(factors))
        with mock.patch.object(optimizers, "PLATEAU_PATIENCE", patience):
            sched = PlateauSchedule(initial_eta=1.0)
            etas = [sched.eta(t, v) for t, v in enumerate(losses)]
        assert all(b <= a for a, b in zip([1.0] + etas, etas))
        decays = [t for t in range(len(etas)) if etas[t] < (etas[t - 1] if t else 1.0)]
        for prev, t in zip([0] + decays, decays):
            assert t - prev >= patience
            for j in range(t - patience + 1, t + 1):
                assert losses[j] >= min(losses[:j]) * (1.0 - PLATEAU_MIN_GAIN)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("make", [
    lambda: PlateauSchedule(NAN),
    lambda: PlateauSchedule(INF),
    lambda: ConstantSchedule(NAN),
    lambda: ConstantSchedule(INF),
    lambda: ExponentialSchedule(0.9, NAN),
    lambda: ExponentialSchedule(0.9, INF),
    lambda: ExponentialSchedule(0.9, 1.0, fixed_prefactor=NAN),
    lambda: ExponentialSchedule(0.9, 1.0, fixed_prefactor=INF),
    lambda: ExponentialSchedule(0.9, 1.0, fixed_prefactor=-1.0),
    lambda: ExponentialSchedule(0.9, 1.0, fixed_prefactor=0.0),
    lambda: ExponentialSchedule(0.9, 1e308, fixed_prefactor=2.0),
    lambda: ExponentialSchedule(0.9, 1e308),
    lambda: SequenceSchedule([1.0, NAN]),
    lambda: SequenceSchedule([1.0, INF]),
    lambda: SequenceSchedule([]),
], ids=["plateau-nan", "plateau-inf", "constant-nan", "constant-inf", "exponential-nan",
        "exponential-inf", "prefactor-nan", "prefactor-inf", "prefactor-negative", "prefactor-zero",
        "product-overflow", "drawn-product-overflow", "sequence-nan", "sequence-inf", "sequence-empty"])
def test_schedules_reject_non_finite_or_empty_parameters(make):
    # accepted, each would surface only later in a run: as a divergence at
    # t = 1 or 2, as an IndexError at the empty sequence's first eta, or
    # (a nonpositive prefactor) as a GD run that ascends and exits normally;
    # a finite base_scale and prefactor whose product overflows gave eta_0 = inf
    with pytest.raises(PreconditionError):
        make()


def test_exponential_schedule_keeps_the_largest_finite_first_eta():
    top = np.finfo(float).max / 2.0  # 2 * top is the largest finite float
    assert ExponentialSchedule(0.9, 1e308, fixed_prefactor=1.0).eta(0) == 1e308
    assert np.isfinite(ExponentialSchedule(0.9, top).eta(0, None, RandomStream(0)))


def _step(algorithm, x, grad, eta):
    """One step of ``algorithm``'s update kernel, the one ``run_trajectory``
    takes, handed the gradient's compact SVD as Muon is."""
    factors = np.linalg.svd(grad, full_matrices=False) if algorithm == "muon" else None
    return optimizers._UPDATES[algorithm](x, grad, eta, factors)


class TestSteps:
    def test_muon_hand_example(self):
        x = np.array([[2.0], [0.0]])
        grad = np.array([[6.0], [0.0]])
        x1 = _step("muon", x, grad, 0.5)
        assert_allclose(x1, np.array([[1.5], [0.0]]))

    def test_muon_zero_gradient_stationary(self):
        x = np.array([[1.0, 2.0]])
        x1 = _step("muon", x, np.zeros((1, 2)), 0.1)
        assert_allclose(x1, x)

    def test_simplified_muon_bitwise(self):
        stream = RandomStream(5)
        x = stream.gaussian_matrix(5, 2)
        grad = stream.gaussian_matrix(5, 2)
        eta = 0.37
        direct = x - eta * msign_exact(grad)
        stepped = _step("muon", x, grad, eta)
        assert np.array_equal(stepped, direct)

    def test_muon_displacement_is_eta(self):
        # the matrix sign of a full-rank gradient has spectral norm 1
        stream = RandomStream(6)
        x = stream.gaussian_matrix(6, 3)
        grad = stream.gaussian_matrix(6, 3)
        eta = 0.11
        x1 = _step("muon", x, grad, eta)
        assert np.linalg.norm(x1 - x, 2) == pytest.approx(eta, abs=1e-10)

    def test_newton_schulz_step_matches_exact(self):
        # the approximate msign the driver no longer runs still steps where
        # the exact one does on a well-conditioned gradient
        stream = RandomStream(7)
        x = stream.gaussian_matrix(5, 3)
        grad = stream.haar_orthonormal(5, 3) @ np.diag([1.0, 0.7, 0.5])
        res = msign_newton_schulz(grad)
        assert res.converged
        assert np.linalg.norm(_step("muon", x, grad, 0.2) - (x - 0.2 * res.matrix), 2) <= 1e-6

    @pytest.mark.parametrize("algorithm", sorted(optimizers._UPDATES))
    def test_kernel_leaves_its_inputs_alone(self, algorithm):
        # run_trajectory keeps the iterate a step leaves from
        stream = RandomStream(24)
        x = stream.gaussian_matrix(4, 3)
        grad = stream.gaussian_matrix(4, 3)
        x_before, grad_before = x.copy(), grad.copy()
        x1 = _step(algorithm, x, grad, 0.1)
        assert not np.shares_memory(x1, x) and not np.shares_memory(x1, grad)
        assert np.array_equal(x, x_before) and np.array_equal(grad, grad_before)

    @pytest.mark.parametrize("name", ["adam", "Muon", "muon_ns", ""])
    def test_config_rejects_an_unknown_algorithm(self, name):
        with pytest.raises(PreconditionError, match="unknown algorithm"):
            OptimizerConfig(name)

    def test_config_is_the_algorithm_only(self):
        # simplified Muon, as the paper analyses it: no momentum, exact msign
        assert [f.name for f in dataclasses.fields(OptimizerConfig)] == ["algorithm"]

    def test_gd_hand_example(self):
        x1 = _step("gd", np.array([[2.0], [0.0]]), np.array([[6.0], [0.0]]), 0.1)
        assert_allclose(x1, np.array([[1.4], [0.0]]))

    def test_gd_linearity(self):
        stream = RandomStream(8)
        x = stream.gaussian_matrix(3, 3)
        g = stream.gaussian_matrix(3, 3)
        assert np.array_equal(_step("gd", x, g, 0.25), x - 0.25 * g)

    def test_signgd_zero_entry_untouched(self):
        x1 = _step("signgd", np.array([[2.0], [7.0]]), np.array([[6.0], [0.0]]), 0.5)
        assert_allclose(x1, np.array([[1.5], [7.0]]))

    def test_signgd_all_negative_gradient(self):
        x = np.zeros((2, 2))
        x1 = _step("signgd", x, -np.ones((2, 2)), 0.3)
        assert_allclose(x1, 0.3 * np.ones((2, 2)))

    def test_signgd_scale_invariant_pattern(self):
        stream = RandomStream(9)
        x = stream.gaussian_matrix(3, 2)
        g = stream.gaussian_matrix(3, 2)
        assert_allclose(_step("signgd", x, g, 0.1), _step("signgd", x, 17.0 * g, 0.1), rtol=0)

    def test_scaledgd_hand_example(self):
        u = np.array([[2.0], [0.0]])
        grad = np.array([[6.0], [0.0]])
        u1 = _step("scaledgd", u, grad, 0.5)
        assert_allclose(u1, np.array([[1.25], [0.0]]))

    def test_scaledgd_zero_gradient(self):
        u = RandomStream(10).gaussian_matrix(4, 2)
        assert_allclose(_step("scaledgd", u, np.zeros((4, 2)), 0.5), u)

    def test_scaledgd_right_equivariance(self):
        # (O^T U^T U O)^-1 = O^T (U^T U)^-1 O
        stream = RandomStream(11)
        u = stream.gaussian_matrix(5, 2)
        g = stream.gaussian_matrix(5, 2)
        o = stream.haar_orthonormal(2, 2)
        lhs = _step("scaledgd", u @ o, g @ o, 0.2)
        rhs = _step("scaledgd", u, g, 0.2)
        assert_allclose(lhs, rhs @ o, atol=1e-10)

    def test_scaledgd_singular_gram_rejected(self):
        u = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        with pytest.raises(RankDeficiencyError):
            _step("scaledgd", u, np.ones((2, 2)), 0.1)


class TestRunTrajectory:
    def _instance(self, d=8, seed=12):
        return make_mf_instance(RandomStream(seed), d, 2, 2, 4.0)

    def test_gd_zero_eta_constant(self):
        inst = self._instance()
        init = RandomStream(13).gaussian_matrix(8, 2) * 0.1
        traj = run_trajectory(inst, OptimizerConfig("gd"), ConstantSchedule(0.0), init, 5)
        errs = [r.spectral_error for r in traj.records]
        assert len(set(errs)) == 1
        assert_allclose(traj.final, init)

    def test_records_cover_final_iterate(self):
        inst = self._instance()
        init = RandomStream(14).gaussian_matrix(8, 2) * 0.1
        T = 7
        traj = run_trajectory(
            inst, OptimizerConfig("muon"),
            ExponentialSchedule(0.5, 1.0, fixed_prefactor=1.0), init, T,
            keep_iterates=True,
        )
        assert [r.t for r in traj.records] == list(range(T + 1))
        assert len(traj.iterates) == T + 1
        assert traj.records[-1].spectral_error == pytest.approx(
            np.linalg.norm(traj.final @ traj.final.T - inst.target, 2)
        )

    def test_deterministic_reruns(self):
        inst = self._instance()
        init = RandomStream(15).gaussian_matrix(8, 2) * 0.1

        def run():
            sched = ExponentialSchedule(0.5, 1.0, prefactor_mode="per_iteration")
            return run_trajectory(
                inst, OptimizerConfig("muon"), sched, init, 10, stream=RandomStream(77)
            )

        assert run().records == run().records

    def test_early_stop(self):
        inst = self._instance()
        init = RandomStream(16).gaussian_matrix(8, 2) * 0.1
        traj = run_trajectory(
            inst, OptimizerConfig("muon"),
            ExponentialSchedule(0.7, 1.0, prefactor_mode="per_iteration"), init, 200,
            stream=RandomStream(160), stop_below=1e-6,
        )
        assert traj.records[-1].spectral_error <= 1e-6
        assert len(traj.records) < 201

    def test_divergence_aborts_with_diagnostics(self):
        inst = self._instance()
        init = RandomStream(17).gaussian_matrix(8, 2)
        with pytest.raises(NumericalDivergenceError) as info:
            run_trajectory(inst, OptimizerConfig("gd"), ConstantSchedule(1e12), init, 50)
        assert info.value.iteration > 0
        assert len(info.value.records) == info.value.iteration

    def test_overflowed_iterate_is_divergence(self):
        # eta = 1e308 sends the first GD iterate to inf before any loss
        # overflows; the loss guard, not an input check, must catch it
        inst = self._instance()
        init = RandomStream(17).gaussian_matrix(8, 2)
        with pytest.raises(NumericalDivergenceError) as info:
            run_trajectory(inst, OptimizerConfig("gd"), ConstantSchedule(1e308), init, 50)
        assert info.value.iteration == 1
        assert len(info.value.records) == 1

    def test_muon_rejects_zero_eta(self):
        inst = self._instance()
        init = RandomStream(25).gaussian_matrix(8, 2) * 0.1
        with pytest.raises(PreconditionError):
            run_trajectory(inst, OptimizerConfig("muon"), ConstantSchedule(0.0), init, 3)

    def test_sigma_min_logged_at_every_d(self):
        inst = make_mf_instance(RandomStream(19), 65, 2, 2, 4.0)
        traj = run_trajectory(
            inst, OptimizerConfig("gd"), ConstantSchedule(0.01),
            RandomStream(20).gaussian_matrix(65, 2) * 0.1, 2, keep_iterates=True,
        )
        for rec, x in zip(traj.records, traj.iterates, strict=True):
            want = np.linalg.svd(inst.loss_grad(x)[1], compute_uv=False)[-1]
            assert want > 0.0
            assert abs(rec.grad_sigma_min - want) <= 1e-13 * want

    @pytest.mark.parametrize("algo, per_step", [
        (OptimizerConfig("muon"), [True]),  # one SVD serves sigma_min and msign
        (OptimizerConfig("gd"), [False]),
        (OptimizerConfig("signgd"), [False]),
        (OptimizerConfig("scaledgd"), [False]),
    ])
    def test_svds_per_record(self, monkeypatch, algo, per_step):
        # 2(k + r) <= d, so the spectral error takes no SVD of its own;
        # each matrix factored is logged by whether it computes singular
        # vectors, so a stacked call counts its batch size
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, **kw):
            calls.extend([kw.get("compute_uv", True)] * int(np.prod(a.shape[:-2])))
            return svd(a, **kw)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        run_trajectory(self._instance(d=8), algo, ConstantSchedule(0.01),
                       RandomStream(26).gaussian_matrix(8, 2) * 0.1, 5)
        assert sorted(calls) == sorted(per_step * 5 + per_step[:1])

    def test_sequence_schedule_replay(self):
        inst = self._instance()
        init = RandomStream(21).gaussian_matrix(8, 2) * 0.1
        stream = RandomStream(22)
        sched = ExponentialSchedule(0.5, 1.0, prefactor_mode="per_iteration")
        first = run_trajectory(inst, OptimizerConfig("muon"), sched, init, 10, stream=stream)
        replay = run_trajectory(
            inst, OptimizerConfig("muon"),
            SequenceSchedule([r.eta for r in first.records]), init, 10,
        )
        assert first.records == replay.records


class _Counted:
    """Delegates to a problem instance, counting ``loss_grad`` calls."""

    def __init__(self, inst):
        self.inst, self.calls = inst, 0

    def loss_grad(self, x):
        self.calls += 1
        return self.inst.loss_grad(x)

    def __getattr__(self, name):
        return getattr(self.inst, name)


def _run_counted(inst, algo, sched, init, T):
    counted = _Counted(inst)
    traj = run_trajectory(counted, algo, sched, init, T, keep_iterates=True)
    return traj, counted.calls


def _assert_each_record_evaluated(inst, algo, traj):
    """Every record equals its kept iterate evaluated on its own, bitwise,
    and every iterate the update kernel applied to its predecessor."""
    factored = algo.algorithm == "muon"
    for t, (rec, x) in enumerate(zip(traj.records, traj.iterates, strict=True)):
        loss, grad, operand = inst.loss_grad(x)
        # Muon logs sigma_min from the SVD it steps with
        factors = np.linalg.svd(grad, full_matrices=False) if factored else None
        svals = factors[1] if factored else np.linalg.svd(grad, compute_uv=False)
        assert rec.loss == loss
        assert rec.spectral_error == inst.operand_errors(operand[None])[0]
        assert rec.grad_sigma_min == svals[-1]
        if t + 1 < len(traj.records):
            x_next = optimizers._UPDATES[algo.algorithm](x, grad, rec.eta, factors)
            assert np.array_equal(x_next, traj.iterates[t + 1])
            assert np.array_equal(np.signbit(x_next), np.signbit(traj.iterates[t + 1]))


def _evaluations(iterates):
    """How many iterates a memo of the last two evaluated ones evaluates."""
    memo, count = [], 0
    for key in (x.tobytes() for x in iterates):
        if key not in memo:
            memo, count = memo[-1:] + [key], count + 1
    return count


class TestRepeatedIterates:
    """``run_trajectory`` evaluates an iterate that repeats one of the last
    two it evaluated once, and the records are those of evaluating each."""

    @pytest.mark.parametrize("problem", ["mf", "icl"])
    def test_signgd_plateau_cycle(self, monkeypatch, problem):
        monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 10)
        if problem == "mf":
            inst = make_mf_instance(RandomStream(0), 8, 2, 2, 5.0)
            init = RandomStream(100).gaussian_matrix(8, 2) * 0.3
        else:
            inst = make_icl_instance(RandomStream(0), 6, 3.0, sigma_min=0.5)
            init = np.zeros((6, 6))
        algo = OptimizerConfig("signgd")
        sched = PlateauSchedule(default_eta0("signgd", inst))
        traj, calls = _run_counted(inst, algo, sched, init, 300)
        assert len(traj.records) == 301
        # a fixed-step sign method falls into a cycle: rows repeat at distance 2
        period_2 = sum(np.array_equal(a, b) for a, b in zip(traj.iterates, traj.iterates[2:]))
        assert period_2 > 50
        assert calls == _evaluations(traj.iterates) <= len(traj.records) - period_2
        _assert_each_record_evaluated(inst, algo, traj)

    def test_underflowed_muon_tail_is_evaluated_once(self):
        # eta = 0.5**t: from about t = 60 each step is below the iterate's
        # rounding, and at t = 1075 eta underflows to 0.0
        inst = make_mf_instance(RandomStream(3), 30, 2, 2, 25.0)
        init = RandomStream(4).gaussian_matrix(30, 2) * 0.1
        algo = OptimizerConfig("muon")
        traj, calls = _run_counted(inst, algo, ExponentialSchedule(0.5, 1.0, fixed_prefactor=1.0), init, 1100)
        assert traj.records[-1].eta == 0.0
        frozen = next(t for t, x in enumerate(traj.iterates) if np.array_equal(x, traj.final))
        assert frozen < 100
        assert all(np.array_equal(x, traj.final) for x in traj.iterates[frozen:])
        assert calls == _evaluations(traj.iterates) == frozen + 1
        _assert_each_record_evaluated(inst, algo, traj)

    def test_a_signed_zero_is_a_new_iterate(self):
        # a zero-rate GD step turns a -0.0 entry whose gradient is negative
        # into 0.0 (-0.0 - -0.0 == 0.0) and leaves every other entry as it is
        inst = make_mf_instance(RandomStream(5), 8, 2, 2, 4.0)
        init = RandomStream(6).gaussian_matrix(8, 2) * 0.1
        init[0, 0] = 0.0
        if inst.loss_grad(init)[1][0, 0] > 0:
            init = -init  # the gradient is odd in U
        init[0, 0] = -0.0
        assert inst.loss_grad(init)[1][0, 0] < 0
        algo = OptimizerConfig("gd")
        traj, calls = _run_counted(inst, algo, ConstantSchedule(0.0), init, 5)
        first, second = traj.iterates[:2]
        assert np.array_equal(first, second) and not np.signbit(second[0, 0])
        assert calls == _evaluations(traj.iterates) == 2
        _assert_each_record_evaluated(inst, algo, traj)


class TestTrajectoryRecord:
    def test_fields_are_read_only(self):
        rec = TrajectoryRecord(0, 1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            rec.loss = 0.0

    def test_field_order_and_default(self):
        assert TrajectoryRecord._fields == ("t", "eta", "loss", "spectral_error", "grad_sigma_min")
        assert TrajectoryRecord._field_defaults == {}
        rec = TrajectoryRecord(3, 0.5, 0.25, 0.125, 0.0625)
        assert (rec.t, rec.eta, rec.loss, rec.spectral_error, rec.grad_sigma_min) == (
            3, 0.5, 0.25, 0.125, 0.0625,
        )

    @pytest.mark.parametrize("algorithm", ["muon", "signgd", "gd"])
    def test_same_seed_records_compare_equal(self, monkeypatch, algorithm):
        # a short patience, so eta decays within the 40 steps
        monkeypatch.setattr(optimizers, "PLATEAU_PATIENCE", 3)
        inst = make_mf_instance(RandomStream(12), 8, 2, 2, 4.0)
        init = RandomStream(13).gaussian_matrix(8, 2) * 0.1

        def run():
            return run_trajectory(inst, OptimizerConfig(algorithm), PlateauSchedule(0.1),
                                  init, 40, stream=RandomStream(14)).records

        first, second = run(), run()
        assert len(first) == 41
        assert first == second


@st.composite
def _muon_runs(draw):
    """A random mf or icl instance with a finite start point."""
    stream = RandomStream(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        d = draw(st.integers(2, 12))
        r = draw(st.integers(1, min(d, 3)))
        k = draw(st.integers(r, d + 2))
        kappa = 1.0 if r == 1 else draw(st.floats(1.0, 100.0))
        inst = make_mf_instance(stream.derive(1), d, r, k, kappa)
        return inst, stream.derive(2).gaussian_matrix(d, k) * draw(st.floats(0.01, 1.0))
    d = draw(st.integers(1, 12))
    kappa = 1.0 if d == 1 else draw(st.floats(1.0, 10.0))
    inst = make_icl_instance(stream.derive(1), d, kappa)
    return inst, stream.derive(2).gaussian_matrix(d, d) * draw(st.floats(0.0, 1.0))


def _replay(inst, traj, init):
    """Chain the Muon kernel, factoring each gradient afresh, along the
    logged etas: the records' grad sigma_min against a values-only SVD, and
    the iterates bitwise."""
    x = init
    for t, rec in enumerate(traj.records):
        grad = inst.loss_grad(x)[1]
        want = np.linalg.svd(grad, compute_uv=False)[-1]
        assert abs(rec.grad_sigma_min - want) <= 1e-13 * want
        if t + 1 < len(traj.records):
            x = _step("muon", x, grad, rec.eta)
            assert np.array_equal(x, traj.iterates[t + 1])


@settings(max_examples=60, deadline=None)
@given(run=_muon_runs(), eta=st.floats(1e-3, 1.0))
def test_loop_muon_is_the_chained_kernel(run, eta):
    # the loop steps with the SVD it logs sigma_min from
    inst, init = run
    traj = run_trajectory(inst, OptimizerConfig("muon"), ExponentialSchedule(0.9, eta, fixed_prefactor=1.0),
                          init, 12, keep_iterates=True)
    _replay(inst, traj, init)


@pytest.mark.parametrize("algorithm", ["muon", "gd", "signgd", "scaledgd"])
def test_each_algorithm_logs_its_gradient(algorithm):
    # every record is its kept iterate evaluated on its own, and every
    # iterate the kernel applied to the one before
    inst = make_mf_instance(RandomStream(27), 8, 2, 2, 4.0)
    init = RandomStream(28).gaussian_matrix(8, 2) * 0.5
    algo = OptimizerConfig(algorithm)
    traj = run_trajectory(inst, algo, ConstantSchedule(0.05), init, 10, keep_iterates=True)
    assert len(traj.records) == 11
    _assert_each_record_evaluated(inst, algo, traj)
