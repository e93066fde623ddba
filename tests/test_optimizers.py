"""Optimizer step, schedule, and trajectory-driver contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from muonlab import (
    ConstantSchedule,
    ExponentialSchedule,
    MuonState,
    NumericalDivergenceError,
    OptimizerConfig,
    PlateauSchedule,
    PreconditionError,
    RandomStream,
    RankDeficiencyError,
    SequenceSchedule,
    gd_step,
    make_icl_instance,
    make_mf_instance,
    materialize_etas,
    msign_exact,
    muon_step,
    run_trajectory,
    scaledgd_step,
    signgd_step,
)


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
        sched = PlateauSchedule(initial_eta=1.0, patience=3)
        losses = [5.0, 5.0, 5.0, 4.0, 4.0, 4.0, 4.0]
        etas = [sched.eta(t, v) for t, v in enumerate(losses)]
        assert etas[:6] == [1.0] * 6
        assert etas[6] == pytest.approx(0.3)

    def test_rejects_a_missing_loss(self):
        # a plateau schedule reads the loss, so it has no loss-free etas
        with pytest.raises(PreconditionError):
            materialize_etas(PlateauSchedule(initial_eta=0.1), 3)

    def test_never_increases(self):
        sched = PlateauSchedule(initial_eta=1.0, patience=2)
        stream = RandomStream(3)
        prev = np.inf
        for t in range(200):
            eta = sched.eta(t, stream.uniform(0.0, 1.0))
            assert eta <= prev
            prev = eta


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
    lambda: SequenceSchedule([1.0, NAN]),
    lambda: SequenceSchedule([1.0, INF]),
    lambda: SequenceSchedule([]),
], ids=["plateau-nan", "plateau-inf", "constant-nan", "constant-inf", "exponential-nan",
        "exponential-inf", "prefactor-nan", "prefactor-inf", "prefactor-negative", "prefactor-zero",
        "sequence-nan", "sequence-inf", "sequence-empty"])
def test_schedules_reject_non_finite_or_empty_parameters(make):
    # accepted, each would surface only later in a run: as a divergence at
    # t = 1 or 2, as an IndexError at the empty sequence's first eta, or
    # (a nonpositive prefactor) as a GD run that ascends and exits normally
    with pytest.raises(PreconditionError):
        make()


class TestSteps:
    def test_muon_hand_example(self):
        x = np.array([[2.0], [0.0]])
        grad = np.array([[6.0], [0.0]])
        x1, state, converged = muon_step(x, grad, MuonState.zeros((2, 1)), 0.5)
        assert_allclose(x1, np.array([[1.5], [0.0]]))
        assert converged

    def test_muon_zero_gradient_stationary(self):
        x = np.array([[1.0, 2.0]])
        x1, _, _ = muon_step(x, np.zeros((1, 2)), MuonState.zeros((1, 2)), 0.1)
        assert_allclose(x1, x)

    def test_momentum_first_step_matches_simplified(self):
        stream = RandomStream(4)
        x = stream.gaussian_matrix(4, 3)
        grad = stream.gaussian_matrix(4, 3)
        a, _, _ = muon_step(x, grad, MuonState.zeros((4, 3), mu=0.9), 0.2)
        b, _, _ = muon_step(x, grad, MuonState.zeros((4, 3), mu=0.0), 0.2)
        assert_allclose(a, b, rtol=0)

    def test_momentum_buffer_accumulates(self):
        stream = RandomStream(23)
        x = stream.gaussian_matrix(4, 3)
        g1, g2 = stream.gaussian_matrix(4, 3), stream.gaussian_matrix(4, 3)
        x, state, _ = muon_step(x, g1, MuonState.zeros((4, 3), mu=0.5), 0.1)
        _, state, _ = muon_step(x, g2, state, 0.1)
        assert np.array_equal(state.buffer, g2 + 0.5 * g1)

    def test_zero_momentum_leaves_state_alone(self):
        stream = RandomStream(24)
        state = MuonState.zeros((4, 3))
        _, after, _ = muon_step(
            stream.gaussian_matrix(4, 3), stream.gaussian_matrix(4, 3), state, 0.1
        )
        assert after is state
        assert not np.any(state.buffer)

    def test_simplified_muon_bitwise(self):
        stream = RandomStream(5)
        x = stream.gaussian_matrix(5, 2)
        grad = stream.gaussian_matrix(5, 2)
        eta = 0.37
        direct = x - eta * msign_exact(grad)
        stepped, _, _ = muon_step(x, grad, MuonState.zeros((5, 2)), eta)
        assert np.array_equal(stepped, direct)

    def test_muon_displacement_is_eta(self):
        # the matrix sign of a full-rank gradient has spectral norm 1
        stream = RandomStream(6)
        x = stream.gaussian_matrix(6, 3)
        grad = stream.gaussian_matrix(6, 3)
        eta = 0.11
        x1, _, _ = muon_step(x, grad, MuonState.zeros((6, 3)), eta)
        assert np.linalg.norm(x1 - x, 2) == pytest.approx(eta, abs=1e-10)

    def test_newton_schulz_backend(self):
        stream = RandomStream(7)
        x = stream.gaussian_matrix(5, 3)
        grad = stream.haar_orthonormal(5, 3) @ np.diag([1.0, 0.7, 0.5])
        exact, _, _ = muon_step(x, grad, MuonState.zeros((5, 3)), 0.2, backend="exact")
        approx, _, conv = muon_step(x, grad, MuonState.zeros((5, 3)), 0.2, backend="newton_schulz")
        assert conv
        assert np.linalg.norm(exact - approx, 2) <= 1e-6

    def test_gd_hand_example(self):
        x1 = gd_step(np.array([[2.0], [0.0]]), np.array([[6.0], [0.0]]), 0.1)
        assert_allclose(x1, np.array([[1.4], [0.0]]))

    def test_gd_linearity(self):
        stream = RandomStream(8)
        x = stream.gaussian_matrix(3, 3)
        g = stream.gaussian_matrix(3, 3)
        assert np.array_equal(gd_step(x, g, 0.25), x - 0.25 * g)

    def test_signgd_zero_entry_untouched(self):
        x1 = signgd_step(np.array([[2.0], [7.0]]), np.array([[6.0], [0.0]]), 0.5)
        assert_allclose(x1, np.array([[1.5], [7.0]]))

    def test_signgd_all_negative_gradient(self):
        x = np.zeros((2, 2))
        x1 = signgd_step(x, -np.ones((2, 2)), 0.3)
        assert_allclose(x1, 0.3 * np.ones((2, 2)))

    def test_signgd_scale_invariant_pattern(self):
        stream = RandomStream(9)
        x = stream.gaussian_matrix(3, 2)
        g = stream.gaussian_matrix(3, 2)
        assert_allclose(signgd_step(x, g, 0.1), signgd_step(x, 17.0 * g, 0.1), rtol=0)

    def test_scaledgd_hand_example(self):
        u = np.array([[2.0], [0.0]])
        grad = np.array([[6.0], [0.0]])
        u1 = scaledgd_step(u, grad, 0.5)
        assert_allclose(u1, np.array([[1.25], [0.0]]))

    def test_scaledgd_zero_gradient(self):
        u = RandomStream(10).gaussian_matrix(4, 2)
        assert_allclose(scaledgd_step(u, np.zeros((4, 2)), 0.5), u)

    def test_scaledgd_right_equivariance(self):
        # (O^T U^T U O)^-1 = O^T (U^T U)^-1 O
        stream = RandomStream(11)
        u = stream.gaussian_matrix(5, 2)
        g = stream.gaussian_matrix(5, 2)
        o = stream.haar_orthonormal(2, 2)
        lhs = scaledgd_step(u @ o, g @ o, 0.2)
        rhs = scaledgd_step(u, g, 0.2) @ o
        assert_allclose(lhs, rhs, atol=1e-10)

    def test_scaledgd_singular_gram_rejected(self):
        u = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank 1
        with pytest.raises(RankDeficiencyError):
            scaledgd_step(u, np.ones((2, 2)), 0.1)


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
            inst.spectral_error(traj.final)
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
            with np.errstate(over="ignore", invalid="ignore"):
                run_trajectory(inst, OptimizerConfig("gd"), ConstantSchedule(1e12), init, 50)
        assert info.value.iteration > 0
        assert len(info.value.records) == info.value.iteration

    def test_overflowed_iterate_is_divergence(self):
        # eta = 1e308 sends the first GD iterate to inf before any loss
        # overflows; the loss guard, not an input check, must catch it
        inst = self._instance()
        init = RandomStream(17).gaussian_matrix(8, 2)
        with pytest.raises(NumericalDivergenceError) as info:
            with np.errstate(over="ignore", invalid="ignore"):
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
        (OptimizerConfig("muon", mu=0.5), [False, True]),  # msign factors the buffer
        (OptimizerConfig("muon", msign_backend="newton_schulz"), [False]),
        (OptimizerConfig("gd"), [False]),
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


def _replay(inst, traj, init, state, **step_kw):
    """Chain the public ``muon_step`` along the logged etas: the records'
    grad sigma_min against a values-only SVD, and the iterates bitwise."""
    x = init
    for t, rec in enumerate(traj.records):
        grad = inst.loss_grad(x)[1]
        want = np.linalg.svd(grad, compute_uv=False)[-1]
        assert abs(rec.grad_sigma_min - want) <= 1e-13 * want
        if t + 1 < len(traj.records):
            x, state, _ = muon_step(x, grad, state, rec.eta, **step_kw)
            assert np.array_equal(x, traj.iterates[t + 1])
    return state


@settings(max_examples=60, deadline=None)
@given(run=_muon_runs(), eta=st.floats(1e-3, 1.0))
def test_loop_muon_is_chained_muon_step(run, eta):
    inst, init = run
    traj = run_trajectory(inst, OptimizerConfig("muon"), ExponentialSchedule(0.9, eta, fixed_prefactor=1.0),
                          init, 12, keep_iterates=True)
    _replay(inst, traj, init, MuonState.zeros(init.shape))


@pytest.mark.parametrize("algo", [OptimizerConfig("muon", mu=0.5),
                                  OptimizerConfig("muon", msign_backend="newton_schulz")])
def test_buffered_and_newton_schulz_muon_log_the_gradient(algo):
    # with mu > 0 msign factors the buffer, not the gradient; the logged
    # sigma_min must still be the gradient's
    inst = make_mf_instance(RandomStream(27), 8, 2, 2, 4.0)
    init = RandomStream(28).gaussian_matrix(8, 2) * 0.5
    traj = run_trajectory(inst, algo, ConstantSchedule(0.05), init, 10, keep_iterates=True)
    state = _replay(inst, traj, init, MuonState.zeros((8, 2), mu=algo.mu), backend=algo.msign_backend)
    assert np.any(state.buffer) == (algo.mu > 0)
