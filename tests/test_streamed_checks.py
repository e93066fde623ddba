"""The large ``verify`` checks stream.  The bound sweeps
(``sweep_mf_bounds``, ``sweep_icl_bounds``, ``sweep_mf_bounds_varying``)
draw and check ``BOUND_CHUNK_TRACES`` traces at a time, ``sweep_never_zero``
runs the factorization recursion in blocks of steps, and
``icl_monte_carlo_loss`` draws its tasks in chunks, reading the query
indices from a copy of the stream jumped past the whole w draw.  Against
references that draw every trace and every task at once, their results are
bitwise identical (the Monte-Carlo per-task values too), the Monte-Carlo
call leaves its stream where the one-shot draw does, and each check's peak
allocation stays within a fixed budget."""

import tracemalloc

import numpy as np
import numpy.random  # noqa: F401  (loaded here, so no budget counts its one-time import)
import pytest

from muonlab import RandomStream, make_icl_instance, mf_modes
from muonlab import oracle
from muonlab.oracle import (BOUND_CHUNK_TRACES, NEVER_ZERO_BLOCK_STEPS, sweep_icl_bounds, sweep_mf_bounds,
                            sweep_mf_bounds_varying, sweep_never_zero)
from muonlab.problems import ICL_TASK_CHUNK, icl_monte_carlo_loss


def never_zero_draws(n_traces, seed):
    """``sweep_never_zero``'s draws: prefactors, lambdas and start values."""
    stream = RandomStream(seed, 0)
    c = stream.uniforms(n_traces, 1.0, 2.0)
    lam = stream.uniforms(n_traces, 0.0, 1.0)
    u = stream.uniforms(n_traces, -1.0, 1.0) * c
    u[u == 0.0] = c[u == 0.0] / 2.0
    return c, lam, u


def never_zero_reference(n_traces, steps, seed, rho=0.5):
    """Every iterate of every trace from one recursion call."""
    c, lam, u = never_zero_draws(n_traces, seed)
    values = mf_modes(u, lam, np.array([rho**t for t in range(steps)]), scale=c)
    return not np.any(values == 0.0)


def monte_carlo_reference(inst, q, stream, n_tasks):
    """The estimator with every task's w and query drawn at once: its
    (estimate, stderr) and its per-task values.  The sample rows are mapped
    before the gather, as the estimator maps them: a product over the
    gathered rows may round in another order on other BLAS kernels."""
    w = stream.gaussian_matrix(n_tasks, inst.d)
    idx = np.floor(stream.uniforms(n_tasks, 0.0, float(inst.samples.shape[0]))).astype(np.intp)
    mapped = (inst.samples @ (inst.covariance @ q - np.eye(inst.d)).T)[idx]
    vals = 0.5 * np.einsum("ij,ij->i", w, mapped) ** 2
    return (float(np.mean(vals)), float(np.std(vals, ddof=1) / np.sqrt(n_tasks))), vals


def monte_carlo_estimate(inst, q, stream, n_tasks, monkeypatch):
    """``icl_monte_carlo_loss``'s result and the per-task values it averaged,
    caught by a spy on ``np.mean``: an equal (estimate, stderr) pair can hide
    values that differ in the last bit."""
    seen, mean = [], np.mean

    def spy(a, *args, **kwargs):
        seen.append(np.array(a))
        return mean(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np, "mean", spy)
        got = icl_monte_carlo_loss(inst, q, stream, n_tasks)
    (vals,) = seen
    return got, vals


def assert_same_estimate(got, reference):
    """The (estimate, stderr) pairs are equal and the per-task values equal bytes."""
    assert got[0] == reference[0]
    assert got[1].tobytes() == reference[1].tobytes()


def peak_bytes(fn, *args):
    """Peak traced allocation while ``fn(*args)`` runs, numpy buffers included."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


BOUND_SWEEPS = [sweep_mf_bounds, sweep_icl_bounds, sweep_mf_bounds_varying]


class TestBoundChunks:
    @pytest.mark.parametrize(
        "n_traces", [1, BOUND_CHUNK_TRACES - 1, BOUND_CHUNK_TRACES, BOUND_CHUNK_TRACES + 1, 1000]
    )
    @pytest.mark.parametrize("seed", [60, 2024])
    @pytest.mark.parametrize("sweep", BOUND_SWEEPS)
    def test_chunked_margin_equals_one_materialized_draw(self, sweep, seed, n_traces, monkeypatch):
        chunked = sweep(n_traces, seed)
        # one chunk past every trace: one draw of the whole sweep, checked at once
        monkeypatch.setattr(oracle, "BOUND_CHUNK_TRACES", n_traces + 1)
        assert chunked == sweep(n_traces, seed)


class TestNeverZeroBlocks:
    @pytest.mark.parametrize("steps", [0, 1, NEVER_ZERO_BLOCK_STEPS, 2 * NEVER_ZERO_BLOCK_STEPS, 77, 200])
    def test_stitched_blocks_equal_one_call(self, steps, monkeypatch):
        blocks = []

        def kept(*args, **kwargs):
            blocks.append(mf_modes(*args, **kwargs))
            return blocks[-1]

        monkeypatch.setattr(oracle, "mf_modes", kept)
        assert sweep_never_zero(500, steps, 11)
        c, lam, u = never_zero_draws(500, 11)
        full = mf_modes(u, lam, np.array([0.5**t for t in range(steps)]), scale=c)
        assert max(len(b) - 1 for b in blocks) <= NEVER_ZERO_BLOCK_STEPS
        for prev, block in zip(blocks, blocks[1:]):
            np.testing.assert_array_equal(block[0], prev[-1])
        np.testing.assert_array_equal(np.concatenate([blocks[0][:1]] + [b[1:] for b in blocks]), full)

    @pytest.mark.parametrize("seed", [0, 63, 2027, 2027 + 3, 99991])
    @pytest.mark.parametrize("steps", [0, 1, 77, 200])
    def test_agrees_with_the_materialized_check(self, seed, steps):
        assert sweep_never_zero(2000, steps, seed) == never_zero_reference(2000, steps, seed)

    @pytest.mark.parametrize("zero_step", [0, NEVER_ZERO_BLOCK_STEPS, 150, 200])
    def test_a_zero_stops_the_sweep_at_its_block(self, zero_step, monkeypatch):
        # no seed is known to hit 0.0, so one is planted at a given step
        done = []

        def planted(u0, lambdas, etas, scale=1.0):
            values = mf_modes(u0, lambdas, etas, scale)
            start = sum(done)
            if start <= zero_step <= start + len(etas):
                values[zero_step - start, 7] = 0.0
            done.append(len(etas))
            return values

        monkeypatch.setattr(oracle, "mf_modes", planted)
        assert not sweep_never_zero(100, 200, 5)
        assert sum(done) - done[-1] <= zero_step <= sum(done)  # the last block run holds it


class TestMonteCarloChunks:
    @pytest.mark.parametrize("cell", range(10))
    def test_montecarlo_suite_cells_are_bitwise_unchanged(self, cell, monkeypatch):
        # the cells of ``verify --suite montecarlo``
        master = RandomStream(2024)
        inst = make_icl_instance(master.derive(1), d=6, kappa_s=2.0)
        q = master.derive(100 + cell).gaussian_matrix(6, 6) * 0.5
        got = monte_carlo_estimate(inst, q, master.derive(200 + cell), 100_000, monkeypatch)
        assert_same_estimate(got, monte_carlo_reference(inst, q, master.derive(200 + cell), 100_000))

    @pytest.mark.parametrize("n_tasks", [100, ICL_TASK_CHUNK - 1, ICL_TASK_CHUNK, ICL_TASK_CHUNK + 1, 100_003])
    @pytest.mark.parametrize("d", [2, 5, 11])
    def test_any_task_count_is_bitwise_unchanged(self, n_tasks, d, monkeypatch):
        inst = make_icl_instance(RandomStream(d), d, 7.0)
        q = RandomStream(3).gaussian_matrix(d, d)
        got = monte_carlo_estimate(inst, q, RandomStream(4), n_tasks, monkeypatch)
        assert_same_estimate(got, monte_carlo_reference(inst, q, RandomStream(4), n_tasks))


class TestMonteCarloStreamState:
    @pytest.mark.parametrize("cached", [False, True])
    @pytest.mark.parametrize(
        "d, n_tasks", [(5, 101), (6, 100), (5, ICL_TASK_CHUNK + 1), (3, 3 * ICL_TASK_CHUNK)]
    )
    def test_stream_stands_where_the_one_shot_draw_leaves_it(self, d, n_tasks, cached, monkeypatch):
        # odd n_tasks * d leaves a sine cached; a cached sine at entry is w's first entry
        inst = make_icl_instance(RandomStream(d), d, 7.0)
        q = RandomStream(3).gaussian_matrix(d, d)
        streams = RandomStream(9), RandomStream(9)
        if cached:
            for stream in streams:
                stream.gaussians(1)
        got = monte_carlo_estimate(inst, q, streams[0], n_tasks, monkeypatch)
        assert_same_estimate(got, monte_carlo_reference(inst, q, streams[1], n_tasks))
        a, b = streams
        assert a.gaussians(3).tolist() == b.gaussians(3).tolist()  # the cached sine, then pairs
        assert a.uniforms(5).tolist() == b.uniforms(5).tolist()


class TestMemoryBudget:
    """tracemalloc sees numpy's buffers, so these peaks do not depend on the
    machine.  Materialized, the never-zero sweep peaks at about 18 MB and one
    100,000-task Monte-Carlo call at about 17 MB (6.6 MB with every w drawn
    at once); at 1,000 traces the bound sweeps peak at about 2.3, 1.5 and
    6.6 MB (mf, icl, varying) and grow with the trace count."""

    def test_monte_carlo_call_stays_under_10_mb(self):
        master = RandomStream(2024)
        inst = make_icl_instance(master.derive(1), d=6, kappa_s=2.0)
        q = master.derive(100).gaussian_matrix(6, 6) * 0.5
        assert peak_bytes(icl_monte_carlo_loss, inst, q, master.derive(200), 100_000) < 10e6

    def test_monte_carlo_call_stays_under_2_5_mb(self):
        # what is left is the per-task values and the statistics over them
        master = RandomStream(2024)
        inst = make_icl_instance(master.derive(1), d=6, kappa_s=2.0)
        q = master.derive(100).gaussian_matrix(6, 6) * 0.5
        assert peak_bytes(icl_monte_carlo_loss, inst, q, master.derive(200), 100_000) < 2.5e6

    def test_never_zero_sweep_stays_under_2_mb(self):
        assert peak_bytes(sweep_never_zero, 10_000, 200, 2027) < 2e6

    @pytest.mark.parametrize("n_traces", [1000, 5000])
    @pytest.mark.parametrize(
        "sweep, budget", [(sweep_mf_bounds, 1.2e6), (sweep_icl_bounds, 0.8e6), (sweep_mf_bounds_varying, 2.5e6)]
    )
    def test_bound_sweep_stays_under_budget_at_any_trace_count(self, sweep, budget, n_traces):
        assert peak_bytes(sweep, n_traces, 2024) < budget
