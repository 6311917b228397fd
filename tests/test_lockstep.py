"""Tests for the lockstep solver behind the service coalescer.

The coalescer's bit-identity guarantee rests on ``solve_lockstep``: each
column runs the registered single-RHS solver's step generator, and one
``operator_matmat`` over the vectors the active columns wait on serves
each round.  These tests pin the guarantee (outputs exactly equal to
:func:`solve_many`, column by column) and the batching economy (one
matmat per round instead of one matvec per column per round).
"""

import threading
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from repro.api.registry import SOLVER_REGISTRY
from repro.experiments.common import platform_operator
from repro.solvers import (
    cg,
    jacobi,
    solve_lockstep,
    solve_many,
    ssor_preconditioner,
)
from repro.sparse.gallery import build_matrix


class _CountingOperator:
    """Minimal operator protocol plus a batched matmat, both counted."""

    def __init__(self, A):
        self._A = A
        self.shape = A.shape
        self.n_matvecs = 0
        self.n_matmats = 0

    def matvec(self, x):
        self.n_matvecs += 1
        return self._A @ x

    def matmat(self, X):
        self.n_matmats += 1
        return self._A @ X


def _rhs_block(n, k, seed=11):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, k))


def _assert_identical(gang, serial):
    assert len(gang) == len(serial)
    for got, ref in zip(gang, serial):
        assert np.array_equal(got.x, ref.x)
        assert got.converged == ref.converged
        assert got.iterations == ref.iterations
        assert got.matvecs == ref.matvecs
        assert got.breakdown == ref.breakdown
        assert got.residual_history == ref.residual_history


@pytest.fixture
def spd_op():
    return _CountingOperator(build_matrix(2257, "test"))


class TestBitIdentity:
    @pytest.mark.parametrize("solver", ["cg", "bicgstab"])
    def test_matches_solve_many_on_counting_operator(self, spd_op, solver):
        B = _rhs_block(spd_op.shape[0], 5)
        serial = solve_many(spd_op, B, solver=solver)
        gang = solve_lockstep(spd_op, B, solver=solver)
        assert len(gang) == len(serial)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.converged == ref.converged
            assert got.iterations == ref.iterations
            assert got.matvecs == ref.matvecs
            assert got.residual_history == ref.residual_history

    @pytest.mark.parametrize("platform", ["refloat", "gpu"])
    def test_matches_solve_many_on_platform_operator(self, platform):
        _, op = platform_operator(2257, "test", platform=platform)
        B = _rhs_block(op.shape[0], 4)
        serial = solve_many(op, B, solver="cg")
        gang = solve_lockstep(op, B, solver="cg")
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.iterations == ref.iterations

    def test_single_column_and_1d_rhs(self, spd_op):
        b = _rhs_block(spd_op.shape[0], 1)
        one = solve_lockstep(spd_op, b, solver="cg")
        ref = solve_many(spd_op, b, solver="cg")[0]
        assert len(one) == 1
        assert np.array_equal(one[0].x, ref.x)

    def test_initial_guess_columns(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 3)
        X0 = _rhs_block(spd_op.shape[0], 3, seed=5) * 0.1
        gang = solve_lockstep(spd_op, B, solver="cg", X0=X0)
        serial = solve_many(spd_op, B, solver="cg", X0=X0)
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)


    def test_gmres_restart_cycles(self, spd_op):
        # restart far below the iteration count: every cycle-end true
        # residual apply also goes through the lockstep rounds.
        B = _rhs_block(spd_op.shape[0], 3)
        serial = solve_many(spd_op, B, solver="gmres", restart=5)
        stats = {}
        gang = solve_lockstep(spd_op, B, solver="gmres", restart=5,
                              batch_stats=stats)
        _assert_identical(gang, serial)
        assert all(r.iterations > 5 for r in serial)
        assert spd_op.n_matmats == stats["matmats"]
        assert spd_op.n_matvecs == sum(r.matvecs for r in serial)

    def test_bicgstab_nonzero_initial_guess(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 3)
        X0 = _rhs_block(spd_op.shape[0], 3, seed=5)
        stats = {}
        gang = solve_lockstep(spd_op, B, solver="bicgstab", X0=X0,
                              batch_stats=stats)
        _assert_identical(gang, solve_many(spd_op, B, solver="bicgstab",
                                           X0=X0))
        # The initial-residual apply is the first round, all columns wide.
        assert stats["round_widths"][0] == 3

    def test_zero_rhs_column_leaves_before_first_apply(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 3)
        B[:, 1] = 0.0
        stats = {}
        gang = solve_lockstep(spd_op, B, solver="cg", batch_stats=stats)
        _assert_identical(gang, solve_many(spd_op, B, solver="cg"))
        assert gang[1].matvecs == 0 and gang[1].converged
        assert max(stats["round_widths"]) == 2

    def test_preconditioner_and_callback_per_column(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 3)
        M = ssor_preconditioner(spd_op._A)
        calls = {"gang": [], "serial": []}

        def recorder(name):
            return lambda k, x, r_norm: calls[name].append((k, r_norm))

        gang = solve_lockstep(spd_op, B, solver="cg", preconditioner=M,
                              callback=recorder("gang"))
        serial = solve_many(spd_op, B, solver="cg", preconditioner=M,
                            callback=recorder("serial"))
        _assert_identical(gang, serial)
        plain = solve_many(spd_op, B, solver="cg")
        assert [r.iterations for r in gang] != [r.iterations for r in plain]
        assert sorted(calls["gang"]) == sorted(calls["serial"])
        assert len(calls["gang"]) == sum(r.iterations for r in gang)


class TestThreadless:
    def test_starts_no_thread(self, spd_op, monkeypatch):
        def refuse(self):
            raise AssertionError("solve_lockstep started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        B = _rhs_block(spd_op.shape[0], 4)
        gang = solve_lockstep(spd_op, B, solver="bicgstab")
        _assert_identical(gang, solve_many(spd_op, B, solver="bicgstab"))

    def test_overflowing_column_emits_no_warning(self):
        # CG on a nonsymmetric matrix with a huge right-hand side drives
        # the iterates through FP overflow until a breakdown check fires;
        # the warnings along the way must stay silenced.
        rng = np.random.default_rng(0)
        op = _CountingOperator(sp.csr_matrix(rng.standard_normal((8, 8))))
        B = np.stack([rng.standard_normal(8) * 1e150,
                      rng.standard_normal(8)], axis=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gang = solve_lockstep(op, B, solver="cg")
            single = cg(op, B[:, 0])
        assert gang[0].breakdown is not None
        assert single.breakdown == gang[0].breakdown
        assert np.array_equal(single.x, gang[0].x)


class TestBatchingEconomy:
    def test_one_matmat_per_round_no_per_column_matvecs(self, spd_op):
        k = 6
        B = _rhs_block(spd_op.shape[0], k)
        stats = {}
        gang = solve_lockstep(spd_op, B, solver="cg", batch_stats=stats)
        # Every round was served by exactly one matmat: the gang never
        # fell back to per-column matvecs.
        assert spd_op.n_matvecs == 0
        assert spd_op.n_matmats == stats["matmats"] > 0
        assert stats["columns"] == k
        # The batch is an economy, not just a reshuffle: far fewer
        # operator applications than the serial path's sum of matvecs.
        assert stats["matmats"] < sum(r.matvecs for r in gang)

    def test_gang_shrinks_as_columns_converge(self, spd_op):
        n = spd_op.shape[0]
        rng = np.random.default_rng(3)
        # One trivially easy column (b = A @ e scaled) converges far
        # earlier than the random ones, so later rounds must be narrower.
        easy = spd_op._A @ np.ones(n) * 1e-12
        B = np.stack([easy, rng.standard_normal(n),
                      rng.standard_normal(n)], axis=1)
        stats = {}
        gang = solve_lockstep(spd_op, B, solver="cg", batch_stats=stats)
        serial = solve_many(spd_op, B, solver="cg")
        for got, ref in zip(gang, serial):
            assert np.array_equal(got.x, ref.x)
            assert got.iterations == ref.iterations
        widths = stats["round_widths"]
        assert widths[0] == 3
        assert widths[-1] < widths[0]


class TestValidation:
    def test_registered_as_multi_rhs(self):
        spec = SOLVER_REGISTRY.get("lockstep")
        assert spec.multi_rhs
        assert spec.solve is solve_lockstep

    def test_rejects_unknown_inner_solver(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 2)
        with pytest.raises(KeyError, match="block_cg"):
            solve_lockstep(spd_op, B, solver="block_cg")

    def test_rejects_bad_initial_guess_shape(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 2)
        with pytest.raises(ValueError, match="X0"):
            solve_lockstep(spd_op, B, solver="cg",
                           X0=np.zeros((spd_op.shape[0], 3)))

    def test_rejects_solver_without_step_generator(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 2)
        with pytest.raises(TypeError, match="jacobi"):
            solve_lockstep(spd_op, B, solver=jacobi)

    def test_accepts_registered_solver_callable(self, spd_op):
        B = _rhs_block(spd_op.shape[0], 2)
        _assert_identical(solve_lockstep(spd_op, B, solver=cg),
                          solve_many(spd_op, B, solver="cg"))

    def test_operator_failure_propagates(self):
        class Exploding:
            shape = (8, 8)

            def matvec(self, x):
                return x

            def matmat(self, X):
                raise RuntimeError("boom in matmat")

        with pytest.raises(RuntimeError, match="boom in matmat"):
            solve_lockstep(Exploding(), np.ones((8, 2)), solver="cg")
