"""Block Conjugate Gradient (O'Leary 1980) and a multi-RHS convenience loop.

``block_cg`` solves ``A X = B`` for ``k`` right-hand sides simultaneously:
one batched operator application (``matmat``) per iteration replaces ``k``
independent SpMVs, and the ``k``-dimensional search space usually *also*
cuts the iteration count below the single-vector CG's.  On the crossbar
platforms this is the natural batched workload — the bit-sliced operand
program is written once per iteration and amortised across the whole batch
(see :class:`repro.hardware.engine.BlockedEngine.multiply_batch`), so total
engine contractions drop by roughly the batch width.

All block arithmetic outside the operator application is FP64 (the
accelerator's MAC units); the small ``k x k`` systems are solved by LAPACK.
Rank deficiency across the right-hand sides (e.g. duplicated columns of
``B``) surfaces as a breakdown rather than silent stagnation — deduplicate
or fall back to :func:`solve_many` in that case.

``solve_many`` is the convenience wrapper for operators without a fast batch
path (or for heterogeneous per-column stopping): it loops the existing
single-vector solvers column by column against one shared operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Union

import numpy as np

from repro.solvers.base import (
    ConvergenceCriterion,
    SolverResult,
    as_operator,
    check_block_system,
    check_initial_guess,
    operator_matmat,
    quiet_fp_errors,
)
from repro.solvers.bicgstab import bicgstab
from repro.solvers.cg import cg
from repro.solvers.gmres import gmres

__all__ = ["BlockSolverResult", "SINGLE_RHS_SOLVERS", "block_cg",
           "single_rhs_solver", "solve_many"]

#: The single-RHS solvers :func:`solve_many` and
#: :func:`~repro.solvers.lockstep.solve_lockstep` accept by name.
SINGLE_RHS_SOLVERS = {"cg": cg, "bicgstab": bicgstab, "gmres": gmres}


def single_rhs_solver(solver: Union[str, Callable[..., SolverResult]]
                      ) -> Callable[..., SolverResult]:
    """Look a solver name up in :data:`SINGLE_RHS_SOLVERS`; a callable
    passes through unchanged."""
    if not isinstance(solver, str):
        return solver
    if solver not in SINGLE_RHS_SOLVERS:
        raise KeyError(f"solver must be one of {sorted(SINGLE_RHS_SOLVERS)}, "
                       f"got {solver!r}")
    return SINGLE_RHS_SOLVERS[solver]


@dataclass
class BlockSolverResult:
    """Outcome of a block solve of ``A X = B``.

    Attributes
    ----------
    X : ndarray of shape (n, k)
        Final block iterate.
    converged : bool
        Whether *every* column met the convergence criterion.
    iterations : int
        Block iterations executed (each performs one batched apply).
    residual_norms : ndarray of shape (k,)
        Final per-column (recursive) residual 2-norms.
    converged_mask : ndarray of bool, shape (k,)
        Per-column convergence at termination.
    residual_history : list of ndarray
        Per-column ``||r_j||_2`` after every iteration, starting with the
        initial residuals at index 0.
    breakdown : str or None
        Set when the solve stopped on a numerical breakdown (singular block
        Gram matrix, non-finite values) rather than convergence/budget.
    matmats : int
        Batched operator applications performed (= engine contractions).
    """

    X: np.ndarray
    converged: bool
    iterations: int
    residual_norms: np.ndarray
    converged_mask: np.ndarray
    residual_history: List[np.ndarray] = field(default_factory=list)
    breakdown: Optional[str] = None
    matmats: int = 0

    @property
    def not_converged(self) -> bool:
        return not self.converged


def _column_norms(R: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ij,ij->j", R, R))


@quiet_fp_errors
def block_cg(
    A,
    B,
    X0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    callback: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
    fallback: bool = False,
) -> BlockSolverResult:
    """Solve SPD ``A X = B`` for all ``k`` columns by block CG.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
        The SpMV platform; its ``matmat`` is used when present, otherwise
        each block apply falls back to ``k`` matvecs (same numerics, no
        batching economy).
    B : array_like of shape (n, k)
        Right-hand sides.  Columns should be linearly independent — and not
        *nearly* dependent either: duplicated, zero, or strongly correlated
        columns rank-deplete the block Gram matrices (columns also converge
        at different rates, depleting the search block mid-solve) and the
        solve terminates with a ``breakdown``.  On breakdown the iterate can
        be far from solved in some columns — check ``converged_mask``, and
        either pass ``fallback=True`` or use :func:`solve_many` yourself.
    X0 : array_like of shape (n, k), optional
        Initial block guess (default: zeros).
    criterion : ConvergenceCriterion
        Stopping rule, applied per column: ``||r_j|| < tol * ||b_j||``
        (relative) for every ``j``, with the shared iteration budget.
    callback : callable, optional
        Called as ``callback(iteration, X, residual_norms)`` per iteration.
    fallback : bool
        When True, a breakdown triggers per-column single-vector CG
        (:func:`solve_many`) on the still-unconverged columns, so the
        returned ``X`` is solved wherever single-vector CG can solve it.
        The ``breakdown`` field keeps the original reason (suffixed with
        the fallback note) and ``matmats`` still counts only the batched
        applies; the fallback's matvecs are the price of the repair.

    Returns
    -------
    BlockSolverResult
    """
    op = as_operator(A)
    B = check_block_system(op, B)
    crit = criterion or ConvergenceCriterion()
    n, k = B.shape
    X0 = check_initial_guess(X0, (n, k), name="X0")
    X = np.zeros((n, k)) if X0 is None else X0

    matmats = 0
    if X0 is None or not np.any(X):
        R = B.copy()
    else:
        R = B - operator_matmat(op, X)
        matmats += 1
    b_norms = _column_norms(B)
    if not np.any(b_norms):
        zeros = np.zeros(k)
        return BlockSolverResult(X=np.zeros((n, k)), converged=True,
                                 iterations=0, residual_norms=zeros,
                                 converged_mask=np.ones(k, dtype=bool),
                                 residual_history=[zeros], matmats=matmats)
    # A zero column is solved exactly by x_j = 0, whatever its residual says.
    thresholds = np.where(b_norms > 0, crit.threshold(b_norms), np.inf)
    r_norms = _column_norms(R)
    history = [r_norms]
    done = r_norms < thresholds
    if bool(done.all()):
        return BlockSolverResult(X=X, converged=True, iterations=0,
                                 residual_norms=r_norms, converged_mask=done,
                                 residual_history=history, matmats=matmats)

    P = R.copy()
    RtR = R.T @ R
    converged = False
    breakdown = None
    iterations = crit.max_iterations

    for it in range(1, crit.max_iterations + 1):
        if not np.all(np.isfinite(P)):
            breakdown, iterations = "non-finite direction block", it - 1
            break
        Q = operator_matmat(op, P)
        matmats += 1
        PtQ = P.T @ Q
        try:
            alpha = np.linalg.solve(PtQ, RtR)
        except np.linalg.LinAlgError:
            breakdown, iterations = "singular P'AP block", it - 1
            break
        if not np.all(np.isfinite(alpha)):
            breakdown, iterations = "P'AP breakdown", it - 1
            break
        X += P @ alpha
        R -= Q @ alpha
        r_norms = _column_norms(R)
        history.append(r_norms)
        if callback:
            callback(it, X, r_norms)
        if bool((r_norms < thresholds).all()):
            converged, iterations = True, it
            break
        if not np.all(np.isfinite(r_norms)) or bool(
                (r_norms > crit.divergence_factor * history[0]).any()):
            breakdown, iterations = "divergence", it
            break
        RtR_new = R.T @ R
        try:
            beta = np.linalg.solve(RtR, RtR_new)
        except np.linalg.LinAlgError:
            breakdown, iterations = "singular R'R block", it
            break
        if not np.all(np.isfinite(beta)):
            breakdown, iterations = "R'R breakdown", it
            break
        RtR = RtR_new
        P = R + P @ beta

    if fallback and breakdown is not None:
        mask = r_norms < thresholds
        bad = np.flatnonzero(~mask)
        singles = solve_many(op, B[:, bad], solver="cg",
                             criterion=crit) if bad.size else []
        r_norms = r_norms.copy()
        for idx, res in zip(bad, singles):
            X[:, idx] = res.x
            r_norms[idx] = res.residual_norm
            mask[idx] = res.converged
        converged = bool(mask.all())
        breakdown = f"{breakdown} (recovered per-column via solve_many)"
        return BlockSolverResult(
            X=X, converged=converged, iterations=iterations,
            residual_norms=r_norms, converged_mask=mask,
            residual_history=history, breakdown=breakdown, matmats=matmats)

    return BlockSolverResult(
        X=X, converged=converged, iterations=iterations,
        residual_norms=r_norms, converged_mask=r_norms < thresholds,
        residual_history=history, breakdown=breakdown, matmats=matmats)


def solve_many(
    A,
    B,
    solver: Union[str, Callable[..., SolverResult]] = "cg",
    X0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    **kwargs,
) -> List[SolverResult]:
    """Solve ``A x_j = b_j`` for every column of ``B`` with a 1-RHS solver.

    The operator is built **once** and shared across columns (so quantised
    platforms pay one partition/quantisation, not ``k``), but the solve loop
    itself is the plain single-vector solver per column — the fallback for
    operators without a fast batch path, and the reference a batched
    :func:`block_cg` is tolerance-pinned against.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
    B : array_like of shape (n, k)
    solver : str or callable
        ``"cg"`` / ``"bicgstab"`` / ``"gmres"``, or any callable with the
        ``solver(A, b, x0=..., criterion=..., **kwargs)`` convention.
    X0 : array_like of shape (n, k), optional
        Per-column initial guesses.
    criterion : ConvergenceCriterion, optional
    **kwargs
        Forwarded to the underlying solver (e.g. ``preconditioner=``).

    Returns
    -------
    list of SolverResult, one per column of ``B`` (in column order).
    """
    op = as_operator(A)
    B = check_block_system(op, B)
    solver = single_rhs_solver(solver)
    X0 = check_initial_guess(X0, B.shape, name="X0", copy=False)
    results: List[SolverResult] = []
    for j in range(B.shape[1]):
        x0 = None if X0 is None else X0[:, j]
        results.append(solver(op, B[:, j], x0=x0, criterion=criterion,
                              **kwargs))
    return results
