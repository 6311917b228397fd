"""Conjugate Gradient (Hestenes & Stiefel), operator-parameterised.

Implemented exactly as the paper's Code 1 specialises for CG: one SpMV per
iteration (on the direction vector ``p``), recursive residual update, optional
preconditioner.  All vector arithmetic is FP64; the operator may quantise.
The body is a step generator (:func:`~repro.solvers.base.step_solver`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.solvers.base import (
    ConvergenceCriterion,
    SolverResult,
    krylov_start,
    step_solver,
)

__all__ = ["cg"]


@step_solver
def cg(
    A,
    b,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> SolverResult:
    """Solve SPD ``A x = b`` by (preconditioned) conjugate gradients.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
        The SpMV platform (exact, ReFloat, Feinberg, noisy, ...).
    b : array_like
        Right-hand side.
    x0 : array_like, optional
        Initial guess (paper: the all-zero vector).
    criterion : ConvergenceCriterion
        Stopping rule; defaults to the paper's ``||r|| < 1e-8 ||b||`` with a
        20000-iteration budget.
    preconditioner : callable, optional
        ``z = M^{-1} r`` application.
    callback : callable, optional
        Called as ``callback(iteration, x, residual_norm)`` once per iteration.

    Returns
    -------
    SolverResult
    """
    start = yield from krylov_start(A, b, x0, criterion)
    if isinstance(start, SolverResult):
        return start
    x, r, r_norm, history, threshold, crit, matvecs = start

    z = preconditioner(r) if preconditioner else r
    p = z.copy()
    rho = float(r @ z)

    for k in range(1, crit.max_iterations + 1):
        if not np.all(np.isfinite(p)):
            return SolverResult(x=x, converged=False, iterations=k - 1,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="non-finite direction", matvecs=matvecs)
        q = yield p
        matvecs += 1
        pq = float(p @ q)
        if not np.isfinite(pq) or pq == 0.0:
            return SolverResult(x=x, converged=False, iterations=k - 1,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="p'Ap breakdown", matvecs=matvecs)
        alpha = rho / pq
        x += alpha * p
        r -= alpha * q
        r_norm = float(np.linalg.norm(r))
        history.append(r_norm)
        if callback:
            callback(k, x, r_norm)
        if r_norm < threshold:
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if not np.isfinite(r_norm) or r_norm > crit.divergence_factor * history[0]:
            return SolverResult(x=x, converged=False, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="divergence", matvecs=matvecs)
        z = preconditioner(r) if preconditioner else r
        rho_new = float(r @ z)
        if rho == 0.0:
            return SolverResult(x=x, converged=False, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="rho breakdown", matvecs=matvecs)
        beta = rho_new / rho
        rho = rho_new
        p = z + beta * p

    return SolverResult(x=x, converged=False, iterations=crit.max_iterations,
                        residual_norm=r_norm, residual_history=history,
                        matvecs=matvecs)
