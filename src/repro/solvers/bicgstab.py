"""Stabilised BiConjugate Gradient (van der Vorst 1992).

Two SpMVs per iteration (the paper: "for BiCGSTAB solver, there are two SpMV
on the whole matrix" per iteration).  Works for general nonsymmetric systems;
the evaluation uses it on the same SPD suite as CG, as the paper does.  The
body is a step generator (:func:`~repro.solvers.base.step_solver`).
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

__all__ = ["bicgstab"]


@step_solver
def bicgstab(
    A,
    b,
    x0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    preconditioner: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> SolverResult:
    """Solve ``A x = b`` by BiCGSTAB.  See :func:`repro.solvers.cg.cg` for the
    parameter/return conventions (identical)."""
    start = yield from krylov_start(A, b, x0, criterion)
    if isinstance(start, SolverResult):
        return start
    x, r, r_norm, history, threshold, crit, matvecs = start

    r_hat = r.copy()  # shadow residual
    rho_prev = alpha = omega = 1.0
    v = np.zeros_like(x)
    p = np.zeros_like(x)

    def _fail(k: int, why: str) -> SolverResult:
        return SolverResult(x=x, converged=False, iterations=k,
                            residual_norm=r_norm, residual_history=history,
                            breakdown=why, matvecs=matvecs)

    prec = preconditioner or (lambda u: u)

    for k in range(1, crit.max_iterations + 1):
        rho = float(r_hat @ r)
        if not np.isfinite(rho) or rho == 0.0:
            return _fail(k - 1, "rho breakdown")
        beta = (rho / rho_prev) * (alpha / omega)
        p = r + beta * (p - omega * v)
        phat = prec(p)
        if not np.all(np.isfinite(phat)):
            return _fail(k - 1, "non-finite direction")
        v = yield phat
        matvecs += 1
        denom = float(r_hat @ v)
        if not np.isfinite(denom) or denom == 0.0:
            return _fail(k - 1, "r_hat'v breakdown")
        alpha = rho / denom
        s = r - alpha * v
        s_norm = float(np.linalg.norm(s))
        if s_norm < threshold:
            # Early half-step convergence.
            x += alpha * phat
            r_norm = s_norm
            history.append(r_norm)
            if callback:
                callback(k, x, r_norm)
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        shat = prec(s)
        if not np.all(np.isfinite(shat)):
            return _fail(k - 1, "non-finite half-step")
        t = yield shat
        matvecs += 1
        tt = float(t @ t)
        if not np.isfinite(tt) or tt == 0.0:
            return _fail(k - 1, "t't breakdown")
        omega = float(t @ s) / tt
        if not np.isfinite(omega) or omega == 0.0:
            return _fail(k - 1, "omega breakdown")
        x += alpha * phat + omega * shat
        r = s - omega * t
        rho_prev = rho
        r_norm = float(np.linalg.norm(r))
        history.append(r_norm)
        if callback:
            callback(k, x, r_norm)
        if r_norm < threshold:
            return SolverResult(x=x, converged=True, iterations=k,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if not np.isfinite(r_norm) or r_norm > crit.divergence_factor * history[0]:
            return _fail(k, "divergence")

    return SolverResult(x=x, converged=False, iterations=crit.max_iterations,
                        residual_norm=r_norm, residual_history=history,
                        matvecs=matvecs)
