"""Restarted GMRES — extension beyond the paper's CG/BiCGSTAB pair.

The paper restricts its evaluation to the two Krylov solvers of Section II-B;
GMRES(m) is included here because it is the standard choice for nonsymmetric
systems and exercises the same quantised-SpMV operator interface (one SpMV
per inner iteration), making it a natural ablation: ReFloat's per-iteration
error injection interacts differently with a long recurrence.  The body is
a step generator (:func:`~repro.solvers.base.step_solver`).
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.solvers.base import (
    ConvergenceCriterion,
    SolverResult,
    check_initial_guess,
    check_system,
    step_solver,
)

__all__ = ["gmres"]


@step_solver
def gmres(
    A,
    b,
    x0: Optional[np.ndarray] = None,
    restart: int = 30,
    criterion: Optional[ConvergenceCriterion] = None,
    callback: Optional[Callable[[int, np.ndarray, float], None]] = None,
) -> SolverResult:
    """Solve ``A x = b`` by GMRES with restart length ``restart``.

    Iteration counting: each *inner* step (one SpMV) counts as one iteration,
    so iteration counts are comparable with CG's across operators.

    Convergence is never declared from the Givens-rotation residual estimate
    alone: the estimate only ends an inner cycle, after which the true
    residual ``||b - A x||`` is recomputed — if it drifted back above the
    threshold (loss of orthogonality, or a quantised operator whose matvec is
    not the exact matrix the estimate models), the solve restarts from the
    true residual instead of returning an optimistic ``residual_norm``.
    """
    b = check_system(A, b)
    crit = criterion or ConvergenceCriterion()
    if restart < 1:
        raise ValueError(f"restart must be >= 1, got {restart}")
    n = b.size
    x0 = check_initial_guess(x0, (n,))
    x = np.zeros(n) if x0 is None else x0

    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return SolverResult(x=np.zeros(n), converged=True, iterations=0,
                            residual_norm=0.0, residual_history=[0.0])
    threshold = crit.threshold(b_norm)

    matvecs = 0
    iterations = 0
    if np.any(x):
        r = b - (yield x)
        matvecs += 1
    else:
        r = b.copy()
    r_norm = float(np.linalg.norm(r))
    history = [r_norm]

    while True:
        # Invariant: r_norm here is always a *true* residual norm — the
        # initial one, or the recomputed ``||b - A x||`` after a cycle —
        # so this is the only place convergence may be declared.
        if r_norm < threshold:
            return SolverResult(x=x, converged=True, iterations=iterations,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        if iterations >= crit.max_iterations:
            return SolverResult(x=x, converged=False, iterations=iterations,
                                residual_norm=r_norm, residual_history=history,
                                matvecs=matvecs)
        m = min(restart, crit.max_iterations - iterations)
        Q = np.zeros((n, m + 1))
        H = np.zeros((m + 1, m))
        cs = np.zeros(m)
        sn = np.zeros(m)
        g = np.zeros(m + 1)
        Q[:, 0] = r / r_norm
        g[0] = r_norm
        cycle_r_norm = r_norm  # true residual of x, which the inner loop
        inner_done = 0         # does not touch until the cycle-end update
        for j in range(m):
            w = yield Q[:, j]
            matvecs += 1
            if not np.all(np.isfinite(w)):
                # x is still the cycle-start iterate, so its true residual
                # is the cycle-start one — not the mid-cycle estimate.  As
                # in the other breakdown paths, history's last entry is
                # made consistent with the returned residual_norm.
                history[-1] = cycle_r_norm
                return SolverResult(x=x, converged=False, iterations=iterations,
                                    residual_norm=cycle_r_norm,
                                    residual_history=history,
                                    breakdown="non-finite Krylov vector",
                                    matvecs=matvecs)
            # Modified Gram-Schmidt.
            for i in range(j + 1):
                H[i, j] = float(Q[:, i] @ w)
                w -= H[i, j] * Q[:, i]
            H[j + 1, j] = float(np.linalg.norm(w))
            if H[j + 1, j] > 0:
                Q[:, j + 1] = w / H[j + 1, j]
            # Apply accumulated Givens rotations to the new column.
            for i in range(j):
                t = cs[i] * H[i, j] + sn[i] * H[i + 1, j]
                H[i + 1, j] = -sn[i] * H[i, j] + cs[i] * H[i + 1, j]
                H[i, j] = t
            denom = float(np.hypot(H[j, j], H[j + 1, j]))
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = H[j, j] / denom, H[j + 1, j] / denom
            H[j, j] = cs[j] * H[j, j] + sn[j] * H[j + 1, j]
            H[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            iterations += 1
            inner_done = j + 1
            r_norm = abs(float(g[j + 1]))
            history.append(r_norm)
            if callback:
                callback(iterations, x, r_norm)
            if r_norm < threshold or iterations >= crit.max_iterations:
                break
        # Solve the small triangular system and update x.  The inner loop
        # always completes at least one step (m >= 1), so j >= 1 here.
        j = inner_done
        R = np.triu(H[:j, :j])
        if np.any(np.diagonal(R) == 0.0):
            # Exactly-singular least-squares system (lucky breakdown with
            # a stagnant estimate): the iterate cannot be updated.  The
            # reported norm is still the *true* residual of the current
            # iterate, never the (possibly zero) Givens estimate.
            r_norm = float(np.linalg.norm(b - (yield x)))
            matvecs += 1
            history[-1] = r_norm
            return SolverResult(x=x, converged=False, iterations=iterations,
                                residual_norm=r_norm,
                                residual_history=history,
                                breakdown="singular Hessenberg system",
                                matvecs=matvecs)
        y = np.linalg.solve(R, g[:j])
        x = x + Q[:, :j] @ y
        # True residual: the Givens estimate above is only a cycle-ending
        # heuristic; convergence is re-judged from this at the loop top.
        r = b - (yield x)
        matvecs += 1
        r_norm = float(np.linalg.norm(r))
        history[-1] = r_norm  # replace estimate with the true restart residual
        if not np.isfinite(r_norm) or r_norm > crit.divergence_factor * history[0]:
            return SolverResult(x=x, converged=False, iterations=iterations,
                                residual_norm=r_norm, residual_history=history,
                                breakdown="divergence", matvecs=matvecs)
