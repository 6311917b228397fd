"""Lockstep batching: many single-RHS solves, one ``matmat`` per round.

The service coalescer (:mod:`repro.service`) needs the impossible-sounding
combination the block solvers cannot give it: the *batching economy* of one
operator application per iteration across ``k`` right-hand sides, with
results **bit-identical** to running each request through the plain
single-vector solver on its own.  ``block_cg``'s k-dimensional search space
changes the numerics, so it can never be the transparent fast path.

:func:`solve_lockstep` gets both by construction.  Every registered
single-vector solver (``cg``/``bicgstab``/``gmres``) is one step generator
(:func:`~repro.solvers.base.step_solver`) that yields each vector it needs
multiplied.  This loop runs one generator per column; each round stacks the
vectors the active columns wait on into one
:func:`~repro.solvers.base.operator_matmat` and sends every column its own
output column.  Every platform operator's ``matmat`` is pinned
bit-identical per column to its ``matvec``, so each column's iterates,
iteration count, residual history and breakdown are bit-identical to the
serial :func:`~repro.solvers.block_cg.solve_many` path, while the engine
sees one contraction per round instead of ``k``.

A column that converges, breaks down or exits before its first apply leaves
the loop, and later rounds stack only the survivors.  Everything runs on the
calling thread, and an operator or solver error propagates straight out.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

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
from repro.solvers.block_cg import SINGLE_RHS_SOLVERS, single_rhs_solver

__all__ = ["LOCKSTEP_SOLVERS", "solve_lockstep"]

#: Inner single-RHS solvers the lockstep loop can drive by name.  The solve
#: service validates vector jobs against this set up front, so an
#: unsupported solver is the submitting request's error, not a batch
#: failure for everyone coalesced with it.
LOCKSTEP_SOLVERS = tuple(SINGLE_RHS_SOLVERS)


@quiet_fp_errors
def solve_lockstep(
    A,
    B,
    solver: Union[str, Callable[..., SolverResult]] = "cg",
    X0: Optional[np.ndarray] = None,
    criterion: Optional[ConvergenceCriterion] = None,
    batch_stats: Optional[dict] = None,
    **kwargs,
) -> List[SolverResult]:
    """Solve ``A x_j = b_j`` for every column of ``B``, in lockstep rounds.

    Parameters
    ----------
    A : sparse matrix or LinearOperator
        The shared operator; built once.  Its ``matmat`` (when present)
        serves each lockstep round in one batched application.
    B : array_like of shape (n, k)
        Right-hand sides.  Unlike :func:`~repro.solvers.block_cg.block_cg`,
        duplicated or correlated columns are perfectly fine — columns never
        mix numerically.
    solver : str or callable
        ``"cg"`` / ``"bicgstab"`` / ``"gmres"``, or one of those functions.
        Other callables have no step generator to drive and raise
        ``TypeError``.
    X0 : array_like of shape (n, k), optional
        Per-column initial guesses.
    criterion : ConvergenceCriterion, optional
    batch_stats : dict, optional
        When given, updated in place with the batching economy achieved:
        ``{"columns": k, "matmats": rounds, "round_widths": [...]}`` —
        ``matmats`` is the number of batched applications the operator saw
        (serial execution would have paid ``sum(round_widths)`` matvecs).
    **kwargs
        Forwarded to the underlying solver (e.g. ``preconditioner=``,
        ``callback=``, ``restart=``), per column.

    Returns
    -------
    list of SolverResult, one per column of ``B`` (in column order), each
    bit-identical to ``solver(A, B[:, j], ...)`` run on its own.
    """
    op = as_operator(A)
    B = check_block_system(op, B)
    steps = getattr(single_rhs_solver(solver), "steps", None)
    if steps is None:
        raise TypeError(
            f"solve_lockstep drives the step-generator solvers "
            f"{list(LOCKSTEP_SOLVERS)}; {solver!r} is not one of them")
    X0 = check_initial_guess(X0, B.shape, name="X0", copy=False)
    k = B.shape[1]
    runs = [steps(op, B[:, j], x0=None if X0 is None else X0[:, j],
                  criterion=criterion, **kwargs) for j in range(k)]
    results: List[Optional[SolverResult]] = [None] * k
    pending: Dict[int, np.ndarray] = {}  # column -> vector it waits on

    def advance(j: int, product: Optional[np.ndarray]) -> None:
        try:
            pending[j] = runs[j].send(product)
        except StopIteration as done:
            results[j] = done.value

    for j in range(k):
        advance(j, None)
    widths: List[int] = []
    while pending:
        cols = list(pending)  # ascending: each round re-inserts in order
        Y = operator_matmat(op, np.stack([pending.pop(j) for j in cols],
                                         axis=1))
        widths.append(len(cols))
        for i, j in enumerate(cols):
            # Contiguous per-column vectors: the solver's vector arithmetic
            # must see exactly what a standalone matvec would have returned.
            advance(j, np.ascontiguousarray(Y[:, i]))
    if batch_stats is not None:
        batch_stats["columns"] = k
        batch_stats["matmats"] = len(widths)
        batch_stats["round_widths"] = widths
    return results  # type: ignore[return-value]
