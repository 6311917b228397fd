"""Builtin solver registrations.

Folds the old ``SOLVERS`` callable dict and the parallel ``_SOLVER_SHAPE``
per-iteration operation counts into single :class:`SolverSpec` entries
(Section VI-B: BiCGSTAB does two whole-matrix SpMVs per iteration; the GPU
roofline charges 5/10 vector kernels where the accelerators stream 6/12
n-length ops).  The batched solvers are first-class registrants too,
flagged ``multi_rhs`` — ``run_matrix`` refuses them with a named error, but
programmatic callers and the ``solve_many`` pipeline discover them through
the same registry.
"""

from __future__ import annotations

from repro.api.registry import register_solver
from repro.solvers import (
    bicgstab,
    block_bicgstab,
    block_cg,
    cg,
    solve_lockstep,
    solve_many,
)

__all__ = ["DEFAULT_SOLVERS"]

#: The paper's evaluation solvers (every experiment sweeps these two).
DEFAULT_SOLVERS = ("cg", "bicgstab")

register_solver(
    "cg", spmvs_per_iteration=1, vector_ops_per_iteration=6,
    gpu_vector_kernels_per_iteration=5,
    description="conjugate gradients (SPD systems)")(cg)

register_solver(
    "bicgstab", spmvs_per_iteration=2, vector_ops_per_iteration=12,
    gpu_vector_kernels_per_iteration=10,
    description="BiCGSTAB (general systems; two SpMVs per iteration)")(bicgstab)

register_solver(
    "block_cg", spmvs_per_iteration=1, vector_ops_per_iteration=6,
    gpu_vector_kernels_per_iteration=5, multi_rhs=True,
    description="O'Leary block CG: k RHS per iteration, one matmat/iter")(
        block_cg)

register_solver(
    "block_bicgstab", spmvs_per_iteration=2, vector_ops_per_iteration=12,
    gpu_vector_kernels_per_iteration=10, multi_rhs=True,
    description="batched BiCGSTAB: k RHS per iteration, two matmats/iter")(
        block_bicgstab)

register_solver(
    "solve_many", spmvs_per_iteration=1, vector_ops_per_iteration=6,
    gpu_vector_kernels_per_iteration=5, multi_rhs=True,
    description="per-column single-RHS solves sharing one operator")(
        solve_many)

register_solver(
    "lockstep", spmvs_per_iteration=1, vector_ops_per_iteration=6,
    gpu_vector_kernels_per_iteration=5, multi_rhs=True,
    description="per-column solves stepped in lockstep: one matmat per "
                "round, bit-identical to solve_many (the service "
                "coalescer's batch path)")(solve_lockstep)
