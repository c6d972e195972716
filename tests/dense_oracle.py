"""Dense oracle: the broadcasting SDPs posed on full Choi blocks J1 and J2.

These are the formulations the library used before it solved the covariant
problems in irreducible form and the overhead of a fixed map as the norm SDP.
Each function returns the optimal value (nu, or mu for ``min_error``) of the
same problem as its namesake in :mod:`vbroadcast.broadcasting`, so the two
can be compared.  The covariant blocks grow as d^3: d = 6 takes seconds and a
few hundred MB.

``blockwise_certificate`` is the certificate check as the library made it
before it evaluated A(X) and A^*(y) as one product each and checked the
blocks one stack per dimension: block by block, from each block's columns.
"""

from __future__ import annotations

import math

import numpy as np

from vbroadcast.channels import ChoiOperator, depolarizing_choi, gamma_operator
from vbroadcast.linalg import min_eigenvalue
from vbroadcast.sdp import (
    STATUS_OPTIMAL,
    CertificateReport,
    ProblemBuilder,
    SolverConfig,
    check_certificate,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)
from vbroadcast.sdp.problem import _mat, _vec

ZERO_THRESHOLD = 1e-12


def _decomposition_builder(dims: tuple[int, ...], minimize_nu: bool = True) -> ProblemBuilder:
    """Blocks J1, J2 on (B, outputs...) with Tr_out J1 = x I_B,
    Tr_out J2 = y I_B and x - y = 1."""
    d, drop = dims[0], tuple(range(1, len(dims)))
    builder = ProblemBuilder()
    builder.add_psd_block("J1", math.prod(dims))
    builder.add_psd_block("J2", math.prod(dims))
    builder.add_scalar("x")
    builder.add_scalar("y")
    if minimize_nu:
        builder.minimize({"x": 1.0, "y": 1.0})
    zero = np.zeros((d, d), dtype=complex)
    builder.add_operator_eq(
        [ptrace_term("J1", dims, drop=drop), scalar_term("x", np.eye(d), scale=-1.0)],
        zero, label="weight1")
    builder.add_operator_eq(
        [ptrace_term("J2", dims, drop=drop), scalar_term("y", np.eye(d), scale=-1.0)],
        zero, label="weight2")
    builder.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0, label="unit_difference")
    return builder


def _marginal_terms(d: int, marginal: int) -> list:
    """Terms evaluating Tr_{other output}[J1 - J2]; marginal 1 keeps B1."""
    dd = (d, d, d)
    drop = (2,) if marginal == 1 else (1,)
    return [ptrace_term("J1", dd, drop=drop),
            ptrace_term("J2", dd, drop=drop, scale=-1.0)]


def _value(builder: ProblemBuilder, config: SolverConfig | None) -> float:
    problem = builder.build()
    sol = solve(problem, config)
    assert sol.status == STATUS_OPTIMAL, sol.status
    assert check_certificate(problem, sol).passed
    return float(sol.primal_objective)


def overhead_of_map(j: ChoiOperator, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder(j.dims)
    builder.add_operator_eq([full_term("J1"), full_term("J2", -1.0)], j.op,
                            label="difference")
    return _value(builder, config)


def exact_overhead(d: int, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder((d, d, d))
    gamma = gamma_operator(d)
    builder.add_operator_eq(_marginal_terms(d, 1), gamma, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), gamma, label="marginal2")
    return _value(builder, config)


def approx_overhead(thresholds: tuple[float, float], d: int,
                    config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder((d, d, d))
    gamma = gamma_operator(d)
    for marginal, bound in zip((1, 2), thresholds):
        if bound <= ZERO_THRESHOLD:
            builder.add_operator_eq(_marginal_terms(d, marginal), gamma,
                                    label=f"marginal{marginal}_exact")
            continue
        z = builder.add_psd_block(f"Z{marginal}", d * d)
        neg_marginal = [ptrace_term(t.block, t.dims, t.drop, scale=-t.scale)
                        for t in _marginal_terms(d, marginal)]
        builder.add_operator_ineq([full_term(z)] + neg_marginal, -gamma,
                                  label=f"witness{marginal}_dominates")
        builder.add_operator_ineq([ptrace_term(z, (d, d), drop=(1,), scale=-1.0)],
                                  -bound * np.eye(d), label=f"witness{marginal}_cap")
    return _value(builder, config)


def depolarizing_overhead(t: float, d: int, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder((d, d, d))
    lam = depolarizing_choi(t, d).op
    builder.add_operator_eq(_marginal_terms(d, 1), lam, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), lam, label="marginal2")
    return _value(builder, config)


def min_error(gamma: float, d: int, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder((d, d, d), minimize_nu=False)
    k = d * d / (d * d - 1.0)
    gam = gamma_operator(d)
    tie = k * (gam - np.eye(d * d) / d)
    builder.add_scalar("delta")
    builder.minimize({"delta": 1.0})
    for marginal in (1, 2):
        builder.add_operator_eq(_marginal_terms(d, marginal) + [scalar_term("delta", tie)],
                                gam, label=f"marginal{marginal}")
    builder.add_scalar_ineq({"x": 1.0, "y": 1.0}, math.sqrt(gamma), label="budget")
    return _value(builder, config)


def blockwise_certificate(problem, solution, tol: float = 1e-6) -> CertificateReport:
    """The report of ``vbroadcast.sdp.check_certificate``, computed one block
    at a time: A(X) as the sum of each block's columns times its coordinates,
    A^*(y), C and the dual residual as dense matrices per block, and the
    complementarity and eigenvalues of each block on its own."""
    x, s, b, y = solution.x_blocks, solution.s_blocks, problem.b, solution.y
    a = {name: problem.a[:, cols] for name, cols in problem.cone.columns.items()}
    c = {name: _mat(problem.c[cols]) for name, cols in problem.cone.columns.items()}

    values = np.zeros(problem.n_rows)
    for blk in problem.blocks:
        values += a[blk.name] @ _vec(np.asarray(x[blk.name]))
    resid = np.abs(values - b)
    pres = float(np.max(resid, initial=0.0)) / (1.0 + float(np.max(np.abs(b), initial=0.0)))
    worst_row = problem.row_label(int(np.argmax(resid))) if resid.size else ""

    dres = 0.0
    for blk in problem.blocks:
        r = c[blk.name] - _mat(a[blk.name].T @ y) - s[blk.name]
        dres = max(dres, float(np.linalg.norm(r)) / (1.0 + float(np.linalg.norm(c[blk.name]))))

    pobj = float(sum(np.trace(c[blk.name] @ x[blk.name]).real for blk in problem.blocks))
    dobj = float(b @ y)
    scale = 1.0 + abs(pobj) + abs(dobj)
    gap = abs(pobj - dobj) / scale

    compl, min_x, min_s = 0.0, np.inf, np.inf
    for blk in problem.blocks:
        xk, sk = x[blk.name], s[blk.name]
        compl += abs(float(np.real(np.trace(xk @ sk))))
        min_x = min(min_x, min_eigenvalue(xk))
        min_s = min(min_s, min_eigenvalue(sk))
    compl /= scale

    fields = dict(status=solution.status, primal_residual=pres, dual_residual=dres,
                  complementarity=compl, duality_gap=gap, min_eig_x=float(min_x),
                  min_eig_s=float(min_s), worst_row=worst_row)
    if solution.status != STATUS_OPTIMAL:
        return CertificateReport(passed=None, **fields)
    return CertificateReport(passed=(pres <= tol and dres <= tol and compl <= tol
                                     and gap <= tol and min_x >= -tol and min_s >= -tol),
                             **fields)
