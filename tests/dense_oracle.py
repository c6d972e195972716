"""Dense oracle: the broadcasting SDPs posed on full d^3 x d^3 Choi blocks.

These are the formulations the library used before it solved the covariant
problems in irreducible form.  Each function returns the optimal value
(nu, or mu for ``min_error``) of the same problem as its namesake in
:mod:`vbroadcast.broadcasting`, so the two can be compared.  The blocks grow
as d^3: d = 6 takes seconds and a few hundred MB.
"""

from __future__ import annotations

import math

import numpy as np

from vbroadcast.channels import depolarizing_choi, gamma_operator
from vbroadcast.sdp import (
    STATUS_OPTIMAL,
    ProblemBuilder,
    SolverConfig,
    check_certificate,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)

ZERO_THRESHOLD = 1e-12


def _decomposition_builder(d: int, minimize_nu: bool = True) -> ProblemBuilder:
    """Blocks J1, J2 on (B, B1, B2) plus weights with x - y = 1."""
    builder = ProblemBuilder(allow_large_blocks=True)
    builder.add_psd_block("J1", d ** 3)
    builder.add_psd_block("J2", d ** 3)
    builder.add_scalar("x")
    builder.add_scalar("y")
    if minimize_nu:
        builder.minimize({"x": 1.0, "y": 1.0})
    _add_weight_rows(builder, d)
    return builder


def _add_weight_rows(builder: ProblemBuilder, d: int) -> None:
    dd = (d, d, d)
    zero = np.zeros((d, d), dtype=complex)
    builder.add_operator_eq(
        [ptrace_term("J1", dd, drop=(1, 2)), scalar_term("x", np.eye(d), scale=-1.0)],
        zero, label="weight1")
    builder.add_operator_eq(
        [ptrace_term("J2", dd, drop=(1, 2)), scalar_term("y", np.eye(d), scale=-1.0)],
        zero, label="weight2")
    builder.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0, label="unit_difference")


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
    assert check_certificate(problem, sol, tol=1e-6).passed
    return float(sol.primal_objective)


def exact_overhead(d: int, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder(d)
    gamma = gamma_operator(d)
    builder.add_operator_eq(_marginal_terms(d, 1), gamma, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), gamma, label="marginal2")
    return _value(builder, config)


def approx_overhead(thresholds: tuple[float, float], d: int,
                    config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder(d)
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
    builder = _decomposition_builder(d)
    lam = depolarizing_choi(t, d).op
    builder.add_operator_eq(_marginal_terms(d, 1), lam, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), lam, label="marginal2")
    return _value(builder, config)


def min_error(gamma: float, d: int, config: SolverConfig | None = None) -> float:
    builder = _decomposition_builder(d, minimize_nu=False)
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
