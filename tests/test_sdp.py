import numpy as np
import pytest

from vbroadcast.channels import gamma_operator
from vbroadcast.linalg import random_hermitian
from vbroadcast.sdp import (
    ProblemBuilder,
    SolverConfig,
    check_certificate,
    dump_problem,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)


def make_trace_one_problem(c):
    b = ProblemBuilder()
    b.add_psd_block("X", c.shape[0])
    b.add_objective("X", c)
    b.add_scalar_eq({"X": np.eye(c.shape[0])}, 1.0, label="trace")
    return b.build()


class TestSolveBasics:
    def test_min_corner_entry(self):
        # min X11 s.t. X11 + X22 = 1, X >= 0  ->  0
        b = ProblemBuilder()
        b.add_psd_block("X", 2)
        b.add_objective("X", np.diag([1.0, 0.0]).astype(complex))
        b.add_scalar_eq({"X": np.eye(2)}, 1.0)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_objective) <= 1e-7

    def test_lp_as_diagonal_sdp(self):
        # min x s.t. x + s = 3, x, s >= 0  ->  0
        b = ProblemBuilder()
        b.add_scalar("x")
        b.add_scalar("s")
        b.minimize({"x": 1.0})
        b.add_scalar_eq({"x": 1.0, "s": 1.0}, 3.0)
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_objective) <= 1e-7
        assert abs(sol.x_blocks["s"][0, 0] - 3.0) <= 1e-6

    def test_minimum_eigenvalue_problem(self):
        rng = np.random.default_rng(31)
        c = random_hermitian(5, rng)
        sol = solve(make_trace_one_problem(c))
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - np.linalg.eigvalsh(c)[0]) <= 1e-7

    def test_replacement_distance_instance(self):
        # min mu s.t. Z >= Gamma - I/d, mu I >= Tr_out Z, Z >= 0  ->  1 - 1/d^2
        d = 2
        b = ProblemBuilder()
        b.add_psd_block("Z", d * d)
        b.add_scalar("mu")
        b.minimize({"mu": 1.0})
        b.add_operator_ineq([full_term("Z")],
                            gamma_operator(d) - np.eye(d * d) / d)
        b.add_operator_ineq(
            [scalar_term("mu", np.eye(d)),
             ptrace_term("Z", (d, d), drop=(1,), scale=-1.0)],
            np.zeros((d, d), dtype=complex))
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert abs(sol.primal_objective - 0.75) <= 1e-7


class TestBuilder:
    def test_scalar_equality_is_one_row(self):
        b = ProblemBuilder()
        b.add_scalar("x")
        b.add_scalar("y")
        b.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0)
        p = b.build()
        assert p.n_rows == 1

    def test_weight_constraint_row_count(self):
        # Tr_out[J] = x I_B over a d x d x d layout: one row per real degree
        # of freedom of the Hermitian B-marginal, d^2 in total
        d = 3
        b = ProblemBuilder()
        b.add_psd_block("J", d ** 3)
        b.add_scalar("x")
        b.add_operator_eq(
            [ptrace_term("J", (d, d, d), drop=(1, 2)),
             scalar_term("x", np.eye(d), scale=-1.0)],
            np.zeros((d, d), dtype=complex))
        assert b.build().n_rows == d * d

    def test_operator_inequality_adds_psd_slack(self):
        d = 3
        b = ProblemBuilder()
        b.add_psd_block("Z", d * d)
        b.add_scalar("mu")
        slack = b.add_operator_ineq(
            [scalar_term("mu", np.eye(d)),
             ptrace_term("Z", (d, d), drop=(1,), scale=-1.0)],
            np.zeros((d, d), dtype=complex))
        p = b.build()
        assert p.block(slack).dim == d

    def test_dangling_block_reference(self):
        b = ProblemBuilder()
        b.add_scalar("x")
        b.add_scalar_eq({"nope": 1.0}, 0.0)
        with pytest.raises(ValueError, match="unknown block"):
            b.build()

    @pytest.mark.parametrize("add", [
        lambda b: b.minimize({"X": 1.0}),
        lambda b: b.add_objective("X", 2.0),
        lambda b: b.add_scalar_eq({"X": 1.0}, 1.0),
        lambda b: b.add_scalar_eq({"X": np.eye(2)}, 1.0),
        lambda b: b.add_operator_eq([scalar_term("X", np.eye(2))], np.eye(2)),
    ], ids=["minimize", "objective", "scalar-eq", "matrix-eq", "scalar-term"])
    def test_coefficient_must_match_block_dimension(self, add):
        # a number on a matrix block used to mean its (0, 0) entry
        b = ProblemBuilder()
        b.add_psd_block("X", 3)
        with pytest.raises(ValueError, match="dimension"):
            add(b)

    def test_dimension_mismatch(self):
        b = ProblemBuilder()
        b.add_psd_block("X", 3)
        with pytest.raises(ValueError):
            b.add_operator_eq([full_term("X")], np.zeros((2, 2), dtype=complex))

    def test_size_guardrail(self):
        b = ProblemBuilder()
        b.add_psd_block("huge", 131)   # one past the guardrail of 130
        b.add_scalar_eq({"huge": np.eye(131)}, 1.0)
        with pytest.raises(ValueError, match="dimension 131"):
            b.build()
        b2 = ProblemBuilder(allow_large_blocks=True)
        b2.add_psd_block("huge", 131)
        b2.add_scalar_eq({"huge": np.eye(131)}, 1.0)
        with pytest.warns(RuntimeWarning):
            b2.build()


class TestPreprocessing:
    def test_redundant_rows_dropped_and_solved(self):
        b = ProblemBuilder()
        b.add_psd_block("X", 3)
        b.add_objective("X", np.diag([3.0, 1.0, 2.0]).astype(complex))
        b.add_scalar_eq({"X": np.eye(3)}, 1.0)
        b.add_scalar_eq({"X": 2.0 * np.eye(3)}, 2.0)   # same hyperplane
        sol = solve(b.build())
        assert sol.status == "optimal"
        assert len(sol.diagnostics["dropped_rows"]) == 1
        assert abs(sol.primal_objective - 1.0) <= 1e-7

    def test_inconsistent_redundancy_is_infeasible(self):
        b = ProblemBuilder()
        b.add_psd_block("X", 3)
        b.add_objective("X", np.eye(3).astype(complex))
        b.add_scalar_eq({"X": np.eye(3)}, 1.0)
        b.add_scalar_eq({"X": 2.0 * np.eye(3)}, 2.5)
        sol = solve(b.build())
        assert sol.status == "primal_infeasible_certificate"


class TestInfeasibility:
    def test_primal_infeasible_lp(self):
        b = ProblemBuilder()
        b.add_scalar("x")
        b.add_scalar("y")
        b.minimize({"x": 1.0})
        b.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0)
        b.add_scalar_eq({"x": 1.0, "y": 1.0}, 0.5)
        assert solve(b.build()).status == "primal_infeasible_certificate"

    def test_dual_infeasible_unbounded(self):
        # min -Tr X with only X11 pinned: objective unbounded below
        b = ProblemBuilder()
        b.add_psd_block("X", 2)
        b.add_objective("X", -np.eye(2).astype(complex))
        b.add_scalar_eq({"X": np.diag([1.0, 0.0]).astype(complex)}, 1.0)
        assert solve(b.build()).status == "dual_infeasible_certificate"

    def test_budgeted_exact_broadcast_below_cost_is_infeasible(self):
        # identity marginals need nu >= 5/3; a budget just below is infeasible
        d = 2
        gamma_budget = (5.0 / 3.0) ** 2 - 0.05
        b = ProblemBuilder()
        b.add_psd_block("J1", d ** 3)
        b.add_psd_block("J2", d ** 3)
        b.add_scalar("x")
        b.add_scalar("y")
        b.minimize({"x": 1.0, "y": 1.0})
        g = gamma_operator(d)
        dd = (d, d, d)
        b.add_operator_eq([ptrace_term("J1", dd, drop=(2,)),
                           ptrace_term("J2", dd, drop=(2,), scale=-1.0)], g)
        b.add_operator_eq([ptrace_term("J1", dd, drop=(1,)),
                           ptrace_term("J2", dd, drop=(1,), scale=-1.0)], g)
        b.add_operator_eq([ptrace_term("J1", dd, drop=(1, 2)),
                           scalar_term("x", np.eye(d), scale=-1.0)],
                          np.zeros((d, d), dtype=complex))
        b.add_operator_eq([ptrace_term("J2", dd, drop=(1, 2)),
                           scalar_term("y", np.eye(d), scale=-1.0)],
                          np.zeros((d, d), dtype=complex))
        b.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0)
        b.add_scalar_ineq({"x": 1.0, "y": 1.0}, np.sqrt(gamma_budget))
        sol = solve(b.build())
        assert sol.status == "primal_infeasible_certificate"


class TestCertificates:
    def test_certificate_passes_at_optimum(self):
        rng = np.random.default_rng(32)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p)
        rep = check_certificate(p, sol, tol=1e-6)
        assert rep.passed is True

    def test_corrupted_solution_fails_with_primal_residual(self):
        rng = np.random.default_rng(33)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p)
        sol.x_blocks = {k: 1.01 * v for k, v in sol.x_blocks.items()}
        rep = check_certificate(p, sol, tol=1e-6)
        assert rep.passed is False
        assert rep.primal_residual > 1e-6

    def test_max_iterations_reports_no_verdict(self):
        rng = np.random.default_rng(34)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p, SolverConfig(max_iter=2))
        assert sol.status == "max_iterations"
        rep = check_certificate(p, sol, tol=1e-6)
        assert rep.passed is None
        assert np.isfinite(rep.duality_gap)


class TestNumericalProperties:
    def test_weak_duality_at_solution(self):
        rng = np.random.default_rng(35)
        p = make_trace_one_problem(random_hermitian(6, rng))
        sol = solve(p)
        assert sol.primal_objective >= sol.dual_objective - 1e-8

    def test_realification_fidelity_vs_scalar_solve(self):
        # diagonal Hermitian data: the complex-block solve must match the
        # same problem posed directly on scalar blocks
        diag = [1.5, 0.25, 3.0]
        b1 = ProblemBuilder()
        b1.add_psd_block("X", 3)
        b1.add_objective("X", np.diag(diag).astype(complex))
        b1.add_scalar_eq({"X": np.eye(3)}, 1.0)
        v1 = solve(b1.build()).primal_objective

        b2 = ProblemBuilder()
        for k, w in enumerate(diag):
            b2.add_scalar(f"x{k}")
            b2.add_objective(f"x{k}", w)
        b2.add_scalar_eq({f"x{k}": 1.0 for k in range(3)}, 1.0)
        v2 = solve(b2.build()).primal_objective
        assert abs(v1 - v2) <= 1e-8

    def test_deterministic_resolve(self):
        rng = np.random.default_rng(36)
        p = make_trace_one_problem(random_hermitian(5, rng))
        a = solve(p).primal_objective
        b = solve(p).primal_objective
        assert abs(a - b) <= 1e-10

    def test_complex_off_diagonal_data(self):
        # constraint with a genuinely complex coefficient matrix
        rng = np.random.default_rng(37)
        c = random_hermitian(3, rng)
        a1 = random_hermitian(3, rng)
        b = ProblemBuilder()
        b.add_psd_block("X", 3)
        b.add_objective("X", c)
        b.add_scalar_eq({"X": np.eye(3)}, 1.0)
        b.add_scalar_eq({"X": a1}, 0.1)
        sol = solve(b.build())
        assert sol.status == "optimal"
        x = sol.x_blocks["X"]
        assert abs(np.trace(x).real - 1.0) <= 1e-7
        assert abs(np.trace(a1 @ x).real - 0.1) <= 1e-7
        rep = check_certificate(b.build(), sol, 1e-6)
        assert rep.passed


def test_dump_problem_documented_format(tmp_path):
    d = 2
    b = ProblemBuilder()
    b.add_psd_block("Z", d * d)
    b.add_scalar("mu")
    b.minimize({"mu": 1.0})
    b.add_operator_ineq([full_term("Z")], gamma_operator(d) - np.eye(4) / 2)
    p = b.build()
    path = tmp_path / "problem.txt"
    dump_problem(p, str(path))
    lines = [ln.split() for ln in path.read_text().splitlines()
             if ln and not ln.startswith("#")]
    kinds = {ln[0] for ln in lines}
    assert kinds == {"block", "obj", "con", "rhs"}
    blocks = [ln for ln in lines if ln[0] == "block"]
    assert [bln[2] for bln in blocks][:2] == ["Z", "mu"]
    rhs = [ln for ln in lines if ln[0] == "rhs"]
    assert len(rhs) == p.n_rows
    # every con record refers to a declared block index and canonical entry
    nb = len(blocks)
    for ln in lines:
        if ln[0] == "con":
            assert 0 <= int(ln[2]) < nb
            assert int(ln[3]) <= int(ln[4])
