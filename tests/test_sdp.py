import dataclasses
import math

import numpy as np
import pytest

from vbroadcast.channels import gamma_operator
from vbroadcast.linalg import partial_trace, random_hermitian
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
from vbroadcast.sdp import solver
from vbroadcast.sdp.solver import _chol_stack, _chol_with_jitter, record_solves


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


def test_nested_recorders_keep_their_own_logs():
    # the inner log equals the outer one when it exits, so it must be removed
    # by identity: the outer log still sees the later solve
    first = make_trace_one_problem(np.diag([1.0, 2.0]).astype(complex))
    second = make_trace_one_problem(np.diag([3.0, 1.0]).astype(complex))
    with record_solves() as outer:
        with record_solves() as inner:
            solve(first)
        solve(second)
    assert [id(problem) for problem, _ in inner] == [id(first)]
    assert [id(problem) for problem, _ in outer] == [id(first), id(second)]
    assert not solver._ACTIVE_RECORDERS


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

    def test_mismatched_coefficients_rejected(self):
        p = make_trace_one_problem(np.eye(3))
        p.validate()
        with pytest.raises(ValueError, match=r"constraint coefficients have shape \(1, 8\), "
                                             r"not the \(1, 9\)"):
            dataclasses.replace(p, a=p.a[:, :8]).validate()
        with pytest.raises(ValueError, match=r"objective coefficients have shape \(10,\), "
                                             r"not the \(9,\)"):
            dataclasses.replace(p, c=np.zeros(10)).validate()

    @pytest.mark.parametrize("where, message", [
        ("rhs", "right-hand side b"),
        ("scalar", "coefficients a"),
        ("objective", "objective c"),
    ])
    def test_non_finite_data_rejected(self, where, message):
        # numbers, unlike matrices, do not pass through as_hermitian
        b = ProblemBuilder()
        b.add_psd_block("X", 2)
        b.add_scalar("t")
        b.minimize({"t": np.nan if where == "objective" else 1.0})
        b.add_scalar_eq({"X": np.eye(2), "t": np.inf if where == "scalar" else 1.0},
                        np.nan if where == "rhs" else 1.0)
        with pytest.raises(ValueError, match=f"non-finite entries in {message}"):
            b.build()

    def test_non_finite_with_b_rejected_before_the_solve(self):
        p = make_trace_one_problem(np.eye(2)).with_b([np.nan])
        with record_solves() as log:
            with pytest.raises(ValueError, match="non-finite entries in right-hand side b"):
                solve(p)
        assert log == []

    def test_large_block_with_one_row_solves(self):
        # one row: the bound on what a solve allocates is the row count
        sol = solve(make_trace_one_problem(np.diag(np.arange(131.0))))
        assert sol.status == "optimal" and abs(sol.primal_objective) <= 1e-7

    def test_size_guardrail(self, no_presolve):
        # builds at any size; refused by solve before the presolve runs
        big = make_trace_one_problem(np.eye(solver.MAX_BLOCK_DIM + 1))
        with record_solves() as log:
            with pytest.raises(ValueError, match=r"block 257\) exceeds .* block 256\)"):
                solve(big)
        assert log == []

    def test_too_many_rows_refused_before_the_presolve(self, no_presolve):
        b = ProblemBuilder()
        b.add_scalar("t")
        for _ in range(solver.MAX_ROWS + 1):
            b.add_scalar_eq({"t": 1.0}, 1.0)
        p = b.build()
        with record_solves() as log:
            with pytest.raises(ValueError, match=r"rows 6001, largest block 1\) exceeds"):
                solve(p)
        assert log == []


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
        rep = check_certificate(p, sol)
        assert rep.passed is True

    def test_corrupted_solution_fails_with_primal_residual(self):
        rng = np.random.default_rng(33)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p)
        sol.x_blocks = {k: 1.01 * v for k, v in sol.x_blocks.items()}
        rep = check_certificate(p, sol)
        assert rep.passed is False
        assert rep.primal_residual > 1e-6

    @pytest.mark.parametrize("which", ["x_blocks", "s_blocks"])
    def test_non_hermitian_block_raises(self, which):
        rng = np.random.default_rng(35)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p)
        skewed = getattr(sol, which)["X"] + 1e-3 * np.triu(np.ones((4, 4)), 1)
        setattr(sol, which, {"X": skewed})
        with pytest.raises(ValueError, match="not Hermitian"):
            check_certificate(p, sol)

    def test_max_iterations_reports_no_verdict(self):
        rng = np.random.default_rng(34)
        p = make_trace_one_problem(random_hermitian(4, rng))
        sol = solve(p, SolverConfig(max_iter=2))
        assert sol.status == "max_iterations"
        rep = check_certificate(p, sol)
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
        rep = check_certificate(b.build(), sol)
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


BLOCK_DIMS = {"A": 4, "B": 2, "x": 1, "C": 4, "D": 2}


def blocks_problem(order):
    """A problem on Hermitian blocks A, C (4 x 4), B, D (2 x 2) and a scalar
    x, declared in ``order``, with a unique optimum:
    min <C_A, A> + <C_B, B> + <C_C, C> + <C_D, D> + x with Tr_2 A = B,
    Tr A = Tr C = 1 and Tr D + x = 2."""
    rng = np.random.default_rng(41)
    dims = BLOCK_DIMS
    b = ProblemBuilder()
    for name in order:
        if dims[name] == 1:
            b.add_scalar(name)
        else:
            b.add_psd_block(name, dims[name])
    costs = {name: 1.0 if n == 1 else random_hermitian(n, rng) for name, n in dims.items()}
    for name in order:
        b.add_objective(name, costs[name])
    b.add_operator_eq([ptrace_term("A", (2, 2), drop=(1,)), full_term("B", -1.0)],
                      np.zeros((2, 2), dtype=complex))
    b.add_scalar_eq({"A": np.eye(4)}, 1.0)
    b.add_scalar_eq({"C": np.eye(4)}, 1.0)
    b.add_scalar_eq({"D": np.eye(2), "x": 1.0}, 2.0)
    return b.build()


def test_blocks_returned_in_declared_names_and_dimensions():
    # blocks of one dimension are not adjacent in the declaration; the
    # solver stacks them by dimension and must map them back by name
    mixed = solve(blocks_problem(["A", "B", "x", "C", "D"]))
    ordered = solve(blocks_problem(["A", "C", "B", "D", "x"]))
    assert mixed.status == ordered.status == "optimal"
    assert abs(mixed.primal_objective - ordered.primal_objective) <= 1e-9
    for sol in (mixed, ordered):
        for name, n in BLOCK_DIMS.items():
            assert sol.x_blocks[name].shape == sol.s_blocks[name].shape == (n, n)
    for name in BLOCK_DIMS:
        for got, want in ((mixed.x_blocks, ordered.x_blocks), (mixed.s_blocks, ordered.s_blocks)):
            assert np.max(np.abs(got[name] - want[name])) <= 1e-9
    # B is the partial trace of A in both
    np.testing.assert_allclose(mixed.x_blocks["B"],
                               partial_trace(mixed.x_blocks["A"], (2, 2), 1), atol=1e-7)


class TestBatchedCholesky:
    def test_only_the_failing_block_is_shifted(self):
        rng = np.random.default_rng(42)
        good = [random_hermitian(3, rng) + 4.0 * np.eye(3) for _ in range(2)]
        singular = np.diag([2.0, 1.0, 0.0]).astype(complex)   # PSD, plain Cholesky fails
        stack = np.stack([good[0], singular, good[1]])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(singular)
        got = _chol_stack(stack)
        assert np.array_equal(got, np.stack([_chol_with_jitter(m) for m in stack]))
        for k in (0, 2):
            assert np.array_equal(got[k], np.linalg.cholesky(stack[k]))
        shifted = singular + 1e-14 * np.eye(3)
        assert np.array_equal(got[1], np.linalg.cholesky(shifted))

    def test_failing_s_block_of_a_joint_x_s_stack_is_the_only_one_shifted(self):
        # the solver factors the X and S stacks of a dimension as one stack
        rng = np.random.default_rng(8)
        x = np.stack([random_hermitian(2, rng) + 3.0 * np.eye(2) for _ in range(3)])
        s = x[::-1].copy()
        s[1] = np.diag([1.0, 0.0])      # PSD, plain Cholesky fails
        got = _chol_stack(np.concatenate([x, s]))
        assert np.array_equal(got[:3], np.linalg.cholesky(x))
        for k in (0, 2):
            assert np.array_equal(got[3 + k], np.linalg.cholesky(s[k]))
        shifted = s[1] + 1e-14 * np.eye(2)
        assert np.array_equal(got[4], np.linalg.cholesky(shifted))

    def test_indefinite_block_raises(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
        with pytest.raises(np.linalg.LinAlgError):
            _chol_stack(stack)

    def test_solver_reports_iterate_outside_the_cone(self, monkeypatch):
        # every stack the solver factors is made indefinite
        real = solver._chol_stack
        monkeypatch.setattr(solver, "_chol_stack",
                            lambda m: real(m - 2.0 * np.abs(m).sum() * np.eye(m.shape[-1])))
        sol = solve(blocks_problem(["A", "B", "x", "C", "D"]))
        assert sol.status == "numerical_failure"
        assert "iterate left the cone" in sol.diagnostics["note"]


class TestSolverConfig:
    @pytest.mark.parametrize("name", ["tol_gap", "tol_feas"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, math.nan, math.inf, -math.inf, "1e-9", None])
    def test_tolerance_must_be_finite_and_positive(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            SolverConfig(**{name: value})

    @pytest.mark.parametrize("value", [0, -3, 2.5, 10.0, True, "10", None])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, value):
        with pytest.raises(ValueError, match="max_iter must be an integer >= 1"):
            SolverConfig(max_iter=value)

    def test_valid_values_are_kept(self):
        cfg = SolverConfig(tol_gap=np.float64(1e-3), tol_feas=1, max_iter=np.int64(1))
        assert (cfg.tol_gap, cfg.tol_feas, cfg.max_iter) == (1e-3, 1, 1)
        assert SolverConfig() == SolverConfig(1e-8, 1e-8, 200)
