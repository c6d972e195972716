"""Every covariant problem on one fundamental block: the knees converge, nu
matches the closed form of the threshold surface, the dropped upper rows
hold at the optimum, and budgets below 1 are decided without a solve.  The
solver's face step finishes these problems, down to tol 1e-10."""

import math

import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast.channels import depolarizing_choi, marginal_choi
from vbroadcast.sdp import SolverConfig, solve, solver
from vbroadcast.sdp.solver import record_solves

TIGHT = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
TIGHTER = SolverConfig(tol_gap=1e-10, tol_feas=1e-10)
AXIS = [k / 8 for k in range(9)]
FINE_AXIS = [k / 40 for k in range(41)]


def surface_nu(a, b, d):
    """nu(a, b, d) in closed form, with s_k = sqrt(1 - thr_k): 1 when the
    smaller s_k is at most the larger over d, else
    max(1, 2 d^2 (s_1^2 + s_2^2 - 2 s_1 s_2 / d) / (d^2 - 1) - 1)."""
    s1, s2 = math.sqrt(1.0 - a), math.sqrt(1.0 - b)
    if min(s1, s2) <= max(s1, s2) / d:
        return 1.0
    return max(1.0, 2.0 * d * d * (s1 * s1 + s2 * s2 - 2.0 * s1 * s2 / d) / (d * d - 1) - 1.0)


@pytest.mark.parametrize("d", list(range(2, 61)) + [100, 1000])
def test_knee_is_certified_optimal(d):
    # (1 - 1/d^2, 0), where nu first reaches 1
    res = bc.approx_overhead((1.0 - 1.0 / d ** 2, 0.0), d, config=TIGHT)
    assert res.status == "optimal" and res.certificate.passed is True
    assert abs(res.nu - 1.0) <= 1e-8


@pytest.mark.parametrize("thresholds, d", [
    *[(pair, 2) for a, b in ((0.0, 0.75), (0.0, 0.875), (0.125, 0.75))
      for pair in ((a, b), (b, a))],
    *[((1.0 - 1.0 / d ** 2, 0.0), d) for d in range(3, 11)]])
def test_first_face_step_finishes(thresholds, d):
    # the regime boundary min(s1, s2) = max(s1, s2)/d and the knees: the
    # Newton rounds of the first face step converge quadratically, and
    # FACE_ROUNDS lets them reach tol 1e-9
    with record_solves() as log:
        res = bc.approx_overhead(thresholds, d, config=TIGHT)
    sol = log[-1][1]
    assert res.status == "optimal" and res.certificate.passed is True
    assert sol.diagnostics["face_steps"] == 1 and sol.diagnostics["face_accepted"]
    assert sol.iterations <= 3


@pytest.mark.parametrize("d", [2, 3, 5, 10, 100])
def test_threshold_surface_closed_form(d):
    g = bc._gram(d)
    for a in AXIS:
        for b in AXIS:
            res = bc.approx_overhead((a, b), d, config=TIGHT)
            assert res.status == "optimal", (a, b)
            assert abs(res.nu - surface_nu(a, b, d)) <= 1e-8, (a, b)
            # the solved problem has the larger threshold on receiver 1; its
            # optimum meets the upper side 1 + thr_k that is not posed
            p = bc._block(res.solution).real
            for gk, thr in zip(g, (max(a, b), min(a, b))):
                assert gk @ p @ gk <= 1.0 + thr + 1e-9, (a, b)


@pytest.mark.parametrize("d", [2, 3, 7])
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0 - 1e-12])
def test_budget_below_one_is_infeasible_without_a_solve(d, gamma):
    with record_solves() as log:
        point = bc.min_error(gamma, d)
    assert log == []
    assert point.status == "primal_infeasible_certificate"
    assert math.isnan(point.mu) and math.isnan(point.t)
    assert point.nu is point.lift is point.solution is point.decomposition is None


@pytest.mark.parametrize("d", [2, 3, 5])
def test_budget_that_needs_no_error_lifts_to_exact_broadcasting(d):
    # P is scaled to gamma = 1, so nu is the exact-broadcasting cost
    point = bc.min_error(((3 * d - 1) / (d + 1)) ** 2 + 1.0, d, config=TIGHT)
    assert point.status == "optimal" and point.mu == 0.0
    assert abs(point.nu - (3 * d - 1) / (d + 1)) <= 1e-8
    if d <= 3:
        dec = point.decomposition
        dec.validate(tol=1e-6)
        assert abs(dec.nu - point.nu) <= 1e-12


@pytest.mark.parametrize("t", [-1.0, -0.2, 0.3, 1.5])
def test_depolarizing_marginals_are_exact(t):
    # the lift scales P to the pinned gamma, on both branches
    d = 2
    res = bc.depolarizing_overhead(t, d, config=TIGHT)
    dec = res.decomposition
    dec.validate(tol=1e-6)
    want = depolarizing_choi(t, d).op
    for drop in (1, 2):
        got = marginal_choi(dec.difference(), drop=drop).op
        assert np.max(np.abs(got - want)) <= 1e-12, drop
    assert abs(dec.nu - res.nu) <= 1e-8


@pytest.mark.parametrize("d", list(range(2, 61)) + [100, 1000])
def test_knee_at_tol_1e_10(d):
    res = bc.approx_overhead((1.0 - 1.0 / d ** 2, 0.0), d, config=TIGHTER)
    assert res.status == "optimal" and res.certificate.passed is True
    assert abs(res.nu - 1.0) <= 1e-8


@pytest.mark.parametrize("d", [2, 3, 100])
def test_fine_grid_at_tol_1e_10(d):
    # the 861 points a >= b of the 41 x 41 grid
    for i, a in enumerate(FINE_AXIS):
        for b in FINE_AXIS[:i + 1]:
            res = bc.approx_overhead((a, b), d, config=TIGHTER)
            assert res.status == "optimal", (a, b)
            assert abs(res.nu - surface_nu(a, b, d)) <= 1e-8, (a, b)


def test_two_receiver_block_points_finish_on_the_face():
    # the 9 x 9 grid's points with unequal floors below (d - 1)/(2d) keep the
    # 2 x 2 block; a face step finishes each
    iterations = []
    for a in AXIS:
        for b in AXIS:
            sol = bc.approx_overhead((a, b), 2, config=TIGHT).solution
            if "P" in sol.x_blocks:
                assert sol.status == "optimal" and sol.diagnostics["face_accepted"], (a, b)
                iterations.append(sol.iterations)
    assert len(iterations) == 30
    assert np.mean(iterations) <= 5


@pytest.mark.parametrize("call", [lambda: bc.approx_overhead((1.0, 1.0), 2, config=TIGHT),
                                  lambda: bc.depolarizing_overhead(4 / 3, 2, config=TIGHT)],
                         ids=["approx-1-1", "depolarizing-4/3"])
def test_zero_floor_is_quick(call):
    # the floor 0 puts the primal optimum at the origin, with a multiplier
    # that the face does not determine
    res = call()
    assert res.status == "optimal" and res.nu == 1.0
    assert res.solution.iterations <= 4


def iterate_with_score(problem, score, monkeypatch):
    """The solver's iterate (x, s, y) of ``problem`` and its score, run with
    no face step until max(pres, dres, relgap) is at most ``score``."""
    monkeypatch.setattr(solver, "FACE_TRIGGER", 0.0)
    for max_iter in range(1, 40):
        sol = solve(problem, SolverConfig(tol_gap=1e-10, tol_feas=1e-10, max_iter=max_iter))
        diag = sol.diagnostics
        reached = max(diag["primal_residual"], diag["dual_residual"], diag["relative_gap"])
        if reached <= score:
            return problem.vector(sol.x_blocks), problem.vector(sol.s_blocks), sol.y, reached
    raise AssertionError("the iteration did not reach the score")


@pytest.mark.parametrize("thresholds", [(0.0, 0.5), (0.0, 1.0)],
                         ids=["two-active-rows", "one-active-row"])
def test_one_face_step_reaches_tol_1e_10(thresholds, monkeypatch):
    # a rank-one 2 x 2 block P; at (0, 0.5) both floors are active, and the
    # face has fewer dimensions than rows, so P's eigenvectors must move
    with record_solves() as log:
        bc.approx_overhead(thresholds, 2, config=TIGHT)
    problem = log[-1][0]
    x, s, y, score = iterate_with_score(problem, 1e-3, monkeypatch)
    rows = solver._rows(problem)
    assert rows.presolve.dropped == []
    step = solver._face_step(problem, rows, problem.b, (x, s, y, 1.0, 0.0), score, TIGHTER)
    assert step is not None
    x, s, y, tau, kappa = step
    assert (tau, kappa) == (1.0, 0.0)
    a, b, c = problem.a, problem.b, problem.c
    assert np.linalg.norm(a @ x - b) <= 1e-10 * (1.0 + np.linalg.norm(b))
    assert np.linalg.norm(a.T @ y + s - c) <= 1e-10 * (1.0 + np.linalg.norm(c))
    assert abs(c @ x - b @ y) <= 1e-10 * (1.0 + abs(c @ x) + abs(b @ y))
    for vec in (x, s):
        lowest = min(np.linalg.eigvalsh(m)[0] for m in problem.cone.blocks(vec).values())
        assert lowest >= -1e-10 * (1.0 + np.abs(vec).max())
