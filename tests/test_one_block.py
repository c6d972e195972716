"""Every covariant problem on one fundamental block: the knees converge, nu
matches the closed form of the threshold surface, the dropped upper rows
hold at the optimum, and budgets below 1 are decided without a solve."""

import math

import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast.channels import depolarizing_choi, marginal_choi
from vbroadcast.sdp import SolverConfig
from vbroadcast.sdp.solver import record_solves

TIGHT = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
AXIS = [k / 8 for k in range(9)]


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
