import math
from dataclasses import replace

import numpy as np
import pytest

import dense_oracle
from vbroadcast import broadcasting as bc
from vbroadcast.channels import (
    ChoiOperator,
    canonical_broadcast_choi,
    depolarizing_choi,
    gamma_operator,
    marginal_choi,
)
from vbroadcast.diamond import diamond_problem, half_diamond_distance
from vbroadcast.linalg import partial_trace, random_hermitian
from vbroadcast.sdp import SolverConfig, SolverFailure, check_certificate, dump_problem
from vbroadcast.sdp.solver import record_solves


def random_hptp(dims, seed):
    """A seeded random Hermitian map on (B, outputs...) shifted to be trace
    preserving; it is not completely positive."""
    d, dout = dims[0], math.prod(dims[1:])
    h = random_hermitian(d * dout, np.random.default_rng(seed))
    h -= np.kron(partial_trace(h, (d, dout), drop=1) - np.eye(d), np.eye(dout)) / dout
    return ChoiOperator(h, d, dims[1:])


FIXED_MAPS = {
    "depolarizing": lambda: depolarizing_choi(0.5, 2),
    "mixture": lambda: ChoiOperator(0.5 * depolarizing_choi(0.0, 2).op
                                    + 0.5 * depolarizing_choi(1.0, 2).op, 2, (2,)),
    "canonical-2": lambda: canonical_broadcast_choi(2, 0.0),
    "canonical-2-0.3": lambda: canonical_broadcast_choi(2, 0.3),
    "canonical-3": lambda: canonical_broadcast_choi(3, 0.0),
    "random-one-output": lambda: random_hptp((2, 2), 11),
    "random-two-outputs": lambda: random_hptp((2, 2, 2), 12),
}


class TestOverheadOfMap:
    @pytest.mark.parametrize("name", FIXED_MAPS)
    def test_matches_dense_decomposition_sdp(self, name):
        j = FIXED_MAPS[name]()
        res = bc.overhead_of_map(j)
        assert res.status == "optimal"
        assert abs(res.nu - dense_oracle.overhead_of_map(j)) <= 1e-7
        res.decomposition.validate(tol=1e-6)
        assert np.linalg.norm(res.decomposition.difference().op - j.op) <= 1e-6
        diagnostics = res.solution.diagnostics
        assert diagnostics["n_rows_original"] == diagnostics["n_rows_solved"]

    def test_rejects_a_map_that_is_not_trace_preserving(self):
        j = ChoiOperator(1.01 * depolarizing_choi(0.5, 2).op, 2, (2,))
        with pytest.raises(ValueError, match="not trace preserving"):
            bc.overhead_of_map(j)

    def test_physical_channel_costs_one(self):
        res = bc.overhead_of_map(depolarizing_choi(0.5, 2))
        assert res.status == "optimal"
        assert abs(res.nu - 1.0) <= 1e-6
        assert res.decomposition.y <= 1e-6

    def test_channel_mixture_costs_one(self):
        j = ChoiOperator(0.5 * depolarizing_choi(0.0, 2).op
                         + 0.5 * depolarizing_choi(1.0, 2).op, 2, (2,))
        res = bc.overhead_of_map(j)
        assert abs(res.nu - 1.0) <= 1e-6

    def test_canonical_broadcaster_is_bounded_by_optimum(self):
        res = bc.overhead_of_map(canonical_broadcast_choi(2, 0.0))
        assert res.status == "optimal"
        assert res.certificate.passed
        # a particular broadcasting map can never beat the optimum over all
        assert res.nu >= 5.0 / 3.0 - 1e-6

    def test_map_too_large_to_solve_is_refused_before_the_presolve(self, no_presolve):
        # a block of only 125, but every m x m array of its solve is about 2 GB
        j = canonical_broadcast_choi(5)
        assert diamond_problem(j).n_rows == 15650
        with record_solves() as log:
            with pytest.raises(ValueError, match=r"rows 15650, largest block 125\) exceeds"):
                bc.overhead_of_map(j)
        assert log == []


class TestExactOverhead:
    def test_qubit_value(self):
        res = bc.exact_overhead(2)
        assert abs(res.nu - 5.0 / 3.0) <= 1e-6
        assert abs(res.s - 25.0 / 9.0) <= 1e-5
        assert not res.sample_efficient

    def test_decomposition_is_broadcasting(self):
        res = bc.exact_overhead(2)
        res.decomposition.validate(tol=1e-6)
        diff = res.decomposition.difference()
        g = gamma_operator(2)
        assert np.linalg.norm(marginal_choi(diff, 1).op - g) <= 1e-5
        assert np.linalg.norm(marginal_choi(diff, 2).op - g) <= 1e-5


class TestApproxOverhead:
    def test_zero_thresholds_reduce_to_exact(self):
        res = bc.approx_overhead((0.0, 0.0), 2)
        assert abs(res.nu - 5.0 / 3.0) <= 1e-6

    def test_max_noise_is_free(self):
        delta = (2 ** 2 - 1) / 2 ** 2   # 0.75: the fully depolarizing point
        res = bc.approx_overhead((delta, delta), 2)
        assert abs(res.nu - 1.0) <= 1e-6

    def test_figure_read_budget_point(self):
        res = bc.approx_overhead((0.12, 0.12), 2)
        assert abs(res.nu - math.sqrt(1.8)) <= 0.03

    def test_marginal_errors_respect_thresholds(self):
        thr = 0.2
        res = bc.approx_overhead((thr, thr), 2)
        diff = res.decomposition.difference()
        g = gamma_operator(2)
        for m in (1, 2):
            phi = ChoiOperator(marginal_choi(diff, drop=3 - m).op - g, 2, (2,))
            val = half_diamond_distance(phi, lower_bound_samples=1).value
            assert val <= thr + 1e-5

    def test_unequal_thresholds_solve_the_mirror_exactly(self):
        # a < b is solved as (b, a) with the receivers exchanged back
        a, b = 0.05, 0.3
        res, mirror = bc.approx_overhead((a, b), 2), bc.approx_overhead((b, a), 2)
        assert res.status == mirror.status == "optimal"
        assert res.nu == mirror.nu
        diff = res.decomposition.difference()
        g = gamma_operator(2)
        for m, thr in ((1, a), (2, b)):
            phi = ChoiOperator(marginal_choi(diff, drop=3 - m).op - g, 2, (2,))
            val = half_diamond_distance(phi, lower_bound_samples=1).value
            assert val <= thr + 1e-5, m

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            bc.approx_overhead((1.5, 0.0), 2)


class TestDepolarizingReduction:
    def test_zero_noise_is_exact(self):
        assert abs(bc.approx_overhead_depolarizing(0.0, 2).nu - 5.0 / 3.0) <= 1e-6

    def test_matches_full_formulation(self):
        full = bc.approx_overhead((0.12, 0.12), 2).nu
        red = bc.approx_overhead_depolarizing(0.12, 2).nu
        assert abs(full - red) <= 1e-5

    def test_noise_clamp_beyond_depolarizing(self):
        res = bc.approx_overhead_depolarizing(0.9, 2)   # t clamps at 1
        assert res.t == 1.0
        assert abs(res.nu - 1.0) <= 1e-6


class TestFixedMarginalOverhead:
    def test_full_noise_costs_one(self):
        assert abs(bc.depolarizing_overhead(1.0, 2).nu - 1.0) <= 1e-7

    def test_zero_noise_matches_exact(self):
        assert abs(bc.depolarizing_overhead(0.0, 2).nu - 5.0 / 3.0) <= 1e-6

    def test_monotone_sample(self):
        z3 = bc.depolarizing_overhead(0.3, 2).nu
        z1 = bc.depolarizing_overhead(0.1, 2).nu
        z0 = bc.depolarizing_overhead(0.0, 2).nu
        assert z3 <= z1 + 1e-6 <= z0 + 2e-6


COVARIANT_ENTRY_POINTS = {
    "exact_overhead": lambda d: bc.exact_overhead(d),
    "approx_overhead": lambda d: bc.approx_overhead((0.1, 0.1), d),
    "approx_overhead_depolarizing": lambda d: bc.approx_overhead_depolarizing(0.1, d),
    "depolarizing_overhead": lambda d: bc.depolarizing_overhead(0.1, d),
    "min_error": lambda d: bc.min_error(1.0, d),
}


class TestInputValidation:
    @pytest.mark.parametrize("d", [0, 1, 2.5, -3, "3"])
    @pytest.mark.parametrize("entry", sorted(COVARIANT_ENTRY_POINTS))
    def test_dimension_is_an_integer_of_at_least_two(self, entry, d):
        # d = 1 and 2.5 used to return "optimal", 0 a ZeroDivisionError
        with pytest.raises(ValueError, match="is not an integer >= 2"):
            COVARIANT_ENTRY_POINTS[entry](d)

    @pytest.mark.parametrize("entry", sorted(COVARIANT_ENTRY_POINTS))
    def test_numpy_integer_dimension_is_accepted(self, entry):
        assert COVARIANT_ENTRY_POINTS[entry](np.int64(2)).status == "optimal"

    @pytest.mark.parametrize("gamma", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
    def test_budget_is_finite_and_nonnegative(self, gamma):
        with pytest.raises(ValueError, match="is not a finite number >= 0"):
            bc.min_error(gamma, 2)

    def test_zero_budget_is_infeasible(self):
        assert bc.min_error(0.0, 2).status == "primal_infeasible_certificate"

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_noise_is_finite(self, t):
        # used to build the SDP and end in SolverFailure after NaN arithmetic
        with pytest.raises(ValueError, match="is not a finite number"):
            bc.depolarizing_overhead(t, 2)


class TestMinError:
    def test_channel_budget_anchor(self):
        p = bc.min_error(1.0, 2)
        assert abs(p.mu - 0.25) <= 1e-4
        assert abs(p.t - 1.0 / 3.0) <= 1e-3

    def test_exact_budget_needs_no_error(self):
        for d in (2, 3):
            gamma = ((3 * d - 1) / (d + 1)) ** 2
            p = bc.min_error(gamma, d)
            assert p.mu <= 1e-5

    def test_budget_below_one_infeasible(self):
        p = bc.min_error(0.8, 2)
        assert p.status == "primal_infeasible_certificate"
        assert math.isnan(p.mu)

    def test_budget_constraint_active(self):
        p = bc.min_error(1.8, 2)
        assert (p.decomposition.nu) ** 2 <= 1.8 + 1e-6

    def test_inverse_consistency(self):
        for gamma in (1.2, 1.5, 1.8, 2.0):
            mu = bc.min_error(gamma, 2).mu
            s = bc.approx_overhead_depolarizing(mu, 2).s
            assert s <= gamma + 1e-4


class TestExplicitConstruction:
    def test_reference_numbers_at_budget_two(self):
        dec, delta, rep = bc.discard_prepare_point(2.0, 2)
        assert abs(dec.x - (math.sqrt(2) + 1) / 2) <= 1e-12
        assert abs(dec.y - (math.sqrt(2) - 1) / 2) <= 1e-12
        assert abs(dec.nu - math.sqrt(2)) <= 1e-12
        assert abs(delta - 0.75 * (3 - math.sqrt(2)) / 4) <= 1e-12
        assert abs(rep["t"] - (3 - math.sqrt(2)) / 4) <= 1e-12

    def test_budget_one_is_physical(self):
        dec, delta, rep = bc.discard_prepare_point(1.0, 2)
        assert dec.y == 0.0
        assert np.linalg.norm(dec.j2.op) <= 1e-12
        assert abs(delta - 0.75 * 0.5) <= 1e-12

    def test_budget_nine_is_exact(self):
        d = 2
        dec, delta, rep = bc.discard_prepare_point(9.0, d)
        assert abs(delta) <= 1e-12
        diff = dec.difference()
        g = gamma_operator(d)
        assert np.linalg.norm(marginal_choi(diff, 1).op - g) <= 1e-12
        assert np.linalg.norm(marginal_choi(diff, 2).op - g) <= 1e-12

    def test_marginals_are_depolarizing(self):
        d = 3
        gamma = 1.5
        dec, _, rep = bc.discard_prepare_point(gamma, d)
        assert rep["marginal1_residual"] <= 1e-12
        assert rep["marginal2_residual"] <= 1e-12
        lam = depolarizing_choi(rep["t"], d).op
        got = marginal_choi(dec.difference(), drop=2).op
        np.testing.assert_allclose(got, lam, atol=1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bc.discard_prepare_point(0.5, 2)
        with pytest.raises(ValueError):
            bc.discard_prepare_point(9.5, 2)

    @pytest.mark.parametrize("d", [2.5, 1, 2.0])
    def test_dimension_validation(self, d):
        # d = 2.5 used to reach numpy and raise its TypeError
        with pytest.raises(ValueError, match="not an integer >= 2"):
            bc.discard_prepare_point(2.0, d)


class TestUpperBound:
    def test_dimension_free_cap(self):
        # large-d limit of the coefficient is 1
        assert abs(bc.min_error_upper_bound(2.0, 10 ** 3)
                   - (3 - math.sqrt(2)) / 4) <= 1e-5

    def test_exact_budget_gives_zero(self):
        assert bc.min_error_upper_bound(9.0, 5) == 0.0
        assert bc.min_error_upper_bound(16.0, 5) == 0.0

    def test_qubit_value_and_ordering(self):
        bound = bc.min_error_upper_bound(1.8, 2)
        assert abs(bound - 0.75 * (3 - math.sqrt(1.8)) / 4) <= 1e-12
        assert bc.min_error(1.8, 2).mu <= bound + 1e-6

    def test_budget_below_one_rejected(self):
        with pytest.raises(ValueError):
            bc.min_error_upper_bound(0.5, 2)

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
    def test_non_finite_budget_rejected(self, gamma):
        # nan used to return 0.0, a bound claiming that no error is needed
        with pytest.raises(ValueError, match="not a finite number"):
            bc.min_error_upper_bound(gamma, 2)

    @pytest.mark.parametrize("d", [1, 2.5, 0, "2"])
    def test_dimension_validation(self, d):
        # d = 1 used to return 0.0 and d = 2.5 a number
        with pytest.raises(ValueError, match="not an integer >= 2"):
            bc.min_error_upper_bound(1.8, d)


def test_overhead_result_decomposition_invariants():
    res = bc.approx_overhead((0.1, 0.1), 2)
    report = res.decomposition.validate(tol=1e-6)
    assert report["min_eig_j1"] >= -1e-6
    assert abs(res.nu - res.decomposition.nu) <= 1e-7
    assert res.s == res.nu ** 2


def test_tight_config_threading():
    cfg = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
    res = bc.depolarizing_overhead(1.0, 2, config=cfg)
    assert abs(res.nu - 1.0) <= 1e-8


class TestUncertified:
    def test_failed_certificate_changes_overhead_status(self, corrupted_solves):
        res = bc.exact_overhead(2)
        assert res.status == bc.STATUS_UNCERTIFIED
        assert res.certificate.passed is False

    def test_failed_certificate_changes_tradeoff_status(self, corrupted_solves):
        point = bc.min_error(1.8, 2)
        assert point.status == bc.STATUS_UNCERTIFIED
        assert point.certificate.passed is False

    def test_passed_certificate_stays_optimal(self):
        res = bc.exact_overhead(2)
        assert res.status == "optimal" and res.certificate.passed is True


REDUCED_SOLVES = {
    "exact": lambda: bc.exact_overhead(3),
    "approx": lambda: bc.approx_overhead((0.1, 0.05), 3),
    "approx-exact-marginal": lambda: bc.approx_overhead((0.0, 0.2), 3),
    "depolarizing": lambda: bc.depolarizing_overhead(0.3, 3),
    "min-error": lambda: bc.min_error(1.8, 3),
}


def _solved(kind):
    """The (problem, solution) of one reduced solve."""
    with record_solves() as log:
        REDUCED_SOLVES[kind]()
    (pair,) = log
    return pair


class TestRowLabels:
    @pytest.mark.parametrize("kind", REDUCED_SOLVES)
    def test_every_row_is_named(self, kind):
        problem, _ = _solved(kind)
        named = np.zeros(problem.n_rows, dtype=int)
        for start, stop, _ in problem.labels:
            named[start:stop] += 1
        assert np.all(named == 1)

    def test_corrupted_solve_names_its_worst_row(self):
        problem, sol = _solved("approx")
        scaled = replace(sol, x_blocks={k: 1.01 * v for k, v in sol.x_blocks.items()})
        report = check_certificate(problem, scaled)
        assert report.passed is False
        assert report.worst_row in {label for _, _, label in problem.labels}
        assert f"worst row: {report.worst_row}" in report.details

    def test_dump_lists_every_label(self, tmp_path):
        problem, _ = _solved("approx")
        path = tmp_path / "problem.txt"
        dump_problem(problem, str(path))
        comments = path.read_text().splitlines()
        labels = {label for _, _, label in problem.labels}
        assert len(labels) == len(problem.labels) == 7
        for start, stop, label in problem.labels:
            assert f"# rows {start}-{stop - 1} {label}" in comments


KNEE_CONFIG = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)


def _status_and_nu(thresholds, d):
    try:
        res = bc.approx_overhead(thresholds, d, config=KNEE_CONFIG)
    except SolverFailure as exc:
        return exc.status, None
    return res.status, res.nu


@pytest.fixture(scope="module")
def knee_grid():
    """The 9 x 9 grid of acceptance criterion 8 at d = 2 and tol 1e-9."""
    axis = [k / 8 for k in range(9)]
    return {(a, b): _status_and_nu((a, b), 2) for a in axis for b in axis}


ULP_POINTS = [0.6 - math.ulp(0.6), 0.6, 0.6 + math.ulp(0.6)]


@pytest.fixture(scope="module")
def ulp_points():
    """(a, 0) at d = 2 and tol 1e-9 for a = 0.6 and 1 ulp either side."""
    return {a: bc.approx_overhead((a, 0.0), 2, config=KNEE_CONFIG) for a in ULP_POINTS}


class TestKnee:
    """a = 1 - 1/d^2 with b = 0, where nu first reaches 1: a degenerate
    optimum whose convergence at tol 1e-9 depends on rounding."""

    @pytest.mark.parametrize("thresholds", [(0.75, 0.0), (0.0, 0.75)])
    def test_d2_knee_is_certified_optimal(self, thresholds):
        res = bc.approx_overhead(thresholds, 2, config=KNEE_CONFIG)
        assert res.status == "optimal" and res.certificate.passed is True
        assert abs(res.nu - 1.0) <= 1e-8

    @pytest.mark.parametrize("a", ULP_POINTS)
    def test_points_one_ulp_apart_are_certified_optimal(self, ulp_points, a):
        # 0.6 + 1 ulp used to stall in numerical_failure while 0.6 converged
        res = ulp_points[a]
        assert res.status == "optimal" and res.certificate.passed is True
        assert max(abs(res.nu - other.nu) for other in ulp_points.values()) <= 1e-8

    def test_grid_is_mirror_symmetric(self, knee_grid):
        for (a, b), (status, nu) in knee_grid.items():
            mirror_status, mirror_nu = knee_grid[(b, a)]
            assert status == mirror_status, (a, b)
            if status == "optimal":
                assert abs(nu - mirror_nu) <= 1e-8, (a, b)

    def test_d3_knee_pair_shares_its_status(self):
        knee = 8 / 9
        assert _status_and_nu((knee, 0.0), 3)[0] == _status_and_nu((0.0, knee), 3)[0]
