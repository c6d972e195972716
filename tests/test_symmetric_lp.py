"""The receiver-symmetric covariant problems as LPs: posed with one range for
both receivers, on the weights of |+> and |->, they reach the status and the
optimum of the same problem posed with a 2 x 2 block P per J."""

import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast.sdp import STATUS_OPTIMAL, STATUS_PRIMAL_INFEASIBLE, SolverConfig, solve

TIGHT = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)


def both_forms(d, rng, budget=None):
    """(LP, 2 x 2 form) of the range ``rng`` on both receivers."""
    lp = bc._covariant_problem(d, [rng] * 2, budget)
    return lp, bc._posed(d, [rng] * 2, budget)


def assert_forms_agree(d, rng, budget=None):
    lp, reference = both_forms(d, rng, budget)
    got, want = solve(lp, TIGHT), solve(reference, TIGHT)
    assert got.status == want.status, (d, rng, budget)
    if want.status == STATUS_OPTIMAL:
        assert abs(got.primal_objective - want.primal_objective) <= 1e-9, (d, rng, budget)
    return got.status


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_exact(d):
    assert assert_forms_agree(d, (1.0, 1.0)) == STATUS_OPTIMAL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_noise_grid(d):
    for t in np.linspace(-1.0, d * d / (d * d - 1.0), 13):
        gamma = 1.0 - t + t / (d * d)
        assert assert_forms_agree(d, (gamma, gamma)) == STATUS_OPTIMAL, t


@pytest.mark.parametrize("d", [2, 3, 4])
def test_budget_grid(d):
    for gamma in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 9.0):
        status = assert_forms_agree(d, (1.0, 1.0), budget=gamma)
        assert status == (STATUS_PRIMAL_INFEASIBLE if gamma < 1.0 else STATUS_OPTIMAL), gamma


@pytest.mark.parametrize("d", [2, 3, 4])
def test_balanced_threshold_grid(d):
    for delta in np.linspace(0.05, 1.0, 12):
        assert assert_forms_agree(d, (1.0 - delta, 1.0 + delta)) == STATUS_OPTIMAL, delta


@pytest.mark.parametrize("d", [2, 3, 4])
def test_only_symmetric_problems_drop_the_hermitian_blocks(d):
    for rng, budget in (((1.0, 1.0), None), ((0.8, 1.2), None), ((1.0, 1.0), 2.0)):
        lp, reference = both_forms(d, rng, budget)
        assert [n for n, _ in lp.cone.stacks] == [1]
        dims = {b.name: b.dim for b in reference.blocks}
        assert (dims["P1"], dims["P2"]) == (2, 2)
    for ranges in ([(0.8, 1.2), (1.0, 1.0)], [(0.7, 1.3), (0.9, 1.1)]):
        dims = {b.name: b.dim for b in bc._covariant_problem(d, ranges).blocks}
        assert (dims["P1"], dims["P2"]) == (2, 2)
