"""The receiver-symmetric covariant problems as LPs: posed with one floor for
both receivers, on the weights of |+> and |->, they reach the status and the
optimum of the same problem posed on the 2 x 2 block P."""

import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast.sdp import STATUS_OPTIMAL, SolverConfig, solve

TIGHT = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)


def both_forms(d, floor, budget=None):
    """(LP, 2 x 2 form) of the floor ``floor`` on both receivers."""
    lp = bc._covariant_problem(d, [floor] * 2, budget)
    return lp, bc._posed(d, [floor] * 2, budget)


def assert_forms_agree(d, floor, budget=None):
    lp, reference = both_forms(d, floor, budget)
    got, want = solve(lp, TIGHT), solve(reference, TIGHT)
    assert got.status == want.status, (d, floor, budget)
    if want.status == STATUS_OPTIMAL:
        assert abs(got.primal_objective - want.primal_objective) <= 1e-9, (d, floor, budget)
    return got.status


@pytest.mark.parametrize("d", [2, 3, 4, 10])
def test_exact(d):
    assert assert_forms_agree(d, 1.0) == STATUS_OPTIMAL


@pytest.mark.parametrize("d", [2, 3, 4])
def test_noise_grid(d):
    # the floor |gamma_0| of depolarizing_overhead, both branches
    for t in np.linspace(-1.0, 1.5, 13):
        gamma = 1.0 - t + t / (d * d)
        assert assert_forms_agree(d, abs(gamma)) == STATUS_OPTIMAL, t


@pytest.mark.parametrize("d", [2, 3, 4])
def test_budget_grid(d):
    # budgets below 1 are decided without a solve (test_one_block.py)
    for gamma in (1.0, 1.5, 2.0, 3.0, 5.0, 9.0):
        assert assert_forms_agree(d, 1.0, budget=gamma) == STATUS_OPTIMAL, gamma


@pytest.mark.parametrize("d", [2, 3, 4])
def test_balanced_threshold_grid(d):
    for delta in np.linspace(0.05, 1.0, 12):
        assert assert_forms_agree(d, 1.0 - delta) == STATUS_OPTIMAL, delta


@pytest.mark.parametrize("d", [2, 3, 4])
def test_only_symmetric_problems_drop_the_hermitian_blocks(d):
    for floor, budget in ((1.0, None), (0.8, None), (1.0, 2.0)):
        lp, reference = both_forms(d, floor, budget)
        assert [n for n, _ in lp.cone.stacks] == [1]
        assert {b.name: b.dim for b in reference.blocks}["P"] == 2
    for floors in ([0.8, 1.0], [0.7, 0.9]):
        assert {b.name: b.dim for b in bc._covariant_problem(d, floors).blocks}["P"] == 2
