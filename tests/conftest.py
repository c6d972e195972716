from dataclasses import replace

import pytest

from vbroadcast import broadcasting as bc
from vbroadcast import diamond


@pytest.fixture
def corrupted_solves(monkeypatch):
    """Every broadcasting and diamond-norm solve returns its optimum scaled by
    1.01, the corrupted solution of acceptance criterion 11."""
    real_solve = bc.solve

    def solve(problem, config=None):
        sol = real_solve(problem, config)
        return replace(sol, x_blocks={k: 1.01 * v for k, v in sol.x_blocks.items()})

    monkeypatch.setattr(bc, "solve", solve)
    monkeypatch.setattr(diamond, "solve", solve)
