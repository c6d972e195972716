"""The library runs on numpy alone.  Its three kernels that used to come from
scipy are checked against scipy here, which the tests may still import: the
CSR constraint matrix against ``scipy.sparse.csr_matrix``, the presolve's
pivoted Cholesky against LAPACK's ``dpstrf``, and the blocked triangular
solve against ``scipy.linalg.solve_triangular``."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from vbroadcast.sdp import solver
from vbroadcast.sdp.csr import Csr
from vbroadcast.sdp.solver import PRESOLVE_TOL, _independent_rows, _Triangular

SRC = Path(__file__).resolve().parent.parent / "src"

GUARD = """
import sys
sys.path.insert(0, sys.argv[1])
import vbroadcast
from vbroadcast import cli, diamond
from vbroadcast.channels import ChoiOperator, gamma_operator, replacement_choi
vbroadcast.exact_overhead(2)
diamond.half_diamond_distance(ChoiOperator(gamma_operator(3) - replacement_choi(3).op, 3, (3,)))
assert cli.main(["exact", "--dim", "2"]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_import_and_solves_load_no_scipy():
    done = subprocess.run([sys.executable, "-c", GUARD, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "[]"


# -- CSR ---------------------------------------------------------------------

# at most 16 triplets, so that no row has more than 16 entries: scipy sorts a
# row's entries with std::sort, which keeps the given order of equal columns
# only up to that length, and so sums three or more duplicates in an order
# of its own beyond it
@st.composite
def triplets(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    size = draw(st.integers(0, 16))
    rows = draw(st.lists(st.integers(0, m - 1), min_size=size, max_size=size))
    cols = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
    vals = draw(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                                   st.floats(-1e3, 1e3, allow_nan=False)),
                         min_size=size, max_size=size))
    return (m, n), rows, cols, vals


def assert_same_csr(got: Csr, want) -> None:
    assert got.shape == want.shape and got.nnz == want.nnz
    for name in ("data", "indices", "indptr"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@settings(max_examples=150, deadline=None)
@given(triplets(), st.integers(0, 2 ** 32 - 1))
def test_csr_matches_scipy(case, seed):
    shape, rows, cols, vals = case
    got = Csr.from_triplets(rows, cols, vals, shape)
    want = sp.csr_matrix((np.array(vals, dtype=float), (rows, cols)), shape=shape)
    assert_same_csr(got, want)
    assert_same_csr(got.T, want.T.tocsr())
    assert np.array_equal(got.toarray(), want.toarray())

    rng = np.random.default_rng(seed)
    m, n = shape
    x, y = rng.standard_normal(n), rng.standard_normal(m)
    mat = rng.standard_normal((n, 3))
    np.testing.assert_allclose(got @ x, want @ x, rtol=1e-14, atol=1e-12)
    np.testing.assert_allclose(got.T @ y, want.T @ y, rtol=1e-14, atol=1e-12)
    np.testing.assert_allclose(got @ mat, want @ mat, rtol=1e-14, atol=1e-12)
    np.testing.assert_allclose(got.gram(), (want @ want.T).toarray(),
                               rtol=1e-14, atol=1e-10)

    picked = rng.integers(0, m, rng.integers(0, 2 * m + 1))
    assert np.array_equal(got[picked].toarray(), want[picked].toarray())
    lo, hi = sorted(rng.integers(0, n + 1, 2))
    part = got[:, lo:hi]
    assert part.shape == (m, hi - lo)
    assert np.array_equal(part.toarray(), want[:, lo:hi].toarray())
    np.testing.assert_allclose(part @ x[lo:hi], part.toarray() @ x[lo:hi],
                               rtol=1e-14, atol=1e-12)


def test_empty_csr_matches_scipy():
    empty = Csr.from_triplets([], [], [], (3, 4))
    assert_same_csr(empty, sp.csr_matrix((3, 4)))
    assert np.array_equal(empty @ np.ones(4), np.zeros(3))
    assert np.array_equal(empty.gram(), np.zeros((3, 3)))


def test_csr_refuses_what_it_does_not_offer():
    a = Csr.from_triplets([0, 1], [0, 2], [1.0, 2.0], (2, 3))
    with pytest.raises(ValueError, match="out of range"):
        Csr.from_triplets([2], [0], [1.0], (2, 3))
    with pytest.raises(ValueError, match="cannot multiply"):
        a @ np.ones(2)
    with pytest.raises(TypeError):
        a[0, 1]
    with pytest.raises(TypeError):
        a[:, ::2]


# -- presolve ------------------------------------------------------------------

class Captured(Exception):
    pass


def presolve_structures(monkeypatch):
    """The constraint matrices of the dense oracles (d = 2 and 3, the
    sizes a tier-1 run solves in seconds), captured where the solver's
    presolve receives them."""
    captured = []

    def capture(a):
        captured.append(a)
        raise Captured

    calls = [lambda d: dense_oracle.exact_overhead(d),
             lambda d: dense_oracle.approx_overhead((0.1, 0.2), d),
             lambda d: dense_oracle.depolarizing_overhead(0.3, d),
             lambda d: dense_oracle.min_error(1.8, d)]
    with monkeypatch.context() as patched:
        patched.setattr(solver, "_independent_rows", capture)
        for d in (2, 3):
            for call in calls:
                with pytest.raises(Captured):
                    call(d)
    return captured


def dpstrf_rows(gram):
    tol = PRESOLVE_TOL * max(float(gram.diagonal().max(initial=0.0)), 1e-300)
    _, piv, r, _ = sla.lapack.dpstrf(gram, tol=tol, lower=1)
    return sorted(piv[:r] - 1), sorted(piv[r:] - 1)


def test_presolve_keeps_the_rows_of_dpstrf_on_the_oracles(monkeypatch):
    presolves = [(a, _independent_rows(a)) for a in presolve_structures(monkeypatch)]
    assert any(pre.dropped for _, pre in presolves)
    for a, pre in presolves:
        kept, dropped = dpstrf_rows(a.gram())
        assert len(pre.kept) == len(kept) and len(pre.dropped) == len(dropped)
        # pivots that tie in exact arithmetic are decided by rounding, in
        # either implementation; the rows kept must span the dropped ones
        rows = a.toarray()
        rank = np.linalg.matrix_rank(rows)
        assert np.linalg.matrix_rank(rows[pre.kept]) == len(pre.kept) == rank
        if a.shape[0] < 100:
            assert (pre.kept, pre.dropped) == (kept, dropped)


@pytest.mark.parametrize("n, rank", [(1, 1), (3, 2), (40, 25), (64, 64), (65, 40),
                                     (200, 150), (300, 299)])
def test_presolve_keeps_the_rows_of_dpstrf_on_random_grams(n, rank):
    rng = np.random.default_rng(n + rank)
    rows = rng.standard_normal((rank, 2 * n)) * rng.uniform(0.1, 10.0, (rank, 1))
    a = Csr.from_triplets(*np.indices((n, 2 * n)).reshape(2, -1),
                          (rng.standard_normal((n, rank)) @ rows).ravel(), (n, 2 * n))
    pre = _independent_rows(a)
    assert (pre.kept, pre.dropped) == dpstrf_rows(a.gram())
    b = a @ rng.standard_normal(2 * n)
    assert pre.inconsistency(b) <= 1e-12
    if pre.dropped:
        b[pre.dropped[0]] += 1.0
        assert pre.inconsistency(b) > 1e-8


# -- triangular solves ----------------------------------------------------------

@pytest.mark.parametrize("m", [1, 2, 5, 20, 64, 65, 272, 1000])
def test_triangular_solve_matches_scipy(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, m))
    lower = np.linalg.cholesky(a @ a.T + m * np.eye(m))
    tri = _Triangular(lower)
    for _ in range(3):
        rhs = rng.standard_normal(m)
        w = sla.solve_triangular(lower, rhs, lower=True)
        x = sla.solve_triangular(lower.T, w, lower=False)
        assert np.abs(tri.lower_solve(rhs) - w).max() <= 1e-12 * np.abs(w).max()
        assert np.abs(tri.solve(rhs) - x).max() <= 1e-12 * np.abs(x).max()
