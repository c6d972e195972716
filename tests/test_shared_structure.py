"""Problems built once per structure: ``SdpProblem.with_b`` and the cached
covariant and norm-SDP structures equal a fresh build byte for byte, share
the presolve and the block rows, and never skip validation."""

import dataclasses
import math

import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast import diamond
from vbroadcast.channels import ChoiOperator
from vbroadcast.linalg import random_hermitian
from vbroadcast.sdp import ProblemBuilder, SolverConfig, full_term, ptrace_term, scalar_term
from vbroadcast.sdp import solver
from vbroadcast.sdp.csr import Csr
from vbroadcast.sdp.solver import record_solves, solve


def fresh_covariant(d, floors, budget=None):
    """The covariant problem as the builder writes it, right-hand sides
    included, with nothing cached: the 2 x 2 block P, or for equal floors
    the weights P+, P- of |+>, |-> and one floor row for both receivers."""
    if floors[0] == floors[1]:
        floors = floors[:1]
    symmetric = len(floors) == 1
    builder = ProblemBuilder()
    if symmetric:
        builder.add_scalar("P+")
        builder.add_scalar("P-")
    else:
        builder.add_psd_block("P", 2)

    def form(coeff):
        return bc._twirled(coeff) if symmetric else {"P": coeff}

    gammas = [form(bc._gamma_part(d, k)) for k in range(1, len(floors) + 1)]
    if budget is None:
        builder.minimize(form(bc._gram(d)))
        for k, (floor, gamma) in enumerate(zip(floors, gammas), start=1):
            builder.add_scalar_ineq({name: -v for name, v in gamma.items()}, -floor,
                                    label="marginal" if symmetric else f"marginal{k}")
    else:
        mean = {name: -sum(g[name] for g in gammas) / len(gammas) for name in gammas[0]}
        builder.minimize(mean)
        builder.add_scalar_ineq(form(bc._gram(d)), (math.sqrt(budget) + 1.0) / 2.0,
                                label="budget")
    return builder.build()


def fresh_diamond(j):
    """The norm SDP of ``j`` as the builder writes it."""
    builder = ProblemBuilder()
    builder.add_psd_block("Z", j.in_dim * j.out_dim)
    builder.add_scalar("mu")
    builder.minimize({"mu": 1.0})
    builder.add_operator_ineq([full_term("Z")], j.op, label="dominates")
    builder.add_operator_eq(
        [ptrace_term("Z", j.dims, drop=tuple(range(1, 1 + j.n_outputs))),
         scalar_term("mu", np.eye(j.in_dim), scale=-1.0)],
        np.zeros((j.in_dim, j.in_dim), dtype=complex), label="trace")
    return builder.build()


def assert_same_bytes(got, want):
    assert got.blocks == want.blocks
    assert got.a.shape == want.a.shape
    for name in ("indptr", "indices", "data"):
        x, y = getattr(got.a, name), getattr(want.a, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    for name in ("b", "c"):
        x, y = getattr(got, name), getattr(want, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert got.labels == want.labels
    assert got.embeddings == want.embeddings


def covariant_cases(d, rng):
    """(floors, budget) of each of the four covariant kinds, and of a
    balanced threshold, as the entry points pose them, at seeded random
    thresholds, t and gamma."""
    thresholds = [float(rng.uniform(0.0, 1.0)), float(rng.choice([0.0, rng.uniform(0.0, 1.0)]))]
    t = float(rng.uniform(-1.0, 1.3))
    gamma = abs(1.0 - t + t / (d * d))
    delta = thresholds[0]
    return {"exact": ([1.0] * 2, None),
            "approx": ([1.0 - max(thresholds), 1.0 - min(thresholds)], None),
            "balanced": ([1.0 - delta] * 2, None),
            "depolarizing": ([gamma] * 2, None),
            "min_error": ([1.0] * 2, float(rng.uniform(1.0, 9.0)))}


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_covariant_problem_equals_a_fresh_build(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(3):  # later draws hit the cached structures
        for kind, (floors, budget) in covariant_cases(d, rng).items():
            assert_same_bytes(bc._covariant_problem(d, floors, budget),
                              fresh_covariant(d, floors, budget))


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 2, 2)])
def test_diamond_problem_equals_a_fresh_build(dims):
    rng = np.random.default_rng(sum(dims))
    n = math.prod(dims)
    for _ in range(3):
        j = ChoiOperator(random_hermitian(n, rng), dims[0], dims[1:])
        assert_same_bytes(diamond.diamond_problem(j), fresh_diamond(j))


def test_solve_on_a_shared_structure_equals_a_fresh_solve():
    cfg = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
    floors = [0.7, 0.9]
    j = ChoiOperator(random_hermitian(4, np.random.default_rng(3)), 2, (2,))
    bc._covariant_problem(2, [0.5, 0.6])  # primes the structure
    for cached, fresh in ((bc._covariant_problem(2, floors), fresh_covariant(2, floors)),
                          (diamond.diamond_problem(j), fresh_diamond(j))):
        got, want = solve(cached, cfg), solve(fresh, cfg)
        assert (got.status, got.iterations) == (want.status, want.iterations)
        assert got.y.tobytes() == want.y.tobytes()
        for name, x in want.x_blocks.items():
            assert got.x_blocks[name].tobytes() == x.tobytes()


def test_grid_builds_two_structures(monkeypatch):
    calls = {"independent_rows": 0, "block_rows": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(solver, "_independent_rows",
                        counted("independent_rows", solver._independent_rows))
    monkeypatch.setattr(solver, "_block_rows", counted("block_rows", solver._block_rows))
    bc._covariant_structure.cache_clear()
    axis = [k / 8 for k in range(9)]
    cfg = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
    with record_solves() as log:
        for a in axis:
            for b in axis:
                bc.approx_overhead((a, b), 2, config=cfg)
    # the symmetric LP on the diagonal, the 2 x 2 form off it
    assert len(log) == 81
    assert calls == {"independent_rows": 2, "block_rows": 2}


ENTRY_POINTS = {
    "exact_overhead": lambda d: bc.exact_overhead(d),
    "approx_overhead": lambda d: bc.approx_overhead((0.1, 0.0), d),
    "approx_overhead_depolarizing": lambda d: bc.approx_overhead_depolarizing(0.1, d),
    "depolarizing_overhead": lambda d: bc.depolarizing_overhead(0.2, d),
    "min_error": lambda d: bc.min_error(1.8, d),
    "min_error_upper_bound": lambda d: bc.min_error_upper_bound(1.8, d),
    "discard_prepare_point": lambda d: bc.discard_prepare_point(1.8, d),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_cache_hit_never_skips_validation(name):
    call = ENTRY_POINTS[name]
    call(2)
    for d in (2.0, True, "3"):
        with pytest.raises(ValueError, match="not an integer >= 2"):
            call(d)


def test_replace_gets_fresh_row_data():
    p = bc._covariant_problem(2, [0.8] * 2)
    solve(p)
    assert p.with_b(p.b).structure is p.structure
    doubled = Csr(2.0 * p.a.data, p.a.indices, p.a.indptr, p.a.shape)
    q = dataclasses.replace(p, a=doubled)
    assert q.structure is not p.structure and q.structure.solver is None
    solve(q)
    rows = solver._rows(q)
    assert rows is not solver._rows(p)
    a_red = rows.a_red.toarray() if isinstance(rows.a_red, Csr) else rows.a_red
    assert np.array_equal(a_red, doubled[rows.presolve.kept].toarray())


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_covariant_rows_are_dense(d):
    # a quarter or more of these entries are nonzero, in the LP and in the
    # 2 x 2 form
    for floors in ([0.8] * 2, [0.8, 0.9]):
        rows = solver._Rows(bc._covariant_problem(d, floors))
        assert isinstance(rows.a_red, np.ndarray)
        assert rows.a_red_t.base is rows.a_red    # a view, not a copy
        assert all(isinstance(blk.a_block, np.ndarray) for blk in rows.blocks)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (4, 4)])
def test_diamond_rows_stay_sparse(dims):
    j = ChoiOperator(random_hermitian(math.prod(dims), np.random.default_rng(4)),
                     dims[0], dims[1:])
    rows = solver._Rows(diamond.diamond_problem(j))
    assert isinstance(rows.a_red, Csr) and isinstance(rows.a_red_t, Csr)
    assert all(isinstance(blk.a_block, Csr) for blk in rows.blocks)


@pytest.mark.parametrize("problem", [
    bc._covariant_problem(3, [0.8] * 2),
    diamond.diamond_problem(ChoiOperator(
        random_hermitian(9, np.random.default_rng(6)), 3, (3,))),
], ids=["dense", "sparse"])
def test_reduced_rows_multiply_as_the_kept_rows(problem):
    rows = solver._Rows(problem)
    kept = problem.a[rows.presolve.kept]
    rng = np.random.default_rng(2)
    x = rng.uniform(-1.0, 1.0, kept.shape[1])
    y = rng.uniform(-1.0, 1.0, kept.shape[0])
    np.testing.assert_allclose(rows.a_red @ x, kept @ x, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(rows.a_red_t @ y, kept.T @ y, rtol=0.0, atol=1e-14)


def test_writing_into_b_leaves_the_next_call_alone():
    floors = [0.8, 1.0]
    first = bc._covariant_problem(3, floors)
    first.b[:] = 123.0
    assert_same_bytes(bc._covariant_problem(3, floors), fresh_covariant(3, floors))
    j = ChoiOperator(random_hermitian(4, np.random.default_rng(5)), 2, (2,))
    first = diamond.diamond_problem(j)
    first.b[:] = 123.0
    assert_same_bytes(diamond.diamond_problem(j), fresh_diamond(j))


def test_shared_rows_are_read_only():
    p = bc._covariant_problem(2, [0.8] * 2)
    for shared in (p.a.data, p.a.indices, p.a.indptr, p.c):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 7
    assert_same_bytes(bc._covariant_problem(2, [0.8] * 2),
                      fresh_covariant(2, [0.8] * 2))
