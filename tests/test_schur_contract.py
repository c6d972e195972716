"""Contract of the problem's constraint representation and the solver's
structured Schur complement.

A problem stores each block's coefficients once, as Hermitian-basis
coordinates ``a``, ``b`` and ``c``.  These properties pin that data to its
meaning: a built problem's rows evaluate partial traces and full terms, its
adjoint is the adjoint, the problem dump reproduces it, the problem's cone
lays out the columns and splits vectors consistently, the certificate does
not depend on block names or order and agrees with a block-by-block
reference, and the solver's structured Schur complement
M_ij = Re Tr(A_i W A_j W), assembled from the embeddings the builder
records, equals the dense one built here from the coefficients.
The Schur solve factors M once, shifting a copy only when M is not
numerically positive definite, and refines against the unshifted M while the
residual falls.  One step-length test over X and S together gives the
smaller of their two step lengths.
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_oracle
from vbroadcast.channels import gamma_operator
from vbroadcast.linalg import partial_trace
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
from vbroadcast.sdp.problem import BlockSpec, Cone, _mat, _vec

from vbroadcast.sdp import solver
from vbroadcast.sdp.solver import (
    _block_rows,
    _herm,
    _max_step,
    _schur,
    _schur_factor,
    _schur_solve,
    _Triangular,
)

ALL_DROPS = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
SCALES = st.sampled_from([1.0, -1.0, 0.5, -2.0, 3.0])


def rand_hermitian(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def rand_pd(rng, n):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return a @ a.conj().T / n + 0.1 * np.eye(n)


@st.composite
def problems(draw):
    """Builder problems on a (d, d, d) block J, a (d, d) block Z and two
    scalars: partial traces with every drop, full terms, two terms on
    one block in one equation, scalar terms, a second layout of J, and scalar
    rows with matrix coefficients."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dd = (d, d, d)
    b = ProblemBuilder()
    b.add_psd_block("J", d ** 3)
    b.add_psd_block("Z", d * d)
    b.add_scalar("x")
    b.add_scalar("f")
    # at d = 3 the keep-all layout would give 729 rows per equation
    drops = ALL_DROPS if d == 2 else ALL_DROPS[1:]
    for drop in draw(st.lists(st.sampled_from(drops), min_size=1, max_size=4)):
        kept = d ** (3 - len(drop))
        terms = [ptrace_term("J", dd, drop, scale=draw(SCALES))]
        if len(drop) == 1 and draw(st.booleans()):
            other = draw(st.sampled_from([(0,), (1,), (2,)]))
            terms.append(ptrace_term("J", dd, other, scale=draw(SCALES)))
        if kept == d * d and draw(st.booleans()):
            terms.append(full_term("Z", scale=draw(SCALES)))
        if kept == d ** 3 and draw(st.booleans()):
            terms.append(full_term("J", scale=draw(SCALES)))
        if draw(st.booleans()):
            terms.append(scalar_term(draw(st.sampled_from(["x", "f"])),
                                     rand_hermitian(rng, kept), scale=draw(SCALES)))
        b.add_operator_eq(terms, rand_hermitian(rng, kept))
    if draw(st.booleans()):
        b.add_operator_eq([ptrace_term("Z", (d, d), drop=(1,)),
                           scalar_term("x", np.eye(d), scale=-1.0)],
                          np.zeros((d, d), dtype=complex))
    if draw(st.booleans()):
        # a second factorization of J: no common layout with (d, d, d)
        b.add_operator_eq([ptrace_term("J", (d, d * d), drop=(1,))],
                          rand_hermitian(rng, d))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = {"x": 1.0}
        for name, n in (("J", d ** 3), ("Z", d * d)):
            if draw(st.booleans()):
                coeffs[name] = rand_hermitian(rng, n)
        b.add_scalar_eq(coeffs, 1.0)
    return b.build(), rng


def dense_schur(problem, w):
    """Reference sum over blocks of Re Tr(A_i W A_j W) from dense A_i."""
    m = problem.n_rows
    ref = np.zeros((m, m))
    for blk in problem.blocks:
        aw = _mat(problem.a[:, problem.cone.columns[blk.name]].toarray()) @ w[blk.name]
        ref += np.einsum("iab,jba->ij", aw, aw).real
    return ref


@settings(max_examples=40, deadline=None)
@given(problems())
def test_structured_schur_matches_dense_reference(case):
    problem, rng = case
    cone = problem.cone
    scalars = [name for n, names in cone.stacks if n == 1 for name in names]
    hermitian = [(n, name) for n, names in cone.stacks if n > 1 for name in names]
    p_lin = rng.uniform(0.2, 3.0, cone.n_lin)
    w_mats = [rand_pd(rng, n) for n, _ in hermitian]
    got = _schur(problem.a[:, :cone.n_lin].toarray(), p_lin, _block_rows(problem), w_mats)

    # P = W . W, so a scalar block's W is the square root of its P
    w = {name: np.sqrt([[p]]) for name, p in zip(scalars, p_lin)}
    w.update({name: wk for (_, name), wk in zip(hermitian, w_mats)})
    ref = dense_schur(problem, w)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_rows_evaluate_partial_trace(dims, data):
    full = data.draw(st.booleans())
    drop = () if full else tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1)))))
    scale = data.draw(SCALES)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = int(np.prod(dims))
    kept = n // int(np.prod([dims[f] for f in drop]))
    b = ProblemBuilder()
    b.add_psd_block("X", n)
    term = full_term("X", scale) if full else ptrace_term("X", dims, drop, scale)
    b.add_operator_eq([term], np.zeros((kept, kept), dtype=complex))
    problem = b.build()
    x = rand_hermitian(rng, n)
    want = scale * _vec(partial_trace(x, dims, drop))
    got = problem.constraint_values({"X": x})
    assert np.allclose(got, want, rtol=0, atol=1e-12 * (1.0 + np.abs(want).max()))
    # the certificate's adjoint is the adjoint of these rows
    y = rng.standard_normal(problem.n_rows)
    lhs = np.trace(problem.adjoint(y)["X"] @ x).real
    assert abs(lhs - y @ got) <= 1e-12 * (1.0 + abs(lhs))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_hermitian_coordinates_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    x = rand_hermitian(rng, n)
    assert np.allclose(_mat(_vec(x)), x, rtol=0, atol=1e-14)
    elements = _mat(np.eye(n * n))
    assert np.allclose(elements, elements.conj().transpose(0, 2, 1), rtol=0, atol=0)
    gram = np.einsum("aij,bji->ab", elements, elements)
    assert np.allclose(gram, np.eye(n * n), rtol=0, atol=1e-15)
    # coordinate r is the inner product with basis element r
    want = np.einsum("aij,ji->a", elements, x).real
    assert np.allclose(_vec(x), want, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_cone_layout(dims, seed):
    # blocks in any order, with repeated dimensions and dimension-1 blocks
    # declared in between
    rng = np.random.default_rng(seed)
    names = [f"B{k}" for k in range(len(dims))]
    dim_of = dict(zip(names, dims))

    def coeff(n):
        return float(rng.standard_normal()) if n == 1 else rand_hermitian(rng, n)

    b = ProblemBuilder()
    for name, n in zip(names, dims):
        b.add_psd_block(name, n)
    rows = [{name: coeff(n) for name, n in zip(names, dims)} for _ in range(2)]
    objective = {name: coeff(n) for name, n in zip(names, dims)}
    for coeffs in rows:
        b.add_scalar_eq(coeffs, 1.0)
    for name, w in objective.items():
        b.add_objective(name, w)
    problem = b.build()
    cone = problem.cone

    # the order: dimension-1 blocks first, then decreasing dimension, each
    # dimension one stack in declaration order
    order = [name for _, names_n in cone.stacks for name in names_n]
    assert sorted(order) == sorted(names)
    assert [n for n, _ in cone.stacks] == sorted(set(dims), key=lambda n: (n > 1, -n))
    for n, names_n in cone.stacks:
        assert names_n == [name for name in names if dim_of[name] == n]
    assert cone.n_lin == dims.count(1)
    assert cone.degree == sum(dims)
    # contiguous ranges: the blocks tile the columns in order, and stack i
    # owns offsets[i]:offsets[i + 1]
    sizes = [dim_of[name] ** 2 for name in order]
    stops = np.cumsum(sizes)
    assert [(cone.columns[name].start, cone.columns[name].stop)
            for name in order] == list(zip(stops - sizes, stops))
    assert cone.offsets[0] == 0
    for (n, names_n), lo, hi in zip(cone.stacks, cone.offsets, cone.offsets[1:]):
        assert (cone.columns[names_n[0]].start, cone.columns[names_n[-1]].stop) == (lo, hi)
        assert hi - lo == n * n * len(names_n)
    assert problem.a.shape == (2, cone.offsets[-1]) and problem.c.shape == (cone.offsets[-1],)
    assert Cone([BlockSpec(name, n) for name, n in zip(names, dims)]).columns == cone.columns

    # split / vec: the orthant's entries, then each Hermitian block's own
    # coordinates, stack by stack
    mats = {name: rand_hermitian(rng, dim_of[name]) for name in order if dim_of[name] > 1}
    lin = rng.standard_normal(cone.n_lin)
    v = np.concatenate([lin] + [_vec(m) for m in mats.values()])
    got_lin, stacks = cone.split(v)
    assert np.array_equal(got_lin, lin)
    assert [s.shape for s in stacks] == [(len(names_n), n, n)
                                         for n, names_n in cone.stacks if n > 1]
    for got, want in zip((m for s in stacks for m in s), mats.values()):
        assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert np.allclose(cone.vec(got_lin, stacks), v, rtol=0, atol=1e-14)

    # blocks / stacked: each block's matrix by name is its column slice
    by_name = cone.blocks(v)
    assert list(by_name) == order
    for name, x in by_name.items():
        assert x.shape == (dim_of[name],) * 2
        assert np.allclose(x, _mat(v[cone.columns[name]]), rtol=0, atol=1e-14)
    assert [s.shape for s in cone.stacked(by_name)] == [(len(names_n), n, n)
                                                        for n, names_n in cone.stacks]
    assert np.allclose(problem.vector(by_name), v, rtol=0, atol=1e-14)

    # each block's column slice holds the coefficients it was given
    for name in names:
        cols = cone.columns[name]
        for row, coeffs in enumerate(rows):
            got = _mat(problem.a[[row]][:, cols].toarray()[0])
            assert np.allclose(got, np.atleast_2d(coeffs[name]), rtol=0, atol=1e-15)
        assert np.allclose(_mat(problem.c[cols]), np.atleast_2d(objective[name]),
                           rtol=0, atol=1e-15)


CERTIFICATE_FIELDS = ("primal_residual", "dual_residual", "complementarity",
                      "duality_gap", "min_eig_x", "min_eig_s")


@settings(max_examples=30, deadline=None)
@given(problems(), st.data())
def test_certificate_matches_blockwise_reference(case, data):
    problem, rng = case
    # the drawn right-hand sides are rarely feasible: a second copy gets
    # b = A(X0) and c = A^*(y0) + S0 for positive definite X0, S0, so that
    # it has an optimum
    x0 = {blk.name: rand_pd(rng, blk.dim) for blk in problem.blocks}
    s0 = {blk.name: rand_pd(rng, blk.dim) for blk in problem.blocks}
    feasible = dataclasses.replace(
        problem, b=problem.constraint_values(x0),
        c=problem.a.T @ rng.standard_normal(problem.n_rows) + problem.vector(s0))
    dent = data.draw(st.sampled_from(problem.blocks))
    for p in (problem, feasible):
        sol = solve(p)
        # one block made indefinite: its (0, 0) entry pushed below zero
        corner = np.zeros((dent.dim, dent.dim))
        corner[0, 0] = 1.0 + np.abs(sol.x_blocks[dent.name]).max()
        indefinite = {**sol.x_blocks, dent.name: sol.x_blocks[dent.name] - corner}
        for trial in (sol, solve(p, SolverConfig(max_iter=2)),
                      dataclasses.replace(sol, x_blocks={k: 1.01 * v
                                                         for k, v in sol.x_blocks.items()}),
                      dataclasses.replace(sol, x_blocks=indefinite)):
            got = check_certificate(p, trial)
            want = dense_oracle.blockwise_certificate(p, trial)
            assert (got.passed, got.status) == (want.passed, want.status)
            for field in CERTIFICATE_FIELDS:
                ref = getattr(want, field)
                assert abs(getattr(got, field) - ref) <= 1e-12 * (1.0 + abs(ref)), field
            # the named row reaches the largest residual: on an exact optimum
            # every row is at rounding level, and summation order picks the
            # argmax
            named = [r for r in range(p.n_rows) if p.row_label(r) == got.worst_row]
            reach = (dense_oracle.row_residuals(p, trial)[named].max(initial=0.0)
                     / (1.0 + np.abs(p.b).max(initial=0.0)))
            ref = want.primal_residual
            assert abs(reach - ref) <= 1e-12 * (1.0 + ref), "worst_row"


@settings(max_examples=25, deadline=None)
@given(problems())
def test_dump_round_trip(tmp_path_factory, case):
    problem, rng = case
    problem.c = rng.standard_normal(problem.c.size)
    path = tmp_path_factory.mktemp("dump") / "problem.txt"
    dump_problem(problem, str(path))
    dims = [blk.dim for blk in problem.blocks]
    c = [np.zeros((n, n), dtype=complex) for n in dims]
    a = [np.zeros((problem.n_rows, n, n), dtype=complex) for n in dims]
    rhs = np.full(problem.n_rows, np.nan)
    for line in path.read_text().splitlines():
        kind, *f = line.split()
        if kind == "obj":
            k, i, j = map(int, f[:3])
            c[k][i, j] = complex(float(f[3]), float(f[4]))
        elif kind == "con":
            r, k, i, j = map(int, f[:4])
            a[k][r, i, j] = complex(float(f[4]), float(f[5]))
        elif kind == "rhs":
            rhs[int(f[0])] = float(f[1])
    for m in c + a:
        m += np.triu(m, 1).conj().swapaxes(-1, -2)
    x = {blk.name: rand_hermitian(rng, blk.dim) for blk in problem.blocks}
    want = sum(np.einsum("rij,ji->r", ak, x[blk.name]).real
               for ak, blk in zip(a, problem.blocks))
    assert np.allclose(problem.constraint_values(x), want, rtol=0, atol=1e-12)
    got_obj = sum(np.trace(ck @ x[blk.name]).real for ck, blk in zip(c, problem.blocks))
    assert abs(problem.objective_value(x) - got_obj) <= 1e-12
    assert np.array_equal(rhs, problem.b)


BLOCKS = (("J1", 8), ("J2", 8), ("x", 1), ("y", 1))


def exact_broadcast(names, order):
    """The d = 2 exact-broadcasting SDP with the blocks of BLOCKS named
    ``names`` and declared in ``order``."""
    j1, j2, x, y = names
    d, dd = 2, (2, 2, 2)
    b = ProblemBuilder()
    for k in order:
        b.add_psd_block(names[k], BLOCKS[k][1])
    b.minimize({x: 1.0, y: 1.0})
    for drop in ((2,), (1,)):
        b.add_operator_eq([ptrace_term(j1, dd, drop), ptrace_term(j2, dd, drop, -1.0)],
                          gamma_operator(d))
    for j, s in ((j1, x), (j2, y)):
        b.add_operator_eq([ptrace_term(j, dd, (1, 2)), scalar_term(s, np.eye(d), -1.0)],
                          np.zeros((d, d), dtype=complex))
    b.add_scalar_eq({x: 1.0, y: -1.0}, 1.0)
    return b.build()


@functools.lru_cache(maxsize=None)
def exact_broadcast_solution():
    names = [name for name, _ in BLOCKS]
    problem = exact_broadcast(names, range(4))
    return problem, solve(problem)


@settings(max_examples=20, deadline=None)
@given(st.permutations(range(4)), st.lists(st.text("abcXYZ_", min_size=1, max_size=4),
                                           min_size=4, max_size=4, unique=True),
       st.booleans())
def test_certificate_invariant_under_block_relabeling(order, names, corrupt):
    problem, sol = exact_broadcast_solution()
    if corrupt:
        sol = dataclasses.replace(sol, x_blocks={k: 1.01 * v for k, v in sol.x_blocks.items()})
    report = check_certificate(problem, sol)
    rename = {old: new for (old, _), new in zip(BLOCKS, names)}
    relabeled = exact_broadcast(names, order)
    moved = dataclasses.replace(
        sol, x_blocks={rename[k]: v for k, v in sol.x_blocks.items()},
        s_blocks={rename[k]: v for k, v in sol.s_blocks.items()})
    again = check_certificate(relabeled, moved)
    assert (again.passed, again.status) == (report.passed, report.status)
    assert report.passed is (not corrupt)
    for field in ("primal_residual", "dual_residual", "complementarity",
                  "duality_gap", "min_eig_x", "min_eig_s"):
        assert abs(getattr(again, field) - getattr(report, field)) <= 1e-12


def first_pass(chol, rhs):
    """The Schur solve before refinement: the two triangular solves alone."""
    return _Triangular(chol).solve(rhs)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.floats(0.0, 8.0), st.floats(-3.0, 3.0),
       st.integers(0, 2 ** 32 - 1))
def test_refined_schur_solve(m, log_cond, log_scale, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    eig = np.logspace(0.0, -log_cond, m) * 10.0 ** log_scale
    schur = (q * eig) @ q.T
    rhs = rng.standard_normal(m)
    chol = _schur_factor(schur, 1e-12)
    sol = _schur_solve(schur, _Triangular(chol), rhs)
    want = np.linalg.solve(schur, rhs)
    # both solves are backward stable, so they agree to the forward error
    # cond(M) * eps that either may carry
    cond = eig.max() / eig.min()
    tol = max(1e-10, 20.0 * cond * np.finfo(float).eps)
    assert np.linalg.norm(sol - want) <= tol * np.linalg.norm(want)
    first = first_pass(chol, rhs)
    assert np.linalg.norm(rhs - schur @ sol) <= np.linalg.norm(rhs - schur @ first)


def test_positive_definite_schur_is_not_shifted():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((6, 6))
    schur = a @ a.T + np.eye(6)
    assert np.array_equal(_schur_factor(schur, 1e-6), np.linalg.cholesky(schur))


def test_singular_schur_shifted_on_a_copy_and_refined_unshifted():
    # PSD with an exactly zero pivot, so the unshifted factorization fails
    schur = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    kept = schur.copy()
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(schur)
    chol = _schur_factor(schur, 1e-6)
    assert np.array_equal(schur, kept)
    # the first retry adds 1e-6 times the largest diagonal entry
    np.testing.assert_allclose(chol @ chol.T, schur + 1e-6 * np.eye(3), atol=1e-15)
    rhs = schur @ np.array([0.3, -0.7, 2.0])       # consistent right-hand side
    first = np.linalg.norm(rhs - schur @ first_pass(chol, rhs))
    refined = np.linalg.norm(rhs - schur @ _schur_solve(schur, _Triangular(chol), rhs))
    assert first > 1e-7
    # each pass against the unshifted M gains the factor shift / eigenvalue
    assert refined <= 1e-4 * first


def test_indefinite_schur_is_a_numerical_failure(monkeypatch):
    monkeypatch.setattr(solver, "_schur", lambda *args: -_schur(*args))
    sol = solve(exact_broadcast([name for name, _ in BLOCKS], range(4)))
    assert sol.status == "numerical_failure"
    assert sol.diagnostics["note"] == "singular Schur complement"


def cone_side(rng, n_lin, stacks):
    """A point of the cone (positive orthant entries, the inverse Cholesky
    factor of each PD stack) and a direction of mixed sign."""
    lin = rng.uniform(0.1, 2.0, n_lin)
    d_lin = rng.standard_normal(n_lin)
    linv = [np.linalg.inv(np.linalg.cholesky(np.stack([rand_pd(rng, n) for _ in range(k)])))
            for n, k in stacks]
    d_st = [np.stack([rand_hermitian(rng, n) for _ in range(k)]) for n, k in stacks]
    return lin, linv, d_lin, d_st


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["orthant", "stacks", "both"]), st.integers(1, 4),
       st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 2 ** 32 - 1))
def test_joint_step_length_is_the_smaller_of_the_two(kind, n_lin, counts, seed):
    # the solver takes one step-length test over X and S concatenated
    rng = np.random.default_rng(seed)
    n_lin = 0 if kind == "stacks" else n_lin
    stacks = [] if kind == "orthant" else [(n, k) for n, k in zip((4, 3, 2), counts)]
    x_side, s_side = cone_side(rng, n_lin, stacks), cone_side(rng, n_lin, stacks)
    lin, d_lin = (np.concatenate([x_side[i], s_side[i]]) for i in (0, 2))
    linv, d_st = ([np.concatenate(pair) for pair in zip(x_side[i], s_side[i])] for i in (1, 3))
    joint = _max_step(lin, linv, d_lin, d_st)
    assert joint == min(_max_step(*x_side), _max_step(*s_side))
    # the step is the boundary of the cone: at alpha the smallest
    # eigenvalue, or the smallest orthant entry, reaches zero
    if np.isfinite(joint):
        boundary, scale = [np.min(lin + joint * d_lin, initial=np.inf)], [1.0]
        for li, d in zip(linv, d_st):
            m = joint * (li @ d @ _herm(li))
            boundary.append(np.linalg.eigvalsh(np.eye(li.shape[-1]) + m).min())
            scale.append(np.abs(m).max())
        assert abs(min(boundary)) <= 1e-12 * max(scale)
