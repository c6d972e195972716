"""Contract of the problem's constraint representation and the solver's
structured Schur complement.

A problem stores each block's coefficients once, as Hermitian-basis
coordinates ``a``, ``b`` and ``c``.  These properties pin that data to its
meaning: a built problem's rows evaluate partial traces and full terms, its
adjoint is the adjoint, the problem dump reproduces it, the certificate does
not depend on block names or order, and the solver's structured Schur
complement M_ij = Re Tr(A_i W A_j W), assembled from the embeddings the
builder records, equals the dense one built here from the coefficients.
"""

import dataclasses
import functools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vbroadcast.channels import gamma_operator
from vbroadcast.linalg import partial_trace
from vbroadcast.sdp import (
    ProblemBuilder,
    check_certificate,
    dump_problem,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)
from vbroadcast.sdp.problem import _basis
from vbroadcast.sdp.solver import _assemble, _block_rows, _Cone, _schur

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
    """Builder problems on a (d, d, d) block J, a (d, d) block Z, a scalar and
    a free scalar: partial traces with every drop, full terms, two terms on
    one block in one equation, scalar terms, a second layout of J, and scalar
    rows with matrix coefficients."""
    d = draw(st.sampled_from([2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dd = (d, d, d)
    b = ProblemBuilder()
    b.add_psd_block("J", d ** 3)
    b.add_psd_block("Z", d * d)
    b.add_scalar("x")
    b.add_free_scalar("f")
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
        aw = _basis(blk.dim).mat(problem.a[blk.name].toarray()) @ w[blk.name]
        ref += np.einsum("iab,jba->ij", aw, aw).real
    return ref


@settings(max_examples=40, deadline=None)
@given(problems())
def test_structured_schur_matches_dense_reference(case):
    problem, rng = case
    cone = _Cone([b.dim for b in problem.blocks])
    a_full, _, _ = _assemble(problem, cone)
    p_lin = rng.uniform(0.2, 3.0, len(cone.lin))
    w_mats = [rand_pd(rng, basis.n) for basis in cone.bases]
    blocks = _block_rows(problem, cone)
    got = _schur(a_full[:, :len(cone.lin)].toarray(), p_lin, blocks, w_mats)

    # P = W . W, so a scalar block's W is the square root of its P
    w = {problem.blocks[k].name: np.sqrt([[p]]) for k, p in zip(cone.lin, p_lin)}
    w.update({problem.blocks[k].name: wk for k, wk in zip(cone.mat, w_mats)})
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
    want = scale * _basis(kept).vec(partial_trace(x, dims, drop))
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
    basis = _basis(n)
    x = rand_hermitian(rng, n)
    assert np.allclose(basis.mat(basis.vec(x)), x, rtol=0, atol=1e-14)
    elements = basis.mat(np.eye(basis.N))
    assert np.allclose(elements, elements.conj().transpose(0, 2, 1), rtol=0, atol=0)
    gram = np.einsum("aij,bji->ab", elements, elements)
    assert np.allclose(gram, np.eye(basis.N), rtol=0, atol=1e-15)
    # coordinate r is the inner product with basis element r
    want = np.einsum("aij,ji->a", elements, x).real
    assert np.allclose(basis.vec(x), want, rtol=0, atol=1e-13)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 5), min_size=1, max_size=8), st.integers(0, 2 ** 32 - 1))
def test_cone_stacks_round_trip(dims, seed):
    # blocks in any order, with repeated and dimension-1 blocks
    rng = np.random.default_rng(seed)
    cone = _Cone(dims)
    assert cone.lin == [k for k, n in enumerate(dims) if n == 1]
    assert sorted(cone.mat) == [k for k, n in enumerate(dims) if n > 1]
    assert [(-dims[k], k) for k in cone.mat] == sorted((-dims[k], k) for k in cone.mat)
    assert [b.n for b in cone.bases] == [dims[k] for k in cone.mat]
    lin = rng.standard_normal(len(cone.lin))
    mats = [rand_hermitian(rng, dims[k]) for k in cone.mat]
    # the vector is lin, then each block's own coordinates in cone.mat order
    v = np.concatenate([lin] + [_basis(dims[k]).vec(m) for k, m in zip(cone.mat, mats)])
    got_lin, stacks = cone.split(v)
    assert np.array_equal(got_lin, lin)
    assert [s.shape[1:] for s in stacks] == [(b.n, b.n) for b, _ in cone.stacks]
    assert len({s.shape[1] for s in stacks}) == len(stacks)
    flat = [m for s in stacks for m in s]
    assert len(flat) == len(mats)
    for got, want in zip(flat, mats):
        assert np.allclose(got, want, rtol=0, atol=1e-14)
    assert np.allclose(cone.vec(got_lin, stacks), v, rtol=0, atol=1e-14)
    assert cone.degree == sum(dims)


@settings(max_examples=25, deadline=None)
@given(problems())
def test_dump_round_trip(tmp_path_factory, case):
    problem, rng = case
    problem.c = {blk.name: rng.standard_normal(blk.dim ** 2) for blk in problem.blocks}
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
