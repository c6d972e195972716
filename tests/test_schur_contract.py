"""Contract of the solver's structured Schur complement.

The solver never forms the constraint matrices A_i; it assembles
M_ij = Re Tr(A_i W A_j W) from the embeddings the builder records.  These
properties pin it to the rows' triplets, which stay the reference: the
structured matrix equals the dense one built here from those triplets, and
the builder's embedding E -> E (x) I is the adjoint of the partial trace.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from vbroadcast.linalg import partial_trace
from vbroadcast.sdp import ProblemBuilder, full_term, ptrace_term, scalar_term
from vbroadcast.sdp.problem import (
    _basis,
    _embed_triplets,
    _ptrace_embedding,
    dense_from_triplets,
    hermitian_basis_triplets,
    triplets_from_dense,
)
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
    """Reference sum over blocks of Re Tr(A_i W A_j W) from the row triplets."""
    m = problem.n_rows
    ref = np.zeros((m, m))
    for blk in problem.blocks:
        zero = np.zeros((blk.dim, blk.dim), dtype=complex)
        aw = np.array([(dense_from_triplets(row.coeffs[blk.name], blk.dim)
                        if blk.name in row.coeffs else zero) @ w[blk.name]
                       for row in problem.rows])
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
    blocks = _block_rows(problem, cone, a_full)
    got = _schur(a_full[:, :len(cone.lin)], p_lin, blocks, w_mats)

    # P = W . W, so a scalar block's W is the square root of its P
    w = {problem.blocks[k].name: np.sqrt([[p]]) for k, p in zip(cone.lin, p_lin)}
    w.update({problem.blocks[k].name: wk for k, wk in zip(cone.mat, w_mats)})
    ref = dense_schur(problem, w)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
def test_embedding_is_adjoint_of_partial_trace(dims, data):
    drop = tuple(sorted(data.draw(st.sets(st.integers(0, len(dims) - 1)))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = int(np.prod(dims))
    kept_dim, base, offsets = _ptrace_embedding(tuple(dims), drop)
    x = rand_hermitian(rng, n)
    e = rand_hermitian(rng, kept_dim)
    embedded = dense_from_triplets(
        _embed_triplets(triplets_from_dense(e), base, offsets, 1.0), n)
    lhs = np.trace(partial_trace(x, dims, drop) @ e).real
    rhs = np.trace(x @ embedded).real
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 2 ** 32 - 1))
def test_hermitian_coordinates_round_trip(n, seed):
    rng = np.random.default_rng(seed)
    basis = _basis(n)
    x = rand_hermitian(rng, n)
    assert np.allclose(basis.mat(basis.vec(x)), x, rtol=0, atol=1e-14)
    # coordinate r is the inner product with basis element r
    elements = [dense_from_triplets(t, n) for t in hermitian_basis_triplets(n)]
    want = [np.trace(e @ x).real for e in elements]
    assert np.allclose(basis.vec(x), want, rtol=0, atol=1e-13)
