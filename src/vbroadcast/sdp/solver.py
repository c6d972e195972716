"""Self-contained primal-dual interior-point solver for small dense SDPs.

The algorithm is a path-following method on the homogeneous self-dual
embedding with Nesterov-Todd scaling and a Mehrotra predictor-corrector step,
the standard recipe for this problem class.  Hermitian blocks stay in the
complex domain, as in SeDuMi and SDPT3: the NT scaling, the step length and
the corrector work on complex matrices, and a block's vector form is its
coordinates Re X + Im X, the orthonormal Hermitian coordinates the problem
stores its coefficients in, so that inner products are Re Tr(A X) and the
constraint matrix is the problem's own.  Vectors are split and joined by
the problem's cone (``SdpProblem.cone``): the dimension-1 blocks form one
nonnegative orthant, and the Hermitian blocks of one dimension one stacked
(k, n, n) array, so each Cholesky factorization, NT scaling, inverse
factor, step-length eigenvalue test and corrector term of an iteration is
one batched call per block dimension, as SeDuMi and SDPT3 treat a cone.
The X and S stacks of a dimension are joined for the Cholesky factorization
and the inverse of its factor, and a step length is one ratio test and one
eigenvalue call per stack over both sides: LAPACK treats each matrix of a
stack on its own, so the results equal the separate calls bit for bit, and
the reduced problems are small enough that the calls, not the arithmetic,
are the cost.

The kept rows are stored dense when at least a quarter of their entries are
nonzero, and as the problem's :class:`~vbroadcast.sdp.csr.Csr` otherwise; so
are each Hermitian block's columns in the Schur build.  The
symmetry-reduced problems (1-8 kept rows, at most 20 columns, 37-50%
nonzero) then multiply in one BLAS call, while the norm SDPs (at most 6.4%
nonzero, 272 x 513 kept rows at d = 4 and far more for the broadcasting
maps) keep the memory of the sparse rows and a product that touches only
their entries.

The Schur complement M_ij = Re Tr(A_i W A_j W) stays per block: it is
assembled one block and one pair of row groups at a time (Fujisawa, Kojima
and Nakata, Math. Prog. 79, 1997).  The rows of an operator equation embed a
Hermitian basis as E (x) I, so a pair of groups is the single contraction
K = Tr_drop_i[W (|r><s| (x) I_drop_j) W] of the reshaped scaling matrix W;
its Hermitian coordinates are Re K plus Im K with r and s exchanged, two
strided views of the one product.  Rows with any other coefficient on a
block are paired through W A W.

The solver runs on numpy alone, so every dense operation of an iteration
uses one OpenBLAS and one thread pool (a second library with an OpenBLAS of
its own, as scipy bundles, left the idle, spinning threads of one pool
taking CPU from the other).  M is factored with numpy's Cholesky.  When M
is not numerically positive definite, a copy with a small diagonal shift is
factored instead.  The triangular solves are blocked substitutions
(``_Triangular``): the diagonal blocks of ``TRIANGULAR_BLOCK`` rows are
inverted once per factorization, O(m b^2), and a solve is one product per
block with the inverted block and one with the part of the factor beside
it, O(m^2) per right-hand side.  A block U D, D its diagonal, is inverted
as D^-1 U^-1 with the unit triangular U inverted in the way of LAPACK's
dtrtri: near an optimum the factor's ill-conditioning lies mostly in D, and
the dense oracle's solves at the knees need that accuracy.  Each solve is then refined
against the unshifted M while the residual norm falls, at most four passes
(Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., ch. 12),
and not once the residual is within ``REFINE_FLOOR`` of the rounding error
of its own computation, where a further pass could only trade one rounding
for another.

Everything a solve computes from the rows alone -- the presolve's pivoted
Cholesky of the row Gram matrix (``_pivoted_cholesky``, the pivot and stop
rule of LAPACK's dpstrf in numpy), the block rows of the Schur complement and
the reduced constraint matrix -- is computed on the first solve of a
problem's ``structure`` and kept there, so solves of problems that differ
only in ``b`` (``SdpProblem.with_b``) share it.  Each solve still validates
its problem and tests its ``b`` against the dropped rows.

With m rows, the presolve's Gram matrix, the Schur complement, its kept-row
copy and its factor are m x m, as is the largest complex pair block of the
Schur build, so a solve first refuses, with ``ValueError``, a problem of
more than ``MAX_ROWS`` rows or with a block above ``MAX_BLOCK_DIM``.

The embedding tracks (x, y, s, tau, kappa) with the invariants

    A x - tau b            -> 0
    A^T y + s - tau c      -> 0
    kappa + c.x - b.y      -> 0

and complementarity driven to zero along the central path.  tau -> positive
gives an optimal pair (x, y, s) / tau; tau -> 0 with kappa > 0 yields a Farkas
certificate of primal or dual infeasibility.

Once a full step is feasible, ``STEP_FRACTION`` caps it, so the last
iterations only cut every residual 50-fold each.  A face step replaces them,
as OSQP's solution polishing does (Stellato et al., Math. Prog. Comp. 12,
2020).  When the score max(pres, dres, relgap) is at most ``FACE_TRIGGER``
(1e-2), the iterate names a face: the orthant entries with x_i > s_i and, in
each Hermitian block, the r eigenvectors v of X whose eigenvalue exceeds
v^H S v, with projector Pi and Q = I - Pi.  F(X) = Pi X Pi is the projection
onto the face.  The step is Newton's method on the optimality conditions
restricted to that face, which converges quadratically at a strictly
complementary, nondegenerate optimum (Alizadeh, Haeberly and Overton,
SIAM J. Optim. 8, 1998).  With X~ = Pi X Pi and S~ = (Q S Q)^+,

    Off(D) = -(X~ D S~ + S~ D X~)

is the linearization of X S = 0 on the off-diagonal block Pi . Q, and the
step solves for y and for xi on the face

    s = c - A^T y,   x = xi + Off(s),   A x = b,   F(s) = 0.

It runs in two stages.  The first is the projection onto the face, the
whole step when no block has a rank strictly between 0 and n (every LP),
where Off = 0:

    x = F x + F A^T M^+ (b - A F x),   y = y + M^+ A F (c - A^T y),

with M = A F A^T built by the iteration's Schur code with W = Pi, and M^+
the Cholesky factor of M + ``FACE_SHIFT`` max(diag M) I refined against M
as above.  It finishes the diamonds, the canonical maps and most LPs.  When
it misses and some block has off-diagonal coordinates, the second stage
couples the two sides.  It keeps the projection's y, which the face fixes
off null(M), and corrects y on null(M) = span Z, the eigenvectors of M whose
eigenvalue is at most the iterate's score times the largest (a face read at
that score lifts the null eigenvalues of the optimum's M to about there):

    Z^T L Z z = Z^T (b - A (F x + Off(s))),   L = -A Off A^T,   y = y + Z z,

solved on the range of the PSD Z^T L Z, so that where the face does not
determine y the iterate's y is kept.  xi then meets A x = b through the
pseudo-inverse of M on its range.  The second stage re-reads the
eigenvectors from x, keeping each block's rank, for at most
``FACE_ROUNDS`` rounds; a round whose x misses A x = b or whose relative gap
grows ends it.  A step is accepted when its residuals and gap meet
the tolerances and no eigenvalue of x or s lies below -tol_feas (1 + its
largest coordinate); the solve then ends ``optimal`` with tau = 1 and
kappa = 0.  Otherwise the iterate is left as it was, and the next face step
waits for a tenfold fall of the score, so a solve that no face step finishes
runs as it would without them.  A face step allocates M, its eigenvectors,
n x n matrices per block and the products A^T Z, never a matrix over all
coordinates squared.
``STEP_FRACTION`` stays 0.98: at 0.999 the 9 x 9 grid of acceptance
criterion 8 (d = 2, tol 1e-9) takes 5.43 iterations per solve instead of
5.52, but on 2001 points (a, 0), a in [1e-9, 1 - 1/d^2], at d = 3 and tol
1e-9 it fails at 188 points instead of 5.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .csr import Csr
from .problem import SdpProblem, _mat, _vec

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iterations"
STATUS_PRIMAL_INFEASIBLE = "primal_infeasible_certificate"
STATUS_DUAL_INFEASIBLE = "dual_infeasible_certificate"
STATUS_NUMERICAL = "numerical_failure"


class SolverFailure(RuntimeError):
    """Raised by a caller of :func:`solve` whose solve ended without a result
    it can report, such as ``numerical_failure``; ``status`` is the solver's
    status."""

    def __init__(self, message: str, status: str):
        super().__init__(message)
        self.status = status


# fraction of the distance to the cone boundary each step takes
STEP_FRACTION = 0.98
# a Farkas ray is accepted once its residual ratio is below this, relative to
# 1 + the norm of the opposite side's data
INFEAS_TOL = 1e-8
# relative pivot below which presolve drops an equality row as redundant
PRESOLVE_TOL = 1e-12
# first diagonal shift, relative to the largest diagonal entry, tried when the
# Schur complement is not numerically positive definite
SCHUR_REGULARIZATION = 1e-12
# the largest problem a solve accepts: the fixed map canonical_broadcast_choi(4)
# has 4112 rows and takes 7.7 s at 861 MB peak RSS on a 2-core host, so 6000
# rows is about 1.8 GB and 25 s (memory as m^2, time as m^3); at d = 5 its
# 15,650 rows need about 12.5 GB.  The dense d = 6 oracles have blocks of 216.
MAX_ROWS = 6000
MAX_BLOCK_DIM = 256
# score max(pres, dres, relgap) from which face steps are tried (see the
# module docstring)
FACE_TRIGGER = 1e-2
# diagonal shift of the face step's Schur complement, relative to its largest
# diagonal entry; its Newton stage counts eigenvalues up to this relative size
# as 0
FACE_SHIFT = 1e-10
# Newton rounds of one face step, each on the eigenvectors the last one left
FACE_ROUNDS = 4


@dataclass(frozen=True)
class SolverConfig:
    """Stopping rule of a solve: ``optimal`` once the normalized residuals
    are at most ``tol_feas`` and the relative gap at most ``tol_gap``, each
    finite and positive; at most ``max_iter`` iterations, an integer >= 1."""

    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 200

    def __post_init__(self):
        for name in ("tol_gap", "tol_feas"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral)
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")


@dataclass
class SdpSolution:
    status: str
    x_blocks: dict[str, np.ndarray]
    y: np.ndarray
    s_blocks: dict[str, np.ndarray]
    primal_objective: float
    dual_objective: float
    gap: float
    iterations: int
    diagnostics: dict = field(default_factory=dict)

    def scalar(self, name: str) -> float:
        """Value of a dimension-1 block."""
        return float(self.x_blocks[name][0, 0].real)


# Verification runs can capture every (problem, solution) pair produced while
# a recorder is active; see the acceptance suite.
_ACTIVE_RECORDERS: list[list] = []


@contextmanager
def record_solves():
    log: list = []
    _ACTIVE_RECORDERS.append(log)
    try:
        yield log
    finally:
        # by identity: an outer log may equal this one, element for element
        _ACTIVE_RECORDERS[:] = [other for other in _ACTIVE_RECORDERS if other is not log]


# ---------------------------------------------------------------------------
# The structured Schur blocks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=256)
def _contraction(dims: tuple[int, ...], drop_i: tuple[int, ...],
                 drop_j: tuple[int, ...]):
    """Plan of K[(p, q), (r, s)] = Tr_drop_i[W (|r><s| (x) I_drop_j) W]_pq.

    With kept/dropped factor indices p, t for i and r, u for j this is
    sum_{t,u} W[(p, t), (r, u)] W[(s, u), (q, t)]: one matrix product of two
    transposed views of W reshaped to ``dims + dims``.
    """
    k, n = len(dims), int(np.prod(dims))
    keep_i = [f for f in range(k) if f not in drop_i]
    keep_j = [f for f in range(k) if f not in drop_j]
    n_p, n_r = int(np.prod([dims[f] for f in keep_i])), int(np.prod([dims[f] for f in keep_j]))
    left = (*keep_i, *(k + f for f in keep_j), *drop_i, *(k + f for f in drop_j))
    right = (*(k + f for f in drop_i), *drop_j, *keep_j, *(k + f for f in keep_i))
    return left, right, n_p, n_r, (n // n_p) * (n // n_r)


def _pair_block(wt: np.ndarray, dims, drop_i, drop_j) -> np.ndarray:
    """M[(p, q), (r, s)] = <E_pq, Tr_drop_i[W (E_rs (x) I_drop_j) W]> for the
    basis E_rs = ((1 + i)|r><s| + (1 - i)|s><r|) / 2 of ``problem._vec``.

    With K the contraction of :func:`_contraction`, the map sends E_rs to
    ((1 + i) K[:, (r, s)] + (1 - i) K[:, (s, r)]) / 2, whose coordinates
    Re + Im are M = Re K + Im K', K' being K with r and s exchanged.
    """
    left, right, n_p, n_r, inner = _contraction(dims, drop_i, drop_j)
    k = (wt.transpose(left).reshape(n_p * n_r, inner)
         @ wt.transpose(right).reshape(inner, n_r * n_p)).reshape(n_p, n_r, n_r, n_p)
    # k is indexed (p, r, s, q); m is (p, q, r, s)
    m = np.empty((n_p, n_p, n_r, n_r))
    np.add(k.real.transpose(0, 3, 1, 2), k.imag.transpose(0, 3, 2, 1), out=m)
    return m.reshape(n_p ** 2, n_r ** 2)


# nonzero fraction from which a constraint matrix is stored dense
DENSE_FILL = 0.25


def _dense_if_filled(a: Csr) -> np.ndarray | Csr:
    """``a`` as a dense array when at least ``DENSE_FILL`` of its entries are
    nonzero, else ``a`` itself (see the module docstring)."""
    if a.nnz >= DENSE_FILL * a.shape[0] * a.shape[1]:
        return a.toarray()
    return a


@dataclass
class _BlockRows:
    """The rows on one Hermitian block: ``groups`` of embeddings (row slice,
    drop, scale) on the block's ``layout``, and the other rows
    ``mrows`` with coefficient matrices ``hmats``, constraint columns
    ``a_block`` (dense by ``_dense_if_filled``) and the index ``mix`` of
    their (mrows, mrows) part."""

    layout: tuple[int, ...]
    groups: list
    mrows: np.ndarray
    hmats: np.ndarray
    a_block: np.ndarray | Csr
    mix: tuple


def _block_rows(problem: SdpProblem) -> list[_BlockRows]:
    """The rows of each Hermitian block, in the column order of the cone."""
    out = []
    cone = problem.cone
    hermitian = [(n, name) for n, names in cone.stacks if n > 1 for name in names]
    for n, name in hermitian:
        a_block = problem.a[:, cone.columns[name]]
        emb = [e for e in problem.embeddings if e.block == name]
        layouts = {e.dims for e in emb if e.drop}
        if len(layouts) > 1:
            emb = []    # no common factorization: every row is paired as a matrix
        layout = layouts.pop() if len(layouts) == 1 else (n,)
        groups = [(slice(e.start, e.start + e.dim ** 2), e.drop, e.scale) for e in emb]
        mrows = np.diff(a_block.indptr) > 0
        for rows, *_ in groups:
            mrows[rows] = False
        mrows = np.flatnonzero(mrows)
        out.append(_BlockRows(layout, groups, mrows, _mat(a_block[mrows].toarray()),
                              _dense_if_filled(a_block), np.ix_(mrows, mrows)))
    return out


def _schur(a_lin: np.ndarray, p_lin: np.ndarray, blocks: list[_BlockRows],
           w_list: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum over blocks of Re Tr(A_i W A_j W) on all rows: the orthant
    through its dense columns ``a_lin`` scaled by ``p_lin``, each Hermitian
    block through its rows and its NT scaling matrix W."""
    schur = (a_lin * p_lin) @ a_lin.T
    for blk, w in zip(blocks, w_list):
        wt = w.reshape(blk.layout * 2)
        for a, (rows_g, drop_g, scale_g) in enumerate(blk.groups):
            for b in range(a, len(blk.groups)):
                rows_h, drop_h, scale_h = blk.groups[b]
                m_gh = (scale_g * scale_h) * _pair_block(wt, blk.layout, drop_g, drop_h)
                schur[rows_g, rows_h] += m_gh
                if b != a:
                    schur[rows_h, rows_g] += m_gh.T
        if blk.mrows.size:
            # column i: <A_j, W H_i W> for every row j; the (mrows, mrows)
            # part would be added twice
            r = blk.a_block @ _vec(w @ blk.hmats @ w).T
            schur[:, blk.mrows] += r
            schur[blk.mrows, :] += r.T
            schur[blk.mix] -= r[blk.mrows]
    return schur


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------

@dataclass
class _Presolve:
    """The rows a pivoted Cholesky of the row Gram matrix keeps and the ones
    it drops as redundant, each in increasing order.  When it keeps and
    drops rows, ``pivots`` holds all rows in pivot order, ``factor`` the
    rows of L for the kept ones and ``spans`` the dropped rows' coordinates
    on them."""

    kept: list[int]
    dropped: list[int]
    pivots: np.ndarray | None = None
    factor: np.ndarray | None = None
    spans: np.ndarray | None = None

    def inconsistency(self, b: np.ndarray) -> float:
        """How badly the right-hand sides ``b`` of the dropped rows disagree
        with the kept rows that span them; nonzero means infeasible input."""
        if not self.dropped:
            return 0.0
        if self.factor is None:
            return float(np.max(np.abs(b[self.dropped])))
        r = self.factor.shape[0]
        b_kept, b_dropped = b[self.pivots[:r]], b[self.pivots[r:]]
        w = _Triangular(self.factor).lower_solve(b_kept)
        denom = (1.0 + np.abs(b_dropped)
                 + np.linalg.norm(self.spans, axis=1) * np.linalg.norm(w))
        return float(np.max(np.abs(b_dropped - self.spans @ w) / denom))


# columns of the pivoted Cholesky factored between two updates of the
# trailing matrix, the block size of LAPACK's dpstrf, and the rows of the
# trailing matrix updated by one matrix product
PIVOT_BLOCK = 64
UPDATE_ROWS = 256


def _swap(x: np.ndarray, y: np.ndarray) -> None:
    """Exchange the entries of two views of one array that do not overlap."""
    held = x.copy()
    x[...] = y
    y[...] = held


def _pivoted_cholesky(gram: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, int]:
    """P^T G P = L L^T on the first r pivots, with the pivot rule and stop
    rule of LAPACK's blocked dpstrf: pivot on the largest remaining diagonal
    entry (the first of equal ones), stop when it is at most ``tol``, and
    update the trailing matrix once per ``PIVOT_BLOCK`` columns.  Returns
    (U, piv, r): the upper triangle of the first r rows of the n x n array U
    holds L^T, so that L[:r, :r] is the factor and L[r:, :r] = U[:r, r:]^T
    the remaining rows' coordinates on the pivots, and ``piv`` lists the rows
    of G in pivot order.  The work is done on U, whose rows are contiguous,
    in place of ``gram``."""
    n = gram.shape[0]
    a = gram
    diag = a.reshape(-1)[::n + 1]      # a view of the diagonal
    piv = np.arange(n)
    work = np.zeros(n)                 # squares of the current panel's rows of U
    for k in range(0, n, PIVOT_BLOCK):
        end = min(k + PIVOT_BLOCK, n)
        work[k:] = 0.0
        for j in range(k, end):
            if j > k:
                work[j:] += a[j - 1, j:] ** 2
            remaining = diag[j:] - work[j:]
            p = j + int(np.argmax(remaining))
            ajj = float(remaining[p - j])
            if not ajj > (tol if j else 0.0):
                return a, piv, j
            if p != j:
                a[p, p] = a[j, j]
                _swap(a[:j, j], a[:j, p])
                _swap(a[j, p + 1:], a[p, p + 1:])
                _swap(a[j, j + 1:p], a[j + 1:p, p])
                work[j], work[p] = work[p], work[j]
                piv[j], piv[p] = piv[p], piv[j]
            ajj = math.sqrt(ajj)
            a[j, j] = ajj
            if j > k:
                a[j, j + 1:] -= a[k:j, j] @ a[k:j, j + 1:]
            a[j, j + 1:] *= 1.0 / ajj
        # the upper triangle of the trailing matrix, one block row at a time
        for lo in range(end, n, UPDATE_ROWS):
            hi = min(lo + UPDATE_ROWS, n)
            a[lo:hi, lo:] -= a[k:end, lo:hi].T @ a[k:end, lo:]
    return a, piv, n


def _independent_rows(a_full: Csr) -> _Presolve:
    """Pivoted Cholesky on the row Gram matrix; rows whose pivot is below
    ``PRESOLVE_TOL`` times the largest diagonal entry are dropped."""
    if a_full.shape[0] == 0:
        return _Presolve([], [])
    gram = a_full.gram()
    tol = PRESOLVE_TOL * max(float(gram.diagonal().max(initial=0.0)), 1e-300)
    # the pivoted factorization stops only at a Schur complement whose
    # diagonal, and so whose smallest eigenvalue, is at most tol; no Schur
    # complement has a smaller eigenvalue than G, so when G - tol I is
    # positive definite every row is kept
    shifted = gram.copy()
    shifted.reshape(-1)[::gram.shape[0] + 1] -= tol
    try:
        np.linalg.cholesky(shifted)
        return _Presolve(list(range(gram.shape[0])), [])
    except np.linalg.LinAlgError:
        del shifted
    upper, piv, r = _pivoted_cholesky(gram, tol)
    perm, dropped = piv[:r], piv[r:]
    pre = _Presolve(sorted(perm.tolist()), sorted(dropped.tolist()))
    if dropped.size and r:
        pre.pivots = piv
        pre.factor, pre.spans = np.triu(upper[:r, :r]).T, upper[:r, r:].T.copy()
    return pre


class _Rows:
    """What a solve computes from the problem's rows alone, once per
    :class:`~vbroadcast.sdp.problem.Structure`: the presolve, the block rows
    of the Schur complement, the kept rows ``a_red`` (dense by
    ``_dense_if_filled``) and their transpose, a view when dense, and the
    dense columns ``a_lin`` of the orthant on all rows."""

    def __init__(self, problem: SdpProblem):
        self.presolve = _independent_rows(problem.a)
        kept = self.presolve.kept
        self.blocks = _block_rows(problem)
        self.a_red = _dense_if_filled(problem.a[kept])
        self.a_red_t = self.a_red.T
        self.a_lin = problem.a[:, :problem.cone.n_lin].toarray()
        self.keep_ix = np.ix_(kept, kept)


def _rows(problem: SdpProblem) -> _Rows:
    """The row data of ``problem``'s structure, computed on its first solve."""
    shared = problem.structure
    if shared.solver is None:
        shared.solver = _Rows(problem)
    return shared.solver


# ---------------------------------------------------------------------------
# The HSD engine
# ---------------------------------------------------------------------------

def _chol_with_jitter(m: np.ndarray) -> np.ndarray:
    """Cholesky with a tiny escalating diagonal shift to absorb terminal roundoff."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    base = max(float(np.trace(m).real) / m.shape[0], 1.0)
    for expo in (-14, -12, -10):
        try:
            return np.linalg.cholesky(m + (10.0 ** expo) * base * np.eye(m.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("matrix is not positive definite")


def _chol_stack(m: np.ndarray) -> np.ndarray:
    """Cholesky factors of a (k, n, n) stack in one call; when one block
    fails, the stack goes through ``_chol_with_jitter`` block by block, so
    only the failing blocks are shifted."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return np.stack([_chol_with_jitter(b) for b in m])


def _schur_factor(schur: np.ndarray, regularization: float) -> np.ndarray:
    """Lower Cholesky factor of the Schur complement.  When it is not
    numerically positive definite, a copy with a diagonal shift growing 100x
    per attempt (from ``regularization`` times the largest diagonal entry) is
    factored instead; three shifted attempts, then ``LinAlgError``."""
    try:
        return np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        pass
    reg = regularization * max(1.0, float(schur.diagonal().max(initial=0.0)))
    diag = np.diag_indices_from(schur)
    for _ in range(3):
        shifted = schur.copy()
        shifted[diag] += reg
        try:
            return np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            reg *= 100.0
    raise np.linalg.LinAlgError("singular Schur complement")


# a Schur solve stops refining at this many times the rounding error of its
# residual (see ``_schur_solve``)
REFINE_FLOOR = 4.0
EPS = float(np.finfo(float).eps)
# rows of the diagonal blocks that a triangular solve inverts, a power of two
TRIANGULAR_BLOCK = 64
# blocks of this size are inverted directly: the leaves of a triangular
# inverse, and a whole factor of at most this many rows
INVERSE_LEAF = 8


def _diagonal_blocks(x: np.ndarray, size: int) -> np.ndarray:
    """The diagonal size x size blocks of each matrix of the C-ordered
    (k, n, n) stack ``x``, as a writable (k, n / size, size, size) view."""
    k, n, _ = x.shape
    step = x.itemsize
    return np.ndarray((k, n // size, size, size), x.dtype, x, 0,
                      (n * n * step, size * (n + 1) * step, n * step, step))


def _unit_lower_inverse(x: np.ndarray) -> np.ndarray:
    """Invert, in place, the C-ordered (k, n, n) stack ``x`` of unit lower
    triangular matrices, n a power of two, and return it.  The diagonal
    blocks of ``INVERSE_LEAF`` rows are inverted by substitution, one row of
    all of them at a time; then blocks of twice the size are completed by
    [[A, 0], [C, B]]^-1 = [[A^-1, 0], [-B^-1 C A^-1, B^-1]], as LAPACK's
    dtrtri blocks, all of one size in one product."""
    n = x.shape[-1]
    leaf = min(n, INVERSE_LEAF)
    leaves = _diagonal_blocks(x, leaf)
    minus = -leaves
    for i in range(1, leaf):
        np.matmul(minus[..., i:i + 1, :i], leaves[..., :i, :i], out=leaves[..., i:i + 1, :i])
    size = leaf
    while size < n:
        pairs = _diagonal_blocks(x, 2 * size)
        first, second = pairs[..., :size, :size], pairs[..., size:, size:]
        corner = pairs[..., size:, :size]
        corner[...] = -(second @ corner @ first)
        size *= 2
    return x


class _Triangular:
    """Solves with a lower triangular L by blocked substitution, O(m^2) per
    right-hand side.  The inverse of each diagonal block of
    ``TRIANGULAR_BLOCK`` rows is computed once, O(m b^2), as D^-1 U^-1 for
    the block U D with D its diagonal and U unit triangular: the factors of a
    Schur complement near an optimum are ill-conditioned mainly in D, and U^-1
    is then far more accurate than the inverse of the whole block."""

    def __init__(self, lower: np.ndarray):
        m = lower.shape[0]
        diag = lower.diagonal()
        if m <= INVERSE_LEAF:
            self.inverse = np.linalg.inv(lower / diag) / diag[:, None]
            return
        cuts = list(range(0, m, TRIANGULAR_BLOCK)) + [m]
        spans = list(zip(cuts, cuts[1:]))
        size = min(TRIANGULAR_BLOCK, 1 << (m - 1).bit_length())
        # the diagonal blocks of U, the last one padded with the identity
        stack = np.zeros((len(spans), size, size))
        for blk, (lo, hi) in zip(stack, spans):
            blk[:hi - lo, :hi - lo] = lower[lo:hi, lo:hi]
        last = spans[-1][1] - spans[-1][0]
        stack[-1, last:, last:] = np.eye(size - last)
        scale = np.ones(stack.shape[:2])
        scale.reshape(-1)[:m] = diag
        stack /= scale[:, None, :]
        inverses = _unit_lower_inverse(stack) / scale[:, :, None]
        inverses = [inv[:hi - lo, :hi - lo] for inv, (lo, hi) in zip(inverses, spans)]
        self.inverse = inverses[0] if len(spans) == 1 else None
        # per block: its rows, its inverse and the part of L left of it
        # (forward), or the transposes of the inverse and of the part below
        # it (backward)
        self._forward = [(slice(lo, hi), inv, lower[lo:hi, :lo])
                         for (lo, hi), inv in zip(spans[1:], inverses[1:])]
        self._backward = [(slice(lo, hi), inv.T, lower[hi:, lo:hi].T)
                          for (lo, hi), inv in zip(spans[-2::-1], inverses[-2::-1])]
        self._first, self._last = (spans[0], inverses[0]), (spans[-1], inverses[-1])

    def lower_solve(self, rhs: np.ndarray) -> np.ndarray:
        """w with L w = ``rhs``, for a vector ``rhs``."""
        if self.inverse is not None:
            return self.inverse @ rhs
        w = np.empty_like(rhs)
        (lo, hi), inv = self._first
        w[lo:hi] = inv @ rhs[lo:hi]
        for rows, inv, left in self._forward:
            w[rows] = inv @ (rhs[rows] - left @ w[:rows.start])
        return w

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with L L^T x = ``rhs``, for a vector ``rhs``."""
        if self.inverse is not None:
            return self.inverse.T @ (self.inverse @ rhs)
        w = self.lower_solve(rhs)
        x = np.empty_like(w)
        (lo, hi), inv = self._last
        x[lo:hi] = inv.T @ w[lo:hi]
        for rows, inv_t, below_t in self._backward:
            x[rows] = inv_t @ (w[rows] - below_t @ x[rows.stop:])
        return x


def _schur_solve(schur: np.ndarray, factor: _Triangular, rhs: np.ndarray) -> np.ndarray:
    """Solve ``schur @ sol = rhs`` with its (possibly shifted) Cholesky
    ``factor`` and refine against the unshifted ``schur`` while the residual
    falls, at most four passes (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2nd ed., ch. 12), unless it is already within
    ``REFINE_FLOOR`` of the rounding error of its own computation,
    eps (max(diag M) |sol| + |rhs|)."""
    if rhs.size == 0:
        return rhs
    sol = factor.solve(rhs)
    res = rhs - schur @ sol
    norm = _norm(res)
    floor = REFINE_FLOOR * EPS * (float(schur.diagonal().max()) * _norm(sol) + _norm(rhs))
    for _ in range(4):
        if norm <= floor:
            break
        cand = sol + factor.solve(res)
        cand_res = rhs - schur @ cand
        cand_norm = _norm(cand_res)
        if not cand_norm < norm:
            break
        sol, res, norm = cand, cand_res, cand_norm
    return sol


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a real vector: the sqrt(v . v) of ``np.linalg.norm``
    without its dispatch."""
    return math.sqrt(v @ v)


def _herm(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix of a stack."""
    return m.conj().swapaxes(-1, -2)


def _max_step(lin: np.ndarray, linv: list[np.ndarray], d_lin: np.ndarray,
              d_stacks: list[np.ndarray]) -> float:
    """Largest alpha keeping a cone point plus alpha times a direction in the
    cone: a ratio test on the orthant, and per block the exact smallest
    eigenvalue of L^-1 dX L^-H for the inverse Cholesky factor L^-1 of X,
    one batched call per stack."""
    neg = d_lin < 0
    alpha = float(np.min(-lin[neg] / d_lin[neg])) if neg.any() else np.inf
    for li, dx in zip(linv, d_stacks):
        lam_min = float(np.linalg.eigvalsh(li @ dx @ _herm(li))[:, 0].min())
        if lam_min < 0:
            alpha = min(alpha, -1.0 / lam_min)
    return alpha


class _Face:
    """The face that a primal-dual point (x, s) names (module docstring): the
    orthant entries ``on_lin`` and, per Hermitian stack, the eigenvectors
    ``v`` of X flagged in ``masks``, with projector Pi, X~ = Pi X Pi and
    S~ = (Q S Q)^+ for Q = I - Pi.  ``eigs`` holds (eigenvalues, v) of each
    X stack and ``s_st`` the S stacks."""

    def __init__(self, cone, on_lin, eigs, masks, s_st):
        self.cone, self.on_lin = cone, on_lin
        self._parts = list(zip(eigs, masks, s_st))
        self.proj = [(v * on[:, None, :]) @ _herm(v) for (_, v), on, _ in self._parts]

    def __call__(self, vec):
        """F, the projection onto the face, along the last axis of ``vec``."""
        return self.project(*self.cone.split(vec))

    def project(self, lin, stacks):
        """F on a vector split by the cone."""
        return self.cone.vec(self.on_lin * lin, [p @ mm @ p for p, mm in zip(self.proj, stacks)])

    @functools.cached_property
    def _off_factors(self) -> list:
        """(X~, S~) of each stack; (Q S Q)^+ inverts, in the eigenbasis of X,
        the off-face block, with the identity standing in on the face."""
        out = []
        for (lam, v), on, sk in self._parts:
            vh = _herm(v)
            off = ~on[:, :, None] & ~on[:, None, :]
            inner = np.where(off, vh @ sk @ v, np.eye(on.shape[1]))
            out.append(((v * (lam * on)[:, None, :]) @ vh,
                        v @ np.where(off, np.linalg.inv(inner), 0.0) @ vh))
        return out

    def off(self, vec):
        """Off(D) = -(X~ D S~ + S~ D X~), along the last axis of ``vec``."""
        lin, stacks = self.cone.split(vec)
        offs = []
        for (xt, st), mm in zip(self._off_factors, stacks):
            half = xt @ mm @ st
            offs.append(-(half + _herm(half)))
        return self.cone.vec(np.zeros_like(lin), offs)

    def schur(self, rows: _Rows) -> np.ndarray:
        """M = A F A^T on the kept rows, by the iteration's Schur code with W = Pi."""
        return _schur(rows.a_lin, self.on_lin, rows.blocks,
                      [p for ps in self.proj for p in ps])[rows.keep_ix]


def _metrics(rows: _Rows, b: np.ndarray, c: np.ndarray, x, s, y):
    """(pres, dres, relgap, pobj, dobj) of the point (x, s, y) on the kept
    rows: the residuals relative to 1 + |b| and 1 + |c|, and the gap relative
    to 1 + |pobj| + |dobj|."""
    pres = _norm(rows.a_red @ x - b) / (1.0 + _norm(b))
    dres = _norm(rows.a_red_t @ y + s - c) / (1.0 + _norm(c))
    pobj, dobj = float(c @ x), float(b @ y)
    return pres, dres, abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)), pobj, dobj


def _accepted(cone, x, s, metrics: tuple, cfg: SolverConfig) -> bool:
    """The face step's acceptance test of (x, s) with the ``_metrics``
    ``metrics``: residuals and gap within the tolerances, and no eigenvalue
    of x or s below -tol_feas (1 + its largest coordinate)."""
    pres, dres, relgap, *_ = metrics
    if not (pres <= cfg.tol_feas and dres <= cfg.tol_feas and relgap <= cfg.tol_gap):
        return False
    for vec in (x, s):
        lin, stacks = cone.split(vec)
        floor = -cfg.tol_feas * (1.0 + float(np.max(np.abs(vec), initial=0.0)))
        lowest = min([float(lin.min(initial=np.inf))]
                     + [float(np.linalg.eigvalsh(st)[:, 0].min()) for st in stacks])
        if not lowest >= floor:
            return False
    return True


def _pseudo_inverse(m: np.ndarray, cutoff: float):
    """The eigenvectors of the symmetric PSD ``m`` on its range and the
    inverses of their eigenvalues, and the eigenvectors of its null space:
    eigenvalues up to ``cutoff`` times the largest count as 0."""
    lam, u = np.linalg.eigh(m)
    keep = lam > cutoff * max(float(lam[-1]), 0.0) if lam.size else lam > 0
    return u[:, keep], 1.0 / lam[keep], u[:, ~keep]


def _newton_round(face: _Face, schur: np.ndarray, rows: _Rows, b: np.ndarray, c: np.ndarray,
                  fx, fs, y, score: float):
    """One Newton step on the KKT system of ``face`` (module docstring), whose
    M is ``schur``, from y, with fx and fs the face parts of x and of
    c - A^T y and ``score`` that of the iterate the face was first read from;
    returns (x, s, y)."""
    a_red, a_red_t = rows.a_red, rows.a_red_t
    range_m, inv_m, null_m = _pseudo_inverse(schur, max(score, FACE_SHIFT))

    def m_plus(r):
        return range_m @ ((range_m.T @ r) * inv_m)

    # the projection's dual step, which keeps y on null(M) ...
    y = y + m_plus(a_red @ fs)
    s = c - a_red_t @ y
    offs = face.off(np.vstack([s, np.asarray(a_red_t @ null_m).T]))
    off_s = offs[0]
    if null_m.shape[1]:
        # ... then the correction on null(M) that the rows of A x = b
        # through Off decide: Z^T L Z z = Z^T (b - A (F x + Off(s))),
        # L = -A Off A^T
        off_null = offs[1:]
        l_null = null_m.T @ -(a_red @ off_null.T)
        basis, inv_l, _ = _pseudo_inverse(0.5 * (l_null + l_null.T), FACE_SHIFT)
        rhs = null_m.T @ (b - a_red @ (fx + off_s))
        z = basis @ ((basis.T @ rhs) * inv_l)
        y = y + null_m @ z
        s = c - a_red_t @ y
        off_s = off_s - z @ off_null
    xi = fx + face(a_red_t @ m_plus(b - a_red @ (fx + off_s)))
    return xi + off_s, s, y


def _face_step(problem: SdpProblem, rows: _Rows, b: np.ndarray, iterate: tuple,
               score: float, cfg: SolverConfig):
    """The face step of the module docstring from ``iterate`` = (x, s, y,
    tau, kappa) of score max(pres, dres, relgap) ``score``: the iterate
    (x, s, y, 1, 0) on the face that ``iterate`` names when one of its stages
    passes the acceptance test, else None."""
    cone, c, a_red, a_red_t = problem.cone, problem.c, rows.a_red, rows.a_red_t
    xv, sv, y, tau, _ = iterate
    x, y = xv / tau, y / tau
    (x_lin, s_lin), stacks = cone.split(np.stack([x, sv / tau]))
    on_lin = (x_lin > s_lin).astype(float)
    eigs = [np.linalg.eigh(st[0]) for st in stacks]
    masks = [lam > np.einsum("kij,kij->kj", v.conj(), st[1] @ v).real
             for (lam, v), st in zip(eigs, stacks)]
    face = _Face(cone, on_lin, eigs, masks, [st[1] for st in stacks])
    schur = face.schur(rows)
    fx, fs = face(np.stack([x, c - a_red_t @ y]))

    # stage 1: the projection onto the face
    shift = FACE_SHIFT * float(schur.diagonal().max(initial=0.0)) or 1.0
    try:
        chol = _Triangular(np.linalg.cholesky(schur + shift * np.eye(len(schur))))
    except np.linalg.LinAlgError:
        return None
    x_face = fx + face(a_red_t @ _schur_solve(schur, chol, b - a_red @ fx))
    # most rejected projections fail here, and the dual side is not needed then
    if _norm(a_red @ x_face - b) <= cfg.tol_feas * (1.0 + _norm(b)):
        y_face = y + _schur_solve(schur, chol, a_red @ fs)
        s_face = c - a_red_t @ y_face
        if _accepted(cone, x_face, s_face, _metrics(rows, b, c, x_face, s_face, y_face), cfg):
            return x_face, s_face, y_face, 1.0, 0.0

    # stage 2: Newton on the face's KKT system, when a block has
    # off-diagonal coordinates
    ranks = [on.sum(axis=1, keepdims=True) for on in masks]
    if not any(np.any((r > 0) & (r < on.shape[1])) for r, on in zip(ranks, masks)):
        return None
    gap = np.inf
    try:
        for round_ in range(FACE_ROUNDS):
            if round_:
                # re-read the eigenvectors from x, keeping each block's rank
                lins, stacks = cone.split(np.stack([x, s]))
                eigs = [np.linalg.eigh(st[0]) for st in stacks]
                masks = [np.arange(on.shape[1]) >= on.shape[1] - r
                         for on, r in zip(masks, ranks)]
                face = _Face(cone, on_lin, eigs, masks, [st[1] for st in stacks])
                schur = face.schur(rows)
                fx, fs = face.project(lins, stacks)
            x, s, y = _newton_round(face, schur, rows, b, c, fx, fs, y, score)
            metrics = _metrics(rows, b, c, x, s, y)
            # a round solves A x = b to rounding unless the face cannot meet
            # the rows, and does not widen the gap unless it diverges: no
            # later round would pass then
            if not (metrics[0] <= cfg.tol_feas and metrics[2] <= gap):
                break
            gap = metrics[2]
            if _accepted(cone, x, s, metrics, cfg):
                return x, s, y, 1.0, 0.0
    except np.linalg.LinAlgError:
        pass
    return None


def _hsd_solve(problem: SdpProblem, rows: _Rows, cfg: SolverConfig):
    """Run the HSD iteration on the rows the presolve kept; returns the
    status, the best iterate (x, s, y) and its diagnostics."""
    cone, c = problem.cone, problem.c
    blocks, a_red, a_red_t, a_lin = rows.blocks, rows.a_red, rows.a_red_t, rows.a_lin
    keep_ix = rows.keep_ix
    b = problem.b[rows.presolve.kept]
    m = b.size
    norm_b = _norm(b)
    norm_c = _norm(c)
    c_parts = cone.split(c)

    xv = cone.vec(np.ones(cone.n_lin), [np.broadcast_to(np.eye(n), (len(names), n, n))
                                        for n, names in cone.stacks if n > 1])
    sv = xv.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    best = (xv, sv, y, tau, kappa)
    best_score = np.inf
    stall = 0
    face_at, face_steps, face_accepted = FACE_TRIGGER, 0, False

    def current_metrics(xv, sv, yv, tau_v):
        return _metrics(rows, b, c, xv / tau_v, sv / tau_v, yv / tau_v)

    status = STATUS_MAX_ITER
    note = ""
    it = 0
    for it in range(1, cfg.max_iter + 1):
        pres, dres, relgap, pobj, dobj = current_metrics(xv, sv, y, tau)
        score = max(pres, dres, relgap)
        stall = 0 if score < 0.9 * best_score else stall + 1
        if score < best_score:
            best_score, best = score, (xv, sv, y, tau, kappa)
        if stall >= 25:
            status = STATUS_NUMERICAL
            note = f"no progress over {stall} iterations"
            break
        if pres <= cfg.tol_feas and dres <= cfg.tol_feas and relgap <= cfg.tol_gap:
            status = STATUS_OPTIMAL
            best = (xv, sv, y, tau, kappa)
            break
        if score <= face_at:
            face_steps += 1
            polished = _face_step(problem, rows, b, (xv, sv, y, tau, kappa), score, cfg)
            face_at = score / 10.0
            if polished is not None:
                status, best, face_accepted = STATUS_OPTIMAL, polished, True
                note = "finished by a face step"
                break

        # Farkas certificates (scale-free residual ratios)
        by = float(b @ y)
        cx = float(c @ xv)
        if by > 0:
            ratio = _norm(a_red_t @ y + sv) / by
            if ratio <= INFEAS_TOL * (1.0 + norm_c):
                status = STATUS_PRIMAL_INFEASIBLE
                note = f"dual improving ray with residual ratio {ratio:.2e}"
                best = (xv, sv, y, tau, kappa)
                break
        if cx < 0:
            ratio = _norm(a_red @ xv) / (-cx)
            if ratio <= INFEAS_TOL * (1.0 + norm_b):
                status = STATUS_DUAL_INFEASIBLE
                note = f"primal improving ray with residual ratio {ratio:.2e}"
                best = (xv, sv, y, tau, kappa)
                break

        # Nesterov-Todd scaling point per block, one stack of blocks at a
        # time: W = G G^H with G^-1 X G^-H = G^H S G = diag(lam).  The X and
        # S blocks of a stack are factored, and inverted, as one stack.
        x_lin, x_st = cone.split(xv)
        s_lin, s_st = cone.split(sv)
        try:
            chol = [_chol_stack(np.concatenate(pair)) for pair in zip(x_st, s_st)]
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL
            note = "iterate left the cone (Cholesky failure)"
            break
        g_st, ginv_st, lam_st, w_st = [], [], [], []
        for lxs in chol:
            k = len(lxs) // 2
            lx, ls = lxs[:k], lxs[k:]
            u, sig, vh = np.linalg.svd(_herm(ls) @ lx)
            if sig.min() <= 0 or not np.all(np.isfinite(sig)):
                break
            root = np.sqrt(sig)[:, None, :]
            g = lx @ _herm(vh) / root
            g_st.append(g)
            ginv_st.append(_herm(u / root) @ _herm(ls))
            lam_st.append(sig)
            w_st.append(g @ _herm(g))
        if len(w_st) < len(chol):
            status = STATUS_NUMERICAL
            note = "degenerate NT scaling"
            break
        # inverse Cholesky factors of X then S, shared by the two step lengths
        linv = [np.linalg.inv(lxs) for lxs in chol]
        xs_lin = np.concatenate([x_lin, s_lin])
        p_lin = x_lin / s_lin

        mu = (float(xv @ sv) + tau * kappa) / (cone.degree + 1.0)

        def scale_p(lin, stacks):
            """Apply P = W . W blockwise to a split cone vector."""
            return cone.vec(p_lin * lin, [w @ mm @ w for w, mm in zip(w_st, stacks)])

        # Schur complement M = A P A^T, built on all rows and cut to the kept ones
        schur = _schur(a_lin, p_lin, blocks, [w for ws in w_st for w in ws])[keep_ix]

        pc = scale_p(*c_parts)
        apc = a_red @ pc
        cpc = float(c @ pc)

        try:
            chol_m = _Triangular(_schur_factor(schur, SCHUR_REGULARIZATION))
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL
            note = "singular Schur complement"
            break

        def schur_solve(rhs):
            return _schur_solve(schur, chol_m, rhs)

        vb = schur_solve(b)
        vu = schur_solve(apc)
        v1 = vb + vu

        r_p = tau * b - a_red @ xv
        r_d = tau * c - a_red_t @ y - sv
        r_g = kappa + float(c @ xv) - float(b @ y)
        prd = scale_p(*cone.split(r_d))
        aprd = a_red @ prd
        cprd = float(c @ prd)

        # the reduced pivot equals b.M^-1.b + c.(P - PA^T M^-1 AP).c + kappa/tau,
        # a sum of nonnegative terms; computing it that way avoids the
        # catastrophic cancellation the naive expression suffers near optimality
        den = (max(float(b @ vb), 0.0) + max(cpc - float(apc @ vu), 0.0)
               + kappa / tau)
        if not np.isfinite(den) or den <= 0:
            status = STATUS_NUMERICAL
            note = f"non-positive reduced pivot {den:.2e}"
            break

        def direction(eta, h, d_tau_rhs):
            rhs_y = eta * r_p - a_red @ h + eta * aprd
            v2 = schur_solve(rhs_y)
            num = (eta * r_g + float(c @ h) - eta * cprd + d_tau_rhs / tau
                   - float((b - apc) @ v2))
            d_tau = num / den
            dy = v1 * d_tau + v2
            ds = eta * r_d - a_red_t @ dy + c * d_tau
            d_kappa = (d_tau_rhs - kappa * d_tau) / tau
            ds_parts = cone.split(ds)
            dx = h - scale_p(*ds_parts)
            return dx, dy, ds, d_tau, d_kappa, cone.split(dx), ds_parts

        def step_length(dx_parts, ds_parts, d_tau, d_kappa):
            (dx_lin, dx_st), (ds_lin, ds_st) = dx_parts, ds_parts
            alpha = _max_step(xs_lin, linv, np.concatenate([dx_lin, ds_lin]),
                              [np.concatenate(pair) for pair in zip(dx_st, ds_st)])
            if d_tau < 0:
                alpha = min(alpha, -tau / d_tau)
            if d_kappa < 0:
                alpha = min(alpha, -kappa / d_kappa)
            return alpha

        # predictor (affine scaling direction): h = -x, d_tau rhs = -tau*kappa
        dx, dy, ds, d_tau, d_kappa, dx_parts, ds_parts = direction(1.0, -xv, -tau * kappa)
        alpha_aff = min(1.0, step_length(dx_parts, ds_parts, d_tau, d_kappa))

        mu_aff = ((float((xv + alpha_aff * dx) @ (sv + alpha_aff * ds))
                   + (tau + alpha_aff * d_tau) * (kappa + alpha_aff * d_kappa))
                  / (cone.degree + 1.0))
        sigma = min(1.0, max(0.0, (mu_aff / mu) ** 3))
        if max(pres, dres) > 10.0 * max(relgap, 1e-14):
            # infeasibility dominates the gap: keep eta = 1 - sigma bounded
            # away from zero so the step keeps attacking the residuals instead
            # of collapsing mu further
            sigma = min(sigma, 0.5)

        # corrector: scaled cross terms from the affine direction
        (dx_lin, dx_st), (ds_lin, ds_st) = dx_parts, ds_parts
        h_st = []
        for g, ginv, lam, dxa, dsa in zip(g_st, ginv_st, lam_st, dx_st, ds_st):
            dx_s = ginv @ dxa @ _herm(ginv)
            ds_s = _herm(g) @ dsa @ g
            cross = 0.5 * (dx_s @ ds_s + ds_s @ dx_s)
            rc = (sigma * mu - lam ** 2)[:, :, None] * np.eye(lam.shape[1]) - cross
            rtil = rc / (0.5 * (lam[:, :, None] + lam[:, None, :]))
            h_st.append(g @ rtil @ _herm(g))
        h_lin = (sigma * mu - x_lin * s_lin - dx_lin * ds_lin) / s_lin
        d_tau_rhs = sigma * mu - tau * kappa - d_tau * d_kappa

        dx, dy, ds, d_tau, d_kappa, dx_parts, ds_parts = direction(
            1.0 - sigma, cone.vec(h_lin, h_st), d_tau_rhs)
        alpha = min(1.0, STEP_FRACTION
                    * step_length(dx_parts, ds_parts, d_tau, d_kappa))
        if not np.isfinite(alpha) or alpha <= 0:
            status = STATUS_NUMERICAL
            note = f"step length collapsed ({alpha})"
            break

        xv = xv + alpha * dx
        sv = sv + alpha * ds
        y = y + alpha * dy
        tau = tau + alpha * d_tau
        kappa = kappa + alpha * d_kappa
        if not (np.isfinite(tau) and np.isfinite(kappa)) or tau <= 0:
            status = STATUS_NUMERICAL
            note = "tau left the positive ray"
            break

    xv, sv, y, tau, kappa = best
    pres, dres, relgap, pobj, dobj = current_metrics(xv, sv, y, tau)
    if (status in (STATUS_MAX_ITER, STATUS_NUMERICAL)
            and pres <= cfg.tol_feas and dres <= cfg.tol_feas
            and relgap <= cfg.tol_gap):
        # a terminal breakdown after the best iterate already met every
        # tolerance does not invalidate that iterate
        note = f"converged before terminal breakdown ({note or status})"
        status = STATUS_OPTIMAL
    return status, xv, sv, y, dict(
        iterations=it, primal_residual=pres, dual_residual=dres, relative_gap=relgap,
        tau=tau, kappa=kappa, face_steps=face_steps, face_accepted=face_accepted, note=note)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve a Hermitian-block SDP; see the module docstring for the method.

    The returned solution carries complex-domain blocks.  On ``optimal`` the
    normalized primal/dual residuals are below ``tol_feas`` and the relative
    duality gap below ``tol_gap``; infeasibility is reported through Farkas
    certificates found by the self-dual embedding.  A problem past
    ``MAX_ROWS`` or ``MAX_BLOCK_DIM`` raises ``ValueError``.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    problem.validate()
    largest = max((b.dim for b in problem.blocks), default=0)
    if problem.n_rows > MAX_ROWS or largest > MAX_BLOCK_DIM:
        raise ValueError(f"problem size (rows {problem.n_rows}, largest block {largest}) exceeds "
                         f"what solve accepts (rows {MAX_ROWS}, block {MAX_BLOCK_DIM})")
    b_vec, c = problem.b, problem.c
    rows = _rows(problem)
    kept, dropped = rows.presolve.kept, rows.presolve.dropped
    inconsistency = rows.presolve.inconsistency(b_vec)

    diagnostics = {
        "dropped_rows": list(dropped),
        "row_inconsistency": inconsistency,
        "n_rows_original": int(b_vec.size),
        "n_rows_solved": len(kept),
    }

    if inconsistency > 1e-8:
        status, y = STATUS_PRIMAL_INFEASIBLE, np.zeros(len(kept))
        xv = sv = np.zeros(problem.cone.offsets[-1])
        info = dict(iterations=0, tau=0.0, face_steps=0, face_accepted=False, note=(
            "equality rows are linearly dependent with inconsistent right-hand "
            f"sides (residual {inconsistency:.2e})"))
    else:
        status, xv, sv, y, info = _hsd_solve(problem, rows, cfg)
    diagnostics.update(info, seconds=time.perf_counter() - t0)

    # certificates are rays, reported unscaled
    rays = status in (STATUS_PRIMAL_INFEASIBLE, STATUS_DUAL_INFEASIBLE)
    scale = 1.0 if rays or info["tau"] <= 0 else 1.0 / info["tau"]
    xv, sv = xv * scale, sv * scale
    x_mats, s_mats = problem.cone.blocks(xv), problem.cone.blocks(sv)
    x_blocks = {b.name: x_mats[b.name] for b in problem.blocks}
    s_blocks = {b.name: s_mats[b.name] for b in problem.blocks}
    y_full = np.zeros(b_vec.size)
    y_full[kept] = y * scale

    pobj = float(c @ xv)
    dobj = float(b_vec @ y_full)
    gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    if rays:
        pobj = dobj = gap = np.nan

    solution = SdpSolution(status=status, x_blocks=x_blocks, y=y_full,
                           s_blocks=s_blocks, primal_objective=pobj,
                           dual_objective=dobj, gap=gap,
                           iterations=info["iterations"], diagnostics=diagnostics)
    for log in _ACTIVE_RECORDERS:
        log.append((problem, solution))
    return solution
