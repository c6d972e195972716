"""Self-contained primal-dual interior-point solver for small dense SDPs.

The algorithm is a path-following method on the homogeneous self-dual
embedding with Nesterov-Todd scaling and a Mehrotra predictor-corrector step,
the standard recipe for this problem class.  Hermitian blocks stay in the
complex domain, as in SeDuMi and SDPT3: the NT scaling, the step length and
the corrector work on complex matrices, and a block's vector form is its
coordinates in the orthonormal Hermitian basis the problem stores its
coefficients in, so that inner products are Re Tr(A X) and the constraint
matrix is the problem's blocks side by side.  Dimension-1 blocks form one
nonnegative orthant.  The Hermitian blocks of one dimension are processed as
one stacked (k, n, n) array: each Cholesky factorization, NT scaling, inverse
factor, step-length eigenvalue test and corrector term of an iteration is one
batched call per block dimension, as SeDuMi and SDPT3 treat a cone.

The Schur complement M_ij = Re Tr(A_i W A_j W) stays per block: it is
assembled one block and one pair of row groups at a time (Fujisawa, Kojima
and Nakata, Math. Prog. 79, 1997).  The rows of an operator equation embed a Hermitian basis as E (x) I,
so a pair of groups is the single contraction Tr_drop_i[W (E (x) I_drop_j) W]
of the reshaped scaling matrix W, followed by a change to the Hermitian basis.
Rows with any other coefficient on a block are paired through W A W.

The embedding tracks (x, y, s, tau, kappa) with the invariants

    A x - tau b            -> 0
    A^T y + s - tau c      -> 0
    kappa + c.x - b.y      -> 0

and complementarity driven to zero along the central path.  tau -> positive
gives an optimal pair (x, y, s) / tau; tau -> 0 with kappa > 0 yields a Farkas
certificate of primal or dual infeasibility.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .problem import SdpProblem, _basis

STATUS_OPTIMAL = "optimal"
STATUS_MAX_ITER = "max_iterations"
STATUS_PRIMAL_INFEASIBLE = "primal_infeasible_certificate"
STATUS_DUAL_INFEASIBLE = "dual_infeasible_certificate"
STATUS_NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    tol_gap: float = 1e-8
    tol_feas: float = 1e-8
    max_iter: int = 200
    step_fraction: float = 0.98
    infeas_tol: float = 1e-8
    preprocess_tol: float = 1e-12
    schur_regularization: float = 1e-12


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
        _ACTIVE_RECORDERS.remove(log)


# ---------------------------------------------------------------------------
# Hermitian-basis coordinates and the structured Schur blocks
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


def _pair_map(wt: np.ndarray, dims, drop_i, drop_j) -> np.ndarray:
    left, right, n_p, n_r, inner = _contraction(dims, drop_i, drop_j)
    k = (wt.transpose(left).reshape(n_p * n_r, inner)
         @ wt.transpose(right).reshape(inner, n_r * n_p))           # (p, r | s, q)
    return k.reshape(n_p, n_r, n_r, n_p).transpose(0, 3, 1, 2).reshape(n_p ** 2, n_r ** 2)


class _Cone:
    """The orthant of the dimension-1 blocks times the Hermitian blocks.

    The Hermitian blocks ``mat`` are ordered by decreasing dimension, stable
    in declaration order, so that the blocks of one dimension n are one
    ``(k, n, n)`` stack: a point is ``(lin, stacks)``, one stack per
    dimension, and its vector is ``lin`` followed by the Hermitian-basis
    coordinates of each matrix, stack by stack.  Problems that declare their
    largest blocks first keep their declared column order.
    """

    def __init__(self, dims: list[int]):
        self.lin = [k for k, n in enumerate(dims) if n == 1]
        self.mat = sorted((k for k, n in enumerate(dims) if n > 1), key=lambda k: -dims[k])
        self.bases = [_basis(dims[k]) for k in self.mat]
        sizes = [b.n for b in self.bases]
        self.stacks = [(_basis(n), sizes.count(n)) for n in sorted(set(sizes), reverse=True)]
        self.offsets = np.cumsum([0, len(self.lin)] + [b.N * k for b, k in self.stacks])
        self.degree = float(len(self.lin) + sum(sizes))

    def split(self, v: np.ndarray):
        o = self.offsets
        return v[:o[1]], [b.mat(v[o[i + 1]:o[i + 2]].reshape(k, b.N))
                          for i, (b, k) in enumerate(self.stacks)]

    def vec(self, lin: np.ndarray, stacks: list[np.ndarray]) -> np.ndarray:
        return np.concatenate([lin] + [b.vec(m).ravel()
                                       for (b, _), m in zip(self.stacks, stacks)])


@dataclass
class _BlockRows:
    """The rows on one Hermitian block: ``groups`` of embeddings (row slice,
    target basis, drop, scale) on the block's ``layout``, and the other rows
    ``mrows`` with coefficient matrices ``hmats`` and constraint columns
    ``a_block``."""

    layout: tuple[int, ...]
    groups: list
    mrows: np.ndarray
    hmats: np.ndarray
    a_block: sp.csr_matrix


def _block_rows(problem: SdpProblem, cone: _Cone) -> list[_BlockRows]:
    out = []
    for k, basis in zip(cone.mat, cone.bases):
        name = problem.blocks[k].name
        a_block = problem.a[name]
        emb = [e for e in problem.embeddings if e.block == name]
        layouts = {e.dims for e in emb if e.drop}
        if len(layouts) > 1:
            emb = []    # no common factorization: every row is paired as a matrix
        layout = layouts.pop() if len(layouts) == 1 else (basis.n,)
        groups = [(slice(e.start, e.start + e.dim ** 2), _basis(e.dim), e.drop, e.scale)
                  for e in emb]
        mrows = np.diff(a_block.indptr) > 0
        for rows, *_ in groups:
            mrows[rows] = False
        mrows = np.flatnonzero(mrows)
        out.append(_BlockRows(layout, groups, mrows,
                              basis.mat(a_block[mrows].toarray()), a_block))
    return out


def _schur(a_lin: np.ndarray, p_lin: np.ndarray, blocks: list[_BlockRows],
           w_list: list[np.ndarray]) -> np.ndarray:
    """M_ij = sum over blocks of Re Tr(A_i W A_j W) on all rows: the orthant
    through its dense columns ``a_lin`` scaled by ``p_lin``, each Hermitian
    block through its rows and its NT scaling matrix W."""
    schur = (a_lin * p_lin) @ a_lin.T
    for blk, w in zip(blocks, w_list):
        wt = w.reshape(blk.layout * 2)
        for a, (rows_g, basis_g, drop_g, scale_g) in enumerate(blk.groups):
            for b in range(a, len(blk.groups)):
                rows_h, basis_h, drop_h, scale_h = blk.groups[b]
                k = _pair_map(wt, blk.layout, drop_g, drop_h)
                m_gh = (scale_g * scale_h) * basis_g.pair(basis_h, k)
                schur[rows_g, rows_h] += m_gh
                if b != a:
                    schur[rows_h, rows_g] += m_gh.T
        if blk.mrows.size:
            # column i: <A_j, W H_i W> for every row j; the (mrows, mrows)
            # part would be added twice
            r = blk.a_block @ _basis(w.shape[0]).vec(w @ blk.hmats @ w).T
            schur[:, blk.mrows] += r
            schur[blk.mrows, :] += r.T
            schur[np.ix_(blk.mrows, blk.mrows)] -= r[blk.mrows]
    return schur


# ---------------------------------------------------------------------------
# Assembly and preprocessing
# ---------------------------------------------------------------------------

def _assemble(problem: SdpProblem, cone: _Cone):
    """Constraint matrix in cone coordinates, objective vector, rhs."""
    names = [problem.blocks[k].name for k in cone.lin + cone.mat]
    return (sp.hstack([problem.a[n] for n in names], format="csr"),
            np.concatenate([problem.c[n] for n in names]), problem.b)


def _select_independent_rows(a_full: sp.csr_matrix, b: np.ndarray, tol_rel: float):
    """Pivoted Cholesky on the row Gram matrix; exact-redundant rows dropped.

    Returns (kept_row_indices, dropped_row_indices, max_inconsistency) where
    the last entry measures how badly any dropped row's right-hand side
    disagrees with the rows that span it (nonzero means infeasible input).
    """
    gram = (a_full @ a_full.T).toarray()
    scale = max(float(gram.diagonal().max(initial=0.0)), 1e-300)
    # P^T G P = L L^T on the first r pivots; the rows of L past r hold the
    # dropped rows' coordinates on those pivots
    lfac, piv, r, _ = sla.lapack.dpstrf(gram, tol=tol_rel * scale, lower=1)
    piv -= 1
    lfac = np.tril(lfac[:, :r])
    perm, dropped = piv[:r], piv[r:]
    inconsistency = 0.0
    if dropped.size and r:
        w = sla.solve_triangular(lfac[:r], b[perm], lower=True)
        ld = lfac[r:]
        denom = 1.0 + np.abs(b[dropped]) + np.linalg.norm(ld, axis=1) * np.linalg.norm(w)
        inconsistency = float(np.max(np.abs(b[dropped] - ld @ w) / denom))
    elif dropped.size:
        inconsistency = float(np.max(np.abs(b[dropped])))
    return sorted(perm.tolist()), sorted(dropped.tolist()), inconsistency


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


def _hsd_solve(cone: _Cone, blocks: list[_BlockRows], a_full: sp.csr_matrix,
               b_full: np.ndarray, kept: list[int], c: np.ndarray, cfg: SolverConfig):
    """Run the HSD iteration on rows ``kept`` of ``a_full`` and ``b_full``;
    returns the status, the best iterate (x, s, y) and its diagnostics."""
    a_red = a_full[kept]
    a_red_t = a_red.T.tocsr()
    a_lin = a_full[:, :len(cone.lin)].toarray()
    keep_ix = np.ix_(kept, kept)
    b = b_full[kept]
    m = b.size
    norm_b = float(np.linalg.norm(b))
    norm_c = float(np.linalg.norm(c))
    c_parts = cone.split(c)

    xv = cone.vec(np.ones(len(cone.lin)),
                  [np.broadcast_to(np.eye(bs.n), (k, bs.n, bs.n)) for bs, k in cone.stacks])
    sv = xv.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    best = (xv, sv, y, tau, kappa)
    best_score = np.inf
    stall = 0

    def current_metrics(xv, sv, yv, tau_v):
        xhat, shat, yhat = xv / tau_v, sv / tau_v, yv / tau_v
        pres = float(np.linalg.norm(a_red @ xhat - b)) / (1.0 + norm_b)
        dres = float(np.linalg.norm(a_red_t @ yhat + shat - c)) / (1.0 + norm_c)
        pobj, dobj = float(c @ xhat), float(b @ yhat)
        return pres, dres, abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)), pobj, dobj

    status = STATUS_MAX_ITER
    note = ""
    it = 0
    for it in range(1, cfg.max_iter + 1):
        pres, dres, relgap, pobj, dobj = current_metrics(xv, sv, y, tau)
        score = max(pres, dres, relgap)
        if score < 0.9 * best_score:
            best_score = score
            stall = 0
            best = (xv, sv, y, tau, kappa)
        else:
            if score < best_score:
                best_score = score
                best = (xv, sv, y, tau, kappa)
            stall += 1
            if stall >= 25:
                status = STATUS_NUMERICAL
                note = f"no progress over {stall} iterations"
                break
        if pres <= cfg.tol_feas and dres <= cfg.tol_feas and relgap <= cfg.tol_gap:
            status = STATUS_OPTIMAL
            best = (xv, sv, y, tau, kappa)
            break

        # Farkas certificates (scale-free residual ratios)
        by = float(b @ y)
        cx = float(c @ xv)
        if by > 0:
            ratio = float(np.linalg.norm(a_red_t @ y + sv)) / by
            if ratio <= cfg.infeas_tol * (1.0 + norm_c):
                status = STATUS_PRIMAL_INFEASIBLE
                note = f"dual improving ray with residual ratio {ratio:.2e}"
                best = (xv, sv, y, tau, kappa)
                break
        if cx < 0:
            ratio = float(np.linalg.norm(a_red @ xv)) / (-cx)
            if ratio <= cfg.infeas_tol * (1.0 + norm_b):
                status = STATUS_DUAL_INFEASIBLE
                note = f"primal improving ray with residual ratio {ratio:.2e}"
                best = (xv, sv, y, tau, kappa)
                break

        # Nesterov-Todd scaling point per block, one stack of blocks at a
        # time: W = G G^H with G^-1 X G^-H = G^H S G = diag(lam)
        x_lin, x_st = cone.split(xv)
        s_lin, s_st = cone.split(sv)
        try:
            chol_x = [_chol_stack(xm) for xm in x_st]
            chol_s = [_chol_stack(sm) for sm in s_st]
        except np.linalg.LinAlgError:
            status = STATUS_NUMERICAL
            note = "iterate left the cone (Cholesky failure)"
            break
        g_st, ginv_st, lam_st, w_st = [], [], [], []
        for lx, ls in zip(chol_x, chol_s):
            u, sig, vh = np.linalg.svd(_herm(ls) @ lx)
            if sig.min() <= 0 or not np.all(np.isfinite(sig)):
                break
            root = np.sqrt(sig)[:, None, :]
            g = lx @ _herm(vh) / root
            g_st.append(g)
            ginv_st.append(_herm(u / root) @ _herm(ls))
            lam_st.append(sig)
            w_st.append(g @ _herm(g))
        if len(w_st) < len(chol_x):
            status = STATUS_NUMERICAL
            note = "degenerate NT scaling"
            break
        # inverse Cholesky factors, shared by the four step-length tests
        linv_x = [np.linalg.inv(lx) for lx in chol_x]
        linv_s = [np.linalg.inv(ls) for ls in chol_s]
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

        reg = cfg.schur_regularization * max(1.0, float(schur.diagonal().max(initial=0.0)))
        cho = None
        for attempt in range(4):
            try:
                cho = sla.cho_factor(schur + (reg if attempt else 0.0) * np.eye(m),
                                     lower=True)
                break
            except np.linalg.LinAlgError:
                reg *= 100.0
        if cho is None and m:
            status = STATUS_NUMERICAL
            note = "singular Schur complement"
            break

        def schur_solve(rhs):
            if m == 0:
                return rhs
            sol = sla.cho_solve(cho, rhs)
            sol += sla.cho_solve(cho, rhs - schur @ sol)  # one refinement pass
            return sol

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
            alpha = min(_max_step(x_lin, linv_x, *dx_parts),
                        _max_step(s_lin, linv_s, *ds_parts))
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
        alpha = min(1.0, cfg.step_fraction
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
        tau=tau, kappa=kappa, note=note)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------

def solve(problem: SdpProblem, config: SolverConfig | None = None) -> SdpSolution:
    """Solve a Hermitian-block SDP; see the module docstring for the method.

    The returned solution carries complex-domain blocks.  On ``optimal`` the
    normalized primal/dual residuals are below ``tol_feas`` and the relative
    duality gap below ``tol_gap``; infeasibility is reported through Farkas
    certificates found by the self-dual embedding.
    """
    cfg = config or SolverConfig()
    t0 = time.perf_counter()
    problem.validate()
    names = [b.name for b in problem.blocks]
    dims = [b.dim for b in problem.blocks]
    cone = _Cone(dims)
    a_full, c, b_vec = _assemble(problem, cone)

    if b_vec.size:
        kept, dropped, inconsistency = _select_independent_rows(
            a_full, b_vec, cfg.preprocess_tol)
    else:
        kept, dropped, inconsistency = [], [], 0.0

    diagnostics = {
        "dropped_rows": dropped,
        "row_inconsistency": inconsistency,
        "n_rows_original": int(b_vec.size),
        "n_rows_solved": len(kept),
    }

    if inconsistency > 1e-8:
        zero = {n: np.zeros((d, d), dtype=complex) for n, d in zip(names, dims)}
        diagnostics["note"] = ("equality rows are linearly dependent with "
                               f"inconsistent right-hand sides (residual {inconsistency:.2e})")
        solution = SdpSolution(status=STATUS_PRIMAL_INFEASIBLE, x_blocks=zero,
                               y=np.zeros(b_vec.size), s_blocks=zero,
                               primal_objective=np.nan, dual_objective=np.nan,
                               gap=np.nan, iterations=0, diagnostics=diagnostics)
        for log in _ACTIVE_RECORDERS:
            log.append((problem, solution))
        return solution

    status, xv, sv, y, info = _hsd_solve(cone, _block_rows(problem, cone),
                                         a_full, b_vec, kept, c, cfg)
    diagnostics.update(info, seconds=time.perf_counter() - t0)

    # certificates are rays, reported unscaled
    rays = status in (STATUS_PRIMAL_INFEASIBLE, STATUS_DUAL_INFEASIBLE)
    scale = 1.0 if rays or info["tau"] <= 0 else 1.0 / info["tau"]
    x_blocks, s_blocks = {}, {}
    for out, (lin, stacks) in ((x_blocks, cone.split(xv * scale)),
                               (s_blocks, cone.split(sv * scale))):
        mats = [np.array([[v]]) for v in lin] + [mat for st in stacks for mat in st]
        by_index = dict(zip(cone.lin + cone.mat, mats))
        out.update((name, by_index[k]) for k, name in enumerate(names))
    y_full = np.zeros(b_vec.size)
    y_full[kept] = y * scale

    pobj = problem.objective_value(x_blocks)
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
