"""Independent verification of solver output against the original problem data.

The checks below recompute everything from the :class:`SdpProblem` data
(its constraint matrix ``a``, ``b`` and ``c``) and the complex-domain
solution blocks; nothing is taken from solver internals.  A(X) and A^*(y)
are one product each on the one matrix, and the blocks of one dimension,
a stack of the problem's cone, are checked together: Hermiticity,
eigenvalues and complementarity.  All residuals are normalized by the
natural scale of the quantity they measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import HERMITICITY_TOL, SDP_TOL
from .problem import SdpProblem, _vec
from .solver import STATUS_OPTIMAL, SdpSolution

# an optimal solve whose independent certificate check failed
STATUS_UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class CertificateReport:
    """Residual report; ``passed`` is None when the solve was not optimal.
    ``worst_row`` names the constraint of the row with the largest primal
    residual."""

    passed: bool | None
    status: str
    primal_residual: float
    dual_residual: float
    complementarity: float
    duality_gap: float
    min_eig_x: float
    min_eig_s: float
    worst_row: str = ""
    details: str = ""


def _hermitian_stacks(problem: SdpProblem, blocks: dict[str, np.ndarray],
                      which: str) -> list[np.ndarray]:
    """The blocks stacked by dimension (``Cone.stacked``), symmetrized.
    A block whose asymmetry exceeds ``HERMITICITY_TOL * (1 + max|entry|)``,
    the test of ``linalg.as_hermitian``, or that is not finite raises
    ``ValueError``."""
    out = []
    for (_, names), st in zip(problem.cone.stacks, problem.cone.stacked(blocks)):
        herm = st.conj().swapaxes(-1, -2)
        asym = np.abs(st - herm).max(axis=(1, 2))
        scale = 1.0 + np.abs(st).max(axis=(1, 2))
        bad = np.flatnonzero(~(asym <= HERMITICITY_TOL * scale))
        if bad.size:
            k = bad[0]
            raise ValueError(f"{which} block {names[k]!r} is not Hermitian: asymmetry "
                             f"{asym[k]:.3e} exceeds {HERMITICITY_TOL:.1e} * {scale[k]:.3e}")
        out.append(0.5 * (st + herm))
    return out


def check_certificate(problem: SdpProblem, solution: SdpSolution) -> CertificateReport:
    """Recompute primal/dual residuals, complementarity and cone membership.

    Pass criteria: every normalized residual at most ``linalg.SDP_TOL``
    (1e-6) and every block eigenvalue at least ``-SDP_TOL``.  A block that is
    not Hermitian raises ``ValueError``.
    """
    x_st = _hermitian_stacks(problem, solution.x_blocks, "X")
    s_st = _hermitian_stacks(problem, solution.s_blocks, "S")
    xv = np.concatenate([_vec(st).ravel() for st in x_st])
    sv = np.concatenate([_vec(st).ravel() for st in s_st])
    cone = problem.cone

    def per_block(v):
        """``v`` as one (k, n^2) array of block coordinates per stack."""
        return [v[lo:hi].reshape(len(names), -1) for (_, names), lo, hi
                in zip(cone.stacks, cone.offsets, cone.offsets[1:])]

    b, c = problem.b, problem.c
    resid = np.abs(problem.a @ xv - b)
    pres = float(np.max(resid, initial=0.0)) / (1.0 + float(np.max(np.abs(b), initial=0.0)))
    worst_row = problem.row_label(int(np.argmax(resid))) if resid.size else ""

    dres = max(float(np.max(np.linalg.norm(rk, axis=1) / (1.0 + np.linalg.norm(ck, axis=1))))
               for rk, ck in zip(per_block(c - problem.a.T @ solution.y - sv), per_block(c)))

    pobj = float(c @ xv)
    dobj = float(b @ solution.y)
    scale = 1.0 + abs(pobj) + abs(dobj)
    gap = abs(pobj - dobj) / scale

    compl = sum(float(np.abs(p.sum(axis=1)).sum()) for p in per_block(xv * sv)) / scale
    min_x = min(float(np.linalg.eigvalsh(st)[:, 0].min()) for st in x_st)
    min_s = min(float(np.linalg.eigvalsh(st)[:, 0].min()) for st in s_st)

    if solution.status != STATUS_OPTIMAL:
        return CertificateReport(
            passed=None, status=solution.status, primal_residual=pres,
            dual_residual=dres, complementarity=compl, duality_gap=gap,
            min_eig_x=min_x, min_eig_s=min_s, worst_row=worst_row,
            details="no pass/fail verdict for a non-optimal solve")

    passed = (pres <= SDP_TOL and dres <= SDP_TOL and compl <= SDP_TOL and gap <= SDP_TOL
              and min_x >= -SDP_TOL and min_s >= -SDP_TOL)
    details = "" if passed else (
        f"primal {pres:.2e} (worst row: {worst_row}), dual {dres:.2e}, "
        f"compl {compl:.2e}, gap {gap:.2e}, min eig X {min_x:.2e}, "
        f"min eig S {min_s:.2e} vs tol {SDP_TOL:.1e}")
    return CertificateReport(
        passed=passed, status=solution.status, primal_residual=pres,
        dual_residual=dres, complementarity=compl, duality_gap=gap,
        min_eig_x=min_x, min_eig_s=min_s, worst_row=worst_row,
        details=details)
