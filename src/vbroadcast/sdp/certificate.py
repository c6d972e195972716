"""Independent verification of solver output against the original problem data.

The checks below recompute everything from the :class:`SdpProblem` data
(its Hermitian-basis coefficients ``a``, ``b`` and ``c``) and the
complex-domain solution blocks; nothing is taken from solver internals.
All residuals are normalized by the natural scale of the quantity they
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..linalg import min_eigenvalue
from .problem import SdpProblem
from .solver import STATUS_OPTIMAL, SdpSolution

# an optimal solve whose independent certificate check failed
STATUS_UNCERTIFIED = "uncertified"


@dataclass(frozen=True)
class CertificateReport:
    """Residual report; ``passed`` is None when the solve was not optimal."""

    passed: bool | None
    status: str
    primal_residual: float
    dual_residual: float
    complementarity: float
    duality_gap: float
    min_eig_x: float
    min_eig_s: float
    details: str = ""


def check_certificate(problem: SdpProblem, solution: SdpSolution,
                      tol: float = 1e-6) -> CertificateReport:
    """Recompute primal/dual residuals, complementarity and cone membership.

    Pass criteria: every normalized residual at most ``tol`` and every block
    eigenvalue at least ``-tol``.
    """
    x = solution.x_blocks
    s = solution.s_blocks
    b = problem.b

    vals = problem.constraint_values(x)
    pres = float(np.max(np.abs(vals - b), initial=0.0)) / (1.0 + float(np.max(np.abs(b), initial=0.0)))

    cmats = problem.objective_matrices()
    adj = problem.adjoint(solution.y)
    dres = 0.0
    for blk in problem.blocks:
        resid = cmats[blk.name] - adj[blk.name] - s[blk.name]
        dres = max(dres, float(np.linalg.norm(resid))
                   / (1.0 + float(np.linalg.norm(cmats[blk.name]))))

    pobj = problem.objective_value(x)
    dobj = float(b @ solution.y)
    scale = 1.0 + abs(pobj) + abs(dobj)
    gap = abs(pobj - dobj) / scale

    compl = 0.0
    min_x = np.inf
    min_s = np.inf
    for blk in problem.blocks:
        xk, sk = x[blk.name], s[blk.name]
        compl += abs(float(np.real(np.trace(xk @ sk))))
        min_x = min(min_x, min_eigenvalue(xk))
        min_s = min(min_s, min_eigenvalue(sk))
    compl /= scale

    if solution.status != STATUS_OPTIMAL:
        return CertificateReport(
            passed=None, status=solution.status, primal_residual=pres,
            dual_residual=dres, complementarity=compl, duality_gap=gap,
            min_eig_x=float(min_x), min_eig_s=float(min_s),
            details="no pass/fail verdict for a non-optimal solve")

    passed = (pres <= tol and dres <= tol and compl <= tol and gap <= tol
              and min_x >= -tol and min_s >= -tol)
    details = "" if passed else (
        f"primal {pres:.2e}, dual {dres:.2e}, compl {compl:.2e}, gap {gap:.2e}, "
        f"min eig X {min_x:.2e}, min eig S {min_s:.2e} vs tol {tol:.1e}")
    return CertificateReport(
        passed=passed, status=solution.status, primal_residual=pres,
        dual_residual=dres, complementarity=compl, duality_gap=gap,
        min_eig_x=float(min_x), min_eig_s=float(min_s), details=details)
