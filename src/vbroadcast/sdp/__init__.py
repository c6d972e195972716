"""Self-contained semidefinite programming over Hermitian PSD blocks."""

from .certificate import STATUS_UNCERTIFIED, CertificateReport, check_certificate
from .problem import (
    BlockSpec,
    OpTerm,
    ProblemBuilder,
    SdpProblem,
    dump_problem,
    full_term,
    ptrace_term,
    scalar_term,
)
from .solver import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_MAX_ITER,
    STATUS_NUMERICAL,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    SdpSolution,
    SolverConfig,
    SolverFailure,
    solve,
)

__all__ = [
    "BlockSpec", "OpTerm", "ProblemBuilder", "SdpProblem",
    "dump_problem", "full_term", "ptrace_term", "scalar_term",
    "SdpSolution", "SolverConfig", "SolverFailure", "solve",
    "CertificateReport", "check_certificate",
    "STATUS_OPTIMAL", "STATUS_MAX_ITER", "STATUS_PRIMAL_INFEASIBLE",
    "STATUS_DUAL_INFEASIBLE", "STATUS_NUMERICAL", "STATUS_UNCERTIFIED",
]
