"""Half diamond-norm distances of Hermitian-preserving maps.

For a map Phi given by a Hermitian Choi operator J on B (x) (outputs), the
norm SDP

    minimize    mu
    subject to  Z >= 0,  Z >= J,  Tr_out[Z] = mu I_B

has the value (1/2)||Phi||_diamond when Phi is trace annihilating, as the
difference of two trace-preserving maps is.  The equality loses nothing
against the cap Tr_out[Z] <= mu I_B: adding (mu I_B - Tr_out[Z]) (x) I_out /
d_out to Z keeps every constraint.  Read as a decomposition, J = Z - (Z - J)
splits the map into two completely positive parts with output traces mu I_B
and mu I_B - Tr_out J, so for a trace-preserving J the same SDP gives the
least x + y = 2 mu - 1 over J = J1 - J2 with Tr_out J1 = x I_B and
Tr_out J2 = y I_B (``broadcasting.overhead_of_map``).  A norm constraint
(1/2)||Phi||_diamond <= a is exactly feasibility of the same block system
with mu fixed to a.  A seeded state-sampling lower bound
(the stabilized trace norm over sampled pure inputs, with the maximally
entangled state always included) cross-checks the SDP value: the two coincide
for the isotropic instances used throughout and bracket it everywhere else.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .channels import ChoiOperator, apply_choi_with_ancilla, max_entangled_state
from .linalg import as_hermitian, haar_unitary
from .sdp import (
    STATUS_OPTIMAL,
    STATUS_UNCERTIFIED,
    CertificateReport,
    ProblemBuilder,
    SdpProblem,
    SdpSolution,
    SolverConfig,
    SolverFailure,
    check_certificate,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)
from .sdp.problem import _vec

DEFAULT_SAMPLES = 256
DEFAULT_SEED = 20240917


@dataclass
class DiamondResult:
    """Half diamond norm with its optimal witness and sampled lower bound;
    ``status`` is ``uncertified`` when the certificate check fails."""

    value: float
    witness_z: np.ndarray
    lower_bound: float
    status: str
    solution: SdpSolution = field(repr=False)
    certificate: CertificateReport = field(repr=False)


def diamond_problem(j_phi: ChoiOperator) -> SdpProblem:
    """Assemble the norm SDP for a Hermitian Choi operator with any number of
    outputs: the rows of its layout (:func:`_diamond_structure`) with the
    right-hand side J on the rows of Z >= J."""
    structure = _diamond_structure(j_phi.dims)
    b = np.zeros(structure.n_rows)
    for start, stop, label in structure.labels:
        if label == "dominates":
            b[start:stop] = _vec(as_hermitian(j_phi.op))
    return structure.with_b(b)


@functools.lru_cache(maxsize=16)
def _diamond_structure(dims: tuple[int, ...]) -> SdpProblem:
    """The rows of the norm SDP for a Choi operator on the layout ``dims``
    (input first), with every right-hand side 0."""
    d, n = dims[0], math.prod(dims)
    builder = ProblemBuilder()
    builder.add_psd_block("Z", n)
    builder.add_scalar("mu")
    builder.minimize({"mu": 1.0})
    builder.add_operator_ineq([full_term("Z")], np.zeros((n, n)), label="dominates")
    builder.add_operator_eq(
        [ptrace_term("Z", dims, drop=tuple(range(1, len(dims)))),
         scalar_term("mu", np.eye(d), scale=-1.0)],
        np.zeros((d, d), dtype=complex), label="trace")
    return builder.build()


def half_diamond_distance(j_phi: ChoiOperator,
                          config: SolverConfig | None = None,
                          lower_bound_samples: int = 64,
                          seed: int = DEFAULT_SEED) -> DiamondResult:
    """Compute (1/2)||Phi||_diamond for a Hermitian single-output Choi operator.

    The stabilizing ancilla dimension equals the input dimension, which is
    sufficient for the supremum.  Solver failures propagate as
    :class:`~vbroadcast.sdp.SolverFailure`, a ``RuntimeError``; a sample
    count that is not an integer >= 1 raises ``ValueError`` before the solve.
    """
    if j_phi.n_outputs != 1:
        raise ValueError("expected a single-output Choi operator")
    _check_samples(lower_bound_samples)
    problem = diamond_problem(j_phi)
    cfg = config or SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
    sol = solve(problem, cfg)
    if sol.status != STATUS_OPTIMAL:
        raise SolverFailure(f"diamond-norm SDP did not reach optimality: {sol.status} "
                            f"({sol.diagnostics.get('note', '')})", sol.status)
    cert = check_certificate(problem, sol)
    lower = lower_bound_by_states(j_phi, samples=lower_bound_samples, seed=seed)
    return DiamondResult(
        value=float(sol.primal_objective),
        witness_z=sol.x_blocks["Z"],
        lower_bound=lower,
        status=sol.status if cert.passed else STATUS_UNCERTIFIED,
        solution=sol,
        certificate=cert,
    )


def _check_samples(samples: int) -> int:
    """Validate a count of sampled states: an integer >= 1, not a bool, or ValueError."""
    try:
        count = 0 if isinstance(samples, bool) else operator.index(samples)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"sample count {samples!r} is not an integer >= 1")
    return count


def lower_bound_by_states(j_phi: ChoiOperator, samples: int = DEFAULT_SAMPLES,
                          seed: int = DEFAULT_SEED) -> float:
    """Best stabilized trace-norm value over sampled bipartite pure inputs.

    Evaluates (1/2)||(Phi (x) id)(psi)||_1 over ``samples`` Haar-seeded pure
    states on the doubled space, always including the maximally entangled
    state.  Deterministic for a fixed seed; a valid lower bound on the SDP
    value for any sample count.
    """
    samples = _check_samples(samples)
    d = j_phi.in_dim
    dd = d * d
    units = haar_unitary(dd, np.random.default_rng(seed), (-(-samples // dd),))
    # the columns of successive unitaries, in order
    psi = units.swapaxes(-1, -2).reshape(-1, dd)[:samples]
    states = np.concatenate([max_entangled_state(d)[None],
                             psi[:, :, None] * psi[:, None, :].conj()])
    out = apply_choi_with_ancilla(j_phi, states, anc_dim=d)
    return 0.5 * float(np.max(np.sum(np.abs(np.linalg.eigvalsh(out)), axis=-1)))
