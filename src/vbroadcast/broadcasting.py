"""Broadcasting trade-off optimizations over virtual-protocol decompositions.

Every function here minimizes over decompositions J = J1 - J2 of an HPTP map
into completely positive parts with weights Tr_out[J1] = x I_B,
Tr_out[J2] = y I_B, x - y = 1.  The minimal nu = x + y is the square root of
the sample-complexity overhead: a virtual protocol implementing J inflates
the number of measurement shots by nu^2 relative to running a channel.

The problems solved:

* ``overhead_of_map``      -- nu for a fixed HPTP Choi operator,
* ``exact_overhead``       -- nu over all maps with identity marginals,
* ``approx_overhead``      -- nu over maps whose marginals are within half
                              diamond distance (a, b) of the identity,
* ``approx_overhead_depolarizing`` / ``depolarizing_overhead``
                           -- the covariant reduction: marginals pinned to the
                              depolarizing family, which loses no optimality,
* ``min_error``            -- the inverse problem: smallest balanced marginal
                              error under a sample budget (x + y)^2 <= gamma,
* ``discard_prepare_point`` -- the explicit teleport/discard-and-prepare
                              construction that certifies the closed-form
                              error bound ``min_error_upper_bound``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import (
    BroadcastDecomposition,
    ChoiOperator,
    depolarizing_choi,
    gamma_operator,
    marginal_choi,
)
from .linalg import min_eigenvalue, permute_subsystems
from .sdp import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_UNCERTIFIED,
    CertificateReport,
    ProblemBuilder,
    SdpSolution,
    SolverConfig,
    SolverFailure,
    check_certificate,
    full_term,
    ptrace_term,
    scalar_term,
    solve,
)

# Thresholds at or below this are treated as exact-marginal constraints; the
# norm-ball formulation has empty interior at zero radius while the equality
# form is numerically clean and mathematically identical.
ZERO_THRESHOLD = 1e-12

DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class ErrorThresholds:
    """Half-diamond-norm error allowances (a, b) on the two marginals."""

    a: float
    b: float

    def __post_init__(self):
        for name, v in (("a", self.a), ("b", self.b)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"threshold {name}={v} outside [0, 1]")


@dataclass
class OverheadResult:
    """Optimal nu = x + y with the achieving decomposition.

    ``s = nu^2`` is the sample-complexity overhead; the protocol is sample
    efficient when s < 2, i.e. it beats splitting the shots between the two
    receivers.  ``t`` is set when the marginals are (constrained to be) in the
    depolarizing family.  ``status`` is ``uncertified`` when the solver reported
    an optimum that the independent certificate check rejects.
    """

    nu: float
    decomposition: BroadcastDecomposition | None
    status: str
    t: float | None = None
    solution: SdpSolution | None = field(default=None, repr=False)
    certificate: CertificateReport | None = field(default=None, repr=False)

    @property
    def s(self) -> float:
        return self.nu ** 2

    @property
    def sample_efficient(self) -> bool:
        return self.s < 2.0


@dataclass
class TradeoffPoint:
    """Minimal balanced marginal error mu(gamma, d) at sample budget gamma."""

    gamma: float
    d: int
    mu: float
    t: float
    decomposition: BroadcastDecomposition | None
    status: str
    solution: SdpSolution | None = field(default=None, repr=False)
    certificate: CertificateReport | None = field(default=None, repr=False)


# ---------------------------------------------------------------------------
# shared assembly pieces
# ---------------------------------------------------------------------------

def _decomposition_builder(d: int, minimize_nu: bool = True,
                           allow_large_blocks: bool = False) -> ProblemBuilder:
    """Blocks J1, J2 on (B, B1, B2) plus weights with x - y = 1."""
    builder = ProblemBuilder(allow_large_blocks=allow_large_blocks)
    builder.add_psd_block("J1", d ** 3)
    builder.add_psd_block("J2", d ** 3)
    builder.add_scalar("x")
    builder.add_scalar("y")
    if minimize_nu:
        builder.minimize({"x": 1.0, "y": 1.0})
    _add_weight_rows(builder, d)
    return builder


def _add_weight_rows(builder: ProblemBuilder, d: int) -> None:
    dd = (d, d, d)
    zero = np.zeros((d, d), dtype=complex)
    builder.add_operator_eq(
        [ptrace_term("J1", dd, drop=(1, 2)), scalar_term("x", np.eye(d), scale=-1.0)],
        zero, label="weight1")
    builder.add_operator_eq(
        [ptrace_term("J2", dd, drop=(1, 2)), scalar_term("y", np.eye(d), scale=-1.0)],
        zero, label="weight2")
    builder.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0, label="unit_difference")


def _marginal_terms(d: int, marginal: int) -> list:
    """Terms evaluating Tr_{other output}[J1 - J2]; marginal 1 keeps B1."""
    dd = (d, d, d)
    drop = (2,) if marginal == 1 else (1,)
    return [ptrace_term("J1", dd, drop=drop),
            ptrace_term("J2", dd, drop=drop, scale=-1.0)]


def _swap_receivers(j: ChoiOperator) -> ChoiOperator:
    """The Choi operator on (B, B2, B1): the two receivers exchanged."""
    d = j.in_dim
    return ChoiOperator(permute_subsystems(j.op, (d, d, d), (0, 2, 1)), d, j.out_dims)


def _extract_decomposition(sol: SdpSolution, in_dim: int,
                           out_dims: tuple[int, ...]) -> BroadcastDecomposition:
    return BroadcastDecomposition(
        j1=ChoiOperator(sol.x_blocks["J1"], in_dim, out_dims),
        j2=ChoiOperator(sol.x_blocks["J2"], in_dim, out_dims),
        x=sol.scalar("x"),
        y=sol.scalar("y"),
    )


def _outcome(problem, sol, in_dim, out_dims, kind: str):
    """(objective, status, decomposition, certificate) of a finished solve.

    An optimum is checked by the independent certificate and reported as
    ``uncertified`` when the check fails; an infeasibility certificate is an
    answer with a NaN objective and no decomposition; any other status raises
    :class:`SolverFailure`.
    """
    if sol.status == STATUS_OPTIMAL:
        cert = check_certificate(problem, sol, tol=1e-6)
        return (float(sol.primal_objective),
                STATUS_OPTIMAL if cert.passed else STATUS_UNCERTIFIED,
                _extract_decomposition(sol, in_dim, out_dims), cert)
    if sol.status in (STATUS_PRIMAL_INFEASIBLE, STATUS_DUAL_INFEASIBLE):
        return math.nan, sol.status, None, None
    raise SolverFailure(f"{kind} SDP failed: {sol.status} "
                        f"({sol.diagnostics.get('note', '')})", sol.status)


def _finish(problem, sol, in_dim, out_dims, t=None) -> OverheadResult:
    nu, status, dec, cert = _outcome(problem, sol, in_dim, out_dims, "overhead")
    return OverheadResult(nu=nu, decomposition=dec, status=status, t=t,
                          solution=sol, certificate=cert)


# ---------------------------------------------------------------------------
# the optimization problems
# ---------------------------------------------------------------------------

def overhead_of_map(j: ChoiOperator, config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu for the fixed HPTP map with Choi operator ``j``.

    Always feasible for trace-preserving Hermitian input (the positive part
    of a scaled decomposition works), so an infeasibility status indicates a
    non-TP input.
    """
    dtot = j.in_dim * j.out_dim
    builder = ProblemBuilder()
    builder.add_psd_block("J1", dtot)
    builder.add_psd_block("J2", dtot)
    builder.add_scalar("x")
    builder.add_scalar("y")
    builder.minimize({"x": 1.0, "y": 1.0})
    builder.add_operator_eq([full_term("J1"), full_term("J2", -1.0)], j.op,
                            label="difference")
    drop = tuple(range(1, 1 + j.n_outputs))
    zero = np.zeros((j.in_dim, j.in_dim), dtype=complex)
    builder.add_operator_eq(
        [ptrace_term("J1", j.dims, drop=drop),
         scalar_term("x", np.eye(j.in_dim), scale=-1.0)], zero, label="weight1")
    builder.add_operator_eq(
        [ptrace_term("J2", j.dims, drop=drop),
         scalar_term("y", np.eye(j.in_dim), scale=-1.0)], zero, label="weight2")
    builder.add_scalar_eq({"x": 1.0, "y": -1.0}, 1.0, label="unit_difference")
    problem = builder.build()
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, j.in_dim, j.out_dims)


def exact_overhead(d: int, config: SolverConfig | None = None,
                   allow_large_blocks: bool = False) -> OverheadResult:
    """Minimal nu over all maps with identity-channel marginals.

    The optimum has the closed form (3d - 1)/(d + 1), so the overhead
    nu^2 >= 25/9 exceeds 2 for every d >= 2: exact virtual broadcasting is
    never sample efficient.  ``allow_large_blocks`` lifts the block-size
    guardrail of :class:`~vbroadcast.sdp.ProblemBuilder` (d >= 6).
    """
    builder = _decomposition_builder(d, allow_large_blocks=allow_large_blocks)
    gamma = gamma_operator(d)
    builder.add_operator_eq(_marginal_terms(d, 1), gamma, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), gamma, label="marginal2")
    problem = builder.build()
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d, (d, d))


def approx_overhead(thresholds: ErrorThresholds | tuple[float, float], d: int,
                    config: SolverConfig | None = None,
                    allow_large_blocks: bool = False) -> OverheadResult:
    """Minimal nu over maps whose marginals are (a, b)-close to the identity.

    Each norm constraint is the feasibility form of the diamond-norm SDP with
    the bound plugged in for the optimal value: a witness Z_i >= 0 dominating
    the marginal difference with Tr_out[Z_i] <= thr_i * I_B.  Zero thresholds
    are posed as exact marginal equalities instead (identical feasible set,
    nonempty interior).

    The SDP is posed with a >= b.  For a < b the exchanged problem (b, a) is
    solved and its J1, J2 are mapped back by exchanging the two receivers, so
    nu(a, b) == nu(b, a) and the two share one status; ``solution`` and
    ``certificate`` then belong to the exchanged problem.
    """
    thr = thresholds if isinstance(thresholds, ErrorThresholds) else ErrorThresholds(*thresholds)
    if thr.a < thr.b:
        res = approx_overhead((thr.b, thr.a), d, config, allow_large_blocks)
        dec = res.decomposition
        if dec is not None:
            res.decomposition = BroadcastDecomposition(
                j1=_swap_receivers(dec.j1), j2=_swap_receivers(dec.j2), x=dec.x, y=dec.y)
        return res
    builder = _decomposition_builder(d, allow_large_blocks=allow_large_blocks)
    gamma = gamma_operator(d)
    eye_b = np.eye(d)
    for marginal, bound in ((1, thr.a), (2, thr.b)):
        if bound <= ZERO_THRESHOLD:
            builder.add_operator_eq(_marginal_terms(d, marginal), gamma,
                                    label=f"marginal{marginal}_exact")
            continue
        z = builder.add_psd_block(f"Z{marginal}", d * d)
        neg_marginal = [
            ptrace_term(t.block, t.dims, t.drop, scale=-t.scale)
            for t in _marginal_terms(d, marginal)]
        builder.add_operator_ineq(
            [full_term(z)] + neg_marginal, -gamma,
            label=f"witness{marginal}_dominates")
        builder.add_operator_ineq(
            [ptrace_term(z, (d, d), drop=(1,), scale=-1.0)], -bound * eye_b,
            label=f"witness{marginal}_cap")
    problem = builder.build()
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d, (d, d))


def approx_overhead_depolarizing(delta: float, d: int,
                                 config: SolverConfig | None = None) -> OverheadResult:
    """Balanced-threshold overhead via the depolarizing reduction.

    Unitary covariance loses no optimality, and covariant marginals are
    exactly the depolarizing family, so pinning both marginals to the noise
    value t = delta d^2/(d^2-1) (clamped at the fully depolarizing point
    t = 1, beyond which more noise never helps) reproduces
    ``approx_overhead((delta, delta), d)``.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValueError(f"delta={delta} outside [0, 1]")
    t = min(delta * d * d / (d * d - 1.0), 1.0)
    return depolarizing_overhead(t, d, config=config)


def depolarizing_overhead(t: float, d: int,
                          config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu over maps whose both marginals equal the depolarizing Choi
    operator with parameter ``t`` (any real value; the map is HPTP throughout
    and CP only inside [0, d^2/(d^2-1)]).

    Infeasibility, if the solver ever certifies it, is reported through the
    result status rather than an exception.
    """
    builder = _decomposition_builder(d)
    lam = depolarizing_choi(t, d).op
    builder.add_operator_eq(_marginal_terms(d, 1), lam, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2), lam, label="marginal2")
    problem = builder.build()
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d, (d, d), t=t)


def min_error(gamma: float, d: int, config: SolverConfig | None = None,
              allow_large_blocks: bool = False) -> TradeoffPoint:
    """Smallest balanced marginal error under the budget (x + y)^2 <= gamma.

    Solved in the depolarizing-reduced form with the error delta as a cone
    variable tied linearly to the noise parameter, t = delta d^2/(d^2-1), and
    the quadratic budget linearized to x + y <= sqrt(gamma) (equivalent for
    nonnegative weights).  gamma below 1 is reported as infeasible -- no
    decomposition has x + y < 1.
    """
    builder = _decomposition_builder(d, minimize_nu=False,
                                     allow_large_blocks=allow_large_blocks)
    k = d * d / (d * d - 1.0)
    gam = gamma_operator(d)
    tie = k * (gam - np.eye(d * d) / d)
    builder.add_scalar("delta")
    builder.minimize({"delta": 1.0})
    builder.add_operator_eq(_marginal_terms(d, 1) + [scalar_term("delta", tie)],
                            gam, label="marginal1")
    builder.add_operator_eq(_marginal_terms(d, 2) + [scalar_term("delta", tie)],
                            gam, label="marginal2")
    builder.add_scalar_ineq({"x": 1.0, "y": 1.0}, math.sqrt(gamma), label="budget")
    problem = builder.build()
    sol = solve(problem, config or DEFAULT_CONFIG)
    mu, status, dec, cert = _outcome(problem, sol, d, (d, d), "trade-off")
    return TradeoffPoint(gamma=gamma, d=d, mu=mu, t=mu * k, decomposition=dec,
                         status=status, solution=sol, certificate=cert)


def min_error_upper_bound(gamma: float, d: int) -> float:
    """Closed-form bound mu(gamma, d) <= ((d^2-1)/d^2) (3 - sqrt(gamma))/4.

    Dimension-free cap (3 - sqrt(gamma))/4; clamped below at zero (budgets at
    or past the exact-broadcasting cost need no error at all).
    """
    if gamma < 1.0:
        raise ValueError("budgets below 1 are unattainable")
    return max(0.0, (d * d - 1.0) / (d * d) * (3.0 - math.sqrt(gamma)) / 4.0)


def discard_prepare_point(gamma: float, d: int) -> tuple[BroadcastDecomposition, float, dict]:
    """Explicit feasible decomposition from two discard-and-prepare channels.

    The positive part teleports the input to one receiver and hands the other
    the maximally mixed state (symmetrized over receivers); the negative part
    discards the input and prepares maximally mixed states on both.  Weights
    x = (sqrt(gamma)+1)/2, y = (sqrt(gamma)-1)/2 meet the budget exactly, and
    both broadcast marginals come out depolarizing with t = (3-sqrt(gamma))/4,
    which certifies ``min_error_upper_bound``.  Valid for 1 <= gamma <= 9.

    Returns (decomposition, delta, report) where the report carries PSD,
    weight, and marginal residuals of the construction.
    """
    if not 1.0 <= gamma <= 9.0:
        raise ValueError(f"gamma={gamma} outside [1, 9]")
    rt = math.sqrt(gamma)
    x = (rt + 1.0) / 2.0
    y = (rt - 1.0) / 2.0
    gam = gamma_operator(d)
    eye = np.eye(d)

    dims = (d, d, d)
    g01_i2 = np.kron(gam, eye)                                  # on (B, B1, B2)
    g02_i1 = permute_subsystems(np.kron(gam, eye), dims, (0, 2, 1))
    i0_g12 = np.kron(eye, gam)

    j1op = (rt + 1.0) / 4.0 * (g01_i2 + g02_i1) / d
    j2op = (rt - 1.0) / 2.0 * i0_g12 / d
    dec = BroadcastDecomposition(
        j1=ChoiOperator(j1op, d, (d, d)),
        j2=ChoiOperator(j2op, d, (d, d)),
        x=x, y=y)

    t = (3.0 - rt) / 4.0
    delta = (d * d - 1.0) / (d * d) * t
    lam = depolarizing_choi(t, d).op
    diff = dec.difference()
    report = {
        "min_eig_j1": min_eigenvalue(j1op),
        "min_eig_j2": min_eigenvalue(j2op),
        "weight_residual_j1": dec.j1.tp_residual(x),
        "weight_residual_j2": dec.j2.tp_residual(y),
        "budget_residual": abs((x + y) ** 2 - gamma),
        "marginal1_residual": float(np.linalg.norm(
            np.asarray(_marginal_value(diff, 1)) - lam)),
        "marginal2_residual": float(np.linalg.norm(
            np.asarray(_marginal_value(diff, 2)) - lam)),
        "t": t,
        "delta": delta,
    }
    return dec, delta, report


def _marginal_value(j: ChoiOperator, marginal: int) -> np.ndarray:
    return marginal_choi(j, drop=2 if marginal == 1 else 1).op
