"""Broadcasting trade-off optimizations over virtual-protocol decompositions.

Every function here minimizes over decompositions J = J1 - J2 of an HPTP map
into completely positive parts with weights Tr_out[J1] = x I_B,
Tr_out[J2] = y I_B, x - y = 1.  The minimal nu = x + y is the square root of
the sample-complexity overhead: a virtual protocol implementing J inflates
the number of measurement shots by nu^2 relative to running a channel.

The problems solved:

* ``overhead_of_map``      -- nu for a fixed HPTP Choi operator, from the
                              norm SDP of :mod:`vbroadcast.diamond`,
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

The covariant problems (all but ``overhead_of_map``) and the two closed-form
helpers raise ``ValueError`` when d is not an integer >= 2.

Symmetry reduction.  Every problem but ``overhead_of_map`` is invariant under
conj(U) (x) U (x) U on (B, B1, B2), and twirling a feasible point over that
group keeps it feasible at the same nu, so these SDPs are solved over the
commutant (Gatermann and Parrilo, JPAA 192 (2004); Mozrzymas, Studzinski and
Horodecki, "A simplified formalism for the walled Brauer algebra", 2018).
Under the group, (B, B1, B2) holds two copies of the fundamental irrep, with
frames u_1k = |G>_{B B1}|k>_{B2} / sqrt(d) and u_2k = |G>_{B B2}|k>_{B1} / sqrt(d)
(k = 1..d), plus the traceless parts of B (x) Sym(B1 B2), of dimension
D_S = d(d+2)(d-1)/2, and, for d >= 3, of B (x) Anti(B1 B2), of dimension
D_A = d(d-2)(d+1)/2.  A covariant Choi operator is therefore

    J = sum_ab P_ab sum_k |u_ak><u_bk| + s (d / D_S) Pi_S + a (d / D_A) Pi_A

with a 2 x 2 block P >= 0 and scalars s, a >= 0 (Pi_S, Pi_A the projectors
onto the two traceless parts); J >= 0 exactly when they are.  Each term is
normalized to trace-preserving weight 1, so every coefficient below is O(1)
in d.  With G = [[1, 1/d], [1/d, 1]], the Gram matrix of the two frames, and
g_k its k-th row:

* Tr_{B1 B2} J = w I_B with w = <G, P> + s + a;
* the marginal Tr_{other}[J] on (B, B_k) is
  gamma Gamma + pi d (I - Gamma/d) / (d^2 - 1) with gamma = <g_k g_k^T, P>
  and pi = w - gamma;
* the marginal of J1 - J2 has weight x - y = 1, so pi_k = 1 - gamma_k: it is
  the depolarizing Choi operator with t = (1 - gamma_k) d^2 / (d^2 - 1), and
  its half diamond distance from the identity, |t| (d^2 - 1) / d^2, is
  |1 - gamma_k|.

So each J_i is the blocks P_i, S_i (and A_i), and every weight and marginal
constraint is one scalar row, whatever d is; an error ball of radius thr
around the identity is the range 1 - thr <= gamma_k <= 1 + thr.  All four
problems are posed by ``_covariant_problem``, on rows built once per d,
set of pinned receivers and budget or none (``_covariant_structure``), so
the points of a sweep share one constraint matrix, presolve and Schur
structure and differ in the right-hand side only.  The decomposition on
(B, B1, B2) is built from the reduced optimum only when it is read.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import (
    BroadcastDecomposition,
    ChoiOperator,
    depolarizing_choi,
    gamma_operator,
    marginal_choi,
    swap_operator,
)
from .diamond import diamond_problem
from .linalg import min_eigenvalue, permute_subsystems
from .sdp import (
    STATUS_DUAL_INFEASIBLE,
    STATUS_OPTIMAL,
    STATUS_PRIMAL_INFEASIBLE,
    STATUS_UNCERTIFIED,
    CertificateReport,
    ProblemBuilder,
    SdpProblem,
    SdpSolution,
    SolverConfig,
    SolverFailure,
    check_certificate,
    solve,
)

# Thresholds at or below this are treated as exact-marginal constraints; the
# range 1 - thr <= gamma <= 1 + thr has empty interior at zero radius while
# the equality form is numerically clean and mathematically identical.
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
    ``decomposition`` is built by ``lift`` on first access (None without an
    optimum); for the covariant problems it holds two dense d^3 x d^3
    operators.
    """

    nu: float
    status: str
    t: float | None = None
    solution: SdpSolution | None = field(default=None, repr=False)
    certificate: CertificateReport | None = field(default=None, repr=False)
    lift: Callable[[], BroadcastDecomposition] | None = field(default=None, repr=False)

    @functools.cached_property
    def decomposition(self) -> BroadcastDecomposition | None:
        return None if self.lift is None else self.lift()

    @property
    def s(self) -> float:
        return self.nu ** 2

    @property
    def sample_efficient(self) -> bool:
        return self.s < 2.0


@dataclass
class TradeoffPoint:
    """Minimal balanced marginal error mu(gamma, d) at sample budget gamma;
    ``nu`` = x + y of the optimum, and ``decomposition`` as in
    :class:`OverheadResult`."""

    gamma: float
    d: int
    mu: float
    t: float
    status: str
    nu: float | None = None
    solution: SdpSolution | None = field(default=None, repr=False)
    certificate: CertificateReport | None = field(default=None, repr=False)
    lift: Callable[[], BroadcastDecomposition] | None = field(default=None, repr=False)

    @functools.cached_property
    def decomposition(self) -> BroadcastDecomposition | None:
        return None if self.lift is None else self.lift()


# ---------------------------------------------------------------------------
# the irreducible form of a covariant J (module docstring)
# ---------------------------------------------------------------------------

def _blocks(d: int) -> tuple[str, ...]:
    """The blocks of one J: P on the fundamental copies, S and (d >= 3) A."""
    return ("P", "S", "A") if d >= 3 else ("P", "S")


def _gram(d: int) -> np.ndarray:
    """G_ab = sum_k <u_ak|u_bk> / d, the Gram matrix of the two frames."""
    return np.array([[1.0, 1.0 / d], [1.0 / d, 1.0]])


def _weight(d: int) -> dict:
    """Coefficients of w, Tr_{B1 B2} J = w I_B."""
    return {"P": _gram(d), "S": 1.0, "A": 1.0}


def _gamma_part(d: int, receiver: int) -> dict:
    """Coefficients of gamma = <Gamma_{B B_receiver} (x) I, J> / d^2."""
    g = _gram(d)[receiver - 1]
    return {"P": np.outer(g, g)}


def _on(coeffs: dict, j: int, d: int, scale: float = 1.0) -> dict:
    """``scale`` times ``coeffs`` on the blocks of J_j."""
    return {f"{name}{j}": scale * v for name, v in coeffs.items() if name in _blocks(d)}


def _of_difference(coeffs: dict, d: int) -> dict:
    """``coeffs`` applied to J1 - J2."""
    return {**_on(coeffs, 1, d), **_on(coeffs, 2, d, -1.0)}


def _frames(d: int) -> np.ndarray:
    """The frame vectors u_ak as the rows (a, k) of a (2d, d^3) array."""
    u = np.zeros((2, d, d, d, d))
    i, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    u[0, k, i, i, k] = 1.0          # |i>_B |i>_B1 |k>_B2
    u[1, k, i, k, i] = 1.0          # |i>_B |k>_B1 |i>_B2
    return u.reshape(2 * d, d ** 3) / math.sqrt(d)


def _covariant_choi(p: np.ndarray, s: float, a: float, d: int) -> np.ndarray:
    """The d^3 x d^3 operator J of the irreducible form (P, s, a).

    Pi_S is I_B (x) (I + SWAP)/2 less its fundamental copy, spanned by the
    u_1k + u_2k, and Pi_A likewise with I - SWAP and u_1k - u_2k; both
    fundamental parts are subtracted inside the 2 x 2 block.
    """
    core = np.array(p, dtype=complex)
    op = np.zeros((d ** 3, d ** 3), dtype=complex)
    swap = np.kron(np.eye(d), swap_operator(d))
    for weight, dim, sign in ((s, d * (d + 2) * (d - 1) // 2, 1.0),
                              (a, d * (d - 2) * (d + 1) // 2, -1.0)):
        if dim:
            c = weight * d / dim
            core -= c * np.array([[1.0, sign], [sign, 1.0]]) / (2.0 + 2.0 * sign / d)
            op += c * (np.eye(d ** 3) + sign * swap) / 2.0
    u = _frames(d)
    return op + u.T @ np.kron(core, np.eye(d)) @ u


def _covariant_decomposition(sol: SdpSolution, d: int,
                             exchange: bool = False) -> BroadcastDecomposition:
    """J1, J2 on (B, B1, B2) of a reduced optimum; ``exchange`` swaps the two
    receivers, which exchanges the frames: P -> X P X."""
    def choi(j: int) -> ChoiOperator:
        p = sol.x_blocks[f"P{j}"]
        if exchange:
            p = p[::-1, ::-1]
        a = sol.scalar(f"A{j}") if d >= 3 else 0.0
        return ChoiOperator(_covariant_choi(p, sol.scalar(f"S{j}"), a, d), d, (d, d))

    return BroadcastDecomposition(j1=choi(1), j2=choi(2), x=sol.scalar("x"),
                                  y=sol.scalar("y"))


def _check_dim(d: int) -> None:
    """The covariant problems are posed for an integer dimension d >= 2."""
    try:
        valid = operator.index(d) >= 2
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"dimension d={d!r} is not an integer >= 2")


def _covariant_problem(d: int, ranges: list[tuple[float, float]],
                       budget: float | None = None) -> SdpProblem:
    """The covariant problem over J1, J2 in irreducible form and the weights
    x, y, with the rows w(J1) = x, w(J2) = y and x - y = 1, and
    low_k <= gamma_k(J1 - J2) <= high_k for the ``ranges`` (low_k, high_k) of
    the receivers k = 1, 2 (one equality row when low_k == high_k).  It
    minimizes nu = x + y; with a ``budget`` it instead minimizes a shift delta
    added to each gamma_k, under x + y <= sqrt(budget).  Raises
    ``ValueError`` unless d is an integer >= 2.

    The rows depend only on d, on which receivers are pinned (low_k ==
    high_k) and on whether a budget is set: the problem is the cached
    :func:`_covariant_structure` of those three with the right-hand side of
    these ranges and budget, set on its labelled rows."""
    _check_dim(d)
    structure = _covariant_structure(operator.index(d),
                                     tuple(low == high for low, high in ranges),
                                     budget is not None)
    rhs = {"unit_difference": 1.0}
    for k, (low, high) in enumerate(ranges, start=1):
        if low == high:
            rhs[f"marginal{k}"] = low
        else:
            rhs[f"marginal{k}_low"], rhs[f"marginal{k}_high"] = -low, high
    if budget is not None:
        rhs["budget"] = math.sqrt(budget)
    b = np.zeros(structure.n_rows)
    for start, stop, label in structure.labels:
        b[start:stop] = rhs.get(label, 0.0)
    return structure.with_b(b)


@functools.lru_cache(maxsize=64)
def _covariant_structure(d: int, pinned: tuple[bool, ...], budget: bool) -> SdpProblem:
    """The rows of :func:`_covariant_problem` for dimension ``d``, receivers
    ``pinned`` to one value or not, and with or without a budget; every
    right-hand side is 0."""
    builder = ProblemBuilder()
    for j in (1, 2):
        for name in _blocks(d):
            builder.add_psd_block(f"{name}{j}", 2 if name == "P" else 1)
    builder.add_scalar("x")
    builder.add_scalar("y")
    shift = {}
    if budget:
        shift = {builder.add_scalar("delta"): 1.0}
        builder.minimize(shift)
    else:
        builder.minimize({"x": 1.0, "y": 1.0})
    builder.add_scalar_eq({**_on(_weight(d), 1, d), "x": -1.0}, 0.0, label="weight1")
    builder.add_scalar_eq({**_on(_weight(d), 2, d), "y": -1.0}, 0.0, label="weight2")
    builder.add_scalar_eq({"x": 1.0, "y": -1.0}, 0.0, label="unit_difference")
    for k, exact in enumerate(pinned, start=1):
        gamma = {**_of_difference(_gamma_part(d, k), d), **shift}
        if exact:
            builder.add_scalar_eq(gamma, 0.0, label=f"marginal{k}")
        else:
            builder.add_scalar_ineq({name: -v for name, v in gamma.items()}, 0.0,
                                    label=f"marginal{k}_low")
            builder.add_scalar_ineq(gamma, 0.0, label=f"marginal{k}_high")
    if budget:
        builder.add_scalar_ineq({"x": 1.0, "y": 1.0}, 0.0, label="budget")
    return builder.build()


# ---------------------------------------------------------------------------
# shared result assembly
# ---------------------------------------------------------------------------

def _norm_decomposition(sol: SdpSolution, j: ChoiOperator) -> BroadcastDecomposition:
    """J1 = Z, J2 = Z - J with x = mu, y = mu - 1 of a norm-SDP optimum."""
    z, mu = sol.x_blocks["Z"], sol.scalar("mu")
    return BroadcastDecomposition(j1=ChoiOperator(z, j.in_dim, j.out_dims),
                                  j2=ChoiOperator(z - j.op, j.in_dim, j.out_dims),
                                  x=mu, y=mu - 1.0)


def _outcome(problem, sol, lift, kind: str):
    """(objective, status, lift, certificate) of a finished solve.

    An optimum is checked by the independent certificate and reported as
    ``uncertified`` when the check fails; an infeasibility certificate is an
    answer with a NaN objective and no decomposition; any other status raises
    :class:`SolverFailure`.
    """
    if sol.status == STATUS_OPTIMAL:
        cert = check_certificate(problem, sol)
        return (float(sol.primal_objective),
                STATUS_OPTIMAL if cert.passed else STATUS_UNCERTIFIED, lift, cert)
    if sol.status in (STATUS_PRIMAL_INFEASIBLE, STATUS_DUAL_INFEASIBLE):
        return math.nan, sol.status, None, None
    raise SolverFailure(f"{kind} SDP failed: {sol.status} "
                        f"({sol.diagnostics.get('note', '')})", sol.status)


def _finish(problem, sol, d, t=None, exchange=False) -> OverheadResult:
    lift = functools.partial(_covariant_decomposition, sol, d, exchange)
    nu, status, lift, cert = _outcome(problem, sol, lift, "overhead")
    return OverheadResult(nu=nu, status=status, t=t, solution=sol,
                          certificate=cert, lift=lift)


# ---------------------------------------------------------------------------
# the optimization problems
# ---------------------------------------------------------------------------

def overhead_of_map(j: ChoiOperator, config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu for the fixed HPTP map with Choi operator ``j``.

    This is the norm SDP of :func:`~vbroadcast.diamond.diamond_problem`: its
    optimum Z and mu give J1 = Z, J2 = Z - J with x = mu, y = mu - 1, so
    nu = 2 mu - 1.  A fixed map has no symmetry to reduce by: the SDP is
    posed on a dense block.  Raises ``ValueError`` for a map that is not
    trace preserving.
    """
    if j.tp_residual() > 1e-6:
        raise ValueError(f"map is not trace preserving (output trace off I_B "
                         f"by {j.tp_residual():.2e})")
    problem = diamond_problem(j)
    sol = solve(problem, config or DEFAULT_CONFIG)
    lift = functools.partial(_norm_decomposition, sol, j)
    mu, status, lift, cert = _outcome(problem, sol, lift, "overhead")
    return OverheadResult(nu=2.0 * mu - 1.0, status=status, solution=sol,
                          certificate=cert, lift=lift)


def exact_overhead(d: int, config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu over all maps with identity-channel marginals.

    The optimum has the closed form (3d - 1)/(d + 1), so the overhead
    nu^2 >= 25/9 exceeds 2 for every d >= 2: exact virtual broadcasting is
    never sample efficient.
    """
    problem = _covariant_problem(d, [(1.0, 1.0)] * 2)
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d)


def approx_overhead(thresholds: ErrorThresholds | tuple[float, float], d: int,
                    config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu over maps whose marginals are (a, b)-close to the identity.

    Closeness is in half diamond distance.  The covariant marginal of J1 - J2
    on receiver k is depolarizing, at distance |1 - gamma_k| from the
    identity (module docstring), so the constraint on receiver k is the range
    1 - thr_k <= gamma_k <= 1 + thr_k: two rows, with no norm SDP.  A
    threshold at or below ``ZERO_THRESHOLD`` is the single row gamma_k = 1
    (the same feasible set, with a nonempty interior).

    The SDP is posed with a >= b.  For a < b the exchanged problem (b, a) is
    solved and the decomposition is read with the two receivers exchanged, so
    nu(a, b) == nu(b, a) and the two share one status; ``solution`` and
    ``certificate`` then belong to the exchanged problem.
    """
    thr = thresholds if isinstance(thresholds, ErrorThresholds) else ErrorThresholds(*thresholds)
    ranges = [(1.0, 1.0) if bound <= ZERO_THRESHOLD else (1.0 - bound, 1.0 + bound)
              for bound in (max(thr.a, thr.b), min(thr.a, thr.b))]
    problem = _covariant_problem(d, ranges)
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d, exchange=thr.a < thr.b)


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
    _check_dim(d)
    t = min(delta * d * d / (d * d - 1.0), 1.0)
    return depolarizing_overhead(t, d, config=config)


def depolarizing_overhead(t: float, d: int,
                          config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu over maps whose both marginals equal the depolarizing Choi
    operator with parameter ``t`` (any real value; the map is HPTP throughout
    and CP only inside [0, d^2/(d^2-1)]).

    The marginal (1 - t) Gamma + t I/d has gamma = 1 - t + t/d^2.
    Infeasibility, if the solver ever certifies it, is reported through the
    result status rather than an exception.  A ``t`` that is not finite
    raises ``ValueError``.
    """
    if not math.isfinite(t):
        raise ValueError(f"noise t={t!r} is not a finite number")
    _check_dim(d)
    gamma = 1.0 - t + t / (d * d)
    problem = _covariant_problem(d, [(gamma, gamma)] * 2)
    sol = solve(problem, config or DEFAULT_CONFIG)
    return _finish(problem, sol, d, t=t)


def min_error(gamma: float, d: int, config: SolverConfig | None = None) -> TradeoffPoint:
    """Smallest balanced marginal error under the budget (x + y)^2 <= gamma.

    Solved in the depolarizing-reduced form with the error delta as a cone
    variable tied linearly to the noise parameter, t = delta d^2/(d^2-1), and
    the quadratic budget linearized to x + y <= sqrt(gamma) (equivalent for
    nonnegative weights).  The marginal (1 - t) Gamma + t I/d has
    gamma = 1 - delta.  gamma in [0, 1) is reported as infeasible -- no
    decomposition has x + y < 1.  A gamma that is negative or not finite
    raises ``ValueError``.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"budget gamma={gamma!r} is not a finite number >= 0")
    problem = _covariant_problem(d, [(1.0, 1.0)] * 2, budget=gamma)
    sol = solve(problem, config or DEFAULT_CONFIG)
    lift = functools.partial(_covariant_decomposition, sol, d)
    mu, status, lift, cert = _outcome(problem, sol, lift, "trade-off")
    nu = None if lift is None else sol.scalar("x") + sol.scalar("y")
    return TradeoffPoint(gamma=gamma, d=d, mu=mu, t=mu * d * d / (d * d - 1.0),
                         status=status, nu=nu, solution=sol, certificate=cert,
                         lift=lift)


def min_error_upper_bound(gamma: float, d: int) -> float:
    """Closed-form bound mu(gamma, d) <= ((d^2-1)/d^2) (3 - sqrt(gamma))/4.

    Dimension-free cap (3 - sqrt(gamma))/4; clamped below at zero (budgets at
    or past the exact-broadcasting cost need no error at all).  A gamma that
    is not finite, or a d that is not an integer >= 2, raises ``ValueError``.
    """
    if not math.isfinite(gamma):
        raise ValueError(f"budget gamma={gamma!r} is not a finite number")
    _check_dim(d)
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
    which certifies ``min_error_upper_bound``.  Valid for 1 <= gamma <= 9
    and an integer d >= 2; anything else raises ``ValueError``.

    Returns (decomposition, delta, report) where the report carries PSD,
    weight, and marginal residuals of the construction.
    """
    if not 1.0 <= gamma <= 9.0:
        raise ValueError(f"gamma={gamma} outside [1, 9]")
    _check_dim(d)
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
