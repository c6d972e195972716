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
group keeps it feasible at the same nu, so J1 and J2 may be taken covariant
(Gatermann and Parrilo, JPAA 192 (2004); Mozrzymas, Studzinski and
Horodecki, "A simplified formalism for the walled Brauer algebra", 2018).
Under the group, (B, B1, B2) holds two copies of the fundamental irrep, with
frames u_1k = |G>_{B B1}|k>_{B2} / sqrt(d) and u_2k = |G>_{B B2}|k>_{B1} / sqrt(d)
(k = 1..d), plus the traceless parts of B (x) Sym(B1 B2), of dimension
D_S = d(d+2)(d-1)/2, and, for d >= 3, of B (x) Anti(B1 B2).  A covariant
J >= 0 is a 2 x 2 block P >= 0 on the frames plus nonnegative weights on
the two traceless parts, each term normalized to trace-preserving weight 1.
With G = [[1, 1/d], [1/d, 1]], the Gram matrix of the two frames, and g_k
its k-th row:

* Tr_{B1 B2} J = w I_B with w = <G, P> plus the two weights;
* the marginal of J on (B, B_k) has gamma_k = g_k^T P g_k, and the
  traceless parts add nothing to it;
* the marginal of J1 - J2 has weight x - y = 1, so it is the depolarizing
  Choi operator with t = (1 - gamma_k) d^2 / (d^2 - 1), at half diamond
  distance |1 - gamma_k| from the identity.

One fundamental block.  A marginal floor gamma_k(J1 - J2) >= r_k on each
receiver gives nu = max(1, 2v - 1) with

    v = min <G, P>  s.t.  P >= 0,  g_k^T P g_k >= r_k,

so the SDP carries P alone, and x, y and the traceless parts are assembled
outside it.

* Lower bound: gamma_k(J2) = g_k^T P2 g_k >= 0, so P1 alone meets the
  floors, and x = w(J1) >= <G, P1> >= v.  Hence nu = 2x - 1 >= 2v - 1, and
  nu = x + y >= x - y = 1.
* Achievability: J1 = P plus the weight max(0, 1 - v) on Pi_S, and J2 the
  weight max(0, v - 1) on Pi_S.  The fillers leave every gamma_k alone, and
  give x = max(1, v), y = max(0, v - 1), so nu = max(1, 2v - 1).
* Upper rows are implied.  An error ball of radius thr is the range
  1 - thr <= gamma_k <= 1 + thr, and only its floor r_k = 1 - thr is posed.
  Two rows give a rank-one optimum P = p p^T (Pataki: rank r with
  r(r + 1)/2 <= 2), and with q = G p the problem is min q^T G^-1 q s.t.
  q_k^2 >= r_k.  Either both rows are active, so gamma_k = r_k <= 1, or
  only the first is, at q = (sqrt(r_1), sqrt(r_1)/d), where
  gamma_2 = r_1/d^2 <= 1.  Either way gamma_k <= 1 <= 1 + thr_k.
* Pinned marginals (``exact_overhead``, ``depolarizing_overhead``) pin
  gamma_k(J1 - J2) to gamma_0.  For gamma_0 >= 0 the floor is r = gamma_0,
  the optimum meets it with equality (scaling P down lowers <G, P>), and the
  lift scales P to meet it exactly.  For gamma_0 < 0 (t > d^2/(d^2 - 1)) the
  branch mirrors: gamma(P2) = gamma(P1) - gamma_0 >= |gamma_0|, so P2 meets
  the floor r = |gamma_0| and y >= v.  Then J2 = P and J1 is the weight
  1 + v on Pi_S, so nu = 2v + 1.
* A budget (``min_error``): x + y <= sqrt(gamma) and x - y = 1 give
  <G, P1> <= x <= (sqrt(gamma) + 1)/2, so the smallest error is
  mu = max(0, 1 - gamma*), with gamma* the largest gamma(P) under that row.
  The lift scales P to gamma = 1 - mu.

Receiver symmetry.  When both receivers have the same floor -- always in
``exact_overhead``, ``depolarizing_overhead`` and ``min_error``, and in
``approx_overhead`` when a == b or both are at least (d - 1)/(2d) -- the
problem is also invariant under the receiver swap B1 <-> B2, which maps
P to X P X.  Twirling over U(d) x S_2
lets P be diagonal on |+-> = (1, +-1) / sqrt(2), P = p+ |+><+| + p- |-><-|
with p+, p- >= 0.  A coefficient C of P then acts as the two numbers
<C, |+-><+-|>: the weight is (1 +- 1/d) p+- and gamma_k is
(1 +- 1/d)^2 / 2 on p+- for both receivers, so the two floors are one row.
That problem is an LP, one row on two scalars (and its slack), with no
Hermitian block.  Unequal floors keep the 2 x 2 block P and one row per
receiver.

All four problems are posed by ``_covariant_problem``, which chooses the
form from the floors, on rows built once per d, number of distinct floors
and budget or none (``_covariant_structure``), so the points of a sweep
share one constraint matrix, presolve and Schur structure and differ in the
right-hand side only.  The decomposition on (B, B1, B2) is built from the
optimal P only when it is read.
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
# the fundamental block of a covariant J (module docstring)
# ---------------------------------------------------------------------------

# |+> and |-> times sqrt(2): a receiver-symmetric P is diagonal on them
_PLUS_MINUS = {"P+": np.array([1.0, 1.0]), "P-": np.array([1.0, -1.0])}


def _gram(d: int) -> np.ndarray:
    """G_ab = sum_k <u_ak|u_bk> / d, the Gram matrix of the two frames and
    the coefficient of the weight w."""
    return np.array([[1.0, 1.0 / d], [1.0 / d, 1.0]])


def _gamma_part(d: int, receiver: int) -> np.ndarray:
    """g g^T, the coefficient of gamma = <Gamma_{B B_receiver} (x) I, J> / d^2,
    with g row ``receiver`` of G."""
    g = _gram(d)[receiver - 1]
    return np.outer(g, g)


def _twirled(coeff: np.ndarray) -> dict:
    """The coefficient ``coeff`` of P on the receiver-symmetric form:
    <coeff, |+><+|> on P+ and <coeff, |-><-|> on P-."""
    return {name: float(v @ coeff @ v) / 2.0 for name, v in _PLUS_MINUS.items()}


def _block(sol: SdpSolution) -> np.ndarray:
    """The 2 x 2 block P of an optimum; the receiver-symmetric form's P is
    p+ |+><+| + p- |-><-|."""
    p = sol.x_blocks.get("P")
    if p is None:
        p = sum(sol.scalar(name) * np.outer(v, v) / 2.0 for name, v in _PLUS_MINUS.items())
    return np.array(p, dtype=complex)


def _frames(d: int) -> np.ndarray:
    """The frame vectors u_ak as the rows (a, k) of a (2d, d^3) array."""
    u = np.zeros((2, d, d, d, d))
    i, k = np.meshgrid(np.arange(d), np.arange(d), indexing="ij")
    u[0, k, i, i, k] = 1.0          # |i>_B |i>_B1 |k>_B2
    u[1, k, i, k, i] = 1.0          # |i>_B |k>_B1 |i>_B2
    return u.reshape(2 * d, d ** 3) / math.sqrt(d)


def _covariant_choi(p: np.ndarray, s: float, d: int) -> np.ndarray:
    """The d^3 x d^3 operator J of the block P plus the weight s on Pi_S.

    Pi_S is I_B (x) (I + SWAP)/2 less its fundamental copy, spanned by the
    u_1k + u_2k; that copy is subtracted inside the 2 x 2 block.
    """
    c = s * d / (d * (d + 2) * (d - 1) // 2)
    core = np.array(p, dtype=complex) - c * np.ones((2, 2)) / (2.0 + 2.0 / d)
    swap = np.kron(np.eye(d), swap_operator(d))
    u = _frames(d)
    return c * (np.eye(d ** 3) + swap) / 2.0 + u.T @ np.kron(core, np.eye(d)) @ u


def _pinned(p: np.ndarray, d: int, gamma: float | None) -> np.ndarray:
    """P scaled to gamma_1(P) = ``gamma``, or P itself for None."""
    if gamma is None:
        return p
    have = float(np.vdot(_gamma_part(d, 1), p).real)
    return p * (gamma / have) if have > 0.0 else np.zeros_like(p)


def _covariant_decomposition(sol: SdpSolution, d: int, pin: float | None = None,
                             mirrored: bool = False,
                             exchange: bool = False) -> BroadcastDecomposition:
    """J1, J2 on (B, B1, B2) of a one-block optimum (module docstring), with
    P scaled to gamma = ``pin`` when one is given: J1 = P and J2 the Pi_S
    filler, or with ``mirrored`` J2 = P and J1 the filler.  ``exchange``
    swaps the two receivers, which exchanges the frames: P -> X P X."""
    p = _pinned(_block(sol), d, pin)
    if exchange:
        p = p[::-1, ::-1]
    v = float(np.vdot(_gram(d), p).real)
    zero = np.zeros((2, 2))
    if mirrored:
        (p1, s1), (p2, s2), x, y = (zero, 1.0 + v), (p, 0.0), 1.0 + v, v
    else:
        (p1, s1), (p2, s2) = (p, max(0.0, 1.0 - v)), (zero, max(0.0, v - 1.0))
        x, y = max(1.0, v), max(0.0, v - 1.0)
    return BroadcastDecomposition(j1=ChoiOperator(_covariant_choi(p1, s1, d), d, (d, d)),
                                  j2=ChoiOperator(_covariant_choi(p2, s2, d), d, (d, d)),
                                  x=x, y=y)


def _check_dim(d: int) -> None:
    """The covariant problems are posed for an integer dimension d >= 2."""
    try:
        valid = operator.index(d) >= 2
    except TypeError:
        valid = False
    if not valid:
        raise ValueError(f"dimension d={d!r} is not an integer >= 2")


def _covariant_problem(d: int, floors: list[float], budget: float | None = None) -> SdpProblem:
    """The one-block problem of the module docstring: minimize <G, P> under
    gamma_k(P) >= ``floors[k - 1]`` for the receivers k = 1, 2.  With a
    ``budget`` it instead maximizes the mean gamma_k(P) under
    <G, P> <= (sqrt(budget) + 1)/2, and the floors only choose the form.
    Raises ``ValueError`` unless d is an integer >= 2.

    When the two floors are equal the problem is receiver symmetric and is
    posed in its twirled form, an LP with one row (module docstring);
    otherwise it keeps the 2 x 2 block P."""
    _check_dim(d)
    if floors[0] == floors[1]:
        floors = floors[:1]
    return _posed(operator.index(d), floors, budget)


def _posed(d: int, floors: list[float], budget: float | None) -> SdpProblem:
    """The problem of :func:`_covariant_problem` for the ``floors`` of the
    receivers 1, 2, or for one floor shared by both in the
    receiver-symmetric form.  Its rows depend only on d, the number of
    floors and whether a budget is set: it is the cached
    :func:`_covariant_structure` of these with the right-hand side of these
    floors, one row each, or of this budget."""
    structure = _covariant_structure(d, len(floors), budget is not None)
    rhs = [-r for r in floors] if budget is None else [(math.sqrt(budget) + 1.0) / 2.0]
    return structure.with_b(np.array(rhs))


@functools.lru_cache(maxsize=64)
def _covariant_structure(d: int, n_floors: int, budget: bool) -> SdpProblem:
    """The rows of :func:`_covariant_problem` for dimension ``d``, with one
    floor (the receiver-symmetric LP on P+, P-) or two (the 2 x 2 block P),
    and with or without a budget; every right-hand side is 0.  A floor row
    gamma_k >= r is posed as -gamma_k <= -r."""
    def form(coeff: np.ndarray) -> dict:
        return _twirled(coeff) if n_floors == 1 else {"P": coeff}

    builder = ProblemBuilder()
    if n_floors == 1:
        for name in _PLUS_MINUS:
            builder.add_scalar(name)
    else:
        builder.add_psd_block("P", 2)
    weight = form(_gram(d))
    if budget:
        mean_gamma = sum(_gamma_part(d, k) for k in range(1, n_floors + 1)) / n_floors
        builder.minimize({name: -v for name, v in form(mean_gamma).items()})
        builder.add_scalar_ineq(weight, 0.0, label="budget")
    else:
        builder.minimize(weight)
        for k in range(1, n_floors + 1):
            builder.add_scalar_ineq({name: -v for name, v in form(_gamma_part(d, k)).items()},
                                    0.0, label="marginal" if n_floors == 1 else f"marginal{k}")
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


def _overhead(d: int, floors: list[float], config: SolverConfig | None, t: float | None = None,
              pin: float | None = None, mirrored: bool = False,
              exchange: bool = False) -> OverheadResult:
    """nu of the one-block problem with these ``floors``: max(1, 2v - 1), or
    2v + 1 on the ``mirrored`` branch; ``pin`` is the gamma the lift scales P
    to, and ``exchange`` as in :func:`_covariant_decomposition`."""
    problem = _covariant_problem(d, floors)
    sol = solve(problem, config or DEFAULT_CONFIG)
    lift = functools.partial(_covariant_decomposition, sol, d, pin, mirrored, exchange)
    v, status, lift, cert = _outcome(problem, sol, lift, "overhead")
    # np.maximum keeps the NaN of an infeasibility certificate
    nu = 2.0 * v + 1.0 if mirrored else float(np.maximum(1.0, 2.0 * v - 1.0))
    return OverheadResult(nu=nu, status=status, t=t, solution=sol, certificate=cert, lift=lift)


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
    never sample efficient.  Solved as the receiver-symmetric LP with the
    floor gamma >= 1, and the lift pins gamma = 1 (module docstring).
    """
    return _overhead(d, [1.0, 1.0], config, pin=1.0)


def approx_overhead(thresholds: ErrorThresholds | tuple[float, float], d: int,
                    config: SolverConfig | None = None) -> OverheadResult:
    """Minimal nu over maps whose marginals are (a, b)-close to the identity.

    Closeness is in half diamond distance.  The covariant marginal of J1 - J2
    on receiver k is depolarizing, at distance |1 - gamma_k| from the
    identity (module docstring), so the constraint on receiver k is the range
    1 - thr_k <= gamma_k <= 1 + thr_k, with no norm SDP.  Only the floor
    gamma_k >= 1 - thr_k is posed: the optimum has gamma_k <= 1, so the
    upper side is never active.

    With a == b the problem is receiver symmetric and is solved as the LP of
    the module docstring, one floor for both marginals.  So is every (a, b)
    whose smaller threshold is at least (d - 1)/(2d), at that smaller
    threshold: the LP's optimum v = 2d (1 - min(a, b))/(d + 1) is then at
    most 1, so nu = 1 is reached by a map that meets both thresholds.  That
    skips the 2 x 2 block there: its rank-one optimum has two active rows,
    which only the Newton stage of the solver's face step finishes, and a
    2 x 2 solve there takes 3-10 times the LP's 0.5 ms.  Otherwise the SDP,
    on one 2 x 2 block, is posed
    with a >= b.  For a < b the exchanged
    problem (b, a) is solved and the decomposition is read with the two
    receivers exchanged, so nu(a, b) == nu(b, a) and the two share one
    status; ``solution`` and ``certificate`` then belong to the exchanged
    problem.
    """
    thr = thresholds if isinstance(thresholds, ErrorThresholds) else ErrorThresholds(*thresholds)
    _check_dim(d)
    low, high = sorted((thr.a, thr.b))
    if low >= (d - 1) / (2 * d):
        high = low
    return _overhead(d, [1.0 - high, 1.0 - low], config, exchange=thr.a < thr.b)


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

    The marginal (1 - t) Gamma + t I/d has gamma_0 = 1 - t + t/d^2, the same
    on both receivers, so this is the receiver-symmetric LP with the floor
    |gamma_0|, and the lift pins gamma to it.  For gamma_0 < 0 the block is
    J2 and nu = 2v + 1, the mirrored branch of the module docstring.  A
    ``t`` that is not finite raises ``ValueError``.
    """
    if not math.isfinite(t):
        raise ValueError(f"noise t={t!r} is not a finite number")
    _check_dim(d)
    gamma = 1.0 - t + t / (d * d)
    return _overhead(d, [abs(gamma)] * 2, config, t=t, pin=abs(gamma), mirrored=gamma < 0.0)


def min_error(gamma: float, d: int, config: SolverConfig | None = None) -> TradeoffPoint:
    """Smallest balanced marginal error under the budget (x + y)^2 <= gamma.

    With both marginals at gamma_k = 1 - mu, the budget x + y <= sqrt(gamma)
    and x - y = 1 bound the weight of the block P by (sqrt(gamma) + 1)/2, so
    this is the receiver-symmetric LP that maximizes gamma(P) under that one
    row, and mu = max(0, 1 - gamma*) (module docstring).  ``nu`` is that of
    the lift, which scales P to gamma = 1 - mu: at a budget that needs no
    error it is the exact-broadcasting cost (3d - 1)/(d + 1).

    A budget in [0, 1) is decided without a solve: y >= 0 and x - y = 1 give
    nu = x + y >= 1 > sqrt(gamma), so it is reported with the status
    ``primal_infeasible_certificate``, NaN mu and t, and no ``nu``,
    ``solution`` or decomposition.  A gamma that is negative or not finite
    raises ``ValueError``.
    """
    if not (math.isfinite(gamma) and gamma >= 0.0):
        raise ValueError(f"budget gamma={gamma!r} is not a finite number >= 0")
    _check_dim(d)
    if gamma < 1.0:
        return TradeoffPoint(gamma=gamma, d=d, mu=math.nan, t=math.nan,
                             status=STATUS_PRIMAL_INFEASIBLE)
    problem = _covariant_problem(d, [1.0, 1.0], budget=gamma)
    sol = solve(problem, config or DEFAULT_CONFIG)
    objective, status, _, cert = _outcome(problem, sol, None, "trade-off")
    mu, nu, lift = math.nan, None, None
    if cert is not None:
        mu = max(0.0, 1.0 + objective)
        weight = float(np.vdot(_gram(d), _pinned(_block(sol), d, 1.0 - mu)).real)
        nu = max(1.0, 2.0 * weight - 1.0)
        lift = functools.partial(_covariant_decomposition, sol, d, 1.0 - mu)
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
