"""Verification suite: closed-form anchors and structural properties.

Each criterion re-derives its expected values from known closed forms or
independent oracles and checks the library output at a fixed tolerance.  The
suite doubles as the CLI ``verify`` subcommand and as the acceptance test
module; criteria are independent except for the final one, which certifies
every SDP solve the earlier criteria produced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import broadcasting as bc
from . import diamond as dn
from . import simulator as sim
from .channels import ChoiOperator, depolarizing_choi, gamma_operator, replacement_choi
from .sdp import STATUS_OPTIMAL, check_certificate
from .sdp.solver import record_solves


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: str


def _check(cid: int, name: str, conditions: list[tuple[bool, str]]) -> CriterionResult:
    failed = [msg for ok, msg in conditions if not ok]
    detail = "; ".join(failed) if failed else f"{len(conditions)} checks"
    return CriterionResult(cid=cid, name=name, passed=not failed, details=detail)


# ---------------------------------------------------------------------------

def criterion_1() -> CriterionResult:
    """Exact overhead matches the closed form (3d-1)/(d+1) for d = 2, 3, 4."""
    conds = []
    for d in (2, 3, 4):
        nu = bc.exact_overhead(d).nu
        want = (3 * d - 1) / (d + 1)
        conds.append((abs(nu - want) <= 1e-5,
                      f"d={d}: nu={nu:.8f} vs {want:.8f}"))
    return _check(1, "exact overhead closed form", conds)


def criterion_2() -> CriterionResult:
    """Identity-vs-replacement half diamond distance equals 1 - 1/d^2, and the
    state-sampled lower bound (maximally entangled candidate) reaches it."""
    conds = []
    for d in (2, 3, 4):
        jid = gamma_operator(d)
        phi = ChoiOperator(jid - replacement_choi(d).op, d, (d,))
        res = dn.half_diamond_distance(phi, lower_bound_samples=8)
        want = 1.0 - 1.0 / d ** 2
        conds.append((abs(res.value - want) <= 1e-6,
                      f"d={d}: sdp={res.value:.9f} vs {want:.9f}"))
        conds.append((abs(res.lower_bound - want) <= 1e-6,
                      f"d={d}: lower bound={res.lower_bound:.9f} vs {want:.9f}"))
    return _check(2, "replacement-channel diamond distance", conds)


def criterion_3() -> CriterionResult:
    """Depolarizing-vs-identity half diamond distance is |t| (d^2-1)/d^2."""
    d = 2
    conds = []
    for t in (-0.5, 0.3, 1.0):
        phi = ChoiOperator(depolarizing_choi(t, d).op - gamma_operator(d), d, (d,))
        res = dn.half_diamond_distance(phi, lower_bound_samples=8)
        want = abs(t) * (d * d - 1) / d ** 2
        conds.append((abs(res.value - want) <= 1e-6,
                      f"t={t}: {res.value:.9f} vs {want:.9f}"))
    return _check(3, "depolarizing-difference diamond distance", conds)


def criterion_4() -> CriterionResult:
    """The depolarizing reduction loses nothing: balanced-threshold overhead
    equals the marginal-pinned form for a spread of error values."""
    conds = []
    for delta in (0.0, 0.05, 0.1, 0.2, 0.5):
        full = bc.approx_overhead((delta, delta), 2).nu
        red = bc.approx_overhead_depolarizing(delta, 2).nu
        conds.append((abs(full - red) <= 1e-5,
                      f"delta={delta}: {full:.8f} vs {red:.8f}"))
    return _check(4, "depolarizing reduction equality", conds)


def criterion_5() -> CriterionResult:
    """Qubit trade-off anchors and budget monotonicity of the minimum error."""
    conds = []
    mu1 = bc.min_error(1.0, 2).mu
    conds.append((abs(mu1 - 0.25) <= 5e-3, f"mu(1,2)={mu1:.6f} vs 0.25"))
    mu18 = bc.min_error(1.8, 2).mu
    conds.append((abs(mu18 - 0.12) <= 0.02, f"mu(1.8,2)={mu18:.6f} vs 0.12"))
    for d in (2, 3, 4):
        lo = bc.min_error(1.0, d).mu
        hi = bc.min_error(1.8, d).mu
        conds.append((lo >= hi - 1e-9,
                      f"d={d}: mu(1)={lo:.6f} < mu(1.8)={hi:.6f}"))
    return _check(5, "minimum-error anchors", conds)


def criterion_6() -> CriterionResult:
    """The discard-and-prepare construction is feasible to machine precision
    and dominates the optimal trade-off curve."""
    conds = []
    for gamma in (1.0, 1.5, 2.0):
        for d in (2, 3):
            _, delta, rep = bc.discard_prepare_point(gamma, d)
            ok = (rep["min_eig_j1"] >= -1e-10 and rep["min_eig_j2"] >= -1e-10
                  and rep["weight_residual_j1"] <= 1e-10
                  and rep["weight_residual_j2"] <= 1e-10
                  and rep["budget_residual"] <= 1e-10
                  and rep["marginal1_residual"] <= 1e-10
                  and rep["marginal2_residual"] <= 1e-10)
            conds.append((ok, f"construction residuals at gamma={gamma}, d={d}: {rep}"))
            mu = bc.min_error(gamma, d).mu
            bound = bc.min_error_upper_bound(gamma, d)
            conds.append((mu <= bound + 1e-6,
                          f"gamma={gamma}, d={d}: mu={mu:.8f} > bound={bound:.8f}"))
    return _check(6, "explicit construction feasibility and bound", conds)


def criterion_7() -> CriterionResult:
    """Shape of the fixed-marginal overhead in the noise parameter:
    nonincreasing and midpoint convex on [0, 1], value 1 at full noise,
    negative noise never cheaper than positive."""
    from .sdp import SolverConfig

    d = 2
    tight = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)
    grid = [round(0.1 * k, 10) for k in range(11)]
    z = {t: bc.depolarizing_overhead(t, d, config=tight).nu for t in grid}
    conds = [(abs(z[1.0] - 1.0) <= 1e-8, f"Z(1)={z[1.0]:.10f}")]
    for lo, hi in zip(grid, grid[1:]):
        conds.append((z[hi] <= z[lo] + 1e-6,
                      f"Z({hi})={z[hi]:.8f} > Z({lo})={z[lo]:.8f}"))
    for a, m, b in zip(grid, grid[1:], grid[2:]):
        conds.append((z[m] <= 0.5 * (z[a] + z[b]) + 1e-6,
                      f"midpoint convexity fails at t={m}"))
    for t in (0.2, 0.5, 0.8):
        zneg = bc.depolarizing_overhead(-t, d, config=tight).nu
        conds.append((z[t] <= zneg + 1e-6,
                      f"Z({t})={z[t]:.8f} > Z({-t})={zneg:.8f}"))
    return _check(7, "fixed-marginal overhead shape", conds)


def criterion_8() -> CriterionResult:
    """Threshold symmetry and midpoint convexity of the overhead surface on a
    9 x 9 grid with 50 seeded random midpoint pairs."""
    d = 2
    pts = np.linspace(0.0, 1.0, 9)
    cache: dict[tuple[float, float], float] = {}

    def s_tilde(a: float, b: float) -> float:
        key = (round(float(a), 12), round(float(b), 12))
        if key not in cache:
            cache[key] = bc.approx_overhead(key, d).nu
        return cache[key]

    conds = []
    worst_sym = 0.0
    for a in pts:
        for b in pts:
            diff = abs(s_tilde(a, b) - s_tilde(b, a))
            worst_sym = max(worst_sym, diff)
    conds.append((worst_sym <= 1e-5, f"symmetry violation {worst_sym:.2e}"))

    rng = np.random.default_rng(20240917)
    worst_cvx = -np.inf
    for _ in range(50):
        a1, b1, a2, b2 = rng.choice(pts, size=4)
        mid = s_tilde((a1 + a2) / 2, (b1 + b2) / 2)
        avg = 0.5 * (s_tilde(a1, b1) + s_tilde(a2, b2))
        worst_cvx = max(worst_cvx, mid - avg)
    conds.append((worst_cvx <= 1e-5, f"convexity violation {worst_cvx:.2e}"))
    return _check(8, "overhead surface symmetry and convexity", conds)


def criterion_9() -> CriterionResult:
    """Sample-efficiency landscape: overhead below 2 at 15% error, at or
    above 2 at 5% error (strict with a 1e-4 margin)."""
    s_hi = bc.approx_overhead((0.15, 0.15), 2).s
    s_lo = bc.approx_overhead((0.05, 0.05), 2).s
    conds = [
        (s_hi < 2.0 - 1e-4, f"S(0.15)={s_hi:.6f} not below 2"),
        (s_lo > 2.0 + 1e-4, f"S(0.05)={s_lo:.6f} not above 2"),
    ]
    return _check(9, "sample-efficiency boundary", conds)


def criterion_10() -> CriterionResult:
    """Protocol statistics at budget 2 on a qubit: unbiasedness against the
    closed-form depolarized expectation, the worst-case bias bound, and the
    nu^2 second-moment inflation against the sample-splitting baseline."""
    gamma, d, shots, seed = 2.0, 2, 10 ** 6, 42
    dec, delta, _ = bc.discard_prepare_point(gamma, d)
    rho = np.diag([1.0, 0.0]).astype(complex)
    obs = sim.Observable.from_matrix(np.diag([1.0, -1.0]))

    t = (3.0 - math.sqrt(gamma)) / 4.0
    expected = 1.0 - t
    est = sim.run_protocol(dec, rho, obs, marginal=1, shots=shots, seed=seed)
    se = est.sample_std / math.sqrt(est.shots)
    conds = [(abs(est.mean - expected) <= 5 * se,
              f"mean {est.mean:.6f} vs {expected:.6f} ({abs(est.mean - expected) / se:.1f} se)")]

    truth = float(np.real(np.trace(obs.op @ rho)))
    conds.append((abs(est.mean - truth) <= sim.bias_bound(obs, delta) + 5 * se,
                  f"bias {abs(est.mean - truth):.6f} above bound "
                  f"{sim.bias_bound(obs, delta):.6f}"))

    base = sim.naive_baseline(rho, obs, shots, seed=7)
    m2_virtual = est.sample_std ** 2 + est.mean ** 2
    m2_naive = base.sample_std ** 2 + base.mean ** 2
    ratio = m2_virtual / m2_naive
    conds.append((abs(ratio - dec.nu ** 2) <= 0.1 * dec.nu ** 2,
                  f"second-moment ratio {ratio:.4f} vs nu^2 {dec.nu ** 2:.4f}"))
    return _check(10, "protocol simulator statistics", conds)


def criterion_11(log: list) -> CriterionResult:
    """Every optimal solve recorded by the earlier criteria passes the
    independent certificate check, and a deliberately corrupted copy fails."""
    conds = []
    optimal = [(p, s) for p, s in log if s.status == STATUS_OPTIMAL]
    bad = 0
    for p, s in optimal:
        rep = check_certificate(p, s, tol=1e-6)
        if not rep.passed:
            bad += 1
    conds.append((bad == 0, f"{bad} of {len(optimal)} optimal solves fail certification"))
    conds.append((len(optimal) > 0, "no optimal solves were recorded"))

    if optimal:
        p, s = optimal[0]
        corrupted = replace(
            s, x_blocks={k: 1.01 * v for k, v in s.x_blocks.items()})
        rep = check_certificate(p, corrupted, tol=1e-6)
        conds.append((rep.passed is False and rep.primal_residual > 1e-6,
                      "corrupted solution was not rejected"))
    return _check(11, "solver certification", conds)


CRITERIA = [
    (1, criterion_1), (2, criterion_2), (3, criterion_3), (4, criterion_4),
    (5, criterion_5), (6, criterion_6), (7, criterion_7), (8, criterion_8),
    (9, criterion_9), (10, criterion_10),
]


def run_all() -> list[CriterionResult]:
    """Run the suite; the certification criterion covers exactly the solves
    criteria 1-10 produced."""
    with record_solves() as log:
        results = [fn() for _, fn in CRITERIA]
    results.append(criterion_11(log))
    return results
