"""Monte Carlo execution of virtual broadcasting protocols.

A decomposition (x E+, y E-) with x - y = 1 is run as a quasiprobability
sampling protocol: each shot draws the positive branch with probability
p+ = x/(x+y), applies the chosen part normalized to a physical channel,
measures the observable on the requested receiver's marginal, and records
the eigenvalue outcome scaled by +-(x+y).  By linearity the estimator is
unbiased for Tr[O Tr_other(E(rho))]; the price is the (x+y)^2 variance
inflation that the overhead optimizations in :mod:`vbroadcast.broadcasting`
minimize.

Shots are exchangeable: the estimator's mean and sample deviation depend only
on how many shots fall in each (branch, outcome) cell.  So the simulator draws
those counts, n+ ~ Binomial(shots, p+), then each branch's outcome counts ~
Multinomial(n_branch, probs).  Jointly that is Multinomial(shots, [p+ probs+,
p- probs-]), the law of shot-by-shot sampling, at a cost in time and memory
set by the number of outcomes, not of shots.  Randomness comes from the Philox
generator keyed by the run seed, so runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

# apply_choi is not called here; it stays a name of this module because
# bench/tracing.py wraps ``simulator.apply_choi``
from .channels import BroadcastDecomposition, ChoiOperator, apply_choi  # noqa: F401
from .linalg import Spectrum, as_hermitian, eig_hermitian

DEGENERACY_TOL = 1e-10
# decompositions typically come from the SDP layer, so physicality guards sit
# at solver accuracy, not linear-algebra accuracy
PROBABILITY_TOL = 1e-6


@dataclass(frozen=True)
class Observable:
    """Measured observable with its eigendecomposition.

    Degenerate eigenvalues (within ``DEGENERACY_TOL``) are merged into joint
    eigenprojectors, stacked as ``projectors[k]`` for outcome ``values[k]``;
    ``range_m`` is the spread between extreme eigenvalues, the quantity
    entering the Hoeffding budget.
    """

    op: np.ndarray
    spectrum: Spectrum = field(repr=False)
    values: np.ndarray
    projectors: np.ndarray = field(repr=False)

    @classmethod
    def from_matrix(cls, op: np.ndarray) -> "Observable":
        op = as_hermitian(op)
        spec = eig_hermitian(op)
        groups: list[list[int]] = [[0]]
        for k in range(1, spec.eigenvalues.size):
            if spec.eigenvalues[k] - spec.eigenvalues[groups[-1][0]] <= DEGENERACY_TOL:
                groups[-1].append(k)
            else:
                groups.append([k])
        values = np.array([float(np.mean(spec.eigenvalues[g])) for g in groups])
        projectors = []
        for g in groups:
            v = spec.eigenvectors[:, g]
            projectors.append(v @ v.conj().T)
        return cls(op=op, spectrum=spec, values=values, projectors=np.stack(projectors))

    @property
    def range_m(self) -> float:
        return float(self.values[-1] - self.values[0])

    def outcome_probabilities(self, state: np.ndarray) -> np.ndarray:
        """Born probabilities of the merged outcomes in ``state``.

        Raises if any probability is negative beyond tolerance, which signals
        that a non-completely-positive part was used as a physical channel.
        """
        # Tr(P_k rho) for every k at once: vec(P_k) . vec(rho^T)
        probs = (self.projectors.reshape(len(self.values), -1)
                 @ np.asarray(state).T.reshape(-1)).real
        if probs.min() < -PROBABILITY_TOL:
            raise ValueError(f"negative outcome probability {probs.min():.3e}; "
                             "a channel branch is not physical")
        probs = np.clip(probs, 0.0, None)
        total = probs.sum()
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"outcome probabilities sum to {total}, not 1")
        return probs / total


@dataclass(frozen=True)
class HoeffdingBudget:
    """Shot count guaranteeing |estimate - truth| <= eps with the stated
    confidence: n = ceil(M^2 nu^2 / eps^2 * ln(2 / fail_prob))."""

    m: float
    nu: float
    eps: float
    fail_prob: float
    n: int


def required_samples(m: float, nu: float, eps: float, fail_prob: float) -> HoeffdingBudget:
    """Hoeffding budget for estimating a range-M observable rescaled by nu."""
    if (not all(map(math.isfinite, (m, nu, eps, fail_prob)))
            or min(m, nu, eps, fail_prob) <= 0 or fail_prob >= 1):
        raise ValueError("m, nu, eps must be finite and positive and fail_prob in (0, 1)")
    try:
        n = math.ceil(m * m * nu * nu / (eps * eps) * math.log(2.0 / fail_prob))
    except (ZeroDivisionError, OverflowError):
        # eps * eps underflows to 0, or the budget overflows
        raise ValueError(f"the budget for m={m}, nu={nu}, eps={eps} is not a "
                         "finite number of shots") from None
    return HoeffdingBudget(m=m, nu=nu, eps=eps, fail_prob=fail_prob, n=n)


@dataclass(frozen=True)
class ProtocolEstimate:
    """Result of one seeded protocol run."""

    mean: float
    sample_std: float
    shots: int
    scale: float
    seed: int
    n_plus: int
    n_minus: int


def _branch_state(j: ChoiOperator, weight: float, rho: np.ndarray,
                  marginal: int) -> np.ndarray:
    """Output state of one normalized CP part on the requested receiver:
    Tr_other[E(rho)] / weight, contracted from the Choi operator of E on
    (input, receiver 1, receiver 2) in one step."""
    (d1, d2), d = j.out_dims, j.in_dim
    t = j.op.reshape(d, d1, d2, d, d1, d2)
    subscripts = "ij,iaujbu->ab" if marginal == 1 else "ij,iuajub->ab"
    return np.einsum(subscripts, rho, t) / weight


def run_protocol(dec: BroadcastDecomposition, rho: np.ndarray, obs: Observable,
                 marginal: int, shots: int, seed: int) -> ProtocolEstimate:
    """Simulate the virtual protocol and estimate Tr[O Tr_other(E(rho))].

    Per shot: draw the sign branch (p+ = x/(x+y)), evolve ``rho`` through the
    chosen part normalized to a channel, measure ``obs`` on receiver
    ``marginal`` (1 or 2), and record (x+y) times the signed eigenvalue.
    """
    shots = operator.index(shots)
    if shots < 1:
        raise ValueError("need at least one shot")
    if marginal not in (1, 2):
        raise ValueError("marginal must be 1 or 2")
    if rho.shape[0] != dec.j1.in_dim:
        raise ValueError("state dimension does not match the decomposition input")

    x, y = dec.x, dec.y
    scale = x + y
    if y <= PROBABILITY_TOL:
        if float(np.linalg.norm(dec.j2.op)) > PROBABILITY_TOL:
            raise ValueError("negative part has weight ~0 but a nonzero Choi operator")
        p_plus = 1.0
    else:
        p_plus = x / scale

    probs_plus = obs.outcome_probabilities(_branch_state(dec.j1, x, rho, marginal))
    rng = np.random.Generator(np.random.Philox(key=seed))
    n_plus = shots if p_plus == 1.0 else int(rng.binomial(shots, p_plus))
    values, counts = scale * obs.values, rng.multinomial(n_plus, probs_plus)
    if p_plus < 1.0:
        probs_minus = obs.outcome_probabilities(_branch_state(dec.j2, y, rho, marginal))
        values = np.concatenate([values, -values])
        counts = np.concatenate([counts, rng.multinomial(shots - n_plus, probs_minus)])

    mean, sample_std = _count_statistics(values, counts)
    return ProtocolEstimate(mean=mean, sample_std=sample_std, shots=shots, scale=scale,
                            seed=seed, n_plus=n_plus, n_minus=shots - n_plus)


def _count_statistics(values: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Mean and sample standard deviation (ddof=1) of the sample holding
    ``counts[k]`` copies of ``values[k]``, by a centred two-pass sum; the
    deviation is 0 for a single shot."""
    n = int(counts.sum())
    mean = float(counts @ values) / n
    if n < 2:
        return mean, 0.0
    dev = values - mean
    return mean, math.sqrt(float(counts @ (dev * dev)) / (n - 1))


def protocol_expectation(dec: BroadcastDecomposition, rho: np.ndarray,
                         obs: Observable, marginal: int) -> float:
    """Analytic mean of the protocol estimator.

    Computed in the branch structure the sampler uses,
    (x+y) (p+ E+[lambda] - p- E-[lambda]), with exact branch traces; by
    linearity this equals Tr[O Tr_other(E(rho))] for the represented map.
    The sampled estimator matches this up to the (tolerance-level) clipping
    of slightly negative outcome probabilities.
    """
    x, y = dec.x, dec.y
    plus = _branch_state(dec.j1, x, rho, marginal)
    total = x * float(np.real(np.trace(obs.op @ plus)))
    if y != 0.0:
        minus = _branch_state(dec.j2, y, rho, marginal)
        total -= y * float(np.real(np.trace(obs.op @ minus)))
    return total


def bias_bound(obs: Observable, delta: float) -> float:
    """Worst-case estimator bias when a marginal is within half-diamond
    distance ``delta`` of the identity: ||O||_inf times the full diamond
    distance 2 delta."""
    return float(np.max(np.abs(obs.values))) * 2.0 * delta


def naive_baseline(rho: np.ndarray, obs: Observable, shots: int,
                   seed: int) -> ProtocolEstimate:
    """Sample-splitting baseline: half the shots per receiver, measuring rho
    directly; unbiased for Tr[O rho] with scale 1."""
    shots = operator.index(shots)
    if shots < 2:
        raise ValueError("the baseline splits shots between two receivers")
    probs = obs.outcome_probabilities(np.asarray(rho, dtype=complex))
    rng = np.random.Generator(np.random.Philox(key=seed))
    mean, sample_std = _count_statistics(obs.values, rng.multinomial(shots, probs))
    return ProtocolEstimate(mean=mean, sample_std=sample_std, shots=shots,
                            scale=1.0, seed=seed, n_plus=shots, n_minus=0)
