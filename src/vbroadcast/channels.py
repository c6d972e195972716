"""Choi-operator toolbox: channels, HPTP maps, marginals, twirling.

A linear map E from a d-dimensional system B to output systems (B1, ...) is
represented by its Choi operator J = (id (x) E)(|G><G|), where |G> = sum_i |ii>
is the unnormalized maximally entangled vector.  Subsystems inside ``op`` are
ordered (B, B1, B2, ...): the input first, then the outputs.  With that
convention

* E is Hermitian-preserving  iff  J is Hermitian,
* E is completely positive   iff  J >= 0,
* E is trace-preserving      iff  Tr over the outputs of J equals I_B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .linalg import as_hermitian, haar_unitary, min_eigenvalue, partial_trace

__all__ = [
    "ChoiOperator",
    "BroadcastDecomposition",
    "StructureReport",
    "gamma_operator",
    "max_entangled_state",
    "swap_operator",
    "depolarizing_choi",
    "replacement_choi",
    "apply_choi",
    "apply_choi_with_ancilla",
    "choi_of_map",
    "marginal_choi",
    "isotropic_twirl",
    "is_broadcasting_choi",
    "canonical_broadcast_choi",
    "check_structural_conditions",
]


def gamma_operator(d: int) -> np.ndarray:
    """Rank-one operator |G><G| with G = sum_i |ii>; trace d, single eigenvalue d."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    g = np.zeros(d * d, dtype=complex)
    g[:: d + 1] = 1.0
    return np.outer(g, g)


def max_entangled_state(d: int) -> np.ndarray:
    """Normalized maximally entangled state |G><G| / d."""
    return gamma_operator(d) / d


def swap_operator(d: int) -> np.ndarray:
    """SWAP = sum_ij |i><j| (x) |j><i| exchanging two d-dimensional factors."""
    s = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            s[i * d + j, j * d + i] = 1.0
    return s


@dataclass(frozen=True)
class ChoiOperator:
    """Choi operator together with its subsystem layout.

    ``op`` acts on the tensor product (B, *out_dims) with the input system B
    first.  Hermiticity is enforced on construction (small asymmetry is
    symmetrized, larger asymmetry rejected).
    """

    op: np.ndarray
    in_dim: int
    out_dims: tuple[int, ...]

    def __post_init__(self):
        out_dims = tuple(int(d) for d in self.out_dims)
        object.__setattr__(self, "out_dims", out_dims)
        op = as_hermitian(self.op)
        expected = self.in_dim * int(np.prod(out_dims))
        if op.shape != (expected, expected):
            raise ValueError(f"operator shape {op.shape} does not match layout "
                             f"in_dim={self.in_dim}, out_dims={out_dims}")
        object.__setattr__(self, "op", op)

    @property
    def dims(self) -> tuple[int, ...]:
        return (self.in_dim,) + self.out_dims

    @property
    def n_outputs(self) -> int:
        return len(self.out_dims)

    @property
    def out_dim(self) -> int:
        return int(np.prod(self.out_dims))

    def output_trace(self) -> np.ndarray:
        """Trace over all outputs; equals w * I_B for a TP map of weight w."""
        return partial_trace(self.op, self.dims, drop=range(1, 1 + self.n_outputs))

    def tp_residual(self, weight: float = 1.0) -> float:
        """Frobenius distance of the output trace from weight * I_B."""
        diff = self.output_trace() - weight * np.eye(self.in_dim)
        return float(np.linalg.norm(diff))


def depolarizing_choi(t: float, d: int) -> ChoiOperator:
    """Choi operator (1-t) |G><G| + t I/d of the depolarizing family.

    The family is trace-preserving for every real t and completely positive
    for 0 <= t <= d^2/(d^2 - 1); t = 0 is the identity channel.
    """
    t = float(t)
    op = (1.0 - t) * gamma_operator(d) + (t / d) * np.eye(d * d)
    return ChoiOperator(op, d, (d,))


def replacement_choi(d: int) -> ChoiOperator:
    """Channel sending every state to I/d; the t = 1 depolarizing point."""
    return depolarizing_choi(1.0, d)


def apply_choi(j: ChoiOperator, rho: np.ndarray) -> np.ndarray:
    """Apply the represented map: E(rho) = Tr_B[(rho^T (x) I_out) J]."""
    rho = np.asarray(rho, dtype=complex)
    d = j.in_dim
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match input dimension {d}")
    dout = j.out_dim
    t = j.op.reshape(d, dout, d, dout)
    # with J = sum_ij |i><j| (x) E(|i><j|) this contracts to E(rho)
    out = np.einsum("ij,ixjy->xy", rho, t)
    return out


def apply_choi_with_ancilla(j: ChoiOperator, x: np.ndarray, anc_dim: int) -> np.ndarray:
    """Apply (E (x) id) to an operator on B (x) ancilla.

    Output lives on (out, ancilla).  Used for stabilized norms, where the
    ancilla dimension matching the input dimension suffices.  Leading axes of
    ``x`` index a batch of operators.
    """
    x = np.asarray(x, dtype=complex)
    d = j.in_dim
    da = int(anc_dim)
    if x.shape[-2:] != (d * da, d * da):
        raise ValueError(f"operator shape {x.shape} does not match {d} x {da}")
    dout = j.out_dim
    jt = j.op.reshape(d, dout, d, dout)
    xt = x.reshape(x.shape[:-2] + (d, da, d, da))
    out = np.einsum("bxcy,...bacm->...xaym", jt, xt, optimize=True)
    return out.reshape(x.shape[:-2] + (dout * da, dout * da))


def choi_of_map(fn: Callable[[np.ndarray], np.ndarray], d_in: int,
                out_dims: Sequence[int]) -> ChoiOperator:
    """Build the Choi operator of a map given as a callable on matrices."""
    out_dims = tuple(int(x) for x in out_dims)
    dout = int(np.prod(out_dims))
    op = np.zeros((d_in * dout, d_in * dout), dtype=complex)
    basis = np.zeros((d_in, d_in), dtype=complex)
    t = op.reshape(d_in, dout, d_in, dout)
    for i in range(d_in):
        for k in range(d_in):
            basis[:] = 0.0
            basis[i, k] = 1.0
            t[i, :, k, :] = fn(basis)
    return ChoiOperator(op, d_in, out_dims)


def marginal_choi(j: ChoiOperator, drop: int) -> ChoiOperator:
    """Choi operator of (Tr_{B_drop} o E) for a two-output map; drop is 1 or 2."""
    if j.n_outputs != 2:
        raise ValueError("marginal_choi expects a Choi operator with two outputs")
    if drop not in (1, 2):
        raise ValueError("drop must be 1 or 2")
    kept = 2 if drop == 1 else 1
    reduced = partial_trace(j.op, j.dims, drop=drop)
    return ChoiOperator(reduced, j.in_dim, (j.dims[kept],))


def isotropic_twirl(m: np.ndarray, d: int) -> tuple[np.ndarray, float]:
    """Project a Hermitian operator on B (x) B' onto span{|G><G|, I}.

    This is the exact average over conjugation by Ubar (x) U, evaluated in
    closed form via Schur's lemma: the projection keeps the component
    F = Tr[|G><G| m] / d along the maximally entangled direction and spreads
    the remaining trace uniformly over its orthocomplement.  The total trace
    is preserved; for trace-d input (a TP Choi operator) the result is the
    standard isotropic combination ((Fd-1)/(d^2-1)) |G><G| + ((d^2-Fd)/(d^2-1)) I/d.
    """
    m = as_hermitian(m)
    if m.shape != (d * d, d * d):
        raise ValueError(f"operator shape {m.shape} does not match d^2 = {d * d}")
    gamma = gamma_operator(d)
    omega = gamma / d
    f = float(np.real(np.trace(gamma @ m))) / d
    total = float(np.real(np.trace(m)))
    rest = (total - f) / (d * d - 1.0)
    proj = f * omega + rest * (np.eye(d * d) - omega)
    return proj, f


# Frobenius-norm residual up to which a structural predicate holds
STRUCTURE_TOL = 1e-8


def is_broadcasting_choi(j: ChoiOperator) -> tuple[bool, tuple[float, float]]:
    """Check Tr_{B2} J = G_{BB1} and Tr_{B1} J = G_{BB2} within ``STRUCTURE_TOL``."""
    if j.n_outputs != 2:
        raise ValueError("broadcasting check expects two outputs")
    d = j.in_dim
    gamma = gamma_operator(d)
    res1 = float(np.linalg.norm(marginal_choi(j, drop=2).op - gamma))
    res2 = float(np.linalg.norm(marginal_choi(j, drop=1).op - gamma))
    return (res1 <= STRUCTURE_TOL and res2 <= STRUCTURE_TOL), (res1, res2)


def canonical_broadcast_choi(d: int, lam: float = 0.0) -> ChoiOperator:
    """Choi operator of rho -> (1/2){rho (x) I, SWAP} + i*lam [rho (x) I, SWAP].

    Every member of this family is an HPTP broadcasting map; none of them is
    completely positive (no physical broadcaster exists).
    """
    swap = swap_operator(d)

    def broadcast_map(x: np.ndarray) -> np.ndarray:
        xi = np.kron(x, np.eye(d))
        anti = 0.5 * (xi @ swap + swap @ xi)
        comm = xi @ swap - swap @ xi
        return anti + 1j * lam * comm

    return choi_of_map(broadcast_map, d, (d, d))


@dataclass(frozen=True)
class StructureReport:
    """Residuals of the structural predicates of a two-output Choi operator.

    Flags are derived from the residuals at ``STRUCTURE_TOL`` (Frobenius norm).
    """

    broadcasting_residuals: tuple[float, float]
    unitary_covariance_residual: float
    permutation_invariance_residual: float
    classical_consistency_residual: float

    @property
    def is_broadcasting(self) -> bool:
        return max(self.broadcasting_residuals) <= STRUCTURE_TOL

    @property
    def is_unitary_covariant(self) -> bool:
        return self.unitary_covariance_residual <= STRUCTURE_TOL

    @property
    def is_permutation_invariant(self) -> bool:
        return self.permutation_invariance_residual <= STRUCTURE_TOL

    @property
    def is_classically_consistent(self) -> bool:
        return self.classical_consistency_residual <= STRUCTURE_TOL


# Unitary covariance is probed on a fixed generating set: Haar-seeded
# unitaries (seed below) plus the cyclic-shift and canonical phase unitaries.
# The exact commutant projection is only available in closed form on single
# output marginals (isotropic_twirl); on two outputs a generating-set residual
# is a sound necessary test at this tolerance.
COVARIANCE_TEST_SEED = 20240901
COVARIANCE_TEST_UNITARIES = 20


def _covariance_test_set(d: int) -> list[np.ndarray]:
    rng = np.random.default_rng(COVARIANCE_TEST_SEED)
    units = list(haar_unitary(d, rng, (COVARIANCE_TEST_UNITARIES,)))
    shift = np.roll(np.eye(d), 1, axis=0).astype(complex)
    phase = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return units + [shift, phase]


def check_structural_conditions(j: ChoiOperator) -> StructureReport:
    """Evaluate broadcasting / covariance / permutation / classical-consistency residuals."""
    if j.n_outputs != 2:
        raise ValueError("structural checks expect two outputs")
    d = j.in_dim
    _, bc_res = is_broadcasting_choi(j)

    # Covariance (U (x) U) o E = E o U  <=>  J commutes with conj(U)_B (x) U (x) U.
    cov = 0.0
    for u in _covariance_test_set(d):
        v = np.kron(u.conj(), np.kron(u, u))
        cov = max(cov, float(np.linalg.norm(v @ j.op @ v.conj().T - j.op)))

    swap = swap_operator(d)
    v = np.kron(np.eye(d), swap)
    perm = float(np.linalg.norm(v @ j.op @ v.conj().T - j.op))

    # Classical consistency: dephasing in the canonical basis before and after
    # the map must copy basis states, (D (x) D) E(|i><i|) = |ii><ii|.
    cc = 0.0
    dd = d * d
    for i in range(d):
        basis = np.zeros((d, d), dtype=complex)
        basis[i, i] = 1.0
        out = apply_choi(j, basis)
        dephased = np.diag(np.diag(out))
        target = np.zeros((dd, dd), dtype=complex)
        target[i * d + i, i * d + i] = 1.0
        cc = max(cc, float(np.linalg.norm(dephased - target)))

    return StructureReport(
        broadcasting_residuals=bc_res,
        unitary_covariance_residual=cov,
        permutation_invariance_residual=perm,
        classical_consistency_residual=cc,
    )


@dataclass(frozen=True)
class BroadcastDecomposition:
    """Virtual protocol (x E+, y E-): two CP Choi operators with x - y = 1.

    ``j1.op`` integrates to x * I_B over its outputs and ``j2.op`` to y * I_B,
    so that j1/x and j2/y are channels whenever the weights are positive.  The
    represented HPTP map is j1 - j2.
    """

    j1: ChoiOperator
    j2: ChoiOperator
    x: float
    y: float

    @property
    def nu(self) -> float:
        return self.x + self.y

    @property
    def p_plus(self) -> float:
        return self.x / (self.x + self.y)

    def difference(self) -> ChoiOperator:
        return ChoiOperator(self.j1.op - self.j2.op, self.j1.in_dim, self.j1.out_dims)

    def validate(self, tol: float = 1e-9) -> dict:
        """Residuals of the defining constraints; raises if any exceeds ``tol``."""
        report = {
            "weight_residual": abs(self.x - self.y - 1.0),
            "min_eig_j1": min_eigenvalue(self.j1.op),
            "min_eig_j2": min_eigenvalue(self.j2.op),
            "tp_residual_j1": self.j1.tp_residual(self.x),
            "tp_residual_j2": self.j2.tp_residual(self.y),
        }
        ok = (report["weight_residual"] <= tol
              and report["min_eig_j1"] >= -tol
              and report["min_eig_j2"] >= -tol
              and report["tp_residual_j1"] <= tol
              and report["tp_residual_j2"] <= tol)
        if not ok:
            raise ValueError(f"invalid broadcast decomposition: {report}")
        return report
