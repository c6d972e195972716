"""Dense Hermitian linear algebra on tensor-product spaces.

Everything here is a pure function on immutable ``numpy`` values.  Operators
are plain complex ``ndarray``s; subsystem layouts are sequences of factor
dimensions, row-major with the leftmost factor most significant.  The standard
tolerance ladder used throughout the package:

* ``CONSTRUCTION_TOL`` (1e-12): floating noise of basic linear algebra,
* ``PSD_TOL`` (1e-9): cone-membership checks on solver output,
* ``SDP_TOL`` (1e-6): residuals at the level of solved optimization problems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

CONSTRUCTION_TOL = 1e-12
PSD_TOL = 1e-9
SDP_TOL = 1e-6

# Hermiticity is enforced on construction: asymmetry up to this (relative)
# level is symmetrized away, anything larger is rejected as a real bug.
HERMITICITY_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2."""
    return 0.5 * (m + m.conj().T)


def as_hermitian(m: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Validate and symmetrize a square matrix that should be Hermitian.

    Asymmetry up to ``tol * (1 + max|m|)`` is absorbed by symmetrizing;
    anything beyond that raises ``ValueError`` instead of being masked.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.max(np.abs(m)) if m.size else 1.0
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > tol * scale:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} "
                         f"exceeds {tol:.1e} * {scale:.3e}")
    return hermitian_part(m)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(np.asarray(a), np.asarray(b))


def _check_layout(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ValueError(f"invalid subsystem dimensions {dims}")
    total = int(np.prod(dims))
    if m.shape != (total, total):
        raise ValueError(f"operator shape {m.shape} does not match subsystem "
                         f"layout {dims} (product {total})")
    return dims


def partial_trace(m: np.ndarray, dims: Sequence[int],
                  drop: int | Sequence[int]) -> np.ndarray:
    """Trace out the subsystems listed in ``drop``.

    The result acts on the kept factors in their original order; dropping
    every subsystem returns the 1x1 matrix ``[[Tr m]]``.  The total trace is
    preserved.
    """
    m = np.asarray(m)
    dims = _check_layout(m, dims)
    k = len(dims)
    drop_set = {drop} if isinstance(drop, (int, np.integer)) else set(int(i) for i in drop)
    if not drop_set.issubset(range(k)):
        raise ValueError(f"drop indices {sorted(drop_set)} out of range for {k} subsystems")
    keep = [i for i in range(k) if i not in drop_set]

    t = m.reshape(dims + dims)
    for i in sorted(drop_set, reverse=True):
        # axis pair (i, i + number of remaining row axes)
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def partial_transpose(m: np.ndarray, dims: Sequence[int], subsystem: int) -> np.ndarray:
    """Transpose a single tensor factor; applying it twice is the identity."""
    m = np.asarray(m)
    dims = _check_layout(m, dims)
    k = len(dims)
    if not 0 <= subsystem < k:
        raise ValueError(f"subsystem {subsystem} out of range for {k} subsystems")
    t = m.reshape(dims + dims)
    t = np.swapaxes(t, subsystem, subsystem + k)
    return t.reshape(m.shape)


def permute_subsystems(m: np.ndarray, dims: Sequence[int],
                       perm: Sequence[int]) -> np.ndarray:
    """Reorder tensor factors so that new position ``i`` holds old factor ``perm[i]``."""
    m = np.asarray(m)
    dims = _check_layout(m, dims)
    k = len(dims)
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"{perm} is not a permutation of 0..{k - 1}")
    t = m.reshape(dims + dims)
    t = t.transpose(perm + tuple(k + p for p in perm))
    return t.reshape(m.shape)


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a Hermitian operator.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def trace_norm(self) -> float:
        return float(np.sum(np.abs(self.eigenvalues)))

    @property
    def operator_norm(self) -> float:
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0

    @property
    def min_eigenvalue(self) -> float:
        return float(self.eigenvalues[0])

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def eig_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> Spectrum:
    """Eigendecompose a Hermitian matrix (LAPACK ``eigh`` under the hood).

    Raises ``ValueError`` if the input is not Hermitian within ``tol`` and
    ``numpy.linalg.LinAlgError`` if the iteration fails to converge, which
    signals ill-conditioned input.
    """
    h = as_hermitian(h, tol=tol)
    w, v = np.linalg.eigh(h)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def trace_norm(h: np.ndarray) -> float:
    """Schatten-1 norm of a Hermitian matrix: sum of |eigenvalues|."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(as_hermitian(h)))))


def operator_norm(h: np.ndarray) -> float:
    """Schatten-inf norm of a Hermitian matrix: max |eigenvalue|."""
    w = np.linalg.eigvalsh(as_hermitian(h))
    return float(np.max(np.abs(w))) if w.size else 0.0


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(as_hermitian(h))[0])


def psd_check(h: np.ndarray, tol: float = PSD_TOL) -> tuple[bool, float]:
    """Return ``(min_eig >= -tol, min_eig)`` for a Hermitian matrix."""
    lam = min_eigenvalue(h)
    return lam >= -tol, lam


def check_density(rho: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD and unit trace."""
    rho = as_hermitian(rho)
    lam = min_eigenvalue(rho)
    if lam < -tol:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lam:.3e}")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > tol:
        raise ValueError(f"trace {tr} is not 1 within {tol:.1e}")
    return rho


# ----------------------------------------------------------------------
# Random test material (seeded, used by sampling routines and tests)
# ----------------------------------------------------------------------

def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitian_part(a)


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def haar_unitary(d: int, rng: np.random.Generator,
                 size: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-distributed unitaries via QR of complex Gaussian matrices.

    Returns an array of shape ``size + (d, d)``.  Each matrix draws its real
    then its imaginary part, so a batch is bit-identical to successive
    single draws from the same generator.
    """
    g = rng.standard_normal(tuple(size) + (2, d, d))
    q, r = np.linalg.qr(g[..., 0, :, :] + 1j * g[..., 1, :, :])
    phases = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (phases / np.abs(phases))[..., None, :]
