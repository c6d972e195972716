"""Dense Hermitian linear algebra on tensor-product spaces.

Everything here is a pure function on immutable ``numpy`` values.  Operators
are plain complex ``ndarray``s; subsystem layouts are sequences of factor
dimensions, row-major with the leftmost factor most significant.  The standard
tolerance ladder used throughout the package:

* ``HERMITICITY_TOL`` (1e-10): asymmetry symmetrized away on construction,
* ``SDP_TOL`` (1e-6): residuals of solved problems (``sdp.check_certificate``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

SDP_TOL = 1e-6

# Hermiticity is enforced on construction: asymmetry up to this (relative)
# level is symmetrized away, anything larger is rejected as a real bug.
HERMITICITY_TOL = 1e-10


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """Return (M + M†)/2."""
    return 0.5 * (m + m.conj().T)


def as_hermitian(m: np.ndarray) -> np.ndarray:
    """Validate and symmetrize a square matrix that should be Hermitian.

    Asymmetry up to ``HERMITICITY_TOL * (1 + max|m|)`` is absorbed by symmetrizing;
    anything beyond that raises ``ValueError`` instead of being masked.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("matrix has non-finite entries")
    scale = 1.0 + np.max(np.abs(m)) if m.size else 1.0
    asym = np.max(np.abs(m - m.conj().T)) if m.size else 0.0
    if asym > HERMITICITY_TOL * scale:
        raise ValueError(f"matrix is not Hermitian: asymmetry {asym:.3e} "
                         f"exceeds {HERMITICITY_TOL:.1e} * {scale:.3e}")
    return hermitian_part(m)


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


def min_eigenvalue(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(as_hermitian(h))[0])


def check_density(rho: np.ndarray) -> np.ndarray:
    """Validate a density operator: Hermitian, PSD and unit trace within 1e-10."""
    rho = as_hermitian(rho)
    lam = min_eigenvalue(rho)
    if lam < -1e-10:
        raise ValueError(f"not positive semidefinite: min eigenvalue {lam:.3e}")
    tr = float(np.real(np.trace(rho)))
    if abs(tr - 1.0) > 1e-10:
        raise ValueError(f"trace {tr} is not 1 within 1e-10")
    return rho


# ----------------------------------------------------------------------
# Random test material (seeded, used by sampling routines and tests)
# ----------------------------------------------------------------------

def random_hermitian(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return hermitian_part(a)


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
