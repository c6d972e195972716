"""Seeded random density operators, shared test material."""

import numpy as np


def random_density(d: int, rng: np.random.Generator) -> np.ndarray:
    """A full-rank d x d density operator, A A^dagger / Tr for complex Gaussian A."""
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
