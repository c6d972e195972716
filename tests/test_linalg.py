import numpy as np
import pytest

from random_states import random_density
from vbroadcast.linalg import (
    as_hermitian,
    check_density,
    haar_unitary,
    min_eigenvalue,
    partial_trace,
    permute_subsystems,
    random_hermitian,
)
from vbroadcast.channels import gamma_operator


class TestPartialTrace:
    def test_gamma_marginals_are_identity(self):
        g = gamma_operator(2)
        np.testing.assert_allclose(partial_trace(g, (2, 2), drop=1), np.eye(2), atol=1e-14)
        np.testing.assert_allclose(partial_trace(g, (2, 2), drop=0), np.eye(2), atol=1e-14)

    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho = random_density(2, rng)
        sigma = random_hermitian(3, rng)
        got = partial_trace(np.kron(rho, sigma), (2, 3), drop=1)
        np.testing.assert_allclose(got, rho * np.trace(sigma), atol=1e-12)

    def test_full_trace_as_1x1(self):
        rng = np.random.default_rng(6)
        m = random_hermitian(12, rng)
        got = partial_trace(m, (2, 3, 2), drop=(0, 1, 2))
        oracle = sum(m[i, i] for i in range(12))   # plain diagonal sum
        assert got.shape == (1, 1)
        assert np.isclose(got[0, 0], oracle, atol=1e-12)

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(7)
        for drop in [(0,), (1,), (0, 1)]:
            m = random_hermitian(8, rng)
            red = partial_trace(m, (2, 2, 2), drop=drop)
            assert abs(np.trace(red) - np.trace(m)) <= 1e-12 * (1 + abs(np.trace(m)))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        a = random_hermitian(6, rng)
        b = random_hermitian(6, rng)
        lhs = partial_trace(2.5 * a - 1.5 * b, (2, 3), drop=0)
        rhs = 2.5 * partial_trace(a, (2, 3), drop=0) - 1.5 * partial_trace(b, (2, 3), drop=0)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_layout_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 3), drop=0)
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 2), drop=5)


class TestMinEigenvalue:
    def test_identity(self):
        assert np.isclose(min_eigenvalue(np.eye(3)), 1.0)

    def test_indefinite(self):
        assert np.isclose(min_eigenvalue(np.diag([1.0, -0.5])), -0.5)

    def test_matches_sorted_spectrum(self):
        rng = np.random.default_rng(13)
        h = random_hermitian(5, rng)
        assert np.isclose(min_eigenvalue(h), np.sort(np.linalg.eigvals(h).real)[0])

    def test_depolarizing_cp_boundary(self):
        # Choi (1-t) Gamma + t I/d stays PSD up to t = d^2/(d^2-1)
        d = 2
        t = 1.2
        assert t <= d * d / (d * d - 1)
        h = (1 - t) * gamma_operator(d) + t * np.eye(d * d) / d
        np.testing.assert_allclose(min_eigenvalue(h), min((1 - t) * d + t / d, t / d),
                                   atol=1e-12)
        beyond = d * d / (d * d - 1) + 0.05
        assert min_eigenvalue((1 - beyond) * gamma_operator(d)
                              + beyond * np.eye(d * d) / d) < -1e-3


class TestValidation:
    def test_hermitize_absorbs_noise(self):
        h = np.eye(2) + 1e-13 * np.array([[0, 1], [0, 0]])
        out = as_hermitian(h)
        np.testing.assert_allclose(out, out.conj().T)

    def test_hermitize_rejects_bugs(self):
        with pytest.raises(ValueError):
            as_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_density_check(self):
        check_density(np.eye(2) / 2)
        with pytest.raises(ValueError):
            check_density(np.eye(2))
        with pytest.raises(ValueError):
            check_density(np.diag([1.5, -0.5]))

    def test_haar_unitary_is_unitary(self):
        rng = np.random.default_rng(11)
        u = haar_unitary(5, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(5), atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 4, 9])
    def test_haar_batch_matches_successive_draws(self, d):
        k = 7
        batch_rng, single_rng = np.random.default_rng(14), np.random.default_rng(14)
        batch = haar_unitary(d, batch_rng, (k,))
        assert batch.shape == (k, d, d)
        np.testing.assert_array_equal(batch, [haar_unitary(d, single_rng) for _ in range(k)])
        assert batch_rng.bit_generator.state == single_rng.bit_generator.state
        np.testing.assert_allclose(batch @ batch.conj().swapaxes(-1, -2),
                                   np.broadcast_to(np.eye(d), batch.shape), atol=1e-12)


def test_permute_subsystems_roundtrip():
    rng = np.random.default_rng(12)
    m = random_hermitian(12, rng)
    fwd = permute_subsystems(m, (2, 3, 2), (1, 2, 0))
    back = permute_subsystems(fwd, (3, 2, 2), (2, 0, 1))
    np.testing.assert_array_equal(back, m)

