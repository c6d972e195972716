import numpy as np
import pytest

from vbroadcast.linalg import (
    as_hermitian,
    check_density,
    eig_hermitian,
    haar_unitary,
    kron,
    min_eigenvalue,
    operator_norm,
    partial_trace,
    partial_transpose,
    permute_subsystems,
    psd_check,
    random_density,
    random_hermitian,
    trace_norm,
)
from vbroadcast.channels import gamma_operator, swap_operator


def kron_oracle(a, b):
    """Entrywise Kronecker product, independent of numpy's implementation."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for m in range(cb):
                    out[i * rb + k, j * cb + m] = a[i, j] * b[k, m]
    return out


class TestKron:
    def test_identity(self):
        np.testing.assert_array_equal(kron(np.eye(2), np.eye(2)), np.eye(4))

    def test_diagonal(self):
        got = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
        np.testing.assert_allclose(got, np.diag([3.0, 4.0, 6.0, 8.0]))

    def test_matches_entrywise_oracle_and_trace(self):
        rng = np.random.default_rng(3)
        a = random_hermitian(2, rng)
        b = random_hermitian(2, rng)
        got = kron(a, b)
        np.testing.assert_allclose(got, kron_oracle(a, b), atol=1e-14)
        assert np.isclose(np.trace(got), np.trace(a) * np.trace(b), atol=1e-12)

    def test_mixed_product_identity(self):
        rng = np.random.default_rng(4)
        a, b, c, d = (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                      for _ in range(4))
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


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


class TestPartialTranspose:
    def test_gamma_gives_swap(self):
        d = 2
        got = partial_transpose(gamma_operator(d), (d, d), subsystem=0)
        # oracle: explicit index swap of the first factor
        g = gamma_operator(d).reshape(d, d, d, d)
        oracle = np.einsum("ijkl->kjil", g).reshape(d * d, d * d)
        np.testing.assert_allclose(got, oracle, atol=1e-14)
        np.testing.assert_allclose(got, swap_operator(d), atol=1e-14)

    def test_identity_fixed(self):
        np.testing.assert_array_equal(partial_transpose(np.eye(6), (2, 3), 1), np.eye(6))

    def test_involution(self):
        rng = np.random.default_rng(9)
        m = random_hermitian(6, rng)
        twice = partial_transpose(partial_transpose(m, (2, 3), 0), (2, 3), 0)
        np.testing.assert_array_equal(twice, m)


class TestEig:
    def test_sorted_diag(self):
        spec = eig_hermitian(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 2.0, 3.0])

    def test_gamma_rank_one(self):
        spec = eig_hermitian(gamma_operator(2))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 0.0, 0.0, 2.0], atol=1e-12)

    def test_trace_norm_gamma_minus_identity(self):
        d = 2
        h = gamma_operator(d) - np.eye(d * d) / d
        # closed form: (d - 1/d) + (d^2 - 1)/d
        assert np.isclose(trace_norm(h), (d - 1 / d) + (d * d - 1) / d, atol=1e-12)
        assert np.isclose(trace_norm(h), 3.0, atol=1e-12)

    def test_reconstruction_up_to_dim_64(self):
        rng = np.random.default_rng(10)
        for dim in (3, 17, 64):
            h = random_hermitian(dim, rng)
            spec = eig_hermitian(h)
            err = np.linalg.norm(spec.reconstruct() - h)
            assert err <= 1e-10 * np.linalg.norm(h)
            # eigenvector matrix unitary
            v = spec.eigenvectors
            assert np.linalg.norm(v.conj().T @ v - np.eye(dim)) <= 1e-10
            # residuals per pair
            res = h @ v - v * spec.eigenvalues
            assert np.linalg.norm(res) <= 1e-10 * np.linalg.norm(h)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestPsdCheck:
    def test_identity(self):
        ok, lam = psd_check(np.eye(3), 1e-9)
        assert ok and np.isclose(lam, 1.0)

    def test_indefinite(self):
        ok, lam = psd_check(np.diag([1.0, -0.5]), 1e-9)
        assert not ok and np.isclose(lam, -0.5)

    def test_depolarizing_cp_boundary(self):
        # Choi (1-t) Gamma + t I/d stays PSD up to t = d^2/(d^2-1)
        d = 2
        t = 1.2
        h = (1 - t) * gamma_operator(d) + t * np.eye(d * d) / d
        ok, lam = psd_check(h, 1e-9)
        assert ok
        np.testing.assert_allclose(
            sorted(np.linalg.eigvalsh(h))[0], min((1 - t) * d + t / d, t / d), atol=1e-12)
        beyond = (1 - 1.4) * gamma_operator(d) + 1.4 * np.eye(d * d) / d
        assert not psd_check(beyond, 1e-9)[0]


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


def test_norm_helpers_match_spectrum():
    rng = np.random.default_rng(13)
    h = random_hermitian(5, rng)
    spec = eig_hermitian(h)
    assert np.isclose(trace_norm(h), spec.trace_norm)
    assert np.isclose(operator_norm(h), spec.operator_norm)
    assert np.isclose(min_eigenvalue(h), spec.min_eigenvalue)
