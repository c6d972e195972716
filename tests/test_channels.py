import numpy as np
import pytest

from vbroadcast.channels import (
    BroadcastDecomposition,
    ChoiOperator,
    DepolarizingParam,
    apply_choi,
    apply_choi_with_ancilla,
    canonical_broadcast_choi,
    check_structural_conditions,
    choi_of_map,
    depolarizing_choi,
    gamma_operator,
    identity_choi,
    is_broadcasting_choi,
    isotropic_twirl,
    link_product,
    marginal_choi,
    max_entangled_state,
    replacement_choi,
    swap_operator,
)
from vbroadcast.linalg import (
    min_eigenvalue,
    partial_trace,
    psd_check,
    random_density,
    random_hermitian,
)


def random_channel_choi(d, rng):
    """Random CPTP Choi operator on (B, B1): PSD then reweighted to be TP."""
    a = rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d))
    j = a @ a.conj().T
    g = partial_trace(j, (d, d), drop=1)
    w, v = np.linalg.eigh(g)
    g_inv_half = (v / np.sqrt(w)) @ v.conj().T
    fix = np.kron(g_inv_half, np.eye(d))
    return ChoiOperator(fix @ j @ fix.conj().T, d, (d,))


class TestGamma:
    def test_entries_d2(self):
        g = gamma_operator(2)
        expected = np.zeros((4, 4))
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 1.0
        np.testing.assert_array_equal(g, expected)

    def test_trace_is_dimension(self):
        assert np.isclose(np.trace(gamma_operator(3)), 3.0)

    def test_rank_one_with_eigenvalue_d(self):
        w = np.linalg.eigvalsh(gamma_operator(3))
        np.testing.assert_allclose(w[-1], 3.0, atol=1e-12)
        np.testing.assert_allclose(w[:-1], 0.0, atol=1e-12)

    def test_marginals_identity(self):
        for d in (2, 3):
            g = gamma_operator(d)
            np.testing.assert_allclose(partial_trace(g, (d, d), 0), np.eye(d), atol=1e-14)
            np.testing.assert_allclose(partial_trace(g, (d, d), 1), np.eye(d), atol=1e-14)


class TestDepolarizing:
    def test_t0_is_identity_choi(self):
        np.testing.assert_allclose(depolarizing_choi(0.0, 2).op, gamma_operator(2))

    def test_t1_is_replacement(self):
        np.testing.assert_allclose(depolarizing_choi(1.0, 2).op, np.eye(4) / 2)
        np.testing.assert_allclose(replacement_choi(2).op, np.eye(4) / 2)

    def test_eigenvalues_t_half(self):
        w = np.sort(np.linalg.eigvalsh(depolarizing_choi(0.5, 2).op))
        np.testing.assert_allclose(w, [0.25, 0.25, 0.25, 1.25], atol=1e-12)

    def test_trace_preserving_for_every_t(self):
        for t in (-1.5, -0.3, 0.0, 0.7, 1.0, 2.0):
            j = depolarizing_choi(t, 3)
            assert j.tp_residual(1.0) <= 1e-12
            assert np.isclose(np.trace(j.op), 3.0)

    def test_cp_window(self):
        d = 2
        par = DepolarizingParam(1.2)
        assert par.is_cp_range(d)
        assert psd_check(depolarizing_choi(1.2, d).op)[0]
        assert not psd_check(depolarizing_choi(DepolarizingParam.cp_upper(d) + 0.05, d).op)[0]
        assert not psd_check(depolarizing_choi(-0.05, d).op)[0]


class TestApplyChoi:
    def test_identity_channel(self):
        rng = np.random.default_rng(21)
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply_choi(identity_choi(2), rho), rho, atol=1e-12)

    def test_replacement(self):
        rng = np.random.default_rng(22)
        rho = random_density(2, rng)
        np.testing.assert_allclose(apply_choi(replacement_choi(2), rho),
                                   np.eye(2) / 2, atol=1e-12)

    def test_depolarizing_convex_combination(self):
        rng = np.random.default_rng(23)
        t = 0.3
        for _ in range(5):
            rho = random_density(2, rng)
            got = apply_choi(depolarizing_choi(t, 2), rho)
            want = (1 - t) * rho + t * np.eye(2) / 2   # direct convex combination
            np.testing.assert_allclose(got, want, atol=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_choi(identity_choi(2), np.eye(3) / 3)

    def test_ancilla_batch_maps_each_operator(self):
        rng = np.random.default_rng(24)
        j = depolarizing_choi(0.4, 2)
        batch = np.stack([random_density(4, rng) for _ in range(3)])
        got = apply_choi_with_ancilla(j, batch, anc_dim=2)
        assert got.shape == (3, 4, 4)
        for k in range(3):
            np.testing.assert_array_equal(
                got[k], apply_choi_with_ancilla(j, batch[k], anc_dim=2))
        with pytest.raises(ValueError, match="does not match"):
            apply_choi_with_ancilla(j, np.zeros((3, 6, 6)), anc_dim=2)

    def test_ancilla_matches_sum_over_input_blocks(self):
        # (E (x) id)(X) = sum_{b,c} E(|b><c|) (x) X_bc for a two-output map
        # and an ancilla larger than the input
        rng = np.random.default_rng(26)
        d, outs, da = 2, (2, 3), 3
        k = rng.standard_normal((6, d)) + 1j * rng.standard_normal((6, d))
        j = choi_of_map(lambda m: k @ m @ k.conj().T, d, outs)
        x = random_hermitian(d * da, rng)
        blocks = x.reshape(d, da, d, da)
        want = sum(np.kron(np.outer(k[:, b], k[:, c].conj()), blocks[b, :, c, :])
                   for b in range(d) for c in range(d))
        np.testing.assert_allclose(apply_choi_with_ancilla(j, x, anc_dim=da), want, atol=1e-12)


class TestLinkProduct:
    def test_identity_link_is_partial_trace(self):
        rng = np.random.default_rng(24)
        j = random_channel_choi(2, rng)
        got, labels = link_product(np.eye(2), ("B1",), j.op, ("B", "B1"),
                                   {"B": 2, "B1": 2})
        np.testing.assert_allclose(got, partial_trace(j.op, (2, 2), drop=1), atol=1e-12)
        assert labels == ("B",)

    def test_composition_matches_apply_oracle(self):
        rng = np.random.default_rng(25)
        d = 2
        je = random_channel_choi(d, rng)   # E: B -> B1
        jf = random_channel_choi(d, rng)   # F: B1 -> B2
        got, labels = link_product(je.op, ("B", "B1"), jf.op, ("B1", "B2"),
                                   {"B": d, "B1": d, "B2": d})
        assert labels == ("B", "B2")
        # oracle: rebuild the Choi operator of F(E(.)) by applying to a basis
        composed = choi_of_map(
            lambda m: apply_choi(jf, apply_choi(je, m)), d, (d,))
        np.testing.assert_allclose(got, composed.op, atol=1e-10)

    def test_gamma_link_gamma(self):
        g = gamma_operator(2)
        got, _ = link_product(g, ("B", "X"), g, ("X", "C"), {"B": 2, "X": 2, "C": 2})
        np.testing.assert_allclose(got, g, atol=1e-12)


class TestMarginals:
    def test_broadcasting_choi_marginals_are_gamma(self):
        j = canonical_broadcast_choi(2, 0.0)
        np.testing.assert_allclose(marginal_choi(j, drop=2).op, gamma_operator(2),
                                   atol=1e-12)
        np.testing.assert_allclose(marginal_choi(j, drop=1).op, gamma_operator(2),
                                   atol=1e-12)

    def test_product_channel_marginal(self):
        rng = np.random.default_rng(26)
        d = 2
        ja = random_channel_choi(d, rng)
        sigma = random_density(d, rng)
        # Choi of rho -> A(rho) (x) sigma on (B, B1, B2)
        big = ChoiOperator(_product_choi(ja, sigma), d, (d, d))
        np.testing.assert_allclose(marginal_choi(big, drop=2).op, ja.op, atol=1e-10)
        # dropping the first output leaves the replacement-style map to sigma
        expect = choi_of_map(lambda m: np.trace(apply_choi(ja, m)) * sigma, d, (d,))
        np.testing.assert_allclose(marginal_choi(big, drop=1).op, expect.op, atol=1e-10)

    def test_marginal_consistency_with_link_product(self):
        j = canonical_broadcast_choi(2, 0.4)
        got, _ = link_product(j.op, ("B", "B1", "B2"), np.eye(2), ("B2",),
                              {"B": 2, "B1": 2, "B2": 2})
        np.testing.assert_allclose(got, marginal_choi(j, drop=2).op, atol=1e-12)


def _product_choi(ja, sigma):
    d = ja.in_dim
    return choi_of_map(lambda m: np.kron(apply_choi(ja, m), sigma), d, (d, d)).op


class TestIsotropicTwirl:
    def test_gamma_fixed_point(self):
        d = 3
        proj, f = isotropic_twirl(gamma_operator(d), d)
        assert np.isclose(f, d)
        np.testing.assert_allclose(proj, gamma_operator(d), atol=1e-12)

    def test_maximally_mixed_fixed_point(self):
        d = 2
        proj, f = isotropic_twirl(np.eye(d * d) / d, d)
        # F = Tr[Gamma (I/d)] / d = 1/d
        assert np.isclose(f, 1.0 / d)
        np.testing.assert_allclose(proj, np.eye(d * d) / d, atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(27)
        d = 3
        m = random_hermitian(d * d, rng)
        once, _ = isotropic_twirl(m, d)
        twice, _ = isotropic_twirl(once, d)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert abs(np.trace(once) - np.trace(m)) <= 1e-12 * (1 + abs(np.trace(m)))


class TestBroadcastingPredicates:
    def test_canonical_family_is_broadcasting(self):
        for lam in (0.0, 0.7):
            ok, res = is_broadcasting_choi(canonical_broadcast_choi(2, lam))
            assert ok, res

    def test_tensor_with_mixed_state_is_not(self):
        d = 2
        j = choi_of_map(lambda m: np.kron(m, np.eye(d) / d), d, (d, d))
        ok, (r1, r2) = is_broadcasting_choi(j)
        assert not ok and r1 <= 1e-12 and r2 > 0.1

    def test_broadcasting_implies_identity_marginal_action(self):
        rng = np.random.default_rng(28)
        j = canonical_broadcast_choi(2, 0.3)
        for _ in range(5):
            rho = random_density(2, rng)
            out = apply_choi(j, rho)
            np.testing.assert_allclose(partial_trace(out, (2, 2), 0), rho, atol=1e-8)
            np.testing.assert_allclose(partial_trace(out, (2, 2), 1), rho, atol=1e-8)

    def test_canonical_is_never_physical(self):
        # broadcasting holds but the Choi operator has a negative eigenvalue
        j = canonical_broadcast_choi(2, 0.0)
        assert is_broadcasting_choi(j)[0]
        assert min_eigenvalue(j.op) < -0.1


class TestStructuralConditions:
    def test_canonical_map_satisfies_all(self):
        rep = check_structural_conditions(canonical_broadcast_choi(2, 0.0))
        assert rep.is_broadcasting
        assert rep.is_unitary_covariant
        assert rep.is_permutation_invariant
        assert rep.is_classically_consistent
        assert rep.permutation_invariance_residual <= 1e-12

    def test_discard_prepare_point_structure(self):
        from vbroadcast.broadcasting import discard_prepare_point

        dec, _, _ = discard_prepare_point(2.0, 2)
        rep = check_structural_conditions(dec.difference())
        # marginals are depolarizing with t > 0: not exact broadcasting,
        # but the construction is symmetric under swapping the receivers
        assert not rep.is_broadcasting
        assert rep.is_permutation_invariant

    def test_asymmetric_map_breaks_permutation_invariance(self):
        d = 2
        j = choi_of_map(lambda m: np.kron(m, np.eye(d) / d), d, (d, d))
        rep = check_structural_conditions(j)
        assert rep.is_unitary_covariant
        assert not rep.is_permutation_invariant

    def test_fixed_state_preparation_breaks_covariance(self):
        # rho -> rho (x) |0><0| commutes with joint unitaries only through
        # the prepared state, so the generating-set residual must catch it
        d = 2
        sigma = np.diag([1.0, 0.0]).astype(complex)
        j = choi_of_map(lambda m: np.kron(m, sigma), d, (d, d))
        rep = check_structural_conditions(j)
        assert not rep.is_unitary_covariant
        assert rep.unitary_covariance_residual > 0.1


class TestBroadcastDecomposition:
    def test_valid_decomposition(self):
        from vbroadcast.broadcasting import discard_prepare_point

        dec, _, _ = discard_prepare_point(1.5, 2)
        report = dec.validate(tol=1e-9)
        assert report["weight_residual"] <= 1e-12
        assert np.isclose(dec.nu ** 2, 1.5, atol=1e-12)
        assert np.isclose(dec.p_plus, dec.x / dec.nu)

    def test_invalid_weights_rejected(self):
        j = canonical_broadcast_choi(2, 0.0)
        dec = BroadcastDecomposition(j1=j, j2=j, x=1.0, y=0.5)
        with pytest.raises(ValueError):
            dec.validate()


def test_swap_operator_squares_to_identity():
    s = swap_operator(3)
    np.testing.assert_allclose(s @ s, np.eye(9), atol=1e-14)
    rng = np.random.default_rng(29)
    a, b = random_hermitian(3, rng), random_hermitian(3, rng)
    np.testing.assert_allclose(s @ np.kron(a, b) @ s, np.kron(b, a), atol=1e-12)


def test_max_entangled_state_is_density():
    from vbroadcast.linalg import check_density

    check_density(max_entangled_state(3))
