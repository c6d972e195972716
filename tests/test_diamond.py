import numpy as np
import pytest

from vbroadcast import broadcasting as bc
from vbroadcast.channels import (
    ChoiOperator,
    apply_choi,
    apply_choi_with_ancilla,
    canonical_broadcast_choi,
    choi_of_map,
    depolarizing_choi,
    gamma_operator,
    identity_choi,
    max_entangled_state,
    replacement_choi,
)
from vbroadcast.diamond import diamond_problem, half_diamond_distance, lower_bound_by_states
from vbroadcast.linalg import haar_unitary, min_eigenvalue, random_hermitian
from vbroadcast.sdp import STATUS_UNCERTIFIED
from vbroadcast.sdp.solver import record_solves

D2 = 2


def hermitian_difference_choi(d, rng, scale=0.3):
    """Random traceless-ish Hermitian Choi difference of two channel-like maps."""
    h = scale * random_hermitian(d * d, rng)
    # remove the output-trace part so the map is trace annihilating, as a
    # difference of TP maps would be
    from vbroadcast.linalg import partial_trace

    marg = partial_trace(h, (d, d), drop=1)
    h = h - np.kron(marg, np.eye(d)) / d
    return ChoiOperator(h, d, (d,))


class TestClosedForms:
    @pytest.mark.parametrize("d", [2, 3])
    def test_identity_minus_replacement(self, d):
        phi = ChoiOperator(gamma_operator(d) - replacement_choi(d).op, d, (d,))
        res = half_diamond_distance(phi, lower_bound_samples=4)
        assert abs(res.value - (1 - 1 / d ** 2)) <= 1e-7
        assert res.certificate.passed

    def test_zero_map(self):
        phi = ChoiOperator(np.zeros((4, 4)), D2, (D2,))
        res = half_diamond_distance(phi, lower_bound_samples=4)
        assert abs(res.value) <= 1e-7
        assert abs(res.lower_bound) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("t", [-1.0, -0.5, 0.3, 1.0, 1.2, 1.5, 2.0])
    def test_depolarizing_difference(self, t, d):
        # |t| (d^2 - 1) / d^2 = |1 - gamma(t)| with gamma(t) = 1 - t + t / d^2:
        # the closed form that poses the error balls of approx_overhead
        phi = ChoiOperator(depolarizing_choi(t, d).op - gamma_operator(d), d, (d,))
        res = half_diamond_distance(phi, lower_bound_samples=4)
        assert abs(res.value - abs(1.0 - (1.0 - t + t / d ** 2))) <= 1e-8


class TestLowerBound:
    def test_maximally_entangled_candidate_is_tight_for_replacement(self):
        d = 2
        phi = ChoiOperator(gamma_operator(d) - replacement_choi(d).op, d, (d,))
        lb = lower_bound_by_states(phi, samples=1, seed=0)
        assert abs(lb - (1 - 1 / d ** 2)) <= 1e-12

    def test_zero_map_gives_zero(self):
        phi = ChoiOperator(np.zeros((4, 4)), D2, (D2,))
        assert lower_bound_by_states(phi, samples=8, seed=1) == 0.0

    def test_never_exceeds_sdp_value(self):
        rng = np.random.default_rng(41)
        for k in range(4):
            phi = hermitian_difference_choi(D2, rng)
            res = half_diamond_distance(phi, lower_bound_samples=64, seed=100 + k)
            assert res.lower_bound <= res.value + 1e-6

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(42)
        phi = hermitian_difference_choi(D2, rng)
        a = lower_bound_by_states(phi, samples=32, seed=7)
        b = lower_bound_by_states(phi, samples=32, seed=7)
        assert a == b

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_state_loop(self, d):
        rng = np.random.default_rng(60 + d)
        instances = [ChoiOperator(gamma_operator(d) - replacement_choi(d).op, d, (d,)),
                     hermitian_difference_choi(d, rng)]
        for phi in instances:
            for samples, seed in ((1, 3), (d * d + 1, 4), (37, 5), (256, 6)):
                got = lower_bound_by_states(phi, samples=samples, seed=seed)
                assert abs(got - per_state_lower_bound(phi, samples, seed)) <= 1e-12

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True])
    def test_rejects_sample_count_before_any_solve(self, samples):
        phi = ChoiOperator(gamma_operator(4) - replacement_choi(4).op, 4, (4,))
        with pytest.raises(ValueError, match="sample count"):
            lower_bound_by_states(phi, samples=samples)
        with record_solves() as log:
            with pytest.raises(ValueError, match="sample count"):
                half_diamond_distance(phi, lower_bound_samples=samples)
        assert log == []


def per_state_lower_bound(j_phi, samples, seed):
    """Reference: one candidate state at a time, the maximally entangled
    state first, then the columns of successive Haar unitaries."""
    d = j_phi.in_dim

    def half_trace_norm_of_output(state):
        out = apply_choi_with_ancilla(j_phi, state, anc_dim=d)
        return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(out))))

    best = half_trace_norm_of_output(max_entangled_state(d))
    rng = np.random.default_rng(seed)
    drawn = 0
    while drawn < samples:
        u = haar_unitary(d * d, rng)
        for col in range(min(d * d, samples - drawn)):
            psi = u[:, col]
            best = max(best, half_trace_norm_of_output(np.outer(psi, psi.conj())))
            drawn += 1
    return best


class TestNormProperties:
    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(43)
        phi = hermitian_difference_choi(D2, rng)
        base = half_diamond_distance(phi, lower_bound_samples=1).value
        for c in (-2.0, 0.5, 3.0):
            scaled = ChoiOperator(c * phi.op, D2, (D2,))
            val = half_diamond_distance(scaled, lower_bound_samples=1).value
            assert abs(val - abs(c) * base) <= 1e-7

    def test_triangle_inequality(self):
        rng = np.random.default_rng(44)
        for _ in range(3):
            a = hermitian_difference_choi(D2, rng)
            b = hermitian_difference_choi(D2, rng)
            ab = ChoiOperator(a.op + b.op, D2, (D2,))
            va = half_diamond_distance(a, lower_bound_samples=1).value
            vb = half_diamond_distance(b, lower_bound_samples=1).value
            vab = half_diamond_distance(ab, lower_bound_samples=1).value
            assert vab <= va + vb + 1e-7

    def test_unitary_invariance(self):
        rng = np.random.default_rng(45)
        phi = hermitian_difference_choi(D2, rng)
        u = haar_unitary(D2, rng)
        v = haar_unitary(D2, rng)
        conj = choi_of_map(
            lambda m: u @ apply_choi(phi, v @ m @ v.conj().T) @ u.conj().T,
            D2, (D2,))
        val = half_diamond_distance(phi, lower_bound_samples=1).value
        val_c = half_diamond_distance(conj, lower_bound_samples=1).value
        assert abs(val - val_c) <= 1e-7


class TestWitness:
    def test_witness_feasibility(self):
        d = 2
        phi = ChoiOperator(depolarizing_choi(0.6, d).op - gamma_operator(d), d, (d,))
        res = half_diamond_distance(phi, lower_bound_samples=1)
        z = res.witness_z
        assert min_eigenvalue(z) >= -1e-7
        assert min_eigenvalue(z - phi.op) >= -1e-7
        from vbroadcast.linalg import partial_trace

        trace = partial_trace(z, (d, d), drop=1)
        assert np.linalg.norm(trace - res.value * np.eye(d), 2) <= 1e-7

    def test_value_dominates_lower_bound(self):
        d = 2
        phi = ChoiOperator(gamma_operator(d) - replacement_choi(d).op, d, (d,))
        res = half_diamond_distance(phi, lower_bound_samples=16)
        assert res.value >= res.lower_bound - 1e-6


def test_rejects_two_output_choi():
    j = choi_of_map(lambda m: np.kron(m, np.eye(2) / 2), 2, (2, 2))
    with pytest.raises(ValueError):
        half_diamond_distance(j)


@pytest.mark.parametrize("j", [depolarizing_choi(0.5, 2), canonical_broadcast_choi(2)])
def test_trace_rows_are_equalities(j):
    # blocks Z, mu and the slack of Z >= J; Tr_out Z = mu I_B needs no slack
    n = j.op.shape[0]
    assert sorted(b.dim for b in diamond_problem(j).blocks) == [1, n, n]


def test_identity_choi_sanity():
    # distance between identity and itself is zero
    phi = ChoiOperator(identity_choi(2).op - gamma_operator(2), 2, (2,))
    assert abs(half_diamond_distance(phi, lower_bound_samples=1).value) <= 1e-8


class TestUncertified:
    def test_failed_certificate_changes_status(self, corrupted_solves):
        phi = ChoiOperator(gamma_operator(D2) - replacement_choi(D2).op, D2, (D2,))
        res = half_diamond_distance(phi, lower_bound_samples=1)
        assert res.certificate.passed is False
        assert res.status == STATUS_UNCERTIFIED == bc.STATUS_UNCERTIFIED

    def test_passed_certificate_stays_optimal(self):
        phi = ChoiOperator(gamma_operator(D2) - replacement_choi(D2).op, D2, (D2,))
        res = half_diamond_distance(phi, lower_bound_samples=1)
        assert res.status == "optimal" and res.certificate.passed is True
