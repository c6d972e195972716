import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from random_states import random_density
from vbroadcast import simulator as sim
from vbroadcast.broadcasting import discard_prepare_point
from vbroadcast.channels import (
    BroadcastDecomposition,
    ChoiOperator,
    apply_choi,
    choi_of_map,
    depolarizing_choi,
    gamma_operator,
    marginal_choi,
)
from vbroadcast.linalg import partial_trace, random_hermitian

PAULI_Z = np.diag([1.0, -1.0])
KET0 = np.diag([1.0, 0.0]).astype(complex)


def trivial_decomposition(d=2):
    """rho -> rho (x) I/d as the positive part with weight one."""
    j1 = choi_of_map(lambda m: np.kron(m, np.eye(d) / d), d, (d, d))
    j2 = ChoiOperator(np.zeros((d ** 3, d ** 3)), d, (d, d))
    return BroadcastDecomposition(j1=j1, j2=j2, x=1.0, y=0.0)


class TestRequiredSamples:
    def test_reference_value(self):
        hb = sim.required_samples(2.0, 1.0, 0.1, 0.05)
        assert hb.n == math.ceil(400 * math.log(40))
        assert hb.n == 1476

    def test_budget_scales_with_nu_squared(self):
        # the pre-ceiling budget scales exactly by 4; the integer counts match
        # up to the two rounding operations
        raw = lambda nu: 2.0 ** 2 * nu ** 2 / 0.1 ** 2 * math.log(2 / 0.05)
        n1 = sim.required_samples(2.0, 1.0, 0.1, 0.05).n
        n2 = sim.required_samples(2.0, 2.0, 0.1, 0.05).n
        assert raw(2.0) == 4.0 * raw(1.0)
        assert n2 == math.ceil(4.0 * raw(1.0))
        assert abs(n2 - 4 * n1) <= 3

    def test_exact_virtual_broadcast_loses_to_naive(self):
        # nu = 5/3 against the two-receiver split cost nu_eff = sqrt(2)
        budget_exact = sim.required_samples(2.0, 5.0 / 3.0, 0.1, 0.05).n
        budget_naive = sim.required_samples(2.0, math.sqrt(2.0), 0.1, 0.05).n
        assert budget_exact / budget_naive >= (25.0 / 9.0) / 2.0 - 1e-3
        assert budget_exact > budget_naive

    def test_input_validation(self):
        with pytest.raises(ValueError):
            sim.required_samples(-1.0, 1.0, 0.1, 0.05)
        with pytest.raises(ValueError):
            sim.required_samples(1.0, 1.0, 0.1, 1.5)

    @pytest.mark.parametrize("args", [
        (2.0, math.nan, 0.1, 0.05),
        (2.0, 1.0, math.nan, 0.05),
        (math.nan, 1.0, 0.1, 0.05),
        (2.0, 1.0, 0.1, math.nan),
        (math.inf, 1.0, 0.1, 0.05),
        (2.0, math.inf, 0.1, 0.05),
        (2.0, 1.0, math.inf, 0.05),
    ])
    def test_non_finite_arguments_rejected(self, args):
        # nan used to fail converting the budget to an integer, m = inf
        # with an OverflowError
        with pytest.raises(ValueError, match="finite"):
            sim.required_samples(*args)

    @pytest.mark.parametrize("args", [(2.0, 1.0, 1e-200, 0.05), (1e200, 1e200, 0.1, 0.05)])
    def test_unrepresentable_budget_rejected(self, args):
        # eps * eps used to underflow into a ZeroDivisionError, and a budget
        # past the float range to raise OverflowError
        with pytest.raises(ValueError, match="not a finite number of shots"):
            sim.required_samples(*args)


class TestObservable:
    def test_degenerate_merging(self):
        obs = sim.Observable.from_matrix(np.diag([1.0, 1.0, -1.0]))
        assert obs.values.tolist() == [-1.0, 1.0]
        assert obs.range_m == 2.0
        np.testing.assert_allclose(sum(obs.projectors), np.eye(3), atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            sim.Observable.from_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(ValueError, match="0 x 0"):
            sim.Observable.from_matrix(np.zeros((0, 0)))

    def test_sorted_outcomes(self):
        obs = sim.Observable.from_matrix(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(obs.values, [1.0, 2.0, 3.0])
        for k, i in enumerate((1, 2, 0)):
            np.testing.assert_allclose(np.diag(obs.projectors[k]), np.eye(3)[i], atol=1e-14)

    def test_gamma_outcomes_and_ranks(self):
        # Gamma = d |phi+><phi+|: eigenvalue 0 with multiplicity d^2 - 1, then d
        obs = sim.Observable.from_matrix(gamma_operator(2))
        np.testing.assert_allclose(obs.values, [0.0, 2.0], atol=1e-12)
        ranks = [np.trace(p).real for p in obs.projectors]
        np.testing.assert_allclose(ranks, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_up_to_dim_64(self):
        rng = np.random.default_rng(10)
        for dim in (3, 17, 64):
            h = random_hermitian(dim, rng)
            obs = sim.Observable.from_matrix(h)
            err = np.linalg.norm(np.einsum("k,kij->ij", obs.values, obs.projectors) - h)
            assert err <= 1e-10 * np.linalg.norm(h)
            np.testing.assert_allclose(obs.projectors.sum(axis=0), np.eye(dim), atol=1e-10)
            for p in obs.projectors:
                assert np.linalg.norm(p @ p - p) <= 1e-10

    def test_probabilities(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        probs = obs.outcome_probabilities(np.eye(2) / 2)
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_negative_probability_guard(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        bad_state = np.diag([1.15, -0.15])
        with pytest.raises(ValueError, match="negative outcome probability"):
            obs.outcome_probabilities(bad_state)

    def test_probability_sum_guard(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="sum to"):
            obs.outcome_probabilities(np.diag([0.7, 0.4]))

    @pytest.mark.parametrize("seed", range(4))
    def test_probabilities_match_projector_traces(self, seed):
        # a complex state and a degenerate observable: Tr(P_k rho), not
        # Tr(P_k rho^T), for every merged outcome
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        obs = sim.Observable.from_matrix(u @ np.diag([1.0, 1.0, -2.0]) @ u.conj().T)
        ref = [np.trace(p @ rho).real for p in obs.projectors]
        np.testing.assert_allclose(obs.outcome_probabilities(rho), ref, atol=1e-12)


class TestBranchState:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("marginal", [1, 2])
    def test_matches_channel_then_partial_trace(self, d, marginal):
        # receivers of different dimensions, so a swapped pair cannot pass
        rng = np.random.default_rng(10 * d + marginal)
        n = d * d * (d + 1)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        j = ChoiOperator(a + a.conj().T, d, (d, d + 1))
        b = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = b @ b.conj().T
        weight = 1.7
        ref = partial_trace(apply_choi(j, rho) / weight, j.out_dims,
                            drop=1 if marginal == 1 else 0)
        got = sim._branch_state(j, weight, rho, marginal)
        np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max())


class TestRunProtocol:
    def test_identity_observable_is_deterministic(self):
        dec = trivial_decomposition()
        obs = sim.Observable.from_matrix(np.eye(2))
        est = sim.run_protocol(dec, KET0, obs, marginal=1, shots=100, seed=5)
        assert est.mean == 1.0
        assert est.n_plus == 100 and est.n_minus == 0

    def test_explicit_point_statistics(self):
        dec, delta, _ = discard_prepare_point(2.0, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        t = (3 - math.sqrt(2)) / 4
        expected = 1.0 - t
        est = sim.run_protocol(dec, KET0, obs, marginal=1, shots=10 ** 5, seed=42)
        se = est.sample_std / math.sqrt(est.shots)
        assert abs(est.mean - expected) <= 4 * se

    def test_bias_respects_diamond_bound(self):
        dec, delta, _ = discard_prepare_point(2.0, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        analytic = sim.protocol_expectation(dec, KET0, obs, marginal=1)
        truth = float(np.real(np.trace(obs.op @ KET0)))
        assert abs(analytic - truth) <= sim.bias_bound(obs, delta) + 1e-12

    def test_unbiasedness_identity(self):
        # estimator expectation == Tr[O marginal(E(rho))], computed two ways
        rng = np.random.default_rng(51)
        from vbroadcast.broadcasting import approx_overhead

        dec = approx_overhead((0.2, 0.2), 2).decomposition
        obs = sim.Observable.from_matrix(PAULI_Z)
        for _ in range(3):
            rho = random_density(2, rng)
            analytic = sim.protocol_expectation(dec, rho, obs, marginal=2)
            diff = marginal_choi(dec.difference(), drop=1)
            direct = float(np.real(np.trace(obs.op @ apply_choi(diff, rho))))
            assert abs(analytic - direct) <= 1e-12

    def test_seed_determinism(self):
        dec, _, _ = discard_prepare_point(1.5, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        a = sim.run_protocol(dec, KET0, obs, marginal=1, shots=5000, seed=11)
        b = sim.run_protocol(dec, KET0, obs, marginal=1, shots=5000, seed=11)
        assert a == b
        c = sim.run_protocol(dec, KET0, obs, marginal=1, shots=5000, seed=12)
        assert c.mean != a.mean

    def test_convergence_over_many_seeds(self):
        dec, _, _ = discard_prepare_point(2.0, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        expected = sim.protocol_expectation(dec, KET0, obs, marginal=1)
        hits = 0
        reps, shots = 100, 10 ** 6
        for seed in range(reps):
            est = sim.run_protocol(dec, KET0, obs, marginal=1, shots=shots, seed=seed)
            se = est.sample_std / math.sqrt(shots)
            hits += abs(est.mean - expected) <= 5 * se
        assert hits >= 99

    def test_weight_mismatch_guard(self):
        dec, _, _ = discard_prepare_point(2.0, 2)
        bad = BroadcastDecomposition(j1=dec.j1, j2=dec.j2, x=1.0, y=0.0)
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="weight"):
            sim.run_protocol(bad, KET0, obs, marginal=1, shots=10, seed=0)

    def test_float_shots_rejected(self):
        dec, _, _ = discard_prepare_point(1.5, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="shots"):
            sim.run_protocol(dec, KET0, obs, marginal=1, shots=1e6, seed=0)

    def test_bool_shots_rejected(self):
        # True is an int to operator.index and would run one shot
        dec, _, _ = discard_prepare_point(1.5, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="shots True"):
            sim.run_protocol(dec, KET0, obs, marginal=1, shots=True, seed=0)

    def test_exact_law_of_three_shots(self):
        # per-shot law: each shot lands in cell (branch, outcome) with
        # probability p_branch probs_branch[k]; enumerate all 4^3 sequences
        dec, _, _ = discard_prepare_point(1.5, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        shots, runs = 3, 20_000
        p_plus = dec.x / dec.nu
        cells = []
        for sign, p_branch, j, w in ((1, p_plus, dec.j1, dec.x),
                                     (-1, 1 - p_plus, dec.j2, dec.y)):
            probs = obs.outcome_probabilities(sim._branch_state(j, w, KET0, 1))
            assert probs.min() > 0.2   # both branches give both outcomes
            cells += [(sign, sign * v, p_branch * p) for v, p in zip(obs.values, probs)]
        law = Counter()
        for seq in itertools.product(cells, repeat=shots):
            key = (sum(c[0] > 0 for c in seq), round(sum(c[1] for c in seq)))
            law[key] += math.prod(c[2] for c in seq)
        assert abs(sum(law.values()) - 1.0) <= 1e-12

        seen = Counter()
        for seed in range(runs):
            est = sim.run_protocol(dec, KET0, obs, marginal=1, shots=shots, seed=seed)
            total = est.mean * shots / est.scale
            assert abs(total - round(total)) <= 1e-9
            seen[(est.n_plus, round(total))] += 1
        assert set(seen) <= set(law)
        # pool the cells expected fewer than 5 times so the chi-square
        # approximation holds
        big = [k for k in law if law[k] * runs >= 5]
        observed = [seen[k] for k in big] + [runs - sum(seen[k] for k in big)]
        expected = [law[k] * runs for k in big] + [runs * (1 - sum(law[k] for k in big))]
        assert chisquare(observed, expected).pvalue >= 1e-3

    def test_shot_count_costs_no_memory(self):
        dec, _, _ = discard_prepare_point(2.0, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        rho = np.diag([0.7, 0.3]).astype(complex)
        shots = 10 ** 12   # 8 TB for one float per shot
        tracemalloc.start()
        try:
            est = sim.run_protocol(dec, rho, obs, marginal=1, shots=shots, seed=13)
            base = sim.naive_baseline(rho, obs, shots, seed=14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        for e, want in ((est, sim.protocol_expectation(dec, rho, obs, marginal=1)),
                        (base, 0.4)):
            assert e.n_plus + e.n_minus == e.shots == shots
            assert abs(e.mean - want) <= 5 * e.sample_std / math.sqrt(shots)

    def test_non_physical_branch_guard(self):
        d = 2
        t = -0.3
        j1 = choi_of_map(
            lambda m: np.kron(apply_choi(depolarizing_choi(t, d), m), np.eye(d) / d),
            d, (d, d))
        dec = BroadcastDecomposition(
            j1=j1, j2=ChoiOperator(np.zeros((8, 8)), d, (d, d)), x=1.0, y=0.0)
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="negative outcome probability"):
            sim.run_protocol(dec, KET0, obs, marginal=1, shots=10, seed=0)


class TestNaiveBaseline:
    def test_identity_observable(self):
        obs = sim.Observable.from_matrix(np.eye(2))
        est = sim.naive_baseline(KET0, obs, shots=100, seed=3)
        assert est.mean == 1.0
        assert est.scale == 1.0

    def test_maximally_mixed_z(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        est = sim.naive_baseline(np.eye(2) / 2, obs, shots=10 ** 5, seed=4)
        se = est.sample_std / math.sqrt(est.shots)
        assert abs(est.mean) <= 4 * se

    def test_float_shots_rejected(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="shots"):
            sim.naive_baseline(KET0, obs, shots=1e6, seed=0)

    def test_bool_shots_rejected(self):
        obs = sim.Observable.from_matrix(PAULI_Z)
        with pytest.raises(ValueError, match="shots True"):
            sim.naive_baseline(KET0, obs, shots=True, seed=0)

    def test_variance_overhead_vs_naive(self):
        # population second moments: virtual nu^2 * E[lambda^2] vs naive E[lambda^2]
        dec, _, _ = discard_prepare_point(2.0, 2)
        obs = sim.Observable.from_matrix(PAULI_Z)
        rho = np.eye(2) / 2
        est = sim.run_protocol(dec, rho, obs, marginal=1, shots=10 ** 5, seed=21)
        base = sim.naive_baseline(rho, obs, shots=10 ** 5, seed=22)
        m2v = est.sample_std ** 2 + est.mean ** 2
        m2n = base.sample_std ** 2 + base.mean ** 2
        # closed form: every outcome is +-nu for the protocol, +-1 for naive
        assert abs(m2v / m2n - dec.nu ** 2) <= 0.1 * dec.nu ** 2


class TestInputValidation:
    """``run_protocol``, ``naive_baseline`` and ``protocol_expectation``
    reject what is not a density operator, an observable of the measured
    dimension, an integer seed or receiver 1 or 2."""

    @staticmethod
    def _setup():
        dec, _, _ = discard_prepare_point(2.0, 2)
        return dec, sim.Observable.from_matrix(PAULI_Z)

    def test_non_hermitian_state_rejected(self):
        dec, obs = self._setup()
        rho = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            sim.run_protocol(dec, rho, obs, marginal=1, shots=100, seed=0)
        with pytest.raises(ValueError, match="not Hermitian"):
            sim.naive_baseline(rho, obs, shots=100, seed=0)

    def test_state_as_nested_lists(self):
        dec, obs = self._setup()
        as_list = sim.run_protocol(dec, KET0.tolist(), obs, marginal=1, shots=100, seed=3)
        assert as_list == sim.run_protocol(dec, KET0, obs, marginal=1, shots=100, seed=3)
        assert (sim.naive_baseline(KET0.tolist(), obs, shots=100, seed=4)
                == sim.naive_baseline(KET0, obs, shots=100, seed=4))

    def test_observable_of_another_dimension_rejected(self):
        dec, _ = self._setup()
        qutrit = sim.Observable.from_matrix(np.diag([1.0, 0.0, -1.0]))
        with pytest.raises(ValueError, match="observable dimension 3 does not match"):
            sim.run_protocol(dec, KET0, qutrit, marginal=1, shots=100, seed=0)
        with pytest.raises(ValueError, match="observable dimension 3 does not match"):
            sim.naive_baseline(KET0, qutrit, shots=100, seed=0)
        with pytest.raises(ValueError, match="observable dimension 3 does not match"):
            sim.protocol_expectation(dec, KET0, qutrit, marginal=1)

    def test_expectation_rejects_a_third_receiver(self):
        dec, obs = self._setup()
        with pytest.raises(ValueError, match="marginal must be 1 or 2"):
            sim.protocol_expectation(dec, KET0, obs, marginal=3)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_non_integer_seed_rejected(self, seed):
        dec, obs = self._setup()
        with pytest.raises(ValueError, match="seed .* is not an integer"):
            sim.run_protocol(dec, KET0, obs, marginal=1, shots=100, seed=seed)
        with pytest.raises(ValueError, match="seed .* is not an integer"):
            sim.naive_baseline(KET0, obs, shots=100, seed=seed)

    @pytest.mark.parametrize("marginal", [True, 1.0])
    def test_non_integer_marginal_rejected(self, marginal):
        dec, obs = self._setup()
        with pytest.raises(ValueError, match="marginal .* is not an integer"):
            sim.run_protocol(dec, KET0, obs, marginal=marginal, shots=100, seed=0)
        with pytest.raises(ValueError, match="marginal .* is not an integer"):
            sim.protocol_expectation(dec, KET0, obs, marginal=marginal)


def test_protocol_estimate_fields():
    dec, _, _ = discard_prepare_point(1.5, 2)
    obs = sim.Observable.from_matrix(PAULI_Z)
    est = sim.run_protocol(dec, KET0, obs, marginal=2, shots=1000, seed=9)
    assert est.n_plus + est.n_minus == est.shots == 1000
    assert est.scale == dec.nu
    assert est.seed == 9


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), st.integers(0, 40)),
                min_size=1, max_size=6).filter(lambda cells: sum(c for _, c in cells) >= 2))
def test_count_statistics_match_per_shot_sample(cells):
    values = np.array([v for v, _ in cells])
    counts = np.array([c for _, c in cells])
    mean, std = sim._count_statistics(values, counts)
    shots = np.repeat(values, counts)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(values))))
    assert mean == pytest.approx(np.mean(shots), rel=1e-12, abs=tol)
    assert std == pytest.approx(np.std(shots, ddof=1), rel=1e-12, abs=tol)


def test_count_statistics_single_shot():
    assert sim._count_statistics(np.array([-2.0, 3.0]), np.array([0, 1])) == (3.0, 0.0)
