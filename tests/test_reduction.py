"""The irreducible form of the covariant broadcasting SDPs against independent
oracles: its closed-form data against numerically built irreps, and its
optimal values against the dense formulation in ``dense_oracle``."""

import math

import numpy as np
import pytest

import dense_oracle
from vbroadcast import broadcasting as bc
from vbroadcast.channels import (
    ChoiOperator,
    check_structural_conditions,
    depolarizing_choi,
    swap_operator,
)
from vbroadcast.linalg import partial_trace, permute_subsystems
from vbroadcast.sdp import SolverConfig

# the CLI's default tolerance: at the library default 1e-8 a solve may stop
# with nu off by a few 1e-8, the accuracy that tolerance allows
TIGHT = SolverConfig(tol_gap=1e-9, tol_feas=1e-9)


class Irreps:
    """The isotypic pieces of (B, B1, B2) under conj(U) (x) U (x) U, built
    numerically from explicit vectors and the B1 <-> B2 swap."""

    def __init__(self, d):
        self.d = d
        eye = np.eye(d)
        gamma = eye.reshape(d * d)                          # |G> on two factors
        self.swap = np.kron(eye, swap_operator(d).real)     # B1 <-> B2
        # frames: |G>_{B B1} |k>_{B2} / sqrt(d) and its image under the swap
        u1 = np.stack([np.kron(gamma, eye[k]) for k in range(d)]) / math.sqrt(d)
        u2 = u1 @ self.swap.T
        self.frames = (u1, u2)
        self.pi_s = self._complement(+1)
        self.pi_a = self._complement(-1)

    def _complement(self, sign):
        """I_B (x) Sym (or Anti) less the fundamental copy it contains."""
        d = self.d
        sym = (np.eye(d ** 3) + sign * self.swap) / 2
        copy = self.frames[0] + sign * self.frames[1]
        copy /= np.linalg.norm(copy, axis=1, keepdims=True)
        assert np.allclose(copy @ copy.T, np.eye(d), atol=1e-12)
        return sym - copy.T @ copy

    def lift(self, p, s, a):
        """J of the block P on the frames plus the complements, each scaled to
        trace-preserving weight 1."""
        d = self.d
        u = np.concatenate(self.frames)
        op = u.T @ np.kron(p, np.eye(d)) @ u
        for weight, pi in ((s, self.pi_s), (a, self.pi_a)):
            rank = np.trace(pi).real
            if round(rank):
                op = op + weight * d / rank * pi
        return op

    def functionals(self, op):
        """w, then gamma of each receiver's marginal, read off J."""
        d = self.d
        dd = (d, d, d)
        gamma = np.outer(np.eye(d).reshape(-1), np.eye(d).reshape(-1))
        out = {"weight": np.trace(op) / d}
        for k, drop in ((1, 2), (2, 1)):
            m = partial_trace(op, dd, drop=drop)
            out[f"gamma{k}"] = np.trace(gamma @ m) / d ** 2
        return out


def _library(d):
    return {"weight": bc._weight(d), "gamma1": bc._gamma_part(d, 1),
            "gamma2": bc._gamma_part(d, 2)}


def _random_point(d, rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return m @ m.conj().T, rng.uniform(0.1, 1.0), rng.uniform(0.1, 1.0) * (d >= 3)


@pytest.fixture(scope="module", params=range(2, 8))
def irreps(request):
    return Irreps(request.param)


class TestClosedForm:
    def test_projector_ranks(self, irreps):
        d = irreps.d
        for pi, rank in ((irreps.pi_s, d * (d + 2) * (d - 1) // 2),
                         (irreps.pi_a, d * (d - 2) * (d + 1) // 2)):
            assert np.allclose(pi @ pi, pi, atol=1e-12)
            assert abs(np.trace(pi) - rank) <= 1e-9

    def test_coefficients(self, irreps):
        d = irreps.d
        blocks = bc._blocks(d)
        units = {"S": irreps.lift(np.zeros((2, 2)), 1.0, 0.0),
                 "A": irreps.lift(np.zeros((2, 2)), 0.0, 1.0)}
        for name, coeffs in _library(d).items():
            # <C, E_ab> = C_ba on the matrix units of the 2 x 2 block
            for a in range(2):
                for b in range(2):
                    unit = np.zeros((2, 2))
                    unit[a, b] = 1.0
                    got = irreps.functionals(irreps.lift(unit, 0.0, 0.0))[name]
                    assert abs(got - coeffs["P"][b, a]) <= 1e-12, (name, a, b)
            for block in ("S", "A"):
                want = coeffs.get(block, 0.0) if block in blocks else 0.0
                got = irreps.functionals(units[block])[name]
                assert abs(got - want) <= 1e-12, (name, block)

    def test_lift_matches_oracle(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(100 + d)
        p, s, a = _random_point(d, rng)
        want = irreps.lift(p, s, a)
        assert np.max(np.abs(bc._covariant_choi(p, s, a, d) - want)) <= 1e-12

    def test_lift_is_psd_and_covariant(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(200 + d)
        p, s, a = _random_point(d, rng)
        j = ChoiOperator(bc._covariant_choi(p, s, a, d), d, (d, d))
        assert np.linalg.eigvalsh(j.op)[0] >= -1e-12
        # tight PSD: a singular block gives a singular lift
        v = np.linalg.eigh(p)[1][:, 0]
        edge = bc._covariant_choi(p - np.linalg.eigvalsh(p)[0] * np.outer(v, v.conj()),
                                  s, a, d)
        assert abs(np.linalg.eigvalsh(edge)[0]) <= 1e-10
        assert check_structural_conditions(j).is_unitary_covariant

    def test_receiver_exchange_is_xpx(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(300 + d)
        p, s, a = _random_point(d, rng)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        swapped = permute_subsystems(bc._covariant_choi(p, s, a, d), (d, d, d), (0, 2, 1))
        assert np.max(np.abs(swapped - bc._covariant_choi(x @ p @ x, s, a, d))) <= 1e-12

    def test_unit_difference_has_depolarizing_marginals(self, irreps):
        # the identity the error-ball rows rest on: when w(J1 - J2) = 1, the
        # marginal on (B, B_k) is depolarizing with t = (1 - gamma_k) d^2 / (d^2 - 1),
        # at half diamond distance |1 - gamma_k| from the identity
        d = irreps.d
        rng = np.random.default_rng(400 + d)
        j1, j2 = (irreps.lift(*_random_point(d, rng)) for _ in range(2))
        x = 1.7
        w1, w2 = (irreps.functionals(j)["weight"] for j in (j1, j2))
        diff = x * j1 / w1 - (x - 1.0) * j2 / w2
        assert abs(irreps.functionals(diff)["weight"] - 1.0) <= 1e-12
        for k, drop in ((1, 2), (2, 1)):
            gamma = irreps.functionals(diff)[f"gamma{k}"].real
            t = (1.0 - gamma) * d * d / (d * d - 1.0)
            marginal = partial_trace(diff, (d, d, d), drop=drop)
            assert np.max(np.abs(marginal - depolarizing_choi(t, d).op)) <= 1e-12, k


class TestDenseOracle:
    """Reduced and dense optima agree to 1e-7."""

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_exact(self, d):
        assert abs(bc.exact_overhead(d).nu - dense_oracle.exact_overhead(d)) <= 1e-7

    @pytest.mark.parametrize("d", [2, 3])
    def test_threshold_grid(self, d):
        axis = [k / 4 for k in range(5)]
        for a in axis:
            for b in axis:
                got = bc.approx_overhead((a, b), d).nu
                assert abs(got - dense_oracle.approx_overhead((a, b), d)) <= 1e-7, (a, b)

    def test_noise_sweep(self):
        for k in range(-10, 11):
            t = round(0.1 * k, 10)
            got = bc.depolarizing_overhead(t, 2).nu
            assert abs(got - dense_oracle.depolarizing_overhead(t, 2)) <= 1e-7, t

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_min_error(self, d):
        for gamma in (1.0, 1.8):
            got = bc.min_error(gamma, d).mu
            assert abs(got - dense_oracle.min_error(gamma, d)) <= 1e-7, gamma


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000])
def test_exact_closed_form(d):
    res = bc.exact_overhead(d, config=TIGHT)
    assert res.status == "optimal" and res.certificate.passed is True
    assert abs(res.nu - (3 * d - 1) / (d + 1)) <= 1e-8


def test_decomposition_is_lazy_and_cached():
    res = bc.exact_overhead(1000)
    assert "decomposition" not in vars(res)
    small = bc.approx_overhead((0.05, 0.3), 3)
    assert small.decomposition is small.decomposition
