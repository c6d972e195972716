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

# the CLI's default tolerance: at the library default 1e-8 a solve that no
# face step finishes may stop with nu off by a few 1e-8, the accuracy that
# tolerance allows
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
        # I_B (x) Sym less the fundamental copy it contains
        copy = u1 + u2
        copy /= np.linalg.norm(copy, axis=1, keepdims=True)
        assert np.allclose(copy @ copy.T, np.eye(d), atol=1e-12)
        self.pi_s = (np.eye(d ** 3) + self.swap) / 2 - copy.T @ copy

    def lift(self, p, s):
        """J of the block P on the frames plus the weight s on Pi_S, scaled to
        trace-preserving weight 1."""
        d = self.d
        u = np.concatenate(self.frames)
        return u.T @ np.kron(p, np.eye(d)) @ u + s * d / np.trace(self.pi_s).real * self.pi_s

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
    return {"weight": bc._gram(d), "gamma1": bc._gamma_part(d, 1),
            "gamma2": bc._gamma_part(d, 2)}


def _random_point(d, rng):
    m = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    return m @ m.conj().T, rng.uniform(0.1, 1.0)


@pytest.fixture(scope="module", params=range(2, 8))
def irreps(request):
    return Irreps(request.param)


class TestClosedForm:
    def test_projector_rank(self, irreps):
        d = irreps.d
        assert np.allclose(irreps.pi_s @ irreps.pi_s, irreps.pi_s, atol=1e-12)
        assert abs(np.trace(irreps.pi_s) - d * (d + 2) * (d - 1) // 2) <= 1e-9

    def test_coefficients(self, irreps):
        # G is the weight and g_k g_k^T gamma_k on the block; the Pi_S filler
        # has weight 1 and gamma 0 on both receivers
        d = irreps.d
        g = np.array([[1.0, 1.0 / d], [1.0 / d, 1.0]])
        assert np.array_equal(bc._gram(d), g)
        for k in (1, 2):
            assert np.array_equal(bc._gamma_part(d, k), np.outer(g[k - 1], g[k - 1]))
        filler = irreps.functionals(irreps.lift(np.zeros((2, 2)), 1.0))
        for name, coeff in _library(d).items():
            # <C, E_ab> = C_ba on the matrix units of the 2 x 2 block
            for a in range(2):
                for b in range(2):
                    unit = np.zeros((2, 2))
                    unit[a, b] = 1.0
                    got = irreps.functionals(irreps.lift(unit, 0.0))[name]
                    assert abs(got - coeff[b, a]) <= 1e-12, (name, a, b)
            assert abs(filler[name] - (name == "weight")) <= 1e-12, name
        # the weights P+, P- of the receiver-symmetric form: |+-><+-| on the
        # block is the fundamental copy in I_B (x) Sym (Anti), scaled by
        # |u_1k +- u_2k|^2 / 2 = 1 +- 1/d
        u1, u2 = irreps.frames
        for block, sign in (("P+", 1.0), ("P-", -1.0)):
            copy = u1 + sign * u2
            want_op = copy.T @ copy / 2.0
            scale = np.trace(want_op).real / d
            assert abs(scale - (1.0 + sign / d)) <= 1e-12
            assert np.allclose(want_op @ want_op, scale * want_op, atol=1e-12)
            pm = np.array([1.0, sign]) / math.sqrt(2.0)
            lifted = bc._covariant_choi(np.outer(pm, pm), 0.0, d)
            assert np.max(np.abs(lifted - want_op)) <= 1e-12
            for name, coeffs in _library(d).items():
                got = irreps.functionals(want_op)[name]
                assert abs(got - bc._twirled(coeffs)[block]) <= 1e-12, (name, block)
            assert abs(bc._twirled(_library(d)["gamma1"])[block]
                       - (1.0 + sign / d) ** 2 / 2.0) <= 1e-15

    def test_lift_matches_oracle(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(100 + d)
        p, s = _random_point(d, rng)
        want = irreps.lift(p, s)
        assert np.max(np.abs(bc._covariant_choi(p, s, d) - want)) <= 1e-12

    def test_lift_is_psd_and_covariant(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(200 + d)
        p, s = _random_point(d, rng)
        j = ChoiOperator(bc._covariant_choi(p, s, d), d, (d, d))
        assert np.linalg.eigvalsh(j.op)[0] >= -1e-12
        # tight PSD: a singular block gives a singular lift
        v = np.linalg.eigh(p)[1][:, 0]
        edge = bc._covariant_choi(p - np.linalg.eigvalsh(p)[0] * np.outer(v, v.conj()), s, d)
        assert abs(np.linalg.eigvalsh(edge)[0]) <= 1e-10
        assert check_structural_conditions(j).is_unitary_covariant

    def test_receiver_exchange_is_xpx(self, irreps):
        d = irreps.d
        rng = np.random.default_rng(300 + d)
        p, s = _random_point(d, rng)
        x = np.array([[0.0, 1.0], [1.0, 0.0]])
        swapped = permute_subsystems(bc._covariant_choi(p, s, d), (d, d, d), (0, 2, 1))
        assert np.max(np.abs(swapped - bc._covariant_choi(x @ p @ x, s, d))) <= 1e-12

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


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8, 9, 10, 100, 1000])
def test_exact_closed_form_at_the_default_tolerance(d):
    # a face step finishes on the optimum itself, not on an iterate whose
    # residual is just under the tolerance
    res = bc.exact_overhead(d)
    assert res.status == "optimal" and res.certificate.passed is True
    assert abs(res.nu - (3 * d - 1) / (d + 1)) <= 1e-8


# the balanced trade-off is one line in sqrt(gamma), cut off at nu = 1; each
# grid holds the points where the line meets the cut-off
CLOSED_FORM_DIMS = [2, 3, 5, 10]


@pytest.mark.parametrize("d", CLOSED_FORM_DIMS)
def test_min_error_closed_form(d):
    zero_from = ((3 * d - 1) / (d + 1)) ** 2
    for gamma in (1.0, 1.5, 2.0, 3.0, 0.99 * zero_from, zero_from, 1.01 * zero_from):
        want = max(0.0, (3 * d - 1 - (d + 1) * math.sqrt(gamma)) / (4 * d))
        assert abs(bc.min_error(gamma, d, config=TIGHT).mu - want) <= 1e-8, gamma


@pytest.mark.parametrize("d", [2, 3])
def test_min_error_grid_at_tol_1e_10(d):
    # the whole trade-off curve up to the budget of exact broadcasting, at a
    # tolerance where the interior-point iterates alone once stalled
    zero_from = ((3 * d - 1) / (d + 1)) ** 2
    config = SolverConfig(tol_gap=1e-10, tol_feas=1e-10)
    for gamma in np.linspace(1.0, zero_from, 200):
        res = bc.min_error(float(gamma), d, config=config)
        want = max(0.0, (3 * d - 1 - (d + 1) * math.sqrt(gamma)) / (4 * d))
        assert res.status == "optimal", gamma
        assert abs(res.mu - want) <= 1e-9, gamma


@pytest.mark.parametrize("d", CLOSED_FORM_DIMS)
def test_depolarizing_closed_form(d):
    # nu_dep reaches 1 at t = d/(2(d + 1)) and leaves it at d^2/(d^2 - 1)
    for t in (-1.0, -0.3, 0.0, 0.2, d / (2 * (d + 1)), 0.7, d * d / (d * d - 1), 1.5):
        want = max(1.0, abs((3 * d - 1) / (d + 1) - 4 * t * (d - 1) / d))
        assert abs(bc.depolarizing_overhead(t, d, config=TIGHT).nu - want) <= 1e-8, t


@pytest.mark.parametrize("d", CLOSED_FORM_DIMS)
def test_balanced_threshold_closed_form(d):
    # nu(delta, delta) reaches 1 at delta = (d - 1)/(2d)
    for delta in (0.0, 0.05, 0.1, 0.2, (d - 1) / (2 * d), 0.6, 1.0):
        want = max(1.0, (3 * d - 1 - 4 * d * delta) / (d + 1))
        assert abs(bc.approx_overhead((delta, delta), d, config=TIGHT).nu - want) <= 1e-8, delta


def test_decomposition_is_lazy_and_cached():
    res = bc.exact_overhead(1000)
    assert "decomposition" not in vars(res)
    small = bc.approx_overhead((0.05, 0.3), 3)
    assert small.decomposition is small.decomposition
