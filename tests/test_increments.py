"""Direct observation scheme: empirical cf derivatives and the curvature ratio.

Oracles
-------
* Exponential-jump compound Poisson (intensity 1, unit rate), hand-derived
  under the zero-mean jump compensation used throughout the package:
      psi(u)   = 1/(1-iu) - 1 - iu
      psi'(u)  = i (1-iu)^{-2} - i
      psi''(u) = -2 (1-iu)^{-3}
  The curvature is cross-checked once against the quadrature route in
  levyq.models to guard the hand derivation itself.
* Increment sampler (local to this file): an increment over time delta is
      gamma*delta + sigma*sqrt(delta)*Z + sum_{i<=N} J_i - delta*lam*mean_J
  with N ~ Poisson(lam*delta); the subtraction matches the compensated
  drift convention.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyq.errors import InputError
from levyq.increments import (
    IncrementSample,
    Psi2Estimate,
    _curvature_ratio,
    _ecf_all,
    _progression_block,
    psi2_from_increments,
    read_increment_csv,
    write_increment_csv,
)
from levyq.models import LevyModel, exponential_jumps, exponent_curvature
from levyq.numerics import FrequencyGrid


def psi_cp(u):
    u = np.asarray(u, dtype=complex)
    return 1.0 / (1.0 - 1j * u) - 1.0 - 1j * u


def psi1_cp(u):
    u = np.asarray(u, dtype=complex)
    return 1j / (1.0 - 1j * u) ** 2 - 1j


def psi2_cp(u):
    u = np.asarray(u, dtype=complex)
    return -2.0 / (1.0 - 1j * u) ** 3


def sample_cp_increments(rng, n, delta, sigma2, gamma, lam=1.0, rate=1.0):
    """Compensated compound-Poisson + Brownian increments."""
    counts = rng.poisson(lam * delta, size=n)
    jump_sums = np.array(
        [rng.exponential(1.0 / rate, size=c).sum() for c in counts]
    )
    z = rng.standard_normal(n)
    mean_jump = 1.0 / rate
    return (
        gamma * delta
        + math.sqrt(sigma2 * delta) * z
        + jump_sums
        - delta * lam * mean_jump
    )


def test_hand_derivation_matches_quadrature_route():
    model = LevyModel(sigma2=0.0, gamma=0.0, jumps=exponential_jumps(1.0, 1.0))
    for u in (0.0, 1.0, 3.5):
        assert complex(exponent_curvature(model, u)) == pytest.approx(
            complex(psi2_cp(u)), abs=1e-9
        )


def ecf_at(sample, u, k):
    """k-th empirical cf derivative at the scalar frequency u."""
    return _ecf_all(sample.values, np.array([u]))[k][0]


class TestEcfDerivative:
    def test_mass_at_zero(self):
        s = IncrementSample(np.array([0.3, -1.2, 4.0]), delta=0.5)
        assert ecf_at(s, 0.0, 0) == pytest.approx(1.0, abs=0)

    def test_two_point_cosine(self):
        s = IncrementSample(np.array([-1.0, 1.0]), delta=1.0)
        assert abs(ecf_at(s, math.pi / 2.0, 0)) < 1e-12

    def test_second_derivative_at_zero(self):
        s = IncrementSample(np.array([-1.0, 1.0]), delta=1.0)
        assert ecf_at(s, 0.0, 2) == pytest.approx(-1.0, abs=1e-15)

    def test_first_derivative_closed_form(self):
        # (1/n) sum iY e^{iuY} for a single point is i y e^{iuy}
        s = IncrementSample(np.array([0.7]), delta=1.0)
        u = 2.3
        expected = 1j * 0.7 * np.exp(1j * u * 0.7)
        assert ecf_at(s, u, 1) == pytest.approx(expected, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        s = IncrementSample(rng.standard_normal(40), delta=0.2)
        u = np.array([-3.0, 0.0, 1.7, 9.2])
        for k in (0, 1, 2):
            vec = _ecf_all(s.values, u)[k]
            scal = np.array([ecf_at(s, float(x), k) for x in u])
            # batched and single-point paths may differ by SIMD rounding
            np.testing.assert_allclose(vec, scal, atol=1e-15, rtol=1e-14)


def direct_ecf(values, u):
    """Reference (1/n) sum_j (iY_j)^k e^{iuY_j}, k = 0, 1, 2, node by node."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((3, u.size), dtype=complex)
    for lo in range(0, u.size, 256):
        phase = np.exp(1j * u[lo : lo + 256, None] * values[None, :])
        for k in range(3):
            out[k, lo : lo + 256] = phase @ ((1j * values) ** k) / values.size
    return out


def assert_matches_direct(got, values, u, rtol=1e-12):
    # relative to the largest |phi_k|: the reference itself carries rounding
    # of order eps * |u Y| per term, which swamps entries where phi_k ~ 0
    want = direct_ecf(values, u)
    for k in range(3):
        assert got[k].shape == want[k].shape
        if want[k].size:
            err = np.max(np.abs(got[k] - want[k])) / np.max(np.abs(want[k]))
            assert err <= rtol, (k, err)


@pytest.fixture(scope="module")
def jumpy_values():
    # Gaussian part plus one-sided jumps, as in the compound-Poisson demo;
    # 2000 samples span several sample chunks at every grid size below
    rng = np.random.default_rng(17)
    jumps = rng.exponential(1.0, 2000) * (rng.random(2000) < 0.3)
    return rng.standard_normal(2000) * 0.5 + jumps


class TestBlockedEcf:
    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("points", [128, 512, 8192])
    def test_uniform_grid_matches_direct_sum(self, jumpy_values, points, offset):
        u = FrequencyGrid(cutoff=20.0, points=points, offset=offset).u
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_partial_last_block(self, jumpy_values):
        u = np.linspace(-5.0, 7.0, 100)
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_descending_progression_in_input_order(self, jumpy_values):
        u = FrequencyGrid(cutoff=10.0, points=256).u[::-1]
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_non_uniform_nodes_in_input_order(self, jumpy_values):
        rng = np.random.default_rng(3)
        grid = FrequencyGrid(cutoff=20.0, points=512).u
        for u in (rng.uniform(-20.0, 20.0, 300),
                  rng.permutation(grid),
                  np.where(np.arange(grid.size) == 200, grid + 1e-3, grid)):
            assert _progression_block(u) == 1
            assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)
        # a non-finite node must not be replaced by its block's progression
        assert _progression_block(np.where(grid == grid[200], np.nan, grid)) == 1

    def test_scalar_length_one_and_empty(self, jumpy_values):
        s = IncrementSample(jumpy_values, delta=0.5)
        want = direct_ecf(jumpy_values, 2.3)
        for k in range(3):
            got = _ecf_all(s.values, np.array([2.3]))[k]
            assert got.shape == (1,)
            assert abs(got[0] - want[k, 0]) <= 1e-12 * abs(want[k, 0])
        u1 = np.array([-4.1])
        assert_matches_direct(_ecf_all(jumpy_values, u1), jumpy_values, u1)
        empty = np.array([])
        assert_matches_direct(_ecf_all(jumpy_values, empty), jumpy_values, empty)
        assert psi2_from_increments(s)(empty).shape == (0,)


class TestIncrementSample:
    def test_validation(self):
        with pytest.raises(InputError):
            IncrementSample(np.array([]), delta=0.1)
        with pytest.raises(InputError):
            IncrementSample(np.array([1.0, np.nan]), delta=0.1)
        with pytest.raises(InputError):
            IncrementSample(np.array([1.0]), delta=0.0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "inc.csv"
        orig = IncrementSample(np.array([0.25, -1.5, 3.125e-4]), delta=0.1)
        write_increment_csv(path, orig)
        back = read_increment_csv(path, delta=0.1)
        np.testing.assert_array_equal(back.values, orig.values)
        assert back.delta == 0.1

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(InputError, match="increment"):
            read_increment_csv(path, delta=0.1)

    def test_csv_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("increment\n1.0\noops\n")
        with pytest.raises(InputError, match=":3"):
            read_increment_csv(path, delta=0.1)

    def test_csv_extra_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("increment\n1.0,2.0\n")
        with pytest.raises(InputError, match="one column"):
            read_increment_csv(path, delta=0.1)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            read_increment_csv(path, delta=0.1)
        path.write_text("increment\n")
        with pytest.raises(InputError, match="no increment rows"):
            read_increment_csv(path, delta=0.1)


class TestCurvatureEstimate:
    def test_exact_plugin_recovers_curvature(self):
        # replace each empirical phi^(k) by the true derivatives of
        # e^{delta psi}: the ratio must return psi'' identically
        delta = 0.1
        for u in (0.0, 1.0, 5.0):
            psi, p1, p2 = psi_cp(u), psi1_cp(u), psi2_cp(u)
            phi0 = np.exp(delta * psi)
            phi1 = delta * p1 * phi0
            phi2 = (delta * p2 + (delta * p1) ** 2) * phi0
            got = _curvature_ratio(phi0, phi1, phi2, delta)
            assert got == pytest.approx(complex(psi2_cp(u)), abs=1e-10)

    def test_exact_plugin_pure_brownian(self):
        sigma2, gamma, delta = 0.09, 0.4, 0.25
        for u in (0.0, 2.0, -7.0):
            psi = -0.5 * sigma2 * u ** 2 + 1j * gamma * u
            p1 = -sigma2 * u + 1j * gamma
            phi0 = np.exp(delta * psi)
            phi1 = delta * p1 * phi0
            phi2 = (delta * (-sigma2) + (delta * p1) ** 2) * phi0
            got = _curvature_ratio(phi0, phi1, phi2, delta)
            assert got == pytest.approx(-sigma2 + 0j, abs=1e-12)

    def test_indicator_zeroes_untrusted_frequencies(self):
        # n=2, delta=0.1: threshold 1/sqrt(0.2) > 1 >= |phi|, so the whole
        # axis is untrusted and eval must be exactly 0
        s = IncrementSample(np.array([-1.0, 1.0]), delta=0.1)
        est = psi2_from_increments(s)
        u = np.array([0.0, 0.3, 2.0, -11.0])
        np.testing.assert_array_equal(est(u), np.zeros(4, dtype=complex))

    def test_trusted_region_is_active_for_large_samples(self):
        rng = np.random.default_rng(3)
        s = IncrementSample(rng.standard_normal(1000) * 0.05, delta=0.1)
        est = psi2_from_increments(s)
        assert est(0.0) != 0.0

    def test_requires_two_increments(self):
        with pytest.raises(InputError):
            psi2_from_increments(IncrementSample(np.array([1.0]), delta=0.1))

    def test_packaged_estimator(self):
        s = IncrementSample(np.array([-1.0, 1.0]), delta=0.1)
        est = psi2_from_increments(s)
        assert isinstance(est, Psi2Estimate)
        u = np.array([0.0, 0.3, 2.0])
        np.testing.assert_array_equal(est(u), est.eval(u))

    def test_drift_invariance(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(500) * 0.3
        u = np.linspace(-8.0, 8.0, 33)
        est0 = psi2_from_increments(IncrementSample(base, delta=0.1))
        estc = psi2_from_increments(IncrementSample(base + 3.7, delta=0.1))
        v0, vc = est0(u), estc(u)
        active = (v0 != 0) & (vc != 0)
        # the shift leaves |phi| unchanged, so the trust regions coincide
        np.testing.assert_array_equal(v0 != 0, vc != 0)
        assert active.any()
        np.testing.assert_allclose(vc[active], v0[active], rtol=1e-9)

    @given(u=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_symmetry(self, u):
        rng = np.random.default_rng(5)
        s = IncrementSample(rng.standard_normal(200) * 0.2, delta=0.1)
        est = psi2_from_increments(s)
        assert abs(est(-u) - np.conj(est(u))) <= 1e-12


class TestMonteCarloConsistency:
    def test_error_decreases_with_sample_size(self):
        sigma2, gamma, delta = 0.04, 0.1, 0.1
        model = LevyModel(sigma2=sigma2, gamma=gamma, jumps=exponential_jumps(1.0, 1.0))
        u = np.linspace(-5.0, 5.0, 21)
        truth = exponent_curvature(model, u)
        seeds = np.random.SeedSequence(20260816).spawn(50)
        med = {}
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            errs = []
            for ss in seeds:
                rng = np.random.default_rng(ss)
                inc = sample_cp_increments(rng, n, delta, sigma2, gamma)
                est = psi2_from_increments(IncrementSample(inc, delta))
                errs.append(np.mean(np.abs(est(u) - truth)))
            med[n] = float(np.median(errs))
        assert med[10 ** 4] < med[10 ** 3]
        assert med[10 ** 5] < med[10 ** 4]
