"""Bandwidth-selection tests.

Oracles: scipy's complex exponential integral E1 for E2 on the imaginary
axis; adaptive quadrature for the tail-weight spectrum and for the
auxiliary-spectrum L2 norm (independent scalar evaluation of phi~ via the
closed-form transforms, no shared tabulation); hand arithmetic for the grid
shape, the 1/sqrt(2) scaling, and the interval-intersection fixtures.
"""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import exp1

from levyq.adaptive import (
    BandwidthGrid,
    _e2,
    _masked_chis,
    _screen_statistic,
    adaptive_quantile,
    build_grid,
    sigma_tilde,
    tail_weight_spectrum,
)
from levyq.errors import InputError, NoSolutionError, NumericalError
from levyq.increments import IncrementSample, psi2_from_increments
from levyq.inversion import X_MAX_DEFAULT
from levyq.kernels import flat_top_kernel
from levyq.numerics import FrequencyGrid, Spectra
from levyq.options import build_spline, compute_chain_spectra, generate_synthetic_chain, spline_spectra

RATE = 0.06
MATURITY = 0.25
STRIKE_LAW = (0.0, 0.5)


def quad_complex(f, a, b, **kw):
    re = quad(lambda t: f(t).real, a, b, **kw)[0]
    im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


def auxiliary_spectra(spectra, kernel, h, q, side, x_max=X_MAX_DEFAULT):
    """The three linearization spectra chi_0, chi_1, chi_2 of
    `sigma_tilde` on the whole grid, and their mask.

    Entries outside the mask (u <= 1/h intersected with the trust region)
    are zero; an array of thresholds gives one row of each chi_k per
    threshold.
    """
    mask, cells = _masked_chis(spectra, kernel, h, q, side, x_max)
    chis = np.zeros((3, np.size(q), mask.size), dtype=complex)
    for i, cell in enumerate(cells):
        chis[:, i, mask] = cell
    if np.ndim(q) == 0:
        chis = chis[:, 0]
    return chis[0], chis[1], chis[2], mask


def synthetic_spectra(grid, phi_values, noise_scale, n_obs=100,
                      sup_norms=(1.0, 0.5, 0.25), maturity=MATURITY):
    """Hand-built spectra bundle for selector tests."""
    u = grid.u
    trusted = np.abs(phi_values) >= (1.0 + np.abs(u)) ** 2 * noise_scale
    zero = np.zeros_like(phi_values)
    return Spectra(grid=grid, horizon=maturity, n_obs=n_obs,
                   phi=phi_values, psi1=zero, psi2=zero, trusted=trusted,
                   sup_norms=sup_norms, noise_scale=noise_scale)


@pytest.fixture(scope="module")
def noisy_chain(bench_model):
    return generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                    STRIKE_LAW, seed=7)


@pytest.fixture(scope="module")
def noisy_spectra(noisy_chain):
    grid = FrequencyGrid(cutoff=40.0, points=2 ** 12)
    return compute_chain_spectra(noisy_chain, grid, degree=1)


def e2_reference(w):
    """E2(iw) = e^{-iw} - iw E1(iw) from scipy's complex exp1 (w != 0)."""
    z = 1j * np.asarray(w, dtype=float)
    return np.exp(-z) - z * exp1(z)


class TestE2:
    def test_against_complex_exp1(self):
        # Si(|w|) - pi/2 carries the rounding of pi/2, scaled by |w| in the
        # real part; measured at most 1.5e-15 * max(1, |w|) on this range
        w = np.logspace(-12, 4, 801)
        w = np.concatenate([w, -w, [0.37, -2.5, 31.0, -499.9]])
        err = np.abs(_e2(w) - e2_reference(w))
        assert np.all(err <= 5e-15 * np.maximum(1.0, np.abs(w)))

    def test_zero_is_exactly_one(self):
        assert _e2(np.array([0.0, -0.0])).tolist() == [1.0, 1.0]

    @pytest.mark.parametrize("w", [1e-12, -1e-12])
    def test_tiny_argument(self, w):
        got = _e2(np.array([w]))[0]
        assert abs(got - e2_reference(w)) < 1e-15
        assert abs(got - 1.0) < 1e-10

    @pytest.mark.parametrize("w", [1e4, -1e4])
    def test_large_argument(self, w):
        # |E2(iw)| ~ 1/|w|, so the absolute error bound above is 1e-7 of it
        got = _e2(np.array([w]))[0]
        assert abs(got - e2_reference(w)) < 5e-11
        assert abs(abs(got) - 1.0 / abs(w)) < 1e-7

    def test_conjugate_symmetry(self):
        w = np.concatenate([np.logspace(-12, 4, 401), [0.0]])
        assert np.max(np.abs(_e2(-w) - np.conj(_e2(w)))) <= 1e-14


class TestTailWeightSpectrum:
    @pytest.mark.parametrize("t", [0.05, 0.3, 2.0, -0.3, -1.5])
    @pytest.mark.parametrize("u", [0.0, 0.5, 7.0, 40.0, -7.0])
    def test_against_quadrature(self, t, u):
        got = tail_weight_spectrum(t, u)
        lo, hi = (t, 5.0) if t > 0 else (-5.0, t)
        want = quad_complex(lambda x: np.exp(-1j * u * x) / x ** 2, lo, hi,
                            limit=600)
        assert abs(got - want) < 1e-12

    def test_zero_frequency_closed_form(self):
        assert tail_weight_spectrum(0.25, 0.0) == pytest.approx(1 / 0.25 - 1 / 5.0)
        assert tail_weight_spectrum(-0.25, 0.0) == pytest.approx(1 / 0.25 - 1 / 5.0)

    @pytest.mark.parametrize("t", [0.25, -0.25, 0.05, -3.0])
    def test_zero_frequency_is_exact(self, t):
        got = tail_weight_spectrum(t, np.array([0.0, -0.0]))
        assert got.tolist() == [1 / abs(t) - 1 / 5.0] * 2

    def test_hermitian(self):
        u = np.array([0.3, 2.0, 15.0])
        plus = tail_weight_spectrum(0.1, u)
        minus = tail_weight_spectrum(0.1, -u)
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-14

    def test_validation(self):
        with pytest.raises(InputError):
            tail_weight_spectrum(0.0, 1.0)
        with pytest.raises(InputError):
            tail_weight_spectrum(6.0, 1.0, x_max=5.0)


class TestBuildGrid:
    def test_smallest_bandwidth_is_one_over_n(self):
        grid = build_grid(100, 1.1)
        assert grid.values[0] == pytest.approx(1.0 / 100, rel=1e-15)
        assert grid.j_min == 0

    def test_benchmark_grid_shape(self):
        # n = 100, L = 1.1: the cap (log10 100)^{-5} = 2^{-5} = 0.03125 is
        # reached at j = 12 (1.1^12/100 = 0.031384)
        grid = build_grid(100, 1.1)
        assert grid.j_max == 12
        assert grid.values.size == 13
        assert np.all(np.diff(grid.values) > 0)
        cap = math.log10(100) ** -5
        assert cap <= grid.values[-1] < cap * 1.1

    def test_screen_skipped_without_chain(self):
        grid = build_grid(1000, 1.2)
        assert grid.s_values is None
        assert grid.feasible

    def test_screen_monotone_on_synthetic_spectra(self):
        fgrid = FrequencyGrid(cutoff=120.0, points=2 ** 13)
        phi = np.exp(-fgrid.u ** 2 / 5000.0)
        spectra = synthetic_spectra(fgrid, phi, noise_scale=1e-6)
        grid = build_grid(100, 1.1, spectra)
        assert grid.s_values is not None
        # integration window shrinks as j grows
        assert np.all(np.diff(grid.s_values) <= 1e-12)
        assert np.all(grid.s_values >= 0)

    def test_screen_matches_masked_sum(self, noisy_spectra):
        # the prefix-sum reading against a masked weighted sum per cutoff;
        # a cutoff on a node counts that node in, one below u_0 gives 0
        u = noisy_spectra.grid.u
        cutoffs = np.array([40.0, 7.3, u[100], 1e-3])
        got = _screen_statistic(noisy_spectra, 100, cutoffs)
        terms = np.where(noisy_spectra.trusted, noisy_spectra.grid.weights
                         * (1.0 + u ** 4) / np.abs(noisy_spectra.phi) ** 2, 0.0)
        pref = 4.0 / 10.0 * noisy_spectra.noise_scale * 10.0
        want = [pref * math.sqrt(np.sum(terms[u <= c])) for c in cutoffs]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert got[-1] == 0.0

    def test_zero_noise_screen_passes_everywhere(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 50, 0.0,
                                         STRIKE_LAW, seed=1)
        fgrid = FrequencyGrid(cutoff=40.0, points=2 ** 11)
        spectra = compute_chain_spectra(chain, fgrid)
        grid = build_grid(50, 1.1, spectra)
        assert grid.j_min == 0
        assert grid.feasible
        assert np.all(grid.s_values == 0.0)

    def test_benchmark_noise_fails_screen(self, noisy_spectra):
        # the screen saturates on the trust region and exceeds 1 at every
        # grid bandwidth at n = 100; the full grid is kept and the failure
        # recorded
        grid = build_grid(100, 1.1, noisy_spectra)
        assert not grid.feasible
        assert grid.j_min == 0
        assert np.all(grid.s_values > 1.0)

    def test_validation(self):
        with pytest.raises(InputError):
            build_grid(9, 1.1)
        with pytest.raises(InputError):
            build_grid(100, 1.0)

    def test_bandwidth_count_cap(self):
        # L -> 1 would build ln(3.125) / ln(L) bandwidths at n = 100
        with pytest.raises(InputError, match="cap of 1000"):
            build_grid(100, 1.000001)
        with pytest.raises(InputError, match="cap of 1000"):
            build_grid(100, 1 + 1e-15)
        assert build_grid(100, 1.1).values.size == 13
        assert build_grid(100, 1.002).values.size == 572


class TestSigmaTilde:
    def test_doubling_n_scales_by_inverse_sqrt2(self, noisy_spectra):
        kernel = flat_top_kernel()
        a = sigma_tilde(noisy_spectra, kernel, h=0.02, q=0.1, side="+")
        doubled = dataclasses.replace(noisy_spectra, n_obs=200)
        b = sigma_tilde(doubled, kernel, h=0.02, q=0.1, side="+")
        assert b == pytest.approx(a / math.sqrt(2.0), rel=1e-14)

    def test_monotone_decreasing_in_h(self, noisy_spectra):
        kernel = flat_top_kernel()
        grid = build_grid(100, 1.1, noisy_spectra)
        for side in ("+", "-"):
            vals = [sigma_tilde(noisy_spectra, kernel, h, 0.12, side)
                    for h in grid.values]
            assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sides_symmetric_thresholds_differ(self, noisy_spectra):
        kernel = flat_top_kernel()
        a = sigma_tilde(noisy_spectra, kernel, 0.02, 0.1, "+")
        b = sigma_tilde(noisy_spectra, kernel, 0.02, 0.1, "-")
        assert a > 0 and b > 0
        # Hermitian symmetry of every factor makes the two sides agree
        # exactly at equal |threshold|; the threshold itself does matter
        assert b == pytest.approx(a, rel=1e-12)
        c = sigma_tilde(noisy_spectra, kernel, 0.02, 0.3, "+")
        assert c != a

    def test_chi2_norm_against_quadrature(self, ):
        # independent route: scalar phi~ evaluations (closed-form transform),
        # scalar tail weights, adaptive quadrature of |chi_2|^2
        model_chain = generate_synthetic_chain(
            __import__("levyq.models", fromlist=["LevyModel"]).LevyModel(
                sigma2=0.01, gamma=-0.005, jumps=None),
            MATURITY, RATE, 40, 0.0, STRIKE_LAW, seed=3)
        fgrid = FrequencyGrid(cutoff=12.0, points=2 ** 13)
        spectra = compute_chain_spectra(model_chain, fgrid)
        kernel = flat_top_kernel()
        h, q = 0.1, 0.2
        chi0, chi1, chi2, mask = auxiliary_spectra(spectra, kernel, h, q, "+")
        # |chi_2|^2 is even: the weights of the positive nodes integrate it
        # over the whole band
        got = math.sqrt(np.sum(fgrid.weights[mask] * np.abs(chi2[mask]) ** 2))
        spline = build_spline(model_chain.xs, model_chain.prices, degree=1)

        def integrand(v):
            gw = tail_weight_spectrum(q, v)
            phi = spline_spectra(spline, MATURITY, np.array([v]))[0][0]
            return abs(v * (1j - v) * gw * kernel(h * v) / phi) ** 2

        want = math.sqrt(quad(integrand, -1.0 / h, 1.0 / h, limit=400,
                              points=[-0.5 / h, 0.0, 0.5 / h])[0])
        assert got == pytest.approx(want, rel=1e-4)

    def test_guard_dominated_error(self):
        fgrid = FrequencyGrid(cutoff=20.0, points=2 ** 9)
        phi = np.full(fgrid.u.size, 1e-9, dtype=complex)
        spectra = synthetic_spectra(fgrid, phi, noise_scale=1.0)
        assert not spectra.trusted.any()
        with pytest.raises(NumericalError):
            sigma_tilde(spectra, flat_top_kernel(), 0.05, 0.1, "+")

    def test_validation(self, noisy_spectra):
        kernel = flat_top_kernel()
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, kernel, 0.0, 0.1, "+")
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, kernel, 0.02, -0.1, "+")
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, kernel, 0.02, 0.1, "up")


class TestIncrementsTableRefused:
    """The screen and the deviation bound are built from an option chain's
    quote-noise profile.  An increments table has none, so both refuse it
    rather than screen it as noiseless or bound it by 0."""

    @pytest.fixture(scope="class")
    def increments_spectra(self):
        rng = np.random.default_rng(2)
        sample = IncrementSample(rng.standard_normal(500) * 0.3, delta=0.5)
        return psi2_from_increments(sample, FrequencyGrid(20.0, 256))

    def test_build_grid(self, increments_spectra):
        with pytest.raises(InputError, match="quote-noise profile"):
            build_grid(100, 1.1, increments_spectra)

    def test_sigma_tilde_and_auxiliary_spectra(self, increments_spectra):
        kernel = flat_top_kernel(0.5)
        with pytest.raises(InputError, match="quote-noise profile"):
            sigma_tilde(increments_spectra, kernel, 0.1, 0.5, "+")
        with pytest.raises(InputError, match="quote-noise profile"):
            sigma_tilde(increments_spectra, kernel, 0.1, [0.5, 0.7], "-")
        with pytest.raises(InputError, match="quote-noise profile"):
            auxiliary_spectra(increments_spectra, kernel, 0.1, 0.5, "+")


class TestHermitianFactors:
    @given(u=st.lists(st.floats(0.01, 60.0), min_size=1, max_size=12),
           q=st.floats(0.02, 4.9), side=st.sampled_from("+-"))
    @settings(max_examples=30, deadline=None)
    def test_mirror_is_conjugate(self, noisy_chain, noisy_spectra, u, q, side):
        # the chain spectra at +-u, as if both halves were tabulated
        u = np.array(u)
        both = np.concatenate([u, -u])
        spline = build_spline(noisy_chain.xs, noisy_chain.prices, degree=1)
        phi, trusted, psi1, psi2 = spline_spectra(spline, MATURITY, both,
                                                  noisy_spectra.noise_scale)
        spectra = dataclasses.replace(noisy_spectra, grid=SimpleNamespace(u=both),
                                      phi=phi, psi1=psi1, psi2=psi2,
                                      trusted=trusted)
        h = 1.0 / (np.max(u) + 1.0)
        mask, cells = _masked_chis(spectra, flat_top_kernel(), h, q, side, 5.0)
        assert np.array_equal(mask[u.size :], mask[: u.size])
        kept = np.count_nonzero(mask[: u.size])
        for chi in next(cells):
            np.testing.assert_allclose(
                chi[kept:], np.conj(chi[:kept]), rtol=1e-12,
                atol=1e-15 * max(np.max(np.abs(chi), initial=0.0), 1.0))


class TestBatchedBound:
    """One call per bandwidth for many (threshold, side) cells gives, cell
    for cell, exactly what one call per cell gives."""

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.02, 4.9), st.sampled_from("+-")),
                    min_size=1, max_size=12))
    def test_vector_equals_scalar_calls(self, noisy_spectra, cells):
        kernel = flat_top_kernel()
        qs = [q for q, _ in cells]
        sides = [side for _, side in cells]
        for h in (0.01, 0.02, 0.031):
            batched = sigma_tilde(noisy_spectra, kernel, h, qs, sides)
            alone = [sigma_tilde(noisy_spectra, kernel, h, q, side)
                     for q, side in cells]
            assert batched.tolist() == alone
        t = np.array([q if side == "+" else -q for q, side in cells])
        u = noisy_spectra.grid.u[::5]
        rows = tail_weight_spectrum(t, u)
        assert rows.shape == (t.size, u.size)
        for row, ti in zip(rows, t):
            assert np.array_equal(row, tail_weight_spectrum(ti, u))

    def test_shapes_and_scalar_float(self, noisy_spectra):
        kernel = flat_top_kernel()
        one = sigma_tilde(noisy_spectra, kernel, 0.02, 0.1, "-")
        assert isinstance(one, float)
        both = sigma_tilde(noisy_spectra, kernel, 0.02, [0.1, 0.3], "-")
        assert both.tolist() == [
            one, sigma_tilde(noisy_spectra, kernel, 0.02, 0.3, "-")]
        assert isinstance(tail_weight_spectrum(0.2, 1.5), complex)
        assert tail_weight_spectrum([0.2, -0.4], 1.5).tolist() == [
            tail_weight_spectrum(0.2, 1.5), tail_weight_spectrum(-0.4, 1.5)]

    def test_auxiliary_rows_equal_scalar_calls(self, noisy_spectra):
        kernel = flat_top_kernel()
        rows = auxiliary_spectra(noisy_spectra, kernel, 0.02, [0.1, 0.25],
                                 ["+", "-"])
        for i, (q, side) in enumerate([(0.1, "+"), (0.25, "-")]):
            alone = auxiliary_spectra(noisy_spectra, kernel, 0.02, q, side)
            for k in range(3):
                assert np.array_equal(rows[k][i], alone[k])
            assert np.array_equal(rows[3], alone[3])

    def test_validation(self, noisy_spectra):
        kernel = flat_top_kernel()
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, kernel, 0.02, [0.1, 0.2], ["+"])
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, kernel, 0.02, [0.1, 5.0], "+")
        with pytest.raises(InputError):
            tail_weight_spectrum([0.1, 0.0], 1.0)
        with pytest.raises(InputError):
            tail_weight_spectrum([0.1, -6.0], 1.0)


class TestAdaptiveQuantile:
    def test_identical_intervals_choose_max_bandwidth(self):
        hs = [0.01, 0.02, 0.04]
        h, q, diag = adaptive_quantile(hs, [0.5] * 3, [1.0] * 3, [0.1] * 3, n=100)
        assert h == 0.04
        assert q == 0.5
        assert diag.records[-1].chosen

    def test_disjoint_top_interval_rejected(self):
        # records engineered directly through V = m * sigma / density with
        # density 1 and sigma tuned so intervals are [q - s*m, q + s*m]
        m = (1.1) * math.sqrt(2 * math.log(math.log(100)))
        hs = [0.01, 0.02, 0.04]
        qs = [0.50, 0.52, 5.00]
        sigmas = [0.30 / m, 0.25 / m, 0.10 / m]
        h, q, diag = adaptive_quantile(hs, qs, [1.0] * 3, sigmas, n=100)
        assert h == 0.02
        assert q == 0.52
        assert [r.chosen for r in diag.records] == [False, True, False]

    def test_once_empty_stays_empty(self):
        # 4th interval overlaps the 3rd but the scan has already stopped
        m = (1.1) * math.sqrt(2 * math.log(math.log(100)))
        hs = [0.01, 0.02, 0.04, 0.08]
        qs = [0.50, 0.52, 5.00, 5.01]
        sigmas = [s / m for s in (0.30, 0.25, 0.10, 0.50)]
        h, q, _ = adaptive_quantile(hs, qs, [1.0] * 4, sigmas, n=100)
        assert h == 0.02

    def test_multiplier_value(self):
        # delta = 0.1, n = 100: (1.1) sqrt(2 log log 100) = 1.923 (natural logs)
        _, _, diag = adaptive_quantile([0.01], [0.5], [1.0], [1.0], n=100,
                                       delta=0.1)
        assert abs(diag.multiplier - 1.923) < 1e-3
        assert diag.records[0].V == pytest.approx(diag.multiplier)

    def test_zero_density_dropped_with_flag(self):
        hs = [0.01, 0.02, 0.04]
        h, q, diag = adaptive_quantile(hs, [0.5, 0.9, 0.51], [1.0, 0.0, 1.0],
                                       [0.1, 0.1, 0.1], n=100)
        assert diag.records[1].dropped
        assert diag.records[1].V is None
        # the dropped bandwidth does not break the chain: h = 0.04 wins
        assert h == 0.04 and q == 0.51

    def test_all_dropped_is_an_error(self):
        with pytest.raises(NoSolutionError):
            adaptive_quantile([0.01, 0.02], [0.5, 0.5], [0.0, 0.0],
                              [0.1, 0.1], n=100)

    def test_interval_uses_absolute_density(self):
        # negative density estimates enter through |density|
        h, q, diag = adaptive_quantile([0.01, 0.02], [0.5, 0.5], [-1.0, 1.0],
                                       [0.1, 0.1], n=100)
        assert h == 0.02
        assert diag.records[0].V == pytest.approx(diag.records[1].V)

    def test_diagnostics_serialize(self):
        _, _, diag = adaptive_quantile([0.01, 0.02], [0.5, 0.6], [1.0, 0.0],
                                       [0.1, 0.2], n=100)
        rows = diag.to_json_rows()
        text = json.dumps(rows)
        back = json.loads(text)
        assert back[0].keys() == {"h", "q", "sigma", "V", "lo", "hi",
                                  "chosen", "dropped"}
        assert back[1]["V"] is None and back[1]["dropped"]

    def test_validation(self):
        with pytest.raises(InputError):
            adaptive_quantile([], [], [], [], n=100)
        with pytest.raises(InputError):
            adaptive_quantile([0.02, 0.01], [0.5, 0.5], [1.0, 1.0],
                              [0.1, 0.1], n=100)
        with pytest.raises(InputError):
            adaptive_quantile([0.01], [0.5], [1.0], [0.1], n=2)
        with pytest.raises(InputError):
            adaptive_quantile([0.01], [0.5], [1.0], [-0.1], n=100)
