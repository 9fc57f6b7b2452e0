"""Bandwidth-selection tests.

Oracles: scipy's complex exponential integral E1 for E2 on the imaginary
axis; adaptive quadrature for the tail-weight spectrum and for the
auxiliary-spectrum L2 norm (independent scalar evaluation of phi~ via the
closed-form transforms, no shared tabulation); the per-cell complex
chi_k form of the deviation bound for `sigma_tilde`'s real-arithmetic
pass; hand arithmetic for the grid shape, the 1/sqrt(2) scaling, and the
interval-intersection fixtures.
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

from conftest import select_one, sigma_at, spline_spectra, tail_estimates
from levyq.adaptive import (
    _bound_terms,
    _e2,
    _full_grid,
    _screen_statistic,
    adaptive_quantile,
    build_grid,
    sigma_tilde,
)
from levyq.errors import InputError, NoSolutionError, NumericalError
from levyq.harness import DEFAULT_CHAIN_TAUS, ExperimentConfig, pricing_model
from levyq.increments import IncrementSample, psi2_from_increments
from levyq.inversion import (X_MAX_DEFAULT, TailInversion, grid_points,
                             tail_quantiles)
from levyq.kernels import flat_top_kernel
from levyq.numerics import _MAX_BATCH, FrequencyGrid, Spectra
from levyq.options import compute_chain_spectra, generate_synthetic_chain

RATE = 0.06
MATURITY = 0.25
STRIKE_LAW = (0.0, 0.5)


def quad_complex(f, a, b, **kw):
    re = quad(lambda t: f(t).real, a, b, **kw)[0]
    im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# the per-cell complex form of the deviation bound, kept as an oracle


def tail_weight_spectrum(t, u, x_max=X_MAX_DEFAULT):
    """int g_t(x) e^{-iux} dx for the truncated tail weight.

    g_t(x) = x^{-2} 1_{[t, x_max]} for t > 0 and x^{-2} 1_{[-x_max, t]} for
    t < 0.  Closed form via the exponential integral:

        int_t^X x^{-2} e^{-iux} dx = E2(iut)/t - E2(iuX)/X,

    and the t < 0 side by the reflection x -> -x, which turns the X term
    into -conj(E2(iuX)/X).  Exact at u = 0 (value 1/|t| - 1/x_max).
    `t` is one signed threshold or a 1-D array of them (one row each).
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts == 0):
        raise InputError("tail weight needs a nonzero threshold t")
    if not np.all(x_max > np.abs(ts)):
        raise InputError(
            f"x_max = {x_max} must exceed |t| = {np.max(np.abs(ts))}")
    u_arr = np.asarray(u, dtype=float).ravel()
    tail = _e2(u_arr * x_max) / x_max
    vals = np.empty((ts.size, u_arr.size), dtype=complex)
    for row, ti in zip(vals, ts):
        head = _e2(u_arr * ti) / ti
        row[:] = head - tail if ti > 0 else -head - np.conj(tail)
    vals = vals.reshape(np.shape(t) + np.shape(u))
    return complex(vals) if vals.ndim == 0 else vals


def masked_chis(spectra, kernel, h, q, side, x_max):
    """The integration mask (trusted nodes with u <= 1/h) and an iterator
    over the cells' (chi0, chi1, chi2) on the masked nodes; `q` is one
    threshold or a 1-D array, `side` one side or one per threshold."""
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    sides = [side] * qs.size if isinstance(side, str) else list(side)
    t = np.array([qi if si == "+" else -qi for qi, si in zip(qs, sides)])
    T = spectra.horizon
    u_all = spectra.grid.u
    mask = spectra.trusted & (u_all <= 1.0 / h)
    u = u_all[mask]
    fk = kernel(h * u)
    phi = spectra.phi[mask]
    psi1 = spectra.psi1[mask]
    psi2 = spectra.psi2[mask]
    factors = (
        u * (u - 1j) * (T ** 2 * psi1 ** 2 - T * psi2)
        + 2.0 * T * (1j - 2.0 * u) * psi1
        + 2.0,
        (4j * u + 2.0) - 2.0 * T * u * (1j * u + 1.0) * psi1,
        u * (1j - u),
    )

    def cells():
        for gw in tail_weight_spectrum(t, u, x_max):
            base = gw * fk / phi
            yield tuple(base * f for f in factors)

    return mask, cells()


def sigma_reference(spectra, kernel, h, q, side, x_max=X_MAX_DEFAULT):
    """(2 pi sqrt(n) T)^{-1} sum_k ||x^k e^{-x} rho||_inf ||chi_k||_L2 from
    the complex chi_k, one cell at a time."""
    mask, cells = masked_chis(spectra, kernel, h, q, side, x_max)
    weights = spectra.grid.weights[mask]
    pref = 1.0 / (2.0 * math.pi * math.sqrt(spectra.n_obs) * spectra.horizon)

    def norm(chi):
        return math.sqrt(weights @ (chi.real ** 2 + chi.imag ** 2))

    values = [pref * sum(s * norm(chi)
                         for s, chi in zip(spectra.sup_norms, cell))
              for cell in cells]
    return values[0] if np.ndim(q) == 0 else np.array(values)


def auxiliary_spectra(spectra, kernel, h, q, side, x_max=X_MAX_DEFAULT):
    """The three linearization spectra chi_0, chi_1, chi_2 of
    `sigma_tilde` on the whole grid, and their mask.

    Entries outside the mask (u <= 1/h intersected with the trust region)
    are zero; an array of thresholds gives one row of each chi_k per
    threshold.
    """
    if spectra.sup_norms is None:
        raise InputError("the deviation bound needs an option chain's "
                         "quote-noise profile")
    mask, cells = masked_chis(spectra, kernel, h, q, side, x_max)
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
    return compute_chain_spectra(noisy_chain, grid)


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
        values = _full_grid(100, 1.1)
        assert values[0] == pytest.approx(1.0 / 100, rel=1e-15)

    def test_benchmark_grid_shape(self):
        # n = 100, L = 1.1: the cap (log10 100)^{-5} = 2^{-5} = 0.03125 is
        # reached at j = 12 (1.1^12/100 = 0.031384)
        values = _full_grid(100, 1.1)
        assert values.size == 13
        assert np.all(np.diff(values) > 0)
        cap = math.log10(100) ** -5
        assert cap <= values[-1] < cap * 1.1

    def test_screen_monotone_on_synthetic_spectra(self):
        fgrid = FrequencyGrid(cutoff=120.0, points=2 ** 13)
        phi = np.exp(-fgrid.u ** 2 / 5000.0)
        spectra = synthetic_spectra(fgrid, phi, noise_scale=1e-6)
        s_values = _screen_statistic(spectra, 100, 1.0 / _full_grid(100, 1.1))
        # integration window shrinks as j grows
        assert np.all(np.diff(s_values) <= 1e-12)
        assert np.all(s_values >= 0)
        # the grid starts at the first bandwidth that passes
        first = int(np.flatnonzero(s_values <= 1.0)[0])
        assert np.array_equal(build_grid(100, 1.1, spectra).values,
                              _full_grid(100, 1.1)[first:])

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
        assert np.array_equal(grid.values, _full_grid(50, 1.1))
        assert grid.feasible
        assert np.all(_screen_statistic(spectra, 50, 1.0 / grid.values) == 0.0)

    def test_benchmark_noise_fails_screen(self, noisy_spectra):
        # the screen saturates on the trust region and exceeds 1 at every
        # grid bandwidth at n = 100; the full grid is kept and the failure
        # recorded
        grid = build_grid(100, 1.1, noisy_spectra)
        assert not grid.feasible
        assert np.array_equal(grid.values, _full_grid(100, 1.1))
        assert np.all(_screen_statistic(noisy_spectra, 100,
                                        1.0 / grid.values) > 1.0)

    def test_screen_cuts_at_fifty_quotes(self):
        # the Monte Carlo design at n = 50 and 1 % noise (seed 0), where the
        # screen cuts: on each of its first five replications it passes and
        # drops the nine smallest bandwidths or more (j_max is 14)
        cfg = ExperimentConfig(n=50, noise_fraction=0.01)
        design = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, 0.0,
            (cfg.strike_mean, cfg.strike_variance), seed=0)
        noise_sd = cfg.noise_fraction * design.prices
        fgrid = FrequencyGrid(cutoff=float(cfg.n), points=grid_points(
            float(cfg.n), cfg.x_max, float(np.ptp(design.xs))))
        for child in np.random.SeedSequence(cfg.seed).spawn(5):
            noise = np.random.default_rng(child).standard_normal(cfg.n) * noise_sd
            chain = dataclasses.replace(design, prices=design.prices + noise,
                                        noise_levels=noise_sd)
            grid = build_grid(cfg.n, cfg.L, compute_chain_spectra(chain, fgrid))
            assert grid.feasible
            assert _full_grid(cfg.n, cfg.L).size - grid.values.size >= 9

    def test_validation(self, noisy_spectra):
        with pytest.raises(InputError):
            build_grid(9, 1.1, noisy_spectra)
        with pytest.raises(InputError):
            build_grid(100, 1.0, noisy_spectra)

    def test_bandwidth_count_cap(self, noisy_spectra):
        # L -> 1 would build ln(3.125) / ln(L) bandwidths at n = 100
        with pytest.raises(InputError, match="cap of 1000"):
            build_grid(100, 1.000001, noisy_spectra)
        with pytest.raises(InputError, match="cap of 1000"):
            build_grid(100, 1 + 1e-15, noisy_spectra)
        assert _full_grid(100, 1.1).size == 13
        assert _full_grid(100, 1.002).size == 572


class TestSigmaTilde:
    def test_doubling_n_scales_by_inverse_sqrt2(self, noisy_spectra):
        kernel = flat_top_kernel()
        a = sigma_at(noisy_spectra, kernel, h=0.02, q=0.1)
        doubled = dataclasses.replace(noisy_spectra, n_obs=200)
        b = sigma_at(doubled, kernel, h=0.02, q=0.1)
        assert b == pytest.approx(a / math.sqrt(2.0), rel=1e-14)

    def test_monotone_decreasing_in_h(self, noisy_spectra):
        kernel = flat_top_kernel()
        grid = build_grid(100, 1.1, noisy_spectra)
        vals = [sigma_at(noisy_spectra, kernel, h, 0.12)
                for h in grid.values]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_sides_symmetric_thresholds_differ(self, noisy_spectra):
        kernel = flat_top_kernel()
        a = sigma_at(noisy_spectra, kernel, 0.02, 0.1)
        assert a > 0
        # Hermitian symmetry of every factor makes the per-cell complex
        # form give both sides the bound at |threshold|, which sigma_tilde
        # reads without a side; the threshold itself does matter
        for side in ("+", "-"):
            assert sigma_reference(noisy_spectra, kernel, 0.02, 0.1,
                                   side) == pytest.approx(a, rel=1e-12)
        c = sigma_at(noisy_spectra, kernel, 0.02, 0.3)
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

        def integrand(v):
            gw = tail_weight_spectrum(q, v)
            phi = spline_spectra(model_chain.xs, model_chain.prices, MATURITY,
                                 np.array([v]))[0][0]
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
            sigma_at(spectra, flat_top_kernel(), 0.05, 0.1)

    def test_validation(self, noisy_spectra):
        kernel = flat_top_kernel()
        with pytest.raises(InputError):
            sigma_at(noisy_spectra, kernel, 0.0, 0.1)
        with pytest.raises(InputError):
            sigma_at(noisy_spectra, kernel, 0.02, -0.1)
        with pytest.raises(InputError):
            sigma_at(noisy_spectra, kernel, 0.02, [[0.1, 0.2]])


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
            sigma_at(increments_spectra, kernel, 0.1, 0.5)
        with pytest.raises(InputError, match="quote-noise profile"):
            sigma_at(increments_spectra, kernel, 0.1, [0.5, 0.7])
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
        phi, trusted, psi1, psi2 = spline_spectra(noisy_chain.xs,
                                                  noisy_chain.prices, MATURITY,
                                                  both, noisy_spectra.noise_scale)
        spectra = dataclasses.replace(noisy_spectra, grid=SimpleNamespace(u=both),
                                      phi=phi, psi1=psi1, psi2=psi2,
                                      trusted=trusted)
        h = 1.0 / (np.max(u) + 1.0)
        mask, cells = masked_chis(spectra, flat_top_kernel(), h, q, side, 5.0)
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
        for h in (0.01, 0.02, 0.031):
            batched = sigma_at(noisy_spectra, kernel, h, qs)
            alone = [sigma_at(noisy_spectra, kernel, h, q) for q in qs]
            assert batched.tolist() == alone
        t = np.array([q if side == "+" else -q for q, side in cells])
        u = noisy_spectra.grid.u[::5]
        rows = tail_weight_spectrum(t, u)
        assert rows.shape == (t.size, u.size)
        for row, ti in zip(rows, t):
            assert np.array_equal(row, tail_weight_spectrum(ti, u))

    def test_full_chunk_equals_scalar_calls(self, noisy_spectra):
        # 1,024 kept nodes and 32 cells fill one chunk of exactly _MAX_BATCH
        # elements, the size at which numpy may reuse a temporary in place
        # and hand the row sums an array of another memory order
        kernel = flat_top_kernel()
        u = noisy_spectra.grid.u[noisy_spectra.trusted]
        h = 2.0 / (u[1023] + u[1024])
        qs = np.linspace(0.05, 4.5, _MAX_BATCH // 1024)
        batched = sigma_at(noisy_spectra, kernel, h, qs)
        assert batched.tolist() == [sigma_at(noisy_spectra, kernel, h, q)
                                    for q in qs]

    def test_shapes_and_scalar_float(self, noisy_spectra):
        kernel = flat_top_kernel()
        one = sigma_at(noisy_spectra, kernel, 0.02, 0.1)
        assert isinstance(one, float)
        both = sigma_at(noisy_spectra, kernel, 0.02, [0.1, 0.3])
        assert both.tolist() == [
            one, sigma_at(noisy_spectra, kernel, 0.02, 0.3)]
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
            sigma_at(noisy_spectra, kernel, 0.02, [0.1, 5.0])
        with pytest.raises(InputError):
            tail_weight_spectrum([0.1, 0.0], 1.0)
        with pytest.raises(InputError):
            tail_weight_spectrum([0.1, -6.0], 1.0)


class TestBoundAgainstOracle:
    """sigma_tilde's real-arithmetic pass against the per-cell complex chi_k
    form.  They differ by rounding only: on the default chain the largest
    relative difference measured is 1.5e-14 (3.6e-14 on seeds 2 and 3).
    The phase u q of the tail weight reaches 490 rad at 1/h = 100 and
    q = 4.9, and the cancellation in E2(iuq)/q - E2(iu x_max)/x_max
    amplifies its rounding (in either form): on the noisy fixture the
    difference grows with q/h to 8e-13 for q in [4, 4.95] at h = 0.01, and
    stays below 3e-14 for q < 1."""

    RTOL = 5e-14
    RTOL_FAR = 2e-12

    @pytest.fixture(scope="class")
    def default_chain_cells(self):
        # the default chain of estimate_chain, every grid bandwidth, and the
        # per-bandwidth quantiles of all 20 default levels on both sides
        cfg = ExperimentConfig()
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=1)
        spectra = compute_chain_spectra(chain, FrequencyGrid(100.0, 8192))
        kernel = flat_top_kernel(cfg.kernel_c)
        hs = _full_grid(cfg.n, cfg.L)
        table = tail_estimates(spectra, kernel, hs, cfg.x_max)
        qs = tail_quantiles(table, DEFAULT_CHAIN_TAUS, cfg.eta)[0]
        sides = ["-", "+"] * len(DEFAULT_CHAIN_TAUS)
        return spectra, kernel, hs, qs, sides

    def test_default_chain_every_bandwidth_and_cell(self, default_chain_cells):
        spectra, kernel, hs, qs, sides = default_chain_cells
        assert hs.size == 13 and qs.shape == (40, 13)
        rows = TailInversion(spectra.grid, kernel, hs,
                             X_MAX_DEFAULT).kernel_rows
        terms = _bound_terms(spectra, X_MAX_DEFAULT, hs, rows)
        for j, h in enumerate(hs):
            got = sigma_tilde(spectra, h, qs[:, j], terms)
            want = sigma_reference(spectra, kernel, h, qs[:, j], sides)
            np.testing.assert_allclose(got, want, rtol=self.RTOL, atol=0)
            # the terms formed once give what terms of h alone give
            assert got.tolist() == sigma_at(spectra, kernel, h,
                                            qs[:, j]).tolist()

    def test_one_cell(self, noisy_spectra):
        kernel = flat_top_kernel()
        got = sigma_at(noisy_spectra, kernel, 0.031, 0.17)
        assert isinstance(got, float)
        want = sigma_reference(noisy_spectra, kernel, 0.031, 0.17, "-")
        assert got == pytest.approx(want, rel=self.RTOL, abs=0)

    @pytest.mark.parametrize("h", [0.01, 0.02, 0.1])
    def test_mixed_sides(self, noisy_spectra, h):
        kernel = flat_top_kernel()
        qs = [0.05, 0.3, 0.3, 0.9, 1.7, 3.1, 4.2, 4.9]
        sides = ["+", "-", "+", "-", "+", "-", "-", "+"]
        got = sigma_at(noisy_spectra, kernel, h, qs)
        want = sigma_reference(noisy_spectra, kernel, h, qs, sides)
        near = np.array(qs) < 1.0
        np.testing.assert_allclose(got[near], want[near], rtol=self.RTOL,
                                   atol=0)
        np.testing.assert_allclose(got, want, rtol=self.RTOL_FAR, atol=0)
        assert got.tolist() == [sigma_at(noisy_spectra, kernel, h, q)
                                for q in qs]

    @pytest.mark.parametrize("t", [0.02, 0.3, 2.5])
    def test_tail_weight_power_is_even(self, noisy_spectra, t):
        # g_{-t} = conj g_t, so |g_t|^2 is even in t and sigma_tilde reads
        # both sides at |t|, with no side argument
        u = noisy_spectra.grid.u
        plus = np.abs(tail_weight_spectrum(t, u)) ** 2
        minus = np.abs(tail_weight_spectrum(-t, u)) ** 2
        np.testing.assert_allclose(minus, plus, rtol=1e-13, atol=0)

    def test_terms_of_another_table_refused(self, noisy_spectra):
        other = dataclasses.replace(noisy_spectra, n_obs=200)
        rows = flat_top_kernel()(0.02 * other.grid.u)[None]
        terms = _bound_terms(other, X_MAX_DEFAULT, [0.02], rows)
        with pytest.raises(InputError):
            sigma_tilde(noisy_spectra, 0.02, 0.1, terms)
        # terms hold the kernel rows of their bandwidths only
        with pytest.raises(InputError, match="no kernel row"):
            sigma_tilde(other, 0.03, 0.1, terms)


class TestAdaptiveQuantile:
    def test_identical_intervals_choose_max_bandwidth(self):
        hs = [0.01, 0.02, 0.04]
        h, q, sel = select_one(hs, [0.5] * 3, [1.0] * 3, [0.1] * 3, n=100)
        assert h == 0.04
        assert q == 0.5
        assert sel.records(0)[-1]["chosen"]

    def test_disjoint_top_interval_rejected(self):
        # records engineered directly through V = m * sigma / density with
        # density 1 and sigma tuned so intervals are [q - s*m, q + s*m]
        m = (1.1) * math.sqrt(2 * math.log(math.log(100)))
        hs = [0.01, 0.02, 0.04]
        qs = [0.50, 0.52, 5.00]
        sigmas = [0.30 / m, 0.25 / m, 0.10 / m]
        h, q, sel = select_one(hs, qs, [1.0] * 3, sigmas, n=100)
        assert h == 0.02
        assert q == 0.52
        assert [r["chosen"] for r in sel.records(0)] == [False, True, False]

    def test_once_empty_stays_empty(self):
        # 4th interval overlaps the 3rd but the scan has already stopped
        m = (1.1) * math.sqrt(2 * math.log(math.log(100)))
        hs = [0.01, 0.02, 0.04, 0.08]
        qs = [0.50, 0.52, 5.00, 5.01]
        sigmas = [s / m for s in (0.30, 0.25, 0.10, 0.50)]
        h, q, _ = select_one(hs, qs, [1.0] * 4, sigmas, n=100)
        assert h == 0.02

    def test_multiplier_value(self):
        # delta = 0.1, n = 100: (1.1) sqrt(2 log log 100) = 1.923 (natural logs)
        _, _, sel = select_one([0.01], [0.5], [1.0], [1.0], n=100,
                               delta=0.1)
        # sigma = density = 1, so V is the multiplier
        assert abs(sel.records(0)[0]["V"] - 1.923) < 1e-3

    def test_zero_density_dropped_with_flag(self):
        hs = [0.01, 0.02, 0.04]
        h, q, sel = select_one(hs, [0.5, 0.9, 0.51], [1.0, 0.0, 1.0],
                               [0.1, 0.1, 0.1], n=100)
        assert sel.records(0)[1]["dropped"]
        assert sel.records(0)[1]["V"] is None
        # the dropped bandwidth does not break the chain: h = 0.04 wins
        assert h == 0.04 and q == 0.51

    def test_all_dropped_is_an_error(self):
        with pytest.raises(NoSolutionError):
            select_one([0.01, 0.02], [0.5, 0.5], [0.0, 0.0],
                       [0.1, 0.1], n=100)

    def test_interval_uses_absolute_density(self):
        # negative density estimates enter through |density|
        h, q, sel = select_one([0.01, 0.02], [0.5, 0.5], [-1.0, 1.0],
                               [0.1, 0.1], n=100)
        assert h == 0.02
        rows = sel.records(0)
        assert rows[0]["V"] == pytest.approx(rows[1]["V"])

    def test_diagnostics_serialize(self):
        _, _, sel = select_one([0.01, 0.02], [0.5, 0.6], [1.0, 0.0],
                               [0.1, 0.2], n=100)
        rows = sel.records(0)
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
        with pytest.raises(InputError):
            adaptive_quantile([0.01, 0.02], [[0.5, 0.5]], [[1.0, 1.0]],
                              [[0.1]], n=100)
        with pytest.raises(InputError):
            adaptive_quantile([0.01], [math.nan], [1.0], [0.1], n=100)


# ---------------------------------------------------------------------------
# the per-cell scan of the interval rule, kept as the reference of the
# selector over cells x bandwidths


def scan_reference(bandwidths, quantiles, densities, sigmas, n, delta=0.1):
    """One cell, one bandwidth at a time: walk the grid upward keeping the
    running intersection and stop once it empties.  Returns (h, q, rows),
    rows as `Selection.records` gives them;
    NoSolutionError when every bandwidth is dropped."""
    hs, qs, dens, sig = (np.asarray(a, dtype=float) for a in
                         (bandwidths, quantiles, densities, sigmas))
    multiplier = (1.0 + delta) * math.sqrt(2.0 * math.log(math.log(n)))
    records = []
    lo_run, hi_run = -math.inf, math.inf
    chosen_idx = None
    alive = True
    for i in range(hs.size):
        V = lo = hi = None
        if dens[i] != 0.0:
            with np.errstate(over="ignore"):   # a tiny density: V = inf
                V = float(multiplier * sig[i] / abs(dens[i]))
            lo, hi = float(qs[i] - V), float(qs[i] + V)
        if alive and V is not None:
            lo_new, hi_new = max(lo_run, lo), min(hi_run, hi)
            if lo_new <= hi_new:
                lo_run, hi_run = lo_new, hi_new
                chosen_idx = i
            else:
                alive = False  # once empty, stays empty
        records.append(dict(
            h=float(hs[i]), q=float(qs[i]), sigma=float(sig[i]),
            V=V, lo=lo, hi=hi, chosen=False, dropped=V is None))
    if chosen_idx is None:
        raise NoSolutionError("every bandwidth was dropped")
    records[chosen_idx]["chosen"] = True
    return float(hs[chosen_idx]), float(qs[chosen_idx]), records


def bits(values):
    """The bit patterns of floats, None as NaN."""
    return np.array([math.nan if v is None else v for v in values],
                    dtype=float).view(np.uint64)


@st.composite
def selector_cells(draw):
    """Cells x bandwidths of quantiles, densities and sigmas.  Values come
    partly from small dyadic sets, so intervals tie (sigma 0 makes lo ==
    hi, equal quantiles coincide), densities are often 0, and a cell may
    have every bandwidth dropped."""
    cells = draw(st.integers(1, 5))
    size = draw(st.integers(1, 8))
    hs = np.cumsum(draw(st.lists(st.floats(1e-3, 0.1), min_size=size,
                                 max_size=size)))

    def table(values):
        return np.array(draw(st.lists(
            st.lists(values, min_size=size, max_size=size),
            min_size=cells, max_size=cells)), dtype=float)

    qs = table(st.one_of(st.sampled_from([0.25, 0.5, 0.75]),
                         st.floats(0.004, 5.0)))
    dens = table(st.one_of(st.sampled_from([0.0, 0.0, -0.5, 1.0, 2.0]),
                           st.floats(-50.0, 50.0)))
    sig = table(st.one_of(st.sampled_from([0.0, 0.01, 0.1]),
                          st.floats(0.0, 1.0)))
    if draw(st.booleans()):
        dens[draw(st.integers(0, cells - 1))] = 0.0
    n = draw(st.integers(10, 10 ** 6))
    return hs, qs, dens, sig, n


class TestSelectorOverCells:
    """adaptive_quantile over cells x bandwidths against the per-cell scan,
    bit for bit: picks, V, lo, hi and dropped flags."""

    @given(case=selector_cells(), delta=st.floats(0.01, 2.0))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_per_cell_scan(self, case, delta):
        hs, qs, dens, sig, n = case
        selection = adaptive_quantile(hs, qs, dens, sig, n, delta)
        for c in range(qs.shape[0]):
            try:
                h, q, rows = scan_reference(
                    hs, qs[c], dens[c], sig[c], n, delta)
            except NoSolutionError:
                # that cell alone has no pick
                assert selection.chosen[c] == -1
                with pytest.raises(NoSolutionError):
                    selection.pick(c)
                assert selection.dropped[c].all()
                continue
            assert selection.pick(c) == (h, q)
            got = selection.records(c)
            assert got == rows
            for field in ("V", "lo", "hi"):
                want = bits([r[field] for r in rows])
                assert np.array_equal(bits(getattr(selection, field)[c]),
                                      want)
                assert np.array_equal(bits([r[field] for r in got]), want)
            assert selection.dropped[c].tolist() == [r["dropped"] for r in
                                                     rows]

    def test_cells_are_independent(self):
        # an all-dropped cell beside two that pick; each row alone gives
        # the row's result in the batch
        hs = [0.01, 0.02, 0.04]
        qs = [[0.5, 0.5, 0.5], [0.5, 0.52, 5.0], [0.5, 0.6, 0.7]]
        dens = [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]
        sig = [[0.1] * 3, [0.15, 0.13, 0.05], [0.1] * 3]
        selection = adaptive_quantile(hs, qs, dens, sig, 100)
        assert selection.chosen.tolist() == [2, 1, -1]
        for c in range(3):
            alone = adaptive_quantile(hs, qs[c], dens[c], sig[c], 100)
            assert alone.chosen[0] == selection.chosen[c]
            assert np.array_equal(bits(alone.V[0]), bits(selection.V[c]))
