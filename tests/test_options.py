"""Option-scheme tests.

Oracles, written before the implementation:
  * pricing: closed-form normalized Black-Scholes values for the pure
    diffusion (independent formula in this file), plus the Fourier identity
    int e^{iux} O(x) dx = (1 - phi_T(u-i))/(u(u-i)) checked by Simpson
    quadrature of the *returned* prices on a dense grid;
  * segment transforms: hand closed forms for flat and tent interpolants,
    adaptive quadrature (scipy.integrate.quad, real and imaginary parts
    separately) over the actual spline, and a per-segment series/recursion
    kept in this file as the reference for the breakpoint sum;
  * spectral estimators: the exact characteristic exponent and its
    curvature from the model layer, on dense noiseless chains.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad, simpson
from scipy.special import ndtr, ndtri

from levyq.errors import ChainFormatError, InputError, MartingaleError
from levyq.models import LevyModel, characteristic_exponent, exponent_curvature, martingale_drift
from levyq.numerics import FrequencyGrid
from levyq.options import (
    OptionChain,
    build_spline,
    compute_chain_spectra,
    estimate_noise_profile,
    generate_synthetic_chain,
    option_function,
    read_chain_csv,
    spline_spectra,
    write_chain_csv,
)
from levyq.options import _weighted_transforms

RATE = 0.06
MATURITY = 0.25
STRIKE_LAW = (0.0, 0.5)


def brownian_model(sigma: float) -> LevyModel:
    return LevyModel(sigma2=sigma ** 2, gamma=-0.5 * sigma ** 2, jumps=None)


def bs_option_oracle(sigma, maturity, x):
    """Normalized Black-Scholes option function, written independently."""
    st = sigma * math.sqrt(maturity)
    d1 = -x / st + st / 2.0
    d2 = d1 - st
    call = ndtr(d1) - math.exp(x) * ndtr(d2)
    if x >= 0:
        return call
    return call - 1.0 + math.exp(x)


def quad_complex(f, a, b, **kw):
    re = quad(lambda t: f(t).real, a, b, **kw)[0]
    im = quad(lambda t: f(t).imag, a, b, **kw)[0]
    return re + 1j * im


# ---------------------------------------------------------------------------
# pricing


class TestOptionFunction:
    def test_pure_diffusion_matches_black_scholes(self, ):
        model = brownian_model(0.1)
        xs = np.array([-0.2, -0.05, 0.0, 0.05, 0.2])
        got = option_function(model, MATURITY, xs)
        want = np.array([bs_option_oracle(0.1, MATURITY, x) for x in xs])
        assert np.max(np.abs(got - want)) < 1e-8

    def test_at_the_money_value(self):
        # O(0) = 2*Phi(sigma*sqrt(T)/2) - 1 for the pure diffusion
        got = option_function(brownian_model(0.1), MATURITY, 0.0)
        want = 2.0 * ndtr(0.1 * math.sqrt(MATURITY) / 2.0) - 1.0
        assert abs(got - want) < 1e-8
        assert abs(want - 0.0199450) < 1e-6

    def test_tails_vanish(self, bench_model):
        vals = option_function(bench_model, MATURITY, np.array([-5.0, 5.0]))
        assert np.all(np.abs(vals) <= 1e-6)

    def test_fourier_identity_of_returned_prices(self, bench_model):
        # int e^{iux} O(x) dx == (1 - phi_T(u-i)) / (u(u-i)), O from the code,
        # the integral by Simpson on a dense grid, the right side closed form
        xs = np.linspace(-8.0, 8.0, 2 ** 13 + 1)
        o = option_function(bench_model, MATURITY, xs)
        for u in (0.5, 2.0, 7.0):
            lhs = simpson(o * np.exp(1j * u * xs), x=xs)
            phi = np.exp(MATURITY * characteristic_exponent(bench_model, u - 1j))
            rhs = (1.0 - phi) / (u * (u - 1j))
            assert abs(lhs - rhs) < 1e-8

    def test_put_call_branches(self, bench_model):
        # O is the out-of-the-money branch: a call on x >= 0, bounded by the
        # spot (1) and falling in the strike; a put on x < 0, bounded by the
        # discounted strike (e^x) and rising in the strike
        xs = np.linspace(-2.0, 2.0, 41)
        o = option_function(bench_model, MATURITY, xs)
        assert np.all(o > -1e-10)
        assert np.all(o <= np.minimum(1.0, np.exp(xs)))
        assert np.all(np.diff(o[xs >= 0]) < 0)
        assert np.all(np.diff(o[xs <= 0]) > 0)

    def test_rejects_non_martingale_model(self, bench_jumps):
        bad = LevyModel(sigma2=0.01, gamma=0.0, jumps=bench_jumps)
        with pytest.raises(MartingaleError):
            option_function(bad, MATURITY, 0.0)

    def test_rejects_bad_maturity(self, bench_model):
        with pytest.raises(InputError):
            option_function(bench_model, 0.0, 0.0)


class TestSyntheticChain:
    def test_single_quote_sits_at_the_law_mean(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 1, 0.01,
                                         STRIKE_LAW, seed=5)
        assert chain.n == 1
        assert chain.xs[0] == pytest.approx(0.0, abs=1e-15)

    def test_zero_noise_reproduces_truth(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 25, 0.0,
                                         STRIKE_LAW, seed=5)
        truth = np.maximum(option_function(bench_model, MATURITY, chain.xs), 0.0)
        assert np.array_equal(chain.prices, truth)
        assert np.all(chain.noise_levels == 0.0)

    def test_noise_scale_is_a_fraction_of_price(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=11)
        truth = np.maximum(option_function(bench_model, MATURITY, chain.xs), 0.0)
        rel = (chain.prices - truth) / np.where(truth > 0, truth, 1.0)
        # each relative error is 1% * standard normal; check the sample std
        sd = np.std(rel[truth > 1e-12])
        assert 0.007 < sd < 0.013
        assert np.allclose(chain.noise_levels, 0.01 * truth)

    def test_same_seed_same_chain(self, bench_model):
        a = generate_synthetic_chain(bench_model, MATURITY, RATE, 30, 0.01,
                                     STRIKE_LAW, seed=3)
        b = generate_synthetic_chain(bench_model, MATURITY, RATE, 30, 0.01,
                                     STRIKE_LAW, seed=3)
        c = generate_synthetic_chain(bench_model, MATURITY, RATE, 30, 0.01,
                                     STRIKE_LAW, seed=4)
        assert np.array_equal(a.prices, b.prices)
        assert not np.array_equal(a.prices, c.prices)

    def test_design_points_are_gaussian_quantiles(self, bench_model):
        n = 7
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, n, 0.0,
                                         STRIKE_LAW, seed=0)
        want = 0.0 + math.sqrt(0.5) * ndtri(np.arange(1, n + 1) / (n + 1))
        assert np.allclose(chain.xs, want, atol=1e-14)


# ---------------------------------------------------------------------------
# interpolation and transforms


class TestSpline:
    def test_interpolates_knots_and_vanishes_outside(self):
        xs = np.array([-1.0, -0.2, 0.4, 1.5])
        vals = np.array([0.1, 0.8, 0.5, 0.05])
        sp = build_spline(xs, vals, degree=1)
        assert np.allclose(sp(xs), vals, atol=1e-14)
        pad = 2.0 * (xs[-1] - xs[0]) / 3
        assert sp.support == (xs[0] - pad, xs[-1] + pad)
        assert sp(xs[0] - pad - 0.01) == 0.0
        assert sp(xs[-1] + pad + 1.0) == 0.0
        # linear ramps pass through half the edge value at mid-pad
        assert sp(xs[0] - pad / 2) == pytest.approx(vals[0] / 2)
        assert sp(xs[-1] + pad / 2) == pytest.approx(vals[-1] / 2)

    def test_cubic_interpolates_knots(self):
        xs = np.linspace(-1, 1, 9)
        vals = np.exp(-xs ** 2)
        sp = build_spline(xs, vals, degree=3)
        assert np.allclose(sp(xs), vals, atol=1e-12)
        mid = 0.5 * (xs[:-1] + xs[1:])
        err = np.abs(sp(mid) - np.exp(-mid ** 2))
        # the natural end conditions cost accuracy in the outermost cells
        assert np.max(err[1:-1]) < 1e-3
        assert np.max(err) < 5e-3

    def test_validation(self):
        with pytest.raises(InputError):
            build_spline([0.0, 0.0], [1.0, 1.0])
        with pytest.raises(InputError):
            build_spline([0.0, 1.0], [1.0, 1.0], degree=2)
        with pytest.raises(InputError):
            build_spline([0.0, 1.0, 2.0], [1.0, 1.0, 0.0], degree=3)


def segment_moments(widths, z, mmax):
    """J_m = int_0^w t^m e^{zt} dt, m = 0..mmax, segment by segment: the
    series w^{m+1} sum_j (zw)^j/(j!(m+j+1)) where |zw| <= 0.8, else the
    forward recursion J_m = (w^m e^{zw} - m J_{m-1})/z."""
    zw = z * widths
    small = np.abs(zw) <= 0.8
    expzw = np.exp(zw)
    acc = np.zeros((mmax + 1,) + zw.shape, dtype=complex)
    term = np.ones_like(zw)
    for j in range(26):
        if j:
            term = term * zw / j
        for m in range(mmax + 1):
            acc[m] += term / (m + j + 1)
    rec = [(expzw - 1.0) / z]
    wm = np.ones_like(widths)
    for m in range(1, mmax + 1):
        wm = wm * widths
        rec.append((wm * expzw - m * rec[-1]) / z)
    return [np.where(small, widths ** (m + 1) * acc[m], rec[m])
            for m in range(mmax + 1)]


class TestExpMomentIntegrals:
    """The per-segment reference of TestBreakpointSum against quadrature."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    @pytest.mark.parametrize("u", [0.0, 1.0, 4.0, 20.0])
    @pytest.mark.parametrize("w", [0.05, 0.3, 0.79, 0.81, 2.5])
    def test_against_quadrature_both_branches(self, u, w):
        z = 1j * u - 1.0
        got = segment_moments(np.array([w]), np.array([[z]]), 5)
        for m in range(6):
            want = quad_complex(lambda t: t ** m * np.exp(z * t), 0.0, w,
                                epsabs=1e-14, epsrel=1e-13)
            assert abs(got[m][0, 0] - want) < 1e-13 * max(1.0, abs(want))


def per_segment_transforms(spline, u, ks):
    """F_k(u) as a sum of exact per-segment integrals of the local
    polynomial (t + a)^k q(t) against e^{z(t + a)}, z = iu - 1."""
    breaks = spline._breaks
    asc = spline._ascending
    lefts = breaks[:-1]
    widths = np.diff(breaks)
    d = asc.shape[0] - 1
    out = {}
    for k in ks:
        q = np.zeros((d + k + 1, asc.shape[1]))
        for r in range(k + 1):
            q[r : r + d + 1] += math.comb(k, r) * lefts ** (k - r) * asc
        vals = np.empty(u.shape, dtype=complex)
        for lo in range(0, u.size, 32):
            z = (1j * u[lo : lo + 32] - 1.0)[:, None]
            J = segment_moments(widths, z, d + k)
            vals[lo : lo + 32] = np.sum(
                sum(q[m] * J[m] for m in range(d + k + 1)) * np.exp(z * lefts),
                axis=1)
        out[k] = vals
    return out


def relative_to_max(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestBreakpointSum:
    """The breakpoint sum against the per-segment reference."""

    @pytest.mark.parametrize("n, seed", [(100, 1), (256, 3)])
    def test_linear_chain_on_production_grid(self, bench_model, n, seed):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, n, 0.01,
                                         STRIKE_LAW, seed=seed)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = FrequencyGrid(cutoff=float(n), points=8192).u
        # segments on both sides of the reference's series radius |zw| = 0.8
        zw = np.abs(1j * u - 1.0)[:, None] * np.diff(sp._breaks)
        assert zw.min() < 0.8 < zw.max()
        got = _weighted_transforms(sp, u, (0, 1, 2))
        want = per_segment_transforms(sp, u, (0, 1, 2))
        for k in (0, 1, 2):
            assert relative_to_max(got[k], want[k]) < 1e-11

    @pytest.mark.parametrize("degree", [1, 3])
    @pytest.mark.parametrize("pad", [0.0, None])
    def test_hand_widths_around_series_radius(self, degree, pad):
        # widths 0.05 .. 2.5 put |zw| on both sides of 0.8 at every u; the
        # cubic's low-frequency cancellation (below) measured 6.6e-12 here
        knots = np.cumsum([0.0, 0.05, 0.3, 0.79, 0.81, 2.5]) - 1.5
        values = np.array([0.2, 0.5, -0.1, 0.4, 0.3, 0.05])
        sp = build_spline(knots, values, degree=degree, pad=pad)
        u = np.array([0.0, 1.0, 4.0, 20.0, -4.0])
        got = _weighted_transforms(sp, u, (0, 1, 2))
        want = per_segment_transforms(sp, u, (0, 1, 2))
        tol = 1e-13 if degree == 1 else 3e-11
        for k in (0, 1, 2):
            assert relative_to_max(got[k], want[k]) < tol

    def test_cubic_chain_loses_digits_only_at_low_frequency(self, bench_model):
        # Near u = 0 the large third-derivative jumps of a noisy cubic spline
        # cancel in the sum.  Measured on such chains (n = 100, 1 % noise,
        # seeds 1, 2, 3, 7), relative to max|F_k|: at most 2.3e-10, 5.5e-9,
        # 7.5e-8 for k = 0, 1, 2 over all nodes, and 5.9e-11, 1.1e-9, 8.2e-9
        # over |u| >= 1; the tolerances are for seed 1.
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=3)
        u = FrequencyGrid(cutoff=100.0, points=8192).u
        got = _weighted_transforms(sp, u, (0, 1, 2))
        want = per_segment_transforms(sp, u, (0, 1, 2))
        away = np.abs(u) >= 1.0
        for k, tol, tol_away in ((0, 3e-10, 1e-10), (1, 1.5e-8, 3e-9),
                                 (2, 2e-7, 2.5e-8)):
            assert relative_to_max(got[k], want[k]) < tol
            err_away = np.max(np.abs(got[k] - want[k])[away])
            assert err_away < tol_away * np.max(np.abs(want[k]))


def transform_at(sp, k, u):
    """F_k at one frequency, read off the breakpoint sum."""
    return _weighted_transforms(sp, np.array([u], dtype=float), (k,))[k][0]


def phi_at(sp, u):
    """phi~ at one frequency, unguarded."""
    return spline_spectra(sp, MATURITY, np.array([u], dtype=float))[0][0]


class TestWeightedTransform:
    def test_flat_segment_closed_form(self):
        sp = build_spline([0.0, 1.0], [1.0, 1.0], degree=1, pad=0.0)
        for u in (0.0, 0.7, 3.0, -2.0):
            z = 1j * u - 1.0
            want = (np.exp(z) - 1.0) / z
            assert abs(transform_at(sp, 0, u) - want) < 1e-13

    def test_narrow_flat_segment_series_branch(self):
        # width 0.25 keeps |z w| <= 0.8 for small u, exercising the series
        sp = build_spline([0.0, 0.25], [1.0, 1.0], degree=1, pad=0.0)
        for u in (0.0, 1.0, 2.0):
            z = 1j * u - 1.0
            w = 0.25
            want0 = (np.exp(z * w) - 1.0) / z
            want1 = w * np.exp(z * w) / z - (np.exp(z * w) - 1.0) / z ** 2
            assert abs(transform_at(sp, 0, u) - want0) < 1e-14
            assert abs(transform_at(sp, 1, u) - want1) < 1e-14

    def test_tent_against_adaptive_quadrature(self):
        sp = build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], degree=1, pad=0.0)
        for k in (0, 1, 2):
            for u in (0.0, 3.0, 10.0):
                got = transform_at(sp, k, u)
                want = quad_complex(
                    lambda t: t ** k * sp(t) * np.exp((1j * u - 1.0) * t),
                    0.0, 2.0, points=[1.0], epsabs=1e-12, epsrel=1e-12,
                )
                assert abs(got - want) < 1e-9

    def test_quadrature_refinement_changes_nothing(self):
        sp = build_spline([0.0, 1.0, 2.0], [0.0, 1.0, 0.0], degree=1, pad=0.0)
        u = 1.0
        f = lambda t: t * sp(t) * np.exp((1j * u - 1.0) * t).real  # noqa: E731
        coarse = quad(f, 0.0, 2.0, points=[1.0], epsabs=1e-10)[0]
        fine = quad(f, 0.0, 2.0, points=[1.0], epsabs=1e-14, limit=400)[0]
        assert abs(coarse - fine) < 1e-12
        got = transform_at(sp, 1, u).real
        assert abs(got - fine) < 1e-12

    def test_realistic_chain_against_quadrature(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 40, 0.0,
                                         STRIKE_LAW, seed=2)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        lo, hi = sp.support
        interior = list(sp._breaks[1:-1])
        for k in (0, 1, 2):
            for u in (0.0, 3.0, 10.0):
                got = transform_at(sp, k, u)
                want = quad_complex(
                    lambda t: t ** k * sp(t) * np.exp((1j * u - 1.0) * t),
                    lo, hi, points=interior, limit=200,
                    epsabs=1e-12, epsrel=1e-12,
                )
                assert abs(got - want) < 1e-9

    def test_cubic_chain_against_quadrature(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 12, 0.0,
                                         STRIKE_LAW, seed=2)
        sp = build_spline(chain.xs, chain.prices, degree=3)
        lo, hi = sp.support
        got = transform_at(sp, 0, 3.0)
        want = quad_complex(
            lambda t: sp(t) * np.exp((3j - 1.0) * t),
            lo, hi, points=list(sp._breaks[1:-1]), limit=200,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert abs(got - want) < 1e-9

    def test_hermitian_symmetry(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 30, 0.01,
                                         STRIKE_LAW, seed=9)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = np.array([0.3, 1.7, 6.0, 19.0])
        plus = _weighted_transforms(sp, u, (0, 1, 2))
        minus = _weighted_transforms(sp, -u, (0, 1, 2))
        for k in (0, 1, 2):
            assert np.max(np.abs(minus[k] - np.conj(plus[k]))) < 1e-12


# ---------------------------------------------------------------------------
# spectral estimators


class TestPhiTilde:
    def test_value_at_zero_is_exactly_one(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 20, 0.01,
                                         STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        assert phi_at(sp, 0.0) == 1.0 + 0.0j

    def test_dense_noiseless_chain_recovers_cf(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 10_000,
                                         0.0, STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = np.linspace(-20.0, 20.0, 81)
        got = spline_spectra(sp, MATURITY, u)[0]
        want = np.exp(MATURITY * characteristic_exponent(bench_model, u))
        assert np.max(np.abs(got - want)) <= 1e-3

    def test_pure_diffusion_chain(self):
        model = brownian_model(0.1)
        chain = generate_synthetic_chain(model, MATURITY, RATE, 2000, 0.0,
                                         STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        got = phi_at(sp, 5.0)
        want = np.exp(MATURITY * characteristic_exponent(model, 5.0))
        assert abs(got - want) < 1e-3


class TestPsiTildeDerivatives:
    def test_dense_noiseless_curvature(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 10_000,
                                         0.0, STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = np.array([0.0, 2.0, 8.0])
        psi2 = spline_spectra(sp, MATURITY, u)[3]
        want = exponent_curvature(bench_model, u)
        assert np.max(np.abs(psi2 - want)) <= 5e-4

    def test_pure_diffusion_curvature_is_constant(self):
        model = brownian_model(0.1)
        chain = generate_synthetic_chain(model, MATURITY, RATE, 4000, 0.0,
                                         STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        _, _, psi1, psi2 = spline_spectra(sp, MATURITY, np.array([0.0, 1.0, 3.0]))
        assert np.max(np.abs(psi2 - (-0.01))) < 1e-4
        # psi'(0) = i*gamma for the diffusion
        assert abs(psi1[0] - (-0.005j)) < 1e-4

    def test_trust_guard_zeroes_noisy_high_frequencies(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=7)
        profile = estimate_noise_profile(chain)
        scale = profile.l2_weighted / math.sqrt(chain.n)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        _, _, psi1, psi2 = spline_spectra(sp, MATURITY, np.array([5.0, 60.0]),
                                          noise_scale=scale)
        assert psi2[0] != 0 and psi1[0] != 0
        assert psi2[1] == 0 and psi1[1] == 0

    def test_guard_inactive_at_zero_frequency(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=7)
        profile = estimate_noise_profile(chain)
        scale = profile.l2_weighted / math.sqrt(chain.n)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        _, trusted, _, psi2 = spline_spectra(sp, MATURITY, np.array([0.0]),
                                             noise_scale=scale)
        assert trusted[0] and psi2[0] != 0 and np.isfinite(psi2[0])

    def test_hermitian_curvature(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 60, 0.01,
                                         STRIKE_LAW, seed=3)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = np.array([0.5, 2.0, 9.0])
        plus = spline_spectra(sp, MATURITY, u)[3]
        minus = spline_spectra(sp, MATURITY, -u)[3]
        assert np.max(np.abs(minus - np.conj(plus))) < 1e-10

    def test_error_decreases_with_chain_size(self, bench_model):
        u = np.linspace(-10.0, 10.0, 41)
        want = exponent_curvature(bench_model, u)
        sups = []
        for n in (200, 800, 3200):
            chain = generate_synthetic_chain(bench_model, MATURITY, RATE, n,
                                             0.0, STRIKE_LAW, seed=1)
            sp = build_spline(chain.xs, chain.prices, degree=1)
            psi2 = spline_spectra(sp, MATURITY, u)[3]
            sups.append(np.max(np.abs(psi2 - want)))
        assert sups[0] > sups[1] > sups[2]

    def test_packaged_estimator(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 200, 0.0,
                                         STRIKE_LAW, seed=1)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        grid = FrequencyGrid(cutoff=8.0, points=16)
        spectra = compute_chain_spectra(chain, grid, degree=1)
        direct = spline_spectra(sp, MATURITY, grid.u)[3]
        assert spectra.horizon == MATURITY
        assert np.array_equal(spectra.psi2, direct)

    def test_rejects_nonpositive_maturity(self):
        sp = build_spline([0.0, 1.0], [1.0, 1.0], degree=1, pad=0.0)
        for maturity in (0.0, -0.25):
            with pytest.raises(InputError):
                spline_spectra(sp, maturity, np.array([1.0]))


# ---------------------------------------------------------------------------
# noise profile


class TestNoiseProfile:
    def test_uniform_design(self):
        n = 2000
        xs = (np.arange(n) + 0.5) / n  # uniform on [0, 1]
        chain = OptionChain(maturity=MATURITY, rate=RATE, xs=xs,
                            prices=np.full(n, 0.05),
                            noise_levels=np.full(n, 0.02))
        profile = estimate_noise_profile(chain)
        mid = np.linspace(0.2, 0.8, 50)
        assert np.max(np.abs(profile.density(mid) - 1.0)) < 0.1
        assert np.max(np.abs(profile.rho(mid) - 0.02)) < 0.002

    def test_gaussian_design_density(self):
        n = 3000
        xs = ndtri(np.arange(1, n + 1) / (n + 1))
        chain = OptionChain(maturity=MATURITY, rate=RATE, xs=xs,
                            prices=np.zeros(n), noise_levels=np.full(n, 0.01))
        profile = estimate_noise_profile(chain)
        mid = np.linspace(ndtri(0.1), ndtri(0.9), 60)
        true_pdf = np.exp(-mid ** 2 / 2) / math.sqrt(2 * math.pi)
        assert np.max(np.abs(profile.density(mid) / true_pdf - 1.0)) < 0.05

    def test_zero_noise_gives_zero_profile(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 50, 0.0,
                                         STRIKE_LAW, seed=1)
        profile = estimate_noise_profile(chain)
        assert profile.sup_norms == (0.0, 0.0, 0.0)
        assert profile.l2_weighted == 0.0

    def test_benchmark_chain_noise_amplitude(self, bench_model):
        # one-percent relative noise on 100 quotes: the weighted L2 norm of
        # rho lands near 3e-4, so the trust guard keeps |u| up to ~25-30
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=7)
        profile = estimate_noise_profile(chain)
        assert 1e-4 < profile.l2_weighted < 8e-4
        assert profile.sup_norms[0] > 0
        with np.errstate(all="ignore"):
            pass
        scale = profile.l2_weighted / math.sqrt(chain.n)
        trust_edge = math.sqrt(1.0 / scale)  # crude: |phi|~1 near u=0
        assert trust_edge > 10

    def test_needs_enough_quotes(self):
        chain = OptionChain(maturity=MATURITY, rate=RATE,
                            xs=np.array([0.0, 0.1]),
                            prices=np.array([0.02, 0.01]),
                            noise_levels=np.array([0.0, 0.0]))
        with pytest.raises(InputError):
            estimate_noise_profile(chain)


# ---------------------------------------------------------------------------
# chain container, CSV, spectra bundle


class TestChainIO:
    def test_roundtrip(self, tmp_path, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 17, 0.01,
                                         STRIKE_LAW, seed=4)
        path = tmp_path / "chain.csv"
        write_chain_csv(path, chain)
        back = read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert np.array_equal(back.xs, chain.xs)
        assert np.array_equal(back.prices, chain.prices)
        assert np.array_equal(back.noise_levels, chain.noise_levels)

    def test_strike_format(self, tmp_path):
        spot = 100.0
        xs = np.array([-0.1, 0.0, 0.2])
        strikes = spot * np.exp(xs + RATE * MATURITY)
        lines = ["strike,price,noise"] + [
            f"{k},{p},{d}" for k, p, d in zip(strikes, [0.03, 0.02, 0.004], [0.0] * 3)
        ]
        path = tmp_path / "strikes.csv"
        path.write_text("\n".join(lines) + "\n")
        chain = read_chain_csv(path, maturity=MATURITY, rate=RATE, spot=spot)
        assert np.allclose(chain.xs, xs, atol=1e-12)

    def test_strike_format_needs_spot(self, tmp_path):
        path = tmp_path / "strikes.csv"
        path.write_text("strike,price,noise\n100.0,0.02,0.0\n")
        with pytest.raises(ChainFormatError) as err:
            read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert err.value.line == 1

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("strike,noise,price\n1,2,3\n")
        with pytest.raises(ChainFormatError) as err:
            read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert err.value.line == 1

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,price,noise\n0.0,0.02,0.0\n0.1,oops,0.0\n")
        with pytest.raises(ChainFormatError) as err:
            read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert err.value.line == 3

    def test_short_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,price,noise\n0.0,0.02\n")
        with pytest.raises(ChainFormatError) as err:
            read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert err.value.line == 2

    def test_unsorted_rows_are_sorted(self, tmp_path):
        path = tmp_path / "chain.csv"
        path.write_text("x,price,noise\n0.2,0.01,0.0\n-0.1,0.03,0.0\n")
        chain = read_chain_csv(path, maturity=MATURITY, rate=RATE)
        assert np.array_equal(chain.xs, [-0.1, 0.2])
        assert np.array_equal(chain.prices, [0.03, 0.01])

    def test_chain_validation(self):
        with pytest.raises(InputError):
            OptionChain(maturity=MATURITY, rate=RATE, xs=np.array([0.1, 0.1]),
                        prices=np.zeros(2), noise_levels=np.zeros(2))
        with pytest.raises(InputError):
            OptionChain(maturity=0.0, rate=RATE, xs=np.array([0.1]),
                        prices=np.zeros(1), noise_levels=np.zeros(1))
        with pytest.raises(InputError):
            OptionChain(maturity=MATURITY, rate=RATE, xs=np.array([0.1]),
                        prices=np.zeros(1), noise_levels=np.array([-1.0]))


class TestChainSpectra:
    def test_bundle_consistency(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                         STRIKE_LAW, seed=7)
        grid = FrequencyGrid(cutoff=40.0, points=2 ** 10)
        spectra = compute_chain_spectra(chain, grid, degree=1)
        assert spectra.n_obs == 100
        assert spectra.noise_scale > 0
        assert spectra.trusted.any() and not spectra.trusted.all()
        assert np.all(spectra.psi2[~spectra.trusted] == 0)
        sp = build_spline(chain.xs, chain.prices, degree=1)
        u = grid.u
        f0 = _weighted_transforms(sp, u, (0,))[0]
        assert np.array_equal(spectra.phi, 1.0 - u * (u + 1j) * f0)

    def test_noiseless_bundle_trusts_everything(self, bench_model):
        chain = generate_synthetic_chain(bench_model, MATURITY, RATE, 50, 0.0,
                                         STRIKE_LAW, seed=7)
        grid = FrequencyGrid(cutoff=20.0, points=2 ** 9)
        spectra = compute_chain_spectra(chain, grid, degree=1)
        assert spectra.noise_scale == 0.0
        assert spectra.sup_norms == (0.0, 0.0, 0.0)
        assert spectra.trusted.all()


@pytest.fixture(scope="module")
def noisy_chain(bench_model):
    return generate_synthetic_chain(bench_model, MATURITY, RATE, 100, 0.01,
                                    STRIKE_LAW, seed=7)


class TestHermitianSpectra:
    """Spectra are tabulated on u > 0 and their negative half is defined as
    the conjugate; the closed forms must agree with that at -u."""

    @given(u=st.lists(st.floats(1e-6, 500.0), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_mirror_is_conjugate(self, noisy_chain, u):
        u = np.array(u)
        both = np.concatenate([u, -u])
        spline = build_spline(noisy_chain.xs, noisy_chain.prices, degree=1)
        f = _weighted_transforms(spline, both, (0, 1, 2))
        for k in (0, 1, 2):
            pos, neg = f[k][: u.size], f[k][u.size :]
            np.testing.assert_allclose(neg, np.conj(pos), rtol=1e-12,
                                       atol=1e-15 * np.max(np.abs(pos)))
        noise_scale = (estimate_noise_profile(noisy_chain).l2_weighted
                       / math.sqrt(noisy_chain.n))
        _, trusted, _, psi2 = spline_spectra(spline, MATURITY, both, noise_scale)
        np.testing.assert_array_equal(trusted[u.size :], trusted[: u.size])
        pos, neg = psi2[: u.size], psi2[u.size :]
        np.testing.assert_allclose(neg, np.conj(pos), rtol=1e-12,
                                   atol=1e-15 * max(np.max(np.abs(pos)), 1.0))
