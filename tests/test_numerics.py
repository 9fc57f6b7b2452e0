import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import hermitian_full_sum
from levyq.errors import InputError, NoSolutionError
from levyq.inversion import tail_nodes
from levyq.models import tail_integral
from levyq import numerics
from levyq.numerics import FrequencyGrid, bracketed_root, inverse_fourier


class TestFrequencyGrid:
    def test_symmetric_about_zero(self):
        # u holds the positive half of a layout symmetric about 0 that
        # omits 0; mirrored, it is the whole symmetric grid
        for offset in (False, True):
            g = FrequencyGrid(cutoff=3.0, points=256, offset=offset)
            u = g.u
            assert u.size == 128 and np.all(u > 0)
            full = np.concatenate([-u[::-1], u])
            assert np.allclose(full + full[::-1], 0.0, atol=1e-14)
            assert np.allclose(np.diff(full), g.spacing, rtol=1e-12)

    def test_span_relation(self):
        g = FrequencyGrid(cutoff=7.0, points=1024)
        assert g.spacing * (g.points - 1) == pytest.approx(2 * g.cutoff)
        assert g.u[-1] == 7.0
        assert g.u[0] == pytest.approx(g.spacing / 2, rel=1e-12)
        # the same node values as the positive half of the symmetric layout
        full = np.linspace(-7.0, 7.0, 1024)
        assert np.array_equal(g.u, full[full > 0])

    def test_offset_is_midpoint_layout(self):
        g = FrequencyGrid(cutoff=1.0, points=8, offset=True)
        assert g.spacing == pytest.approx(0.25)
        assert np.allclose(g.u, [0.125, 0.375, 0.625, 0.875])
        assert np.min(np.abs(g.u)) == pytest.approx(g.spacing / 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InputError):
            FrequencyGrid(cutoff=-1.0, points=64)
        with pytest.raises(InputError):
            FrequencyGrid(cutoff=1.0, points=100)  # not a power of two
        # the window 2 x cutoff overflows: the nodes would be inf and nan
        for cutoff in (1e308, np.float64(1e308), math.inf):
            with pytest.raises(InputError, match="not finite"):
                FrequencyGrid(cutoff=cutoff, points=64)

    def test_weights_sum_to_window(self):
        for offset in (False, True):
            g = FrequencyGrid(cutoff=2.0, points=512, offset=offset)
            assert np.sum(g.weights) == pytest.approx(4.0, rel=1e-12)

    @given(k=st.integers(min_value=3, max_value=12), cutoff=st.floats(0.1, 100))
    @settings(max_examples=30, deadline=None)
    def test_grid_invariants_property(self, k, cutoff):
        g = FrequencyGrid(cutoff=cutoff, points=2 ** k)
        u = g.u
        assert u.size == 2 ** (k - 1) == g.weights.size
        assert np.all(np.diff(u) > 0)
        assert u[0] > 0 and u[-1] == cutoff
        assert u[0] == pytest.approx(g.spacing / 2, rel=1e-9)


class TestInverseFourier:
    def test_gaussian_pair_at_zero(self):
        # spectrum e^{-u^2/2} inverts to the standard normal density
        g = FrequencyGrid(cutoff=12.0, points=2 ** 12)
        out = inverse_fourier(lambda u: np.exp(-0.5 * u ** 2), g, [0.0])
        assert out[0].real == pytest.approx(1 / math.sqrt(2 * math.pi), abs=1e-6)
        assert abs(out[0].imag) < 1e-12

    def test_zero_spectrum(self):
        g = FrequencyGrid(cutoff=1.0, points=64)
        out = inverse_fourier(lambda u: np.zeros_like(u), g, np.linspace(-2, 2, 9))
        assert np.all(out == 0)

    def test_linearity(self):
        g = FrequencyGrid(cutoff=5.0, points=512)
        f = lambda u: np.exp(-u ** 2)
        h = lambda u: 1.0 / (1.0 + u ** 2)
        x = np.linspace(-1, 1, 11)
        combo = inverse_fourier(lambda u: 2.0 * f(u) - 3.0 * h(u), g, x)
        parts = 2.0 * inverse_fourier(f, g, x) - 3.0 * inverse_fourier(h, g, x)
        assert np.allclose(combo, parts, rtol=0, atol=1e-14)

    def test_hermitian_spectrum_gives_real_output(self):
        # e^{-u^2+iu} inverts to the shifted Gaussian e^{-(x-1)^2/4} / (2 sqrt(pi))
        g = FrequencyGrid(cutoff=8.0, points=1024)
        spectrum = lambda u: np.exp(-u ** 2) * (np.cos(u) + 1j * np.sin(u))
        x = np.linspace(-3, 3, 21)
        out = inverse_fourier(spectrum, g, x)
        assert out.dtype == np.float64
        want = np.exp(-0.25 * (x - 1.0) ** 2) / (2.0 * math.sqrt(math.pi))
        assert np.max(np.abs(out - want)) < 1e-10 * np.max(want)

    def test_grid_refinement_converges(self):
        x = np.linspace(-2, 2, 17)
        vals = []
        for k in (10, 11, 12):
            g = FrequencyGrid(cutoff=10.0, points=2 ** k)
            vals.append(inverse_fourier(lambda u: np.exp(-0.5 * u ** 2), g, x))
        assert np.max(np.abs(vals[2] - vals[1])) < np.max(np.abs(vals[1] - vals[0])) + 1e-12
        assert np.max(np.abs(vals[2] - vals[1])) < 1e-8

    def test_accepts_precomputed_array(self):
        g = FrequencyGrid(cutoff=3.0, points=128)
        arr = np.exp(-g.u ** 2)
        a = inverse_fourier(arr, g, [0.5])
        b = inverse_fourier(lambda u: np.exp(-u ** 2), g, [0.5])
        assert np.allclose(a, b)


class TestFactoredTransform:
    """Gaussian gridding of random (not Hermitian) half-grid data against
    the direct complex sum over its Hermitian extension, and each column of
    a batch against the same column alone (bit for bit)."""

    direct = staticmethod(hermitian_full_sum)

    @staticmethod
    def max_rel(got, want):
        return np.max(np.abs(got - want)) / np.max(np.abs(want))

    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("points", [16, 64, 1024, 8192])
    def test_matches_direct_sum(self, offset, points):
        rng = np.random.default_rng(points + offset)
        grid = FrequencyGrid(cutoff=0.05 * points, points=points, offset=offset)
        half = points // 2
        g = rng.standard_normal((half, 3)) + 1j * rng.standard_normal((half, 3))
        x = rng.uniform(-5.0, 5.0, 300)
        want = self.direct(g, grid, x)
        batched = inverse_fourier(g, grid, x)
        assert batched.shape == (300, 3)
        assert self.max_rel(batched, want) <= 1e-12
        for col in range(3):
            single = inverse_fourier(g[:, col], grid, x)
            assert single.shape == (300,)
            assert self.max_rel(single, want[:, col]) <= 1e-12
            # the column inside the batch against the same column alone
            assert np.array_equal(batched[:, col], single)

    def test_mc_table_shape(self):
        # 13 bandwidths on the default master grid |u| <= n = 100 at 8,192
        # points, inverted at -+tail_nodes(5.0), as tail_estimates does
        rng = np.random.default_rng(13)
        grid = FrequencyGrid(cutoff=100.0, points=8192)
        g = (rng.standard_normal((4096, 13))
             + 1j * rng.standard_normal((4096, 13)))
        nodes = tail_nodes(5.0)
        x = np.concatenate([-nodes[::-1], nodes])
        got = inverse_fourier(g, grid, x)
        # the direct sum in chunks of targets, each a (128 x 8,192) matrix
        want = np.concatenate([self.direct(g, grid, x[lo : lo + 128])
                               for lo in range(0, x.size, 128)])
        assert self.max_rel(got, want) <= 1e-12
        for col in (0, 6, 12):
            single = inverse_fourier(g[:, col], grid, x)
            assert np.array_equal(got[:, col], single)

    @given(k=st.integers(min_value=1, max_value=11),
           cutoff=st.floats(0.5, 200.0), offset=st.booleans(),
           columns=st.integers(1, 13), seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_extension_property(self, k, cutoff, offset, columns,
                                          seed):
        # du * x reaches 600 rad at k = 1, far past pi: gridding wraps it
        rng = np.random.default_rng(seed)
        grid = FrequencyGrid(cutoff=cutoff, points=2 ** k, offset=offset)
        g = (rng.standard_normal((grid.u.size, columns))
             + 1j * rng.standard_normal((grid.u.size, columns)))
        x = rng.uniform(-3.0, 3.0, 40)
        want = self.direct(g, grid, x)
        assert self.max_rel(inverse_fourier(g, grid, x), want) <= 1e-12

    def test_target_order_preserved(self):
        grid = FrequencyGrid(cutoff=40.0, points=2048, offset=True)
        g = np.exp(-0.01 * grid.u ** 2) * (1.0 + 0.3j * np.sin(grid.u))
        x = np.array([2.5, -1.0, 2.5, 0.0, -4.75, 0.3, -1.0, 5.0])
        out = inverse_fourier(g, grid, x)
        assert self.max_rel(out, self.direct(g, grid, x)) <= 1e-12
        # repeated targets give the same value; shuffling permutes the output
        tol = 1e-14 * np.max(np.abs(out))
        np.testing.assert_allclose(out[[2, 6]], out[[0, 1]], rtol=0, atol=tol)
        perm = np.random.default_rng(3).permutation(x.size)
        np.testing.assert_allclose(inverse_fourier(g, grid, x[perm]), out[perm],
                                   rtol=0, atol=tol)

    def test_one_fft_and_one_gather_row_per_distinct_magnitude(
            self, monkeypatch):
        # whatever the signs of the targets, one FFT call per transform,
        # and the sparse gather holds one row per distinct |x|, in blocks
        # of at most _MAX_BATCH weights
        ffts, gathers = [], []
        for name in ("fft", "rfft"):
            def counted(*args, _f=getattr(np.fft, name), **kwargs):
                ffts.append(name)
                return _f(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        def recorded(*args, _f=numerics.sparse.csr_array, **kwargs):
            matrix = _f(*args, **kwargs)
            gathers.append(matrix.shape[0])
            return matrix
        monkeypatch.setattr(numerics.sparse, "csr_array", recorded)
        grid = FrequencyGrid(cutoff=40.0, points=2048)
        g = np.exp(-0.01 * grid.u ** 2) * (1.0 + 0.3j * np.sin(grid.u))
        # 4,097 targets, 2,049 distinct |x|: three blocks of 1,024 rows
        many = np.linspace(-5.0, 5.0, 2 * numerics._MAX_BATCH // 16 + 1)
        for x in ([0.5, 1.5], [-0.5, -1.5], [-1.5, 0.5, 1.5, -0.5, 0.0, 2.0],
                  many):
            ffts.clear()
            gathers.clear()
            inverse_fourier(np.stack([g, 2.0 * g], axis=1), grid, x)
            assert len(ffts) == 1
            assert sum(gathers) == np.unique(np.abs(x)).size

    def test_mixed_targets_match_single_targets_bit_for_bit(self):
        # unsorted, repeated and of both signs in one call: each value is
        # the one-target call's, and F_g(-x) is F_{conj g}(x) exactly
        rng = np.random.default_rng(7)
        grid = FrequencyGrid(cutoff=100.0, points=8192)
        g = (rng.standard_normal((grid.u.size, 3))
             + 1j * rng.standard_normal((grid.u.size, 3)))
        x = np.array([2.5, -1.0, 2.5, 0.0, -4.75, 0.3, -1.0, 5.0, -2.5, 1.0,
                      -0.0, 40.0, -40.0])
        mixed = inverse_fourier(g, grid, x)
        for i, target in enumerate(x):
            assert np.array_equal(mixed[i],
                                  inverse_fourier(g, grid, [target])[0])
        mirrored = inverse_fourier(np.conj(g), grid, -x)
        assert np.array_equal(mixed, mirrored)

    def test_empty_targets(self):
        grid = FrequencyGrid(cutoff=1.0, points=64)
        assert inverse_fourier(np.ones(32), grid, []).shape == (0,)
        assert inverse_fourier(np.ones((32, 3)), grid, []).shape == (0, 3)

    @pytest.mark.parametrize("x, bad", [([math.nan, 1.0], math.nan),
                                        ([math.inf], math.inf),
                                        ([0.5, -math.inf], -math.inf),
                                        ([1.0, -1e307], -1e307)])
    def test_rejects_non_finite_targets(self, x, bad):
        # refused before the spectrum is evaluated; at 1e307 the grid
        # position du |x| R / (2 pi) overflows
        evaluated = []

        def spectrum(u):
            evaluated.append(u)
            return np.ones_like(u)

        grid = FrequencyGrid(cutoff=100.0, points=64)
        with pytest.raises(InputError, match="finite") as info:
            inverse_fourier(spectrum, grid, x)
        assert str(bad) in str(info.value)
        assert not evaluated

    def test_rejects_targets_of_two_dimensions(self):
        grid = FrequencyGrid(cutoff=10.0, points=64)
        with pytest.raises(InputError, match="one-dimensional"):
            inverse_fourier(np.ones(32), grid, [[0.1, 0.2], [0.3, -0.4]])

    def test_rejects_misaligned_spectrum(self):
        grid = FrequencyGrid(cutoff=1.0, points=64)
        # 64 points hold 32 positive nodes
        with pytest.raises(InputError):
            inverse_fourier(np.ones(64), grid, [0.0])
        with pytest.raises(InputError):
            inverse_fourier(np.ones((32, 2, 2)), grid, [0.0])


class TestBracketedRoot:
    def test_linear(self):
        assert bracketed_root(lambda t: t - 1.0, 0.0, 2.0, tol=1e-10) == pytest.approx(1.0, abs=1e-9)

    def test_exponential_half_level(self):
        root = bracketed_root(lambda t: math.exp(-t) - 0.5, 0.0, 2.0, tol=1e-10)
        assert root == pytest.approx(math.log(2.0), abs=1e-9)

    def test_benchmark_tail_level(self, bench_jumps):
        # right-tail intensity hits 1.5 at the frozen magnitude 0.067233
        f = lambda t: tail_integral(bench_jumps, t) - 1.5
        root = bracketed_root(f, 0.01, 1.0, tol=1e-9)
        assert root == pytest.approx(0.067233, abs=1e-4)

    def test_no_bracket_raises(self):
        with pytest.raises(NoSolutionError):
            bracketed_root(lambda t: t + 10.0, 0.0, 1.0)

    @given(root=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_recovers_cubic_root(self, root):
        f = lambda t: (t - root) ** 3
        found = bracketed_root(f, root - 1.5, root + 2.5, tol=1e-9)
        assert found == pytest.approx(root, abs=1e-8)
