"""Inversion stage: density, tail function, and quantile extraction.

Oracles
-------
* Exponential-jump compound Poisson (unit intensity and rate): curvature
  psi2(u) = -2 (1 - iu)^{-3}, density nu(t) = e^{-t} (t > 0), tail
  N(t) = e^{-t}.  The estimator integrates the tail only to x_max, so its
  target is the truncated tail e^{-t} - e^{-x_max}; with x_max = 5 the
  truncation floor e^{-5} ~ 6.7e-3 dominates the kernel bias for small h,
  which is why the bias-monotonicity check compares against the truncated
  truth (tempered benchmark models carry < 1e-10 beyond 5, so the floor is
  specific to this deliberately fat-tailed fixture).
* Pure-Gaussian curvature psi2 = -sigma^2: the density estimate must equal
  sigma^2 t^{-2} K_h(t) with K_h evaluated by adaptive quadrature of the
  kernel profile (scipy, independent of the package's transform path).
* C_K = int |x K(x)| dx for the c = 0.5 flat-top kernel, measured once on
  a dense grid out to |x| = 300 (integrand decays like x^{-3}): 5.1055.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import (TailOracle, as_table, curvature_table, density_at,
                      hermitian_full_sum, one_quantile, oracles, tail_at,
                      tail_estimates)
from levyq.errors import InputError, NumericalError
import levyq.inversion
from levyq.inversion import (
    _MAX_SPECTRAL_POINTS,
    FIRST_TAIL_NODE,
    GRID_MARGIN,
    X_MAX_DEFAULT,
    TailInversion,
    TailTable,
    grid_points,
    tail_nodes,
    tail_quantiles,
)
from levyq.kernels import flat_top_kernel
from levyq.numerics import FrequencyGrid

FLAT = flat_top_kernel(0.5)
C_K = 5.106  # measured ||x K||_L1, see module docstring


def psi2_cp(u):
    return -2.0 / (1.0 - 1j * np.asarray(u, dtype=complex)) ** 3


def psi2_mirrored(u):
    return psi2_cp(-np.asarray(u))


class TestDensity:
    def test_cp_density_converges_at_one(self):
        errs = []
        for h in (0.2, 0.1, 0.05):
            d = density_at(psi2_cp, FLAT, h, 1.0)
            errs.append(abs(d - np.exp(-1.0)))
        assert errs[-1] < 2e-2
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-3

    def test_gaussian_curvature_gives_smoothed_dirac(self):
        # psi2 = -sigma^2 must produce sigma^2 t^{-2} K_h(t) exactly
        sigma2, t = 0.04, 1.0
        for h in (0.5, 0.2, 0.1):
            d = density_at(
                lambda u: np.full(np.shape(u), -sigma2, dtype=complex),
                FLAT, h, t)
            Kh = quad(lambda u: np.cos(u * t) * FLAT(h * u),
                      0.0, 1.0 / h, limit=400)[0] / np.pi
            # oracle uses adaptive quadrature, estimate a dense trapezoid
            assert d == pytest.approx(sigma2 * Kh / t ** 2, abs=1e-8)
        # and the mass leaks away as h -> 0 at fixed t (K decays ~x^{-4},
        # so the smoothed Dirac contributes ~h^3 at t = 1)
        d_small = density_at(
            lambda u: np.full(np.shape(u), -sigma2, dtype=complex),
            FLAT, 0.02, t)
        assert abs(d_small) < 1e-4

    def test_zero_curvature_gives_zero(self):
        t = np.array([-2.0, -0.5, 0.3, 1.0])
        d = density_at(lambda u: np.zeros(np.shape(u), dtype=complex),
                              FLAT, 0.1, t)
        np.testing.assert_array_equal(d, np.zeros(4))

    def test_symmetric_input_symmetric_density(self):
        def sym(u):
            return psi2_cp(u) + psi2_cp(-np.asarray(u))

        d = density_at(sym, FLAT, 0.1, np.array([-1.3, -0.4, 0.4, 1.3]))
        assert d[0] == d[3]
        assert d[1] == d[2]

    def test_half_grid_curvature_read_as_hermitian(self):
        # a constant imaginary psi2 on u > 0 stands for i sign(u) on the
        # whole line, whose inverse transform is real and odd
        t = np.array([0.05, 0.7])
        got = density_at(lambda u: np.full(np.shape(u), 1j), FLAT,
                                0.1, t)
        grid = FrequencyGrid(cutoff=10.0, points=2 ** 13)
        F = hermitian_full_sum(1j * FLAT(0.1 * grid.u), grid, t)
        assert np.max(np.abs(F.imag)) < 1e-12 * np.max(np.abs(F.real))
        np.testing.assert_allclose(got, -F.real / t ** 2, rtol=1e-12)

    def test_half_grid_curvature_read_as_hermitian_by_batched_builder(self):
        grid = FrequencyGrid(cutoff=20.0, points=1024)
        hermitian = psi2_cp(grid.u)
        hs = [0.05, 0.1, 0.2]
        batch = oracles(tail_estimates(curvature_table(hermitian, grid), FLAT,
                                       hs))
        assert [e.bandwidth for e in batch] == hs
        shifted = oracles(tail_estimates(curvature_table(hermitian + 1j, grid),
                                         FLAT, hs))
        nodes = tail_nodes()
        for est, h in zip(shifted, hs):
            column = (hermitian + 1j) * FLAT(h * grid.u)
            F = hermitian_full_sum(column, grid, np.concatenate([nodes, -nodes]))
            want = -F.real / np.concatenate([nodes, nodes]) ** 2
            got = np.concatenate([est.density_pos, est.density_neg])
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestDistribution:
    def test_batched_builder_matches_single_bandwidth(self):
        # each column of one batched inversion equals the one-bandwidth
        # estimate on the same grid
        grid = FrequencyGrid(cutoff=20.0, points=2048)
        hs = [0.05, 0.08, 0.2]
        table = curvature_table(psi2_cp, grid)
        batch = oracles(tail_estimates(table, FLAT, hs))
        t = np.array([-2.0, -0.3, 0.01, 0.4, 1.7])
        for est, h in zip(batch, hs):
            alone = oracles(tail_estimates(table, FLAT, [h]))[0]
            np.testing.assert_allclose(est(t), alone(t),
                                       rtol=1e-12, atol=1e-14)

    def test_nan_curvature_node_caught(self):
        # NaN fails every comparison, so the imaginary-residual check alone
        # passed it and the tail came out NaN
        grid = FrequencyGrid(cutoff=20.0, points=1024)
        psi2 = psi2_cp(grid.u)
        psi2[300] = np.nan
        with pytest.raises(NumericalError):
            tail_estimates(curvature_table(psi2, grid), FLAT, [0.05, 0.1])

        def psi2_with_nan(u):
            out = psi2_cp(u)
            out[out.size // 3] = np.nan
            return out

        with pytest.raises(NumericalError):
            tail_at(psi2_with_nan, FLAT, 0.05)

    def test_aliasing_grid_rejected(self):
        # spacing 200/255 exceeds pi / x_max: images of F_h would fold
        # into the tail nodes
        with pytest.raises(InputError):
            tail_at(psi2_cp, FLAT, 0.01, points=256)

    def test_aliasing_checked_before_nodes_are_built(self, monkeypatch):
        # x_max = 1e7 would ask tail_nodes for 1e9 nodes, x_max = 1,000 for
        # 10^5; the size cap and the spacing check must refuse them first
        def no_nodes(x_max):
            raise AssertionError("tail nodes built before the check")

        monkeypatch.setattr(levyq.inversion, "tail_nodes", no_nodes)
        grid = FrequencyGrid(100.0, 8192)
        with pytest.raises(InputError):
            TailInversion(grid, FLAT, [0.01], 1e7)
        with pytest.raises(InputError, match="aliases the tail nodes"):
            TailInversion(grid, FLAT, [0.01], 1e3)

    def test_cp_tail_at_one(self):
        N = tail_at(psi2_cp, FLAT, 0.05)(1.0)
        assert N == pytest.approx(np.exp(-1.0), abs=2e-2)

    def test_vanishes_at_truncation(self):
        est = tail_at(psi2_cp, FLAT, 0.05)
        assert est(5.0) == 0.0
        assert est(-5.0) == 0.0
        assert est(7.0) == 0.0  # beyond the table

    def test_derivative_is_minus_density(self):
        est = tail_at(psi2_cp, FLAT, 0.05)
        eps = 1e-4
        fd = (est(0.5 + eps) - est(0.5 - eps)) / (2.0 * eps)
        dens = density_at(psi2_cp, FLAT, 0.05, 0.5)
        assert fd == pytest.approx(-dens, abs=1e-3)

    def test_bias_monotone_in_bandwidth(self):
        # against the truncated truth; see module docstring for why
        truth = np.exp(-1.0) - np.exp(-5.0)
        errs = [abs(tail_at(psi2_cp, FLAT, h)(1.0) - truth)
                for h in (0.2, 0.1, 0.05)]
        assert errs[0] > errs[1] > errs[2]

    def test_volatility_robustness(self):
        # adding a Brownian component perturbs the tail integral by at most
        # sigma^2 t^{-3} h C_K (smoothed-Dirac leakage bound)
        h, t = 0.1, 0.5
        base = tail_at(psi2_cp, FLAT, h)(t)
        for sigma2 in (0.01, 0.04):
            shifted = tail_at(
                lambda u, s=sigma2: psi2_cp(u) - s, FLAT, h)(t)
            assert abs(shifted - base) <= sigma2 * t ** -3 * h * C_K

    def test_below_table_evaluation(self):
        # no table lies below the first tail node, so N_h is not defined
        # there (the same rule as for eta); the first node itself is
        est = tail_at(psi2_cp, FLAT, 0.1)
        assert np.isfinite(est(FIRST_TAIL_NODE))
        assert np.isfinite(est(-FIRST_TAIL_NODE))
        for t in (0.002, -0.002, [0.002, 0.5]):
            with pytest.raises(InputError):
                est(t)

    def test_t_zero_rejected(self):
        est = tail_at(psi2_cp, FLAT, 0.1)
        with pytest.raises(InputError):
            est(0.0)


class TestTailTable:
    """One table for every bandwidth: its cumulative tails are the
    per-bandwidth cumulative sums bit for bit, and one run's inversion,
    formed once, gives every table what a fresh inversion gives it."""

    def test_rows_are_the_per_bandwidth_cumsums(self):
        grid = FrequencyGrid(cutoff=50.0, points=1024)
        hs = 1.1 ** np.arange(8) / 50.0
        table = tail_estimates(curvature_table(psi2_cp, grid), FLAT, hs)
        assert table.density.shape == table.tail.shape == (
            2, 8, tail_nodes().size)
        for j, oracle in enumerate(oracles(table)):
            for s, sign in ((0, -1), (1, 1)):
                d, cum = oracle._tables[sign]
                assert np.array_equal(table.density[s, j], d)
                assert np.array_equal(table.tail[s, j], cum)
        assert np.all(table.tail[..., -1] == 0.0)

    def test_inversion_formed_once_serves_every_table(self):
        grid = FrequencyGrid(cutoff=50.0, points=1024)
        hs = [0.02, 0.05, 0.1]
        inversion = TailInversion(grid, FLAT, hs, X_MAX_DEFAULT)
        for shift in (0.0, 0.3, -1j):
            table = curvature_table(lambda u: psi2_cp(u) + shift, grid)
            once, fresh = inversion.table(table), tail_estimates(table, FLAT,
                                                                 hs)
            assert np.array_equal(once.density, fresh.density)
            assert np.array_equal(once.tail, fresh.tail)

    def test_spectra_on_another_grid_refused(self):
        inversion = TailInversion(FrequencyGrid(50.0, 1024), FLAT, [0.05],
                                  X_MAX_DEFAULT)
        other = curvature_table(psi2_cp, FrequencyGrid(50.0, 2048))
        with pytest.raises(InputError):
            inversion.table(other)


class TestGridPoints:
    WINDOWS = (0.5, 2.0, 10.0, 20.0, 100.0, 256.0, 3000.0, 20000.0)
    REACHES = (0.6, 1.0, 5.0, 10.0, 22.0, 400.0)

    def test_power_of_two_in_range(self):
        for cutoff in self.WINDOWS:
            for x_max in self.REACHES:
                for span in (0.0, 3.3, 22.0):
                    try:
                        points = grid_points(cutoff, x_max, span)
                    except InputError:
                        continue
                    assert 16 <= points <= _MAX_SPECTRAL_POINTS
                    assert points & (points - 1) == 0

    def test_smallest_count_with_the_margin(self):
        # the period 2 pi / spacing covers GRID_MARGIN reaches, and half
        # the count (when at least 16) would not
        for cutoff in self.WINDOWS[:6]:
            for x_max in self.REACHES[:5]:
                for span in (0.0, 22.0):
                    points = grid_points(cutoff, x_max, span)
                    reach = max(x_max, span)
                    grid = FrequencyGrid(cutoff, points)
                    assert 2 * math.pi / grid.spacing >= GRID_MARGIN * reach
                    if points > 16:
                        half = FrequencyGrid(cutoff, points // 2)
                        assert (2 * math.pi / half.spacing
                                < GRID_MARGIN * reach)

    def test_nondecreasing_in_window_and_reach(self):
        for span in (0.0, 22.0):
            counts = [[grid_points(c, x, span) for x in self.REACHES[:5]]
                      for c in self.WINDOWS[:6]]
            assert np.all(np.diff(counts, axis=0) >= 0)
            assert np.all(np.diff(counts, axis=1) >= 0)
        spans = [grid_points(100.0, 5.0, s) for s in (0.0, 3.0, 10.0, 40.0)]
        assert spans == sorted(spans)

    def test_default_designs(self):
        # the chain at n = 100 (log-strike range 3.3) and the increments of
        # the direct benchmark (range 22.1 at h = 0.05)
        assert grid_points(100.0, 5.0, 3.3) == 1024
        assert grid_points(20.0, 5.0, 22.1) == 1024
        assert grid_points(0.5, 0.6) == 16

    @pytest.mark.parametrize("cutoff, x_max, span", [
        (2e5, 5.0, 0.0), (100.0, 1e5, 0.0), (100.0, 5.0, 1e5),
        (math.inf, 5.0, 0.0), (1e308, 5.0, 0.0), (math.nan, 5.0, 0.0)])
    def test_above_the_cap_is_refused(self, cutoff, x_max, span):
        with pytest.raises(InputError, match="x_max") as info:
            grid_points(cutoff, x_max, span)
        assert f"window of {cutoff:g}" in str(info.value)


def table_estimate(density, x_max=5.0, nodes=None, bandwidth=0.05):
    """TailOracle with the density tables `density` (a function of
    |t|) on both sides of the tail nodes."""
    nodes = tail_nodes(x_max) if nodes is None else nodes
    d = density(nodes)
    return TailOracle(
        nodes=nodes, density_pos=d, density_neg=d, bandwidth=bandwidth)


def dense_sample(nodes, eta, per_interval=64):
    """eta, then per_interval points in every node interval above eta, and
    x_max."""
    frac = np.linspace(0.0, 1.0, per_interval + 1)[:-1]
    ts = (nodes[:-1, None] + np.diff(nodes)[:, None] * frac).ravel()
    return np.concatenate([[eta], ts[ts > eta], nodes[-1:]])


def last_crossing_reference(dist, tau, eta, side):
    """The last t in [eta, x_max] with N_h(t) >= tau, by a dense scan and
    bisection of the bracketing sample interval; None when every sample
    lies below tau."""
    sign = 1.0 if side == "+" else -1.0
    ts = dense_sample(dist.nodes, eta)
    above = np.nonzero(dist(sign * ts) >= tau)[0]
    if not above.size:
        return None
    lo, hi = ts[above[-1]], ts[above[-1] + 1]   # N_h(x_max) = 0 < tau
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if dist(sign * mid) >= tau else (lo, mid)
    return 0.5 * (lo + hi)


@st.composite
def tail_tables(draw):
    """A random tail table, a level tau, a threshold eta and a side.

    Densities may be negative or zero, so N_h can cross tau several times
    or run flat; with `monotone` they are at least 1e-3, so N_h decreases
    and its crossing moves by no more than rounding / 1e-3."""
    size = draw(st.integers(min_value=2, max_value=24))
    first = draw(st.floats(min_value=0.004, max_value=0.1))
    steps = draw(st.lists(st.floats(min_value=0.005, max_value=0.5),
                          min_size=size - 1, max_size=size - 1))
    nodes = first + np.concatenate([[0.0], np.cumsum(steps)])
    monotone = draw(st.booleans())
    low = 1e-3 if monotone else -3.0
    d_pos, d_neg = (np.array(draw(st.lists(
        st.floats(min_value=low, max_value=5.0),
        min_size=size, max_size=size))) for _ in range(2))
    dist = TailOracle(
        nodes=nodes, density_pos=d_pos, density_neg=d_neg, bandwidth=0.1)
    side = draw(st.sampled_from("+-"))
    sign = 1.0 if side == "+" else -1.0
    peak = float(np.max(dist(sign * nodes)))
    tau = draw(st.floats(min_value=0.02, max_value=1.3)) * (
        peak if peak > 0 else 1.0)
    eta = nodes[0] + draw(st.floats(min_value=0.0, max_value=0.95)) * (
        nodes[-1] - nodes[0])
    return dist, tau, eta, side, monotone


class TestQuantile:
    def exact_exp_tail(self):
        # truncated at 30, where e^{-30} is far below every tolerance
        return table_estimate(lambda t: np.exp(-t), x_max=30.0)

    def test_exact_tail_gives_log_two(self):
        q = one_quantile(self.exact_exp_tail(), 0.5, 0.02, "+")
        assert not q.at_threshold
        assert q.value == pytest.approx(np.log(2.0), abs=1e-4)

    def test_excessive_tau_clamps(self):
        q = one_quantile(self.exact_exp_tail(), 10.0, 0.02, "+")
        assert q.at_threshold
        assert q.value == 0.02

    def test_estimated_pipeline_quantile(self):
        est = tail_at(psi2_cp, FLAT, 0.05)
        q = one_quantile(est, 0.5, 0.02, "+")
        # truncated truth: solve e^{-t} - e^{-5} = 0.5
        expected = -np.log(0.5 + np.exp(-5.0))
        assert q.value == pytest.approx(expected, abs=5e-3)

    def test_mirror_swap(self):
        e_orig = tail_at(psi2_cp, FLAT, 0.05)
        e_mirr = tail_at(psi2_mirrored, FLAT, 0.05)
        q_plus = one_quantile(e_orig, 0.5, 0.02, "+")
        q_minus = one_quantile(e_mirr, 0.5, 0.02, "-")
        assert q_minus.value == q_plus.value
        q_m2 = one_quantile(e_orig, 0.3, 0.02, "-")
        q_p2 = one_quantile(e_mirr, 0.3, 0.02, "+")
        assert q_m2.value == q_p2.value

    def test_mirror_swap_over_the_bandwidth_grid(self):
        # the 13 bandwidths 1.1^j / 100 of the default chain's grid,
        # inverted in one call: the mirrored curvature gives exactly the
        # swapped density tables at every bandwidth
        grid = FrequencyGrid(100.0, 8192)
        hs = 1.1 ** np.arange(13) / 100.0
        orig = oracles(tail_estimates(curvature_table(psi2_cp, grid), FLAT,
                                      hs))
        mirr = oracles(tail_estimates(curvature_table(psi2_mirrored, grid),
                                      FLAT, hs))
        for a, b in zip(orig, mirr):
            assert np.array_equal(a.density_pos, b.density_neg)
            assert np.array_equal(a.density_neg, b.density_pos)

    def test_multiple_crossings_take_the_last(self):
        # N = 1 - t, then 0.2 + (t - 0.8), then 0.7 - (t - 1.3) down to 0
        # at 2: tau = 0.5 is crossed at 0.5, 1.1 and 1.5.  A jump beyond
        # 1.5 is expected less than once per 1/tau time units, beyond any
        # t < 1.5 at least once, so q = 1.5.
        nodes = tail_nodes()

        def density(t):
            d = np.select([t < 0.8, t < 1.3, t < 2.0], [1.0, -1.0, 1.0], 0.0)
            # the mean of both sides at a jump node keeps the trapezoid
            # sums of the piecewise-constant density exact
            for jump, mean in ((0.8, 0.0), (1.3, 0.0), (2.0, 0.5)):
                d[np.isclose(t, jump)] = mean
            return d

        dist = table_estimate(density, nodes=nodes, bandwidth=0.1)
        for t, want in ((0.5, 0.5), (1.1, 0.5), (1.5, 0.5), (1.0, 0.4)):
            assert dist(t) == pytest.approx(want, abs=1e-12)
        q = one_quantile(dist, 0.5, 0.02, "+")
        assert q.value == pytest.approx(1.5, abs=1e-12)
        assert not q.at_threshold
        # the hump in the middle tops out at 0.7: tau = 0.9 is crossed once
        q = one_quantile(dist, 0.9, 0.02, "+")
        assert q.value == pytest.approx(0.1, abs=1e-12)

    def test_validation(self):
        dist = self.exact_exp_tail()
        with pytest.raises(InputError):
            one_quantile(dist, 0.0, 0.02, "+")
        with pytest.raises(InputError):
            one_quantile(dist, 0.5, 0.0, "+")
        with pytest.raises(InputError):
            # below the first tail node, where no table exists
            one_quantile(dist, 0.5, 0.003, "+")

    @given(tau=st.floats(min_value=1.2, max_value=50.0))
    @settings(max_examples=25, deadline=None)
    def test_clamp_coherence(self, tau):
        # whenever the curve cannot reach tau the estimate sits exactly at
        # eta with the flag set (exact tail has total mass 1 < tau)
        q = one_quantile(self.exact_exp_tail(), tau, 0.02, "+")
        assert q.at_threshold
        assert q.value == 0.02

    @given(tau=st.floats(min_value=0.05, max_value=0.9))
    @settings(max_examples=25, deadline=None)
    def test_value_never_below_threshold(self, tau):
        q = one_quantile(self.exact_exp_tail(), tau, 0.02, "+")
        assert q.value >= 0.02

    @given(case=tail_tables())
    @settings(max_examples=200, deadline=None)
    def test_last_crossing_on_random_tables(self, case):
        dist, tau, eta, side, monotone = case
        sign = 1.0 if side == "+" else -1.0
        q = one_quantile(dist, tau, eta, side)
        ts = dense_sample(dist.nodes, eta)
        tail = dist(sign * ts)
        rounding = 1e-12 * (1.0 + float(np.max(np.abs(tail))))
        assert eta <= q.value <= dist.nodes[-1]
        if q.at_threshold:
            assert q.value == eta
            assert np.max(tail) < tau
        else:
            assert dist(sign * q.value) == pytest.approx(tau, abs=rounding)
            assert np.all(tail[ts > q.value] < tau + rounding)
        if monotone:
            want = last_crossing_reference(dist, tau, eta, side)
            assert q.at_threshold == (want is None)
            if want is not None:
                assert q.value == pytest.approx(want, abs=5e-7)


# ---------------------------------------------------------------------------
# the quantile pass against the one-cell closed form


def quantile_closed_form(dist, tau, eta, side):
    """(value, at_threshold) of one (table, level) cell, one cell at a time:
    the arithmetic `tail_quantiles` does element by element, kept as an
    oracle in its one-cell form."""
    nodes = dist.nodes
    d, cum = dist._tables[1 if side == "+" else -1]
    first = int(np.searchsorted(nodes, eta, side="right")) - 1
    x_hi, step = nodes[first + 1:], np.diff(nodes[first:])
    width = np.minimum(step, x_hi - eta)
    a = 0.5 * (d[first:-1] - d[first + 1:]) / step
    b, c = d[first + 1:], cum[first + 1:] - tau
    vertex = np.clip(np.divide(-b, 2.0 * a, out=np.zeros_like(b),
                               where=a < 0), 0.0, width)
    left = np.where(width < step, (a * width + b) * width + c,
                    cum[first:-1] - tau)
    peak = np.maximum.reduce([c, left, (a * vertex + b) * vertex + c])
    reach = np.nonzero(peak >= 0.0)[0]
    if not reach.size:
        return eta, True
    k = reach[-1]
    coef = np.array([a[k] * width[k] ** 2, b[k] * width[k], c[k]])
    A, B, C = (float(x) for x in coef / np.max(np.abs(coef)))
    root = math.sqrt(max(B * B - 4.0 * A * C, 0.0))
    if B < 0:
        v = (root - B) / (2.0 * A)
    else:
        v = -2.0 * C / (B + root) if B + root > 0 else 0.0
    return max(float(x_hi[k] - v * width[k]), eta), False


def interval_peaks(dist, tau, eta, side):
    """max(c, left, vertex rise + c) of `quantile_closed_form` on each node
    interval from eta at level tau; at tau = 0, the tau-free tops."""
    nodes = dist.nodes
    d, cum = dist._tables[1 if side == "+" else -1]
    first = int(np.searchsorted(nodes, eta, side="right")) - 1
    x_hi, step = nodes[first + 1:], np.diff(nodes[first:])
    width = np.minimum(step, x_hi - eta)
    a = 0.5 * (d[first:-1] - d[first + 1:]) / step
    b, c = d[first + 1:], cum[first + 1:] - tau
    vertex = np.clip(np.divide(-b, 2.0 * a, out=np.zeros_like(b),
                               where=a < 0), 0.0, width)
    left = np.where(width < step, (a * width + b) * width + c,
                    cum[first:-1] - tau)
    return np.maximum.reduce([c, left, (a * vertex + b) * vertex + c])


def assert_pass_equals_cells(dists, taus, eta):
    """Row 2 i + s of the pass is level i on side '-' (s = 0) or '+' (s =
    1); each of its cells equals the one-cell closed form, and its density
    the oracle's density of that side at the quantile."""
    values, clamped, density = tail_quantiles(as_table(dists), taus, eta)
    assert values.shape == clamped.shape == density.shape == (
        2 * len(taus), len(dists))
    for i, tau in enumerate(taus):
        for s, (side, sign) in enumerate((("-", -1.0), ("+", 1.0))):
            for j, dist in enumerate(dists):
                value, at_threshold = quantile_closed_form(dist, tau, eta,
                                                           side)
                assert values[2 * i + s, j] == value          # bit for bit
                assert clamped[2 * i + s, j] == at_threshold
                assert density[2 * i + s, j] == dist.density(sign * value)
    return values, clamped


@st.composite
def ladder_tables(draw):
    """Tables on one random node grid (densities may be negative, so N_h
    may cross a level several times), a level ladder reaching from below
    the tables' values to above their peak, and eta inside an interval or
    on a node."""
    size = draw(st.integers(min_value=2, max_value=24))
    first = draw(st.floats(min_value=0.004, max_value=0.1))
    steps = draw(st.lists(st.floats(min_value=0.005, max_value=0.5),
                          min_size=size - 1, max_size=size - 1))
    nodes = first + np.concatenate([[0.0], np.cumsum(steps)])
    dists = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        d_pos, d_neg = (np.array(draw(st.lists(
            st.floats(min_value=-3.0, max_value=5.0),
            min_size=size, max_size=size))) for _ in range(2))
        dists.append(TailOracle(nodes=nodes, density_pos=d_pos,
                                          density_neg=d_neg, bandwidth=0.1))
    peak = max(float(np.max(dist(sign * nodes))) for dist in dists
               for sign in (1.0, -1.0))
    scale = peak if peak > 0 else 1.0
    taus = draw(st.lists(st.floats(min_value=0.01, max_value=1.5),
                         min_size=1, max_size=8))
    if draw(st.booleans()):
        eta = float(nodes[draw(st.integers(min_value=0,
                                           max_value=size - 2))])
    else:
        eta = nodes[0] + draw(st.floats(min_value=0.0, max_value=0.95)) * (
            nodes[-1] - nodes[0])
    return dists, [t * scale for t in taus], eta


class TestQuantilePass:
    """tail_quantiles equals the one-cell closed form bit for bit, in value
    and in at_threshold, over every (level, side, table) cell."""

    @given(case=ladder_tables())
    @settings(max_examples=200, deadline=None)
    def test_random_tables_and_ladders(self, case):
        assert_pass_equals_cells(*case)

    @pytest.fixture(scope="class")
    def estimated(self):
        return [tail_at(psi2_cp, FLAT, h) for h in (0.02, 0.05, 0.1)]

    def test_estimated_tables_both_sides(self, estimated):
        assert_pass_equals_cells(estimated, [0.05, 0.2, 0.5, 0.9, 2.0], 0.02)

    def test_eta_on_a_node(self, estimated):
        eta = float(estimated[0].nodes[100])
        assert_pass_equals_cells(estimated, [0.1, 0.3], eta)

    def test_all_levels_clamped(self, estimated):
        values, clamped = assert_pass_equals_cells(estimated, [3.0, 7.5],
                                                   0.02)
        assert clamped.all() and np.all(values == 0.02)

    def test_multiple_crossings(self):
        # N_h crosses 0.5 at 0.5, 1.1 and 1.5 (see TestQuantile)
        nodes = tail_nodes()
        d = np.select([nodes < 0.8, nodes < 1.3, nodes < 2.0],
                      [1.0, -1.0, 1.0], 0.0)
        for jump, mean in ((0.8, 0.0), (1.3, 0.0), (2.0, 0.5)):
            d[np.isclose(nodes, jump)] = mean
        dist = TailOracle(nodes=nodes, density_pos=d,
                                    density_neg=d, bandwidth=0.1)
        values, _ = assert_pass_equals_cells([dist], [0.3, 0.5, 0.6, 0.9],
                                             0.02)
        assert values[2:4, 0] == pytest.approx(1.5, abs=1e-12)

    def test_thousand_levels_in_one_call(self, estimated):
        table = as_table(estimated)
        taus = np.linspace(0.01, 3.0, 1000)
        found = tail_quantiles(table, taus, 0.02)
        for i, tau in enumerate(taus):
            for got, one in zip(found, tail_quantiles(table, [tau], 0.02)):
                assert np.array_equal(got[2 * i : 2 * i + 2], one)

    def test_levels_on_interval_tops(self, estimated):
        # levels at the tau-free top of each interval that holds the last
        # crossing of it, and at its float neighbours.  The per-level sums
        # round apart from the top there both ways: below it on the
        # estimated tables (the pass must scan the row again), above it on
        # a table of random densities (the pass must search past the top)
        nodes = tail_nodes()
        d = np.random.default_rng(233).uniform(-3.0, 5.0, nodes.size)[::-1]
        noisy = TailOracle(nodes=nodes, density_pos=d, density_neg=d,
                           bandwidth=0.1)
        eta, below, above = 0.02, 0, 0
        for side in ("+", "-"):
            for dist in estimated + [noisy]:
                top = interval_peaks(dist, 0.0, eta, side)
                later = np.maximum.accumulate(top[::-1])[::-1]
                last = [i for i in np.nonzero(top[:-1] > later[1:])[0]
                        if top[i] > 0]
                levels = {i: (np.nextafter(top[i], 0.0), top[i],
                              np.nextafter(top[i], np.inf)) for i in last}
                assert_pass_equals_cells(
                    [dist], [t for near in levels.values() for t in near],
                    eta)
                for i, near in levels.items():
                    for t in near:
                        reach = interval_peaks(dist, t, eta, side)[i] >= 0.0
                        below += bool(top[i] >= t and not reach)
                        above += bool(top[i] < t and reach)
        assert below > 0 and above > 0

    def test_validation(self, estimated):
        table = as_table(estimated)
        with pytest.raises(InputError):
            tail_quantiles(table, [0.5, 0.0], 0.02)
        with pytest.raises(InputError):
            tail_quantiles(table, [0.5], 0.003)
        # density tables on another node grid than the table's nodes
        other = table_estimate(np.exp, x_max=4.0)
        with pytest.raises(InputError):
            TailTable(nodes=other.nodes, bandwidths=table.bandwidths,
                      density=table.density)
