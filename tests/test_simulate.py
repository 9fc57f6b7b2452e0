"""Increment samplers: moment checks, cross-method agreement, reproducibility.

Oracles used here:

* first/second moments of the increment law in the mean-uncompensated
  convention: E = delta*(gamma + int x nu), Var = delta*(sigma2 + int x^2 nu),
  checked against sample statistics within five standard errors;
* two independent sampling routes for the same compound-Poisson law (exact
  path simulation vs inverse-CDF tabulation) must agree in distribution:
  two-sample Kolmogorov-Smirnov statistic below 0.01 at n = 1e5;
* the no-jump atom of a finite-activity model without diffusion has
  probability exp(-delta * nu(R)), checkable by counting exact hits.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from levyq.errors import InputError
from levyq.models import (
    CGMYJumps,
    ExponentialJumps,
    LevyModel,
    jump_mean,
    jump_second_moment,
)
from levyq.simulate import METHODS, sample_increments

EXACT = "exact-compound-poisson"
ICDF = "inverse-cdf-from-characteristic-function"


def _moment_check(values, mean, var):
    n = values.size
    se_mean = math.sqrt(var / n)
    assert abs(values.mean() - mean) < 5 * se_mean
    # general (kurtosis-aware) standard error of the sample variance;
    # the normal-theory var*sqrt(2/n) is far too tight for jumpy laws
    centered = values - values.mean()
    se_var = math.sqrt(max((centered ** 4).mean() - var ** 2, 0.0) / n)
    assert abs(values.var(ddof=1) - var) < 5 * se_var


class TestExactCompoundPoisson:
    def test_spec_moments(self):
        # lambda=2, unit-mean jumps, delta=0.5 -> mean 1.0, var delta*lam*E[J^2]=2
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(2.0, 1.0))
        values = sample_increments(model, 0.5, EXACT, 11, 100_000).values
        _moment_check(values, mean=1.0, var=2.0)

    def test_diffusion_and_drift_enter(self):
        model = LevyModel(sigma2=0.09, gamma=-1.5, jumps=ExponentialJumps(1.0, 2.0))
        delta = 0.25
        mean = delta * (model.gamma + jump_mean(model.jumps))
        var = delta * (model.sigma2 + jump_second_moment(model.jumps))
        values = sample_increments(model, delta, EXACT, 7, 100_000).values
        _moment_check(values, mean, var)

    def test_requires_finite_activity(self, bench_model):
        with pytest.raises(InputError, match="finite-activity"):
            sample_increments(bench_model, 0.1, EXACT, 1, 10)

    def test_oversized_draw_refused_before_sizes(self):
        # 10^6 jumps per increment: refused from the counts, before the
        # 5e7 sizes (400 MB) are drawn, so the peak stays small
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(2e6, 1.0))
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="cap of 10000000 jumps"):
                sample_increments(model, 0.5, EXACT, 1, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestInverseCdf:
    def test_pure_brownian_moments(self):
        model = LevyModel(sigma2=0.09, gamma=1.0, jumps=None)
        values = sample_increments(model, 0.1, ICDF, 9, 100_000).values
        _moment_check(values, mean=0.1, var=0.009)

    def test_matches_exact_compound_poisson_in_distribution(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(2.0, 1.0))
        n = 100_000
        exact = sample_increments(model, 0.5, EXACT, 21, n).values
        tabulated = sample_increments(model, 0.5, ICDF, 22, n).values
        ks = stats.ks_2samp(exact, tabulated).statistic
        assert ks < 0.01

    def test_atom_frequency(self):
        # finite activity without diffusion: P(no jump) = exp(-delta nu(R))
        # lands exactly on gamma*delta, so exact float equality counts the
        # atom; nu(R) is C Gamma(-Y) (G^Y + M^Y) for CGMY with Y < 0
        delta, gamma = 0.5, 0.3
        for jumps, mass in [
            (ExponentialJumps(2.0, 1.0), 2.0),
            (CGMYJumps(C=1.0, G=5.0, M=8.0, Y=-1.5),
             math.gamma(1.5) * (5.0 ** -1.5 + 8.0 ** -1.5)),
        ]:
            model = LevyModel(sigma2=0.0, gamma=gamma, jumps=jumps)
            values = sample_increments(model, delta, ICDF, 13, 100_000).values
            p0 = math.exp(-mass * delta)
            hits = np.mean(values == gamma * delta)
            se = math.sqrt(p0 * (1 - p0) / values.size)
            assert abs(hits - p0) < 5 * se, jumps

    @pytest.mark.parametrize("Y", (-0.5, -1.5))
    def test_finite_activity_cgmy_moments(self, Y):
        # the law is an atom plus a continuous part; a tabulation span sized
        # from the whole law's SD cut off the jumps of the continuous part
        # (at Y = -1.5 the mean then missed by 8 standard errors at this n)
        model = LevyModel(sigma2=0.0, gamma=0.0,
                          jumps=CGMYJumps(C=1.0, G=5.0, M=8.0, Y=Y))
        delta = 0.5
        values = sample_increments(model, delta, ICDF, 1, 400_000).values
        _moment_check(values, delta * jump_mean(model.jumps),
                      delta * jump_second_moment(model.jumps))

    def test_benchmark_model_moments(self, bench_model):
        delta = 0.05
        mean = delta * (bench_model.gamma + jump_mean(bench_model.jumps))
        var = delta * (bench_model.sigma2 + jump_second_moment(bench_model.jumps))
        values = sample_increments(bench_model, delta, ICDF, 17,
                                   100_000).values
        _moment_check(values, mean, var)

    def test_degenerate_pure_drift(self):
        model = LevyModel(sigma2=0.0, gamma=0.4, jumps=None)
        values = sample_increments(model, 0.5, ICDF, 1, 100).values
        np.testing.assert_array_equal(values, np.full(100, 0.2))


class TestReproducibility:
    @pytest.mark.parametrize("method", METHODS)
    def test_same_seed_same_bytes(self, method):
        model = LevyModel(sigma2=0.01, gamma=0.1, jumps=ExponentialJumps(2.0, 1.0))
        a = sample_increments(model, 0.5, method, 42, 5_000).values
        b = sample_increments(model, 0.5, method, 42, 5_000).values
        np.testing.assert_array_equal(a, b)
        c = sample_increments(model, 0.5, method, 43, 5_000).values
        assert not np.array_equal(a, c)

    def test_validation(self):
        model = LevyModel(sigma2=0.01, gamma=0.0, jumps=None)
        with pytest.raises(InputError, match="method"):
            sample_increments(model, 0.5, "bogus", 1, 10)
        with pytest.raises(InputError, match="positive"):
            sample_increments(model, 0.0, ICDF, 1, 10)
        with pytest.raises(InputError, match="n >= 1"):
            sample_increments(model, 0.5, ICDF, 1, 0)
