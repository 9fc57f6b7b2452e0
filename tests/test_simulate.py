"""Increment samplers: moment checks, cross-method agreement, reproducibility.

Oracles used here:

* first/second moments of the increment law in the mean-uncompensated
  convention: E = delta*(gamma + int x nu), Var = delta*(sigma2 + int x^2 nu),
  checked against sample statistics within five standard errors;
* two independent sampling routes for the same compound-Poisson law (exact
  path simulation vs inverse-CDF tabulation) must agree in distribution:
  two-sample Kolmogorov-Smirnov statistic below 0.01 at n = 1e5;
* the no-jump atom of a driftless finite-activity model has probability
  exp(-lambda*delta), checkable by counting exact hits.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from levyq.errors import InputError
from levyq.models import (
    ExponentialJumps,
    LevyModel,
    jump_mean,
    jump_second_moment,
)
from levyq.simulate import METHODS, IncrementSampler, sample_increments

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
        sampler = IncrementSampler(model=model, delta=0.5, method=EXACT, seed=11)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean=1.0, var=2.0)

    def test_diffusion_and_drift_enter(self):
        model = LevyModel(sigma2=0.09, gamma=-1.5, jumps=ExponentialJumps(1.0, 2.0))
        delta = 0.25
        mean = delta * (model.gamma + jump_mean(model.jumps))
        var = delta * (model.sigma2 + jump_second_moment(model.jumps))
        sampler = IncrementSampler(model=model, delta=delta, method=EXACT, seed=7)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean, var)

    def test_requires_finite_activity(self, bench_model):
        sampler = IncrementSampler(model=bench_model, delta=0.1, method=EXACT, seed=1)
        with pytest.raises(InputError, match="finite-activity"):
            sample_increments(sampler, 10)

    def test_oversized_draw_refused_before_sizes(self):
        # 10^6 jumps per increment: refused from the counts, before the
        # 5e7 sizes (400 MB) are drawn, so the peak stays small
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(2e6, 1.0))
        sampler = IncrementSampler(model=model, delta=0.5, method=EXACT, seed=1)
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="cap of 10000000 jumps"):
                sample_increments(sampler, 50)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestInverseCdf:
    def test_pure_brownian_moments(self):
        model = LevyModel(sigma2=0.09, gamma=1.0, jumps=None)
        sampler = IncrementSampler(model=model, delta=0.1, method=ICDF, seed=9)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean=0.1, var=0.009)

    def test_matches_exact_compound_poisson_in_distribution(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(2.0, 1.0))
        n = 100_000
        exact = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=EXACT, seed=21), n
        ).values
        tabulated = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=ICDF, seed=22), n
        ).values
        ks = stats.ks_2samp(exact, tabulated).statistic
        assert ks < 0.01

    def test_atom_frequency(self):
        # driftless finite activity: P(no jump) = exp(-lam*delta) lands exactly
        # on gamma*delta, so exact float equality counts the atom
        lam, delta, gamma = 2.0, 0.5, 0.3
        model = LevyModel(sigma2=0.0, gamma=gamma, jumps=ExponentialJumps(lam, 1.0))
        sampler = IncrementSampler(model=model, delta=delta, method=ICDF, seed=13)
        values = sample_increments(sampler, 100_000).values
        p0 = math.exp(-lam * delta)
        hits = np.mean(values == gamma * delta)
        se = math.sqrt(p0 * (1 - p0) / values.size)
        assert abs(hits - p0) < 5 * se

    def test_benchmark_model_moments(self, bench_model):
        delta = 0.05
        mean = delta * (bench_model.gamma + jump_mean(bench_model.jumps))
        var = delta * (bench_model.sigma2 + jump_second_moment(bench_model.jumps))
        sampler = IncrementSampler(model=bench_model, delta=delta, method=ICDF, seed=17)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean, var)

    def test_degenerate_pure_drift(self):
        model = LevyModel(sigma2=0.0, gamma=0.4, jumps=None)
        sampler = IncrementSampler(model=model, delta=0.5, method=ICDF, seed=1)
        values = sample_increments(sampler, 100).values
        np.testing.assert_array_equal(values, np.full(100, 0.2))


class TestReproducibility:
    @pytest.mark.parametrize("method", METHODS)
    def test_same_seed_same_bytes(self, method):
        model = LevyModel(sigma2=0.01, gamma=0.1, jumps=ExponentialJumps(2.0, 1.0))
        sampler = IncrementSampler(model=model, delta=0.5, method=method, seed=42)
        a = sample_increments(sampler, 5_000).values
        b = sample_increments(sampler, 5_000).values
        np.testing.assert_array_equal(a, b)
        other = IncrementSampler(model=model, delta=0.5, method=method, seed=43)
        c = sample_increments(other, 5_000).values
        assert not np.array_equal(a, c)

    def test_validation(self):
        model = LevyModel(sigma2=0.01, gamma=0.0, jumps=None)
        with pytest.raises(InputError, match="method"):
            IncrementSampler(model=model, delta=0.5, method="bogus", seed=1)
        with pytest.raises(InputError, match="positive"):
            IncrementSampler(model=model, delta=0.0, method=ICDF, seed=1)
        good = IncrementSampler(model=model, delta=0.5, method=ICDF, seed=1)
        with pytest.raises(InputError, match="n >= 1"):
            sample_increments(good, 0)
