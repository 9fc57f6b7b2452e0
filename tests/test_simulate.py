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

import numpy as np
import pytest
from scipy import stats

from levyq.errors import InputError
from levyq.models import (
    CompoundPoissonJumps,
    LevyModel,
    VarianceGammaJumps,
    exponential_jumps,
    jump_mean,
    jump_second_moment,
)
from levyq.simulate import METHODS, IncrementSampler, sample_increments


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
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=exponential_jumps(2.0, 1.0))
        sampler = IncrementSampler(model=model, delta=0.5, method=METHODS[0], seed=11)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean=1.0, var=2.0)

    def test_diffusion_and_drift_enter(self):
        model = LevyModel(sigma2=0.09, gamma=-1.5, jumps=exponential_jumps(1.0, 2.0))
        delta = 0.25
        mean = delta * (model.gamma + jump_mean(model.jumps))
        var = delta * (model.sigma2 + jump_second_moment(model.jumps))
        sampler = IncrementSampler(model=model, delta=delta, method=METHODS[0], seed=7)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean, var)

    def test_requires_finite_activity(self, bench_model):
        sampler = IncrementSampler(model=bench_model, delta=0.1, method=METHODS[0], seed=1)
        with pytest.raises(InputError, match="finite-activity"):
            sample_increments(sampler, 10)

    def test_requires_jump_sampler(self):
        bare = exponential_jumps(2.0, 1.0)
        no_sampler = CompoundPoissonJumps(
            density=bare.density, total_mass=bare.total_mass, jump_sampler=None
        )
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=no_sampler)
        sampler = IncrementSampler(model=model, delta=0.5, method=METHODS[0], seed=1)
        with pytest.raises(InputError, match="jump_sampler"):
            sample_increments(sampler, 10)

    def test_oversized_draw_refused_before_sizes(self):
        # 10^6 jumps per increment: the sampler must not be asked for them
        def never(rng, size):
            raise AssertionError(f"asked for {size} jump sizes")

        bare = exponential_jumps(2e6, 1.0)
        jumps = CompoundPoissonJumps(density=bare.density,
                                     total_mass=bare.total_mass,
                                     jump_sampler=never)
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
        sampler = IncrementSampler(model=model, delta=0.5, method=METHODS[0], seed=1)
        with pytest.raises(InputError, match="cap of 10000000 jumps"):
            sample_increments(sampler, 50)


class TestVarianceGammaSubordination:
    def test_moments(self):
        jumps = VarianceGammaJumps(scale=0.2, drift=-0.15, variance_rate=0.3)
        model = LevyModel(sigma2=0.04, gamma=0.6, jumps=jumps)
        delta = 0.5
        mean = delta * (model.gamma + jumps.drift)
        var = delta * (model.sigma2 + jump_second_moment(jumps))
        sampler = IncrementSampler(model=model, delta=delta, method=METHODS[1], seed=3)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean, var)

    def test_skew_direction(self):
        # negative subordinated drift -> left-skewed increments
        jumps = VarianceGammaJumps(scale=0.2, drift=-0.5, variance_rate=0.4)
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
        sampler = IncrementSampler(model=model, delta=1.0, method=METHODS[1], seed=5)
        values = sample_increments(sampler, 50_000).values
        assert stats.skew(values) < -0.2

    def test_requires_vg(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=exponential_jumps(2.0, 1.0))
        sampler = IncrementSampler(model=model, delta=0.5, method=METHODS[1], seed=1)
        with pytest.raises(InputError, match="variance-gamma"):
            sample_increments(sampler, 10)


class TestInverseCdf:
    def test_pure_brownian_moments(self):
        model = LevyModel(sigma2=0.09, gamma=1.0, jumps=None)
        sampler = IncrementSampler(model=model, delta=0.1, method=METHODS[2], seed=9)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean=0.1, var=0.009)

    def test_matches_exact_compound_poisson_in_distribution(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=exponential_jumps(2.0, 1.0))
        n = 100_000
        exact = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=METHODS[0], seed=21), n
        ).values
        tabulated = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=METHODS[2], seed=22), n
        ).values
        ks = stats.ks_2samp(exact, tabulated).statistic
        assert ks < 0.01

    def test_atom_frequency(self):
        # driftless finite activity: P(no jump) = exp(-lam*delta) lands exactly
        # on gamma*delta, so exact float equality counts the atom
        lam, delta, gamma = 2.0, 0.5, 0.3
        model = LevyModel(sigma2=0.0, gamma=gamma, jumps=exponential_jumps(lam, 1.0))
        sampler = IncrementSampler(model=model, delta=delta, method=METHODS[2], seed=13)
        values = sample_increments(sampler, 100_000).values
        p0 = math.exp(-lam * delta)
        hits = np.mean(values == gamma * delta)
        se = math.sqrt(p0 * (1 - p0) / values.size)
        assert abs(hits - p0) < 5 * se

    def test_benchmark_model_moments(self, bench_model):
        delta = 0.05
        mean = delta * (bench_model.gamma + jump_mean(bench_model.jumps))
        var = delta * (bench_model.sigma2 + jump_second_moment(bench_model.jumps))
        sampler = IncrementSampler(model=bench_model, delta=delta, method=METHODS[2], seed=17)
        values = sample_increments(sampler, 100_000).values
        _moment_check(values, mean, var)

    def test_variance_gamma_cross_method(self):
        jumps = VarianceGammaJumps(scale=0.2, drift=-0.15, variance_rate=0.3)
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
        n = 100_000
        sub = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=METHODS[1], seed=31), n
        ).values
        tab = sample_increments(
            IncrementSampler(model=model, delta=0.5, method=METHODS[2], seed=32), n
        ).values
        assert stats.ks_2samp(sub, tab).statistic < 0.01

    def test_degenerate_pure_drift(self):
        model = LevyModel(sigma2=0.0, gamma=0.4, jumps=None)
        sampler = IncrementSampler(model=model, delta=0.5, method=METHODS[2], seed=1)
        values = sample_increments(sampler, 100).values
        np.testing.assert_array_equal(values, np.full(100, 0.2))


class TestReproducibility:
    @pytest.mark.parametrize("method", METHODS)
    def test_same_seed_same_bytes(self, method):
        if method == METHODS[1]:
            jumps = VarianceGammaJumps(scale=0.2, drift=-0.15, variance_rate=0.3)
        else:
            jumps = exponential_jumps(2.0, 1.0)
        model = LevyModel(sigma2=0.01, gamma=0.1, jumps=jumps)
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
            IncrementSampler(model=model, delta=0.0, method=METHODS[2], seed=1)
        good = IncrementSampler(model=model, delta=0.5, method=METHODS[2], seed=1)
        with pytest.raises(InputError, match="n >= 1"):
            sample_increments(good, 0)
