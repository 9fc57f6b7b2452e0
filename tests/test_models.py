import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from levyq.errors import InputError, NoSolutionError, NumericalError
from levyq.models import (
    CGMYJumps,
    CompoundPoissonJumps,
    LevyModel,
    TailIntegralOracle,
    VarianceGammaJumps,
    characteristic_exponent,
    exponent_curvature,
    exponential_jumps,
    jump_second_moment,
    levy_density,
    martingale_drift,
    tail_integral,
    total_mass,
    true_quantile,
)
from conftest import BENCH, TRUE_QUANTILES


# ---------------------------------------------------------------------------
# independent quadrature oracles (kept dumb on purpose)
# ---------------------------------------------------------------------------

def cgmy_density(x, C, G, M, Y):
    a = abs(x)
    tilt = M if x > 0 else G
    return C * a ** (-1.0 - Y) * math.exp(-tilt * a)


def jump_exponent_by_quadrature(u, C, G, M, Y):
    """Direct adaptive quadrature of int (e^{iux}-1-iux) nu(dx)."""
    def part(take, lo, hi):
        def f(x):
            val = (np.exp(1j * u * x) - 1.0 - 1j * u * x) * cgmy_density(x, C, G, M, Y)
            return take(val)
        return quad(f, lo, hi, limit=400, epsabs=1e-12, epsrel=1e-12)[0]

    out = 0.0 + 0.0j
    for lo, hi in ((-np.inf, 0.0), (0.0, np.inf)):
        out += part(np.real, lo, hi) + 1j * part(np.imag, lo, hi)
    return out


def exp_growth_correction_by_quadrature(C, G, M, Y):
    """int (e^x - 1 - x) nu(dx) for the benchmark measure.

    The right-tail integrand is written as e^{(1-M)x} (1 - (1+x)e^{-x})
    times the power factor so the infinite-interval transform of quad never
    evaluates e^x at huge arguments.
    """
    def right_f(x):
        return C * x ** (-1.0 - Y) * np.exp((1.0 - M) * x) * (1.0 - (1.0 + x) * np.exp(-x))

    def left_f(x):
        return (np.exp(x) - 1.0 - x) * cgmy_density(x, C, G, M, Y)

    left = quad(left_f, -np.inf, 0.0, limit=400, epsabs=1e-12)[0]
    right = quad(right_f, 0.0, np.inf, limit=400, epsabs=1e-12)[0]
    return left + right


class TestCharacteristicExponent:
    def test_zero_frequency_vanishes(self, bench_model):
        assert characteristic_exponent(bench_model, 0.0) == 0.0

    def test_martingale_model_vanishes_at_minus_i(self, bench_model):
        assert abs(characteristic_exponent(bench_model, -1j)) < 1e-10

    def test_closed_form_matches_quadrature_at_u2(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=CGMYJumps(**BENCH))
        got = characteristic_exponent(model, 2.0)
        want = jump_exponent_by_quadrature(2.0, **BENCH)
        assert abs(got - want) < 1e-6

    def test_closed_form_matches_quadrature_on_window(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=CGMYJumps(**BENCH))
        for u in (-50.0, -7.3, 0.5, 13.0, 50.0):
            want = jump_exponent_by_quadrature(u, **BENCH)
            assert abs(characteristic_exponent(model, u) - want) < 1e-6

    def test_strip_violation_rejected(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=CGMYJumps(**BENCH))
        with pytest.raises(InputError):
            characteristic_exponent(model, 1.0 - 9j)   # below -M
        with pytest.raises(InputError):
            characteristic_exponent(model, 1.0 + 6j)   # above G

    def test_unsupported_activity_index(self):
        with pytest.raises(InputError):
            CGMYJumps(C=1.0, G=5.0, M=8.0, Y=1.0)
        with pytest.raises(InputError):
            CGMYJumps(C=1.0, G=5.0, M=8.0, Y=0.0)

    def test_compound_poisson_quadrature_route(self):
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=exponential_jumps(1.0, 1.0))
        # closed form for nu = e^{-x} 1{x>0}: int (e^{iux}-1-iux) e^{-x} dx
        #   = iu/(1-iu) - ... easier: 1/(1-iu) - 1 - iu
        for u in (0.7, 3.0):
            want = 1.0 / (1.0 - 1j * u) - 1.0 - 1j * u
            got = characteristic_exponent(model, u)
            assert abs(got - want) < 1e-9

    def test_variance_gamma_reduces_to_subordination_formula(self):
        vg = VarianceGammaJumps(scale=0.2, drift=-0.1, variance_rate=0.3)
        model = LevyModel(sigma2=0.0, gamma=vg.drift, jumps=vg)
        u = 1.7
        want = -np.log(1 - 1j * vg.drift * vg.variance_rate * u
                       + 0.5 * vg.scale ** 2 * vg.variance_rate * u ** 2) / vg.variance_rate
        assert abs(characteristic_exponent(model, u) - want) < 1e-12

    @given(u=st.floats(0.01, 60))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_symmetry(self, u, bench_model):
        a = characteristic_exponent(bench_model, u)
        b = characteristic_exponent(bench_model, -u)
        assert abs(b - np.conj(a)) < 1e-12 * max(1.0, abs(a))


class TestExponentCurvature:
    def test_matches_finite_differences(self, bench_model):
        du = 1e-4
        for u in (0.0, 1.3, 8.0):
            fd = (characteristic_exponent(bench_model, u + du)
                  - 2 * characteristic_exponent(bench_model, u)
                  + characteristic_exponent(bench_model, u - du)) / du ** 2
            assert abs(exponent_curvature(bench_model, u) - fd) < 1e-6

    def test_pure_brownian_is_constant(self):
        model = LevyModel(sigma2=0.04, gamma=1.0)
        vals = exponent_curvature(model, np.linspace(-5, 5, 11))
        assert np.allclose(vals, -0.04)

    def test_second_moment_at_zero(self, bench_model):
        # psi''(0) = -(sigma^2 + int x^2 nu(dx))
        m2 = quad(lambda x: x * x * cgmy_density(x, **BENCH), 0, np.inf)[0]
        m2 += quad(lambda x: x * x * cgmy_density(x, **BENCH), -np.inf, 0)[0]
        got = exponent_curvature(bench_model, 0.0)
        assert got.real == pytest.approx(-(bench_model.sigma2 + m2), rel=1e-9)
        assert abs(got.imag) < 1e-12

    def test_jump_second_moment_helper(self, bench_jumps):
        m2 = quad(lambda x: x * x * cgmy_density(x, **BENCH), 0, np.inf)[0]
        m2 += quad(lambda x: x * x * cgmy_density(x, **BENCH), -np.inf, 0)[0]
        assert jump_second_moment(bench_jumps) == pytest.approx(m2, rel=1e-9)


class TestMartingaleDrift:
    def test_no_jumps_zero_vol(self):
        assert martingale_drift(0.0, None) == 0.0

    def test_no_jumps(self):
        assert martingale_drift(0.01, None) == -0.005

    def test_benchmark_measure_matches_quadrature(self):
        got = martingale_drift(0.01, CGMYJumps(**BENCH))
        want = -0.005 - exp_growth_correction_by_quadrature(**BENCH)
        assert got == pytest.approx(want, abs=1e-8)

    def test_cross_check_via_exponent(self, bench_model):
        # drift was fixed so that psi(-i) = 0
        assert abs(characteristic_exponent(bench_model, -1j)) < 1e-10

    def test_requires_exponential_moment(self):
        with pytest.raises(InputError):
            martingale_drift(0.0, CGMYJumps(C=1.0, G=5.0, M=0.9, Y=0.5))
        with pytest.raises(InputError):
            martingale_drift(0.0, exponential_jumps(1.0, 1.0))  # rate 1: no e^x moment


class TestTailIntegral:
    def test_exponential_closed_form(self):
        oracle = TailIntegralOracle(jumps=exponential_jumps(1.0, 1.0))
        assert tail_integral(oracle, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_benchmark_right_tail_half_level(self, bench_oracle):
        # exact root of N(t) = 0.5 (the printed benchmark value 0.1241 sits
        # ~1.4e-3 below the true root; see conftest.PRINTED_QUANTILES)
        assert tail_integral(bench_oracle, 0.125468) == pytest.approx(0.5, abs=5e-6)

    def test_benchmark_left_tail_half_level(self, bench_oracle):
        assert tail_integral(bench_oracle, -0.178525) == pytest.approx(0.5, abs=5e-6)

    def test_monotone_on_positive_axis(self, bench_oracle):
        ts = np.linspace(0.05, 2.0, 25)
        vals = [tail_integral(bench_oracle, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_zero_rejected(self, bench_oracle):
        with pytest.raises(InputError):
            tail_integral(bench_oracle, 0.0)


class TestTrueQuantile:
    @pytest.mark.parametrize("tau", sorted(TRUE_QUANTILES))
    def test_frozen_benchmark_values(self, bench_oracle, tau):
        q_minus, q_plus = TRUE_QUANTILES[tau]
        assert true_quantile(bench_oracle, tau, "-") == pytest.approx(q_minus, abs=1e-6)
        assert true_quantile(bench_oracle, tau, "+") == pytest.approx(q_plus, abs=1e-6)

    def test_exponential_closed_form(self):
        oracle = TailIntegralOracle(jumps=exponential_jumps(1.0, 1.0))
        assert true_quantile(oracle, 0.5, "+") == pytest.approx(math.log(2.0), abs=1e-6)

    def test_roundtrip_through_tail(self, bench_oracle):
        for tau in (0.3, 1.0, 2.2):
            q = true_quantile(bench_oracle, tau, "+")
            assert tail_integral(bench_oracle, q) == pytest.approx(tau, abs=1e-6)

    def test_level_exceeding_mass(self):
        oracle = TailIntegralOracle(jumps=exponential_jumps(1.0, 1.0))
        with pytest.raises(NoSolutionError):
            true_quantile(oracle, 10.0, "+")


def bowley_skewness(oracle, tau):
    """Quantile-based asymmetry |q^- - q^+| / (q^- + q^+) at level tau."""
    qm = true_quantile(oracle, tau, "-")
    qp = true_quantile(oracle, tau, "+")
    return abs(qm - qp) / (qm + qp)


class TestBowleySkewness:
    def test_symmetric_measure_is_zero(self):
        jumps = CGMYJumps(C=1.0, G=6.0, M=6.0, Y=0.5)
        assert bowley_skewness(TailIntegralOracle(jumps=jumps), 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_benchmark_values(self, bench_oracle):
        for tau in (0.5, 2.0):
            qm, qp = TRUE_QUANTILES[tau]
            assert bowley_skewness(bench_oracle, tau) == pytest.approx(
                abs(qm - qp) / (qm + qp), abs=1e-5)


def tail_by_quadrature(jumps, t):
    """N(t) by adaptive quadrature of levy_density, to 1e-12 relative."""
    s, sign = abs(t), math.copysign(1.0, t)

    def dens(y):
        return float(levy_density(jumps, sign * y))

    mid = max(2.0 * s, 1.0)
    return sum(quad(dens, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
               for lo, hi in ((s, mid), (mid, np.inf)))


def quadrature_spec(jumps):
    """The same measure as a compound-Poisson density without a `tail`.

    tail_integral then takes its quadrature route, which was the route of
    every family before the closed forms.  total_mass is a placeholder:
    only the tail is queried.
    """
    return CompoundPoissonJumps(density=lambda x: levy_density(jumps, x),
                                total_mass=1.0)


CLOSED_FORM_YS = (-0.5, 0.2, 0.5, 0.9, 1.5, 1.8)
TAIL_POINTS = np.geomspace(1e-3, 5.0, 25)


def assert_tails_match_quadrature(jumps, rel=1e-10):
    for t in np.concatenate([TAIL_POINTS, -TAIL_POINTS]):
        want = tail_by_quadrature(jumps, t)
        assert tail_integral(jumps, t) == pytest.approx(want, rel=rel, abs=0.0)


class TestClosedFormTails:
    @pytest.mark.parametrize("Y", CLOSED_FORM_YS)
    def test_cgmy_matches_quadrature(self, Y):
        assert_tails_match_quadrature(CGMYJumps(C=1.0, G=5.0, M=8.0, Y=Y))

    def test_variance_gamma_matches_quadrature(self):
        assert_tails_match_quadrature(
            VarianceGammaJumps(scale=0.25, drift=-0.15, variance_rate=0.4))

    def test_exponential_matches_quadrature(self):
        jumps = exponential_jumps(5.0, 1.5)
        assert_tails_match_quadrature(jumps)
        assert tail_integral(jumps, -0.3) == 0.0
        assert tail_integral(jumps, 0.4) == 5.0 * math.exp(-1.5 * 0.4)

    @pytest.mark.parametrize("Y", (0.5, 1.5))
    def test_untempered_side_is_stable_tail(self, Y):
        # rate 0: N(t) = C |t|^{-Y} / Y on that side
        jumps = CGMYJumps(C=0.7, G=0.0, M=0.0, Y=Y)
        assert_tails_match_quadrature(jumps)
        for t in (0.01, 0.3, 4.0):
            assert tail_integral(jumps, -t) == pytest.approx(
                0.7 * t ** -Y / Y, rel=1e-14)
        tempered_right = CGMYJumps(C=0.7, G=0.0, M=3.0, Y=Y)
        assert_tails_match_quadrature(tempered_right)

    def test_untempered_finite_activity_tail_rejected(self):
        # Y < 0 without tempering: the density is not integrable at infinity
        jumps = CGMYJumps(C=1.0, G=5.0, M=0.0, Y=-0.5)
        with pytest.raises(InputError):
            tail_integral(jumps, 1.0)
        assert np.isfinite(tail_integral(jumps, -1.0))

    @pytest.mark.parametrize("jumps", [
        *(CGMYJumps(C=1.0, G=5.0, M=8.0, Y=Y) for Y in CLOSED_FORM_YS),
        exponential_jumps(5.0, 1.0),
    ], ids=[*(f"cgmy-Y{Y}" for Y in CLOSED_FORM_YS), "cp-exp"])
    def test_true_quantile_equals_quadrature_route(self, jumps):
        # bitwise: the bisection takes the same branch at every step
        sides = "+" if isinstance(jumps, CompoundPoissonJumps) else "-+"
        reference = quadrature_spec(jumps)
        for tau in sorted(TRUE_QUANTILES):
            for side in sides:
                try:
                    want = true_quantile(reference, tau, side)
                except NoSolutionError:
                    with pytest.raises(NoSolutionError):
                        true_quantile(jumps, tau, side)
                    continue
                assert true_quantile(jumps, tau, side) == want


class TestQuadratureRouteFailures:
    """A density the quadrature cannot integrate must raise, not hand a
    wrong N(t) to true_quantile.  Each test switches off the pytest filter
    that turns an IntegrationWarning into an error, so it sees what a user
    sees outside pytest."""

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_divergent_tail_raises(self):
        # |x|^-0.5 on x > 0 has an infinite tail; quad returned N(1) = -2.0
        jumps = CompoundPoissonJumps(
            density=lambda x: x ** -0.5 if x > 0 else 0.0, total_mass=1.0)
        with pytest.raises(NumericalError):
            tail_integral(jumps, 1.0)
        with pytest.raises(NumericalError):
            true_quantile(jumps, 0.5, "+")

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_negative_tail_raises(self):
        jumps = CompoundPoissonJumps(density=lambda x: -math.exp(-abs(x)),
                                     total_mass=1.0)
        with pytest.raises(NumericalError):
            tail_integral(jumps, 1.0)
        with pytest.raises(NumericalError):
            true_quantile(jumps, 0.5, "-")


class TestMassAndDensity:
    def test_total_mass_finite_activity(self):
        assert total_mass(exponential_jumps(2.5, 1.0)) == 2.5
        # tempered stable with Y < 0 has finite mass C Gamma(-Y)(M^Y + G^Y)
        jumps = CGMYJumps(C=1.0, G=2.0, M=3.0, Y=-0.5)
        want = math.gamma(0.5) * (3.0 ** -0.5 + 2.0 ** -0.5)
        assert total_mass(jumps) == pytest.approx(want, rel=1e-12)

    def test_total_mass_infinite_activity_rejected(self, bench_jumps):
        with pytest.raises(InputError):
            total_mass(bench_jumps)
        with pytest.raises(InputError):
            total_mass(VarianceGammaJumps(scale=0.2, drift=0.0, variance_rate=0.3))

    def test_vg_density_integrates_to_exponent_curvature(self):
        vg = VarianceGammaJumps(scale=0.25, drift=-0.15, variance_rate=0.4)
        m2 = quad(lambda x: x * x * levy_density(vg, x), 0, np.inf)[0]
        m2 += quad(lambda x: x * x * levy_density(vg, x), -np.inf, 0)[0]
        assert jump_second_moment(vg) == pytest.approx(m2, rel=1e-8)
