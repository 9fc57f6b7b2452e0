import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import levyq.models
from levyq.errors import InputError, NoSolutionError
from levyq.models import (
    CGMYJumps,
    ExponentialJumps,
    LevyModel,
    characteristic_exponent,
    exponent_curvature,
    jump_mean,
    jump_second_moment,
    martingale_drift,
    tail_integral,
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


def levy_density(jumps, x):
    """Intensity density nu(x), x != 0, of either jump family."""
    if isinstance(jumps, ExponentialJumps):
        lam, beta = jumps.intensity, jumps.rate
        return lam * beta * math.exp(-beta * x) if x > 0 else 0.0
    return cgmy_density(x, jumps.C, jumps.G, jumps.M, jumps.Y)


def complex_quad(f, lo, hi):
    """Adaptive quadrature of a complex integrand, parts taken separately."""
    def part(take):
        return quad(lambda x: take(f(x)), lo, hi, limit=400,
                    epsabs=1e-13, epsrel=1e-12)[0]
    return part(np.real) + 1j * part(np.imag)


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
        # Gamma(-Y) overflows from -Y = 171.6243 on (the exponent took
        # inf * 0 at Y = -1e3)
        for Y in (-171.63, -1e3, -1e300):
            with pytest.raises(InputError, match="-171.62"):
                CGMYJumps(C=1.0, G=5.0, M=8.0, Y=Y)
        CGMYJumps(C=1.0, G=5.0, M=8.0, Y=-171.62)

    def test_compound_poisson_quadrature_route(self):
        # the closed forms of the exponential measure against quadrature of
        # its density lam beta e^{-beta x} (e^{-1.5 * 60} is far below 1e-9)
        jumps = ExponentialJumps(2.0, 1.5)
        model = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)

        def nu(x):
            return levy_density(jumps, x)

        for u in (0.7, 3.0, -5.0):
            want = complex_quad(
                lambda x: (np.exp(1j * u * x) - 1.0 - 1j * u * x) * nu(x), 0.0, 60.0)
            assert abs(characteristic_exponent(model, u) - want) < 1e-9
            want = -complex_quad(lambda x: np.exp(1j * u * x) * x * x * nu(x), 0.0, 60.0)
            assert abs(exponent_curvature(model, u) - want) < 1e-9
        assert jump_mean(jumps) == pytest.approx(
            quad(lambda x: x * nu(x), 0.0, 60.0)[0], rel=1e-12)
        assert martingale_drift(0.0, jumps) == pytest.approx(
            -quad(lambda x: (math.exp(x) - 1.0 - x) * nu(x), 0.0, 60.0)[0],
            rel=1e-10)

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
            martingale_drift(0.0, ExponentialJumps(1.0, 1.0))  # rate 1: no e^x moment


class TestTailIntegral:
    def test_exponential_closed_form(self):
        jumps = ExponentialJumps(1.0, 1.0)
        assert tail_integral(jumps, 1.0) == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_benchmark_right_tail_half_level(self, bench_jumps):
        # exact root of N(t) = 0.5 (the printed benchmark value 0.1241 sits
        # ~1.4e-3 below the true root; see conftest.PRINTED_QUANTILES)
        assert tail_integral(bench_jumps, 0.125468) == pytest.approx(0.5, abs=5e-6)

    def test_benchmark_left_tail_half_level(self, bench_jumps):
        assert tail_integral(bench_jumps, -0.178525) == pytest.approx(0.5, abs=5e-6)

    def test_monotone_on_positive_axis(self, bench_jumps):
        ts = np.linspace(0.05, 2.0, 25)
        vals = [tail_integral(bench_jumps, t) for t in ts]
        assert np.all(np.diff(vals) < 0)

    def test_zero_rejected(self, bench_jumps):
        with pytest.raises(InputError):
            tail_integral(bench_jumps, 0.0)


class TestTrueQuantile:
    @pytest.mark.parametrize("tau", sorted(TRUE_QUANTILES))
    def test_frozen_benchmark_values(self, bench_jumps, tau):
        q_minus, q_plus = TRUE_QUANTILES[tau]
        assert true_quantile(bench_jumps, tau, "-") == pytest.approx(q_minus, abs=1e-6)
        assert true_quantile(bench_jumps, tau, "+") == pytest.approx(q_plus, abs=1e-6)

    def test_exponential_closed_form(self):
        jumps = ExponentialJumps(1.0, 1.0)
        assert true_quantile(jumps, 0.5, "+") == pytest.approx(math.log(2.0), abs=1e-6)

    def test_roundtrip_through_tail(self, bench_jumps):
        for tau in (0.3, 1.0, 2.2):
            q = true_quantile(bench_jumps, tau, "+")
            assert tail_integral(bench_jumps, q) == pytest.approx(tau, abs=1e-6)

    def test_level_exceeding_mass(self):
        jumps = ExponentialJumps(1.0, 1.0)
        with pytest.raises(NoSolutionError):
            true_quantile(jumps, 10.0, "+")


def bowley_skewness(jumps, tau):
    """Quantile-based asymmetry |q^- - q^+| / (q^- + q^+) at level tau."""
    qm = true_quantile(jumps, tau, "-")
    qp = true_quantile(jumps, tau, "+")
    return abs(qm - qp) / (qm + qp)


class TestBowleySkewness:
    def test_symmetric_measure_is_zero(self):
        jumps = CGMYJumps(C=1.0, G=6.0, M=6.0, Y=0.5)
        assert bowley_skewness(jumps, 1.0) == pytest.approx(0.0, abs=1e-6)

    def test_benchmark_values(self, bench_jumps):
        for tau in (0.5, 2.0):
            qm, qp = TRUE_QUANTILES[tau]
            assert bowley_skewness(bench_jumps, tau) == pytest.approx(
                abs(qm - qp) / (qm + qp), abs=1e-5)


def tail_by_quadrature(jumps, t):
    """N(t) by adaptive quadrature of levy_density, to 1e-12 relative.

    An independent oracle for `tail_integral`, with the same signature."""
    s, sign = abs(t), math.copysign(1.0, t)

    def dens(y):
        return float(levy_density(jumps, sign * y))

    # the inner panel in log x, where a blow-up at the origin is smooth
    mid = max(2.0 * s, 1.0)
    inner = quad(lambda y: math.exp(y) * dens(math.exp(y)), math.log(s),
                 math.log(mid), epsabs=0.0, epsrel=1e-12, limit=400)[0]
    return inner + quad(dens, mid, np.inf, epsabs=0.0, epsrel=1e-12,
                        limit=400)[0]


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

    def test_exponential_matches_quadrature(self):
        jumps = ExponentialJumps(5.0, 1.5)
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
        ExponentialJumps(5.0, 1.0),
    ], ids=[*(f"cgmy-Y{Y}" for Y in CLOSED_FORM_YS), "cp-exp"])
    def test_true_quantile_equals_quadrature_route(self, jumps, monkeypatch):
        # bitwise: true_quantile's bisection takes the same branch at every
        # step whether it reads the closed-form or the quadrature tail
        sides = "+" if isinstance(jumps, ExponentialJumps) else "-+"
        cells = [(tau, side) for tau in sorted(TRUE_QUANTILES) for side in sides]

        def outcomes():
            out = []
            for tau, side in cells:
                try:
                    out.append(true_quantile(jumps, tau, side))
                except NoSolutionError:
                    out.append(NoSolutionError)
            return out

        closed = outcomes()
        monkeypatch.setattr(levyq.models, "tail_integral", tail_by_quadrature)
        assert outcomes() == closed


# finite-mass measures: CGMY with Y < 0 and tempering on both sides, and
# compound Poisson with exponential sizes
FINITE_MASS = st.one_of(
    st.builds(CGMYJumps, C=st.floats(0.1, 10.0), G=st.floats(0.5, 20.0),
              M=st.floats(0.5, 20.0), Y=st.floats(-3.0, -0.5)),
    st.builds(ExponentialJumps, st.floats(0.1, 10.0), st.floats(0.1, 10.0)))


class TestMassAndDensity:
    @given(jumps=FINITE_MASS)
    @settings(max_examples=60, deadline=None)
    def test_mass_is_the_tail_at_the_origin(self, jumps):
        # nu(R) = N(0+) + N(0-); at t = 1e-12 the tails miss at most
        # 2 C t^{-Y} / (-Y), below 1e-5 relative on these ranges
        t = 1e-12
        got = tail_integral(jumps, t) + tail_integral(jumps, -t)
        assert got == pytest.approx(jumps.mass, rel=1e-5)

    @given(Y=st.floats(1e-3, 1.999).filter(lambda y: y != 1.0))
    @settings(max_examples=20, deadline=None)
    def test_mass_is_infinite_for_nonnegative_Y(self, Y):
        assert CGMYJumps(C=1.0, G=5.0, M=8.0, Y=Y).mass == math.inf

    def test_total_mass_finite_activity(self):
        # the total mass of a finite-activity measure is N(0+) + N(0-)
        assert tail_integral(ExponentialJumps(2.5, 1.0), 1e-300) == 2.5
        assert tail_integral(ExponentialJumps(2.5, 1.0), -1e-300) == 0.0
        # tempered stable with Y < 0 has finite mass C Gamma(-Y)(M^Y + G^Y)
        jumps = CGMYJumps(C=1.0, G=2.0, M=3.0, Y=-0.5)
        want = math.gamma(0.5) * (3.0 ** -0.5 + 2.0 ** -0.5)
        got = tail_integral(jumps, 1e-300) + tail_integral(jumps, -1e-300)
        assert got == pytest.approx(want, rel=1e-12)

    def test_exponential_density_integrates_to_second_moment(self):
        # the closed-form curvature at 0 against quadrature of x^2 nu(x)
        jumps = ExponentialJumps(2.0, 1.5)
        m2 = quad(lambda x: x * x * levy_density(jumps, x), 0, np.inf)[0]
        assert jump_second_moment(jumps) == pytest.approx(m2, rel=1e-8)
