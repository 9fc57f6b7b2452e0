"""Kernel profiles and the numerical moment verifier (tests/conftest.py).

Oracles
-------
* Bridge value by hand: q(s) = 1 - s^3(10 - 15s + 6s^2) at s = 1/2 gives
  1 - (1/8)(10 - 7.5 + 1.5) = 1 - 4/8 = 1/2.
* K(0) closed form: K(0) = (1/2pi) int fk.  The quintic smoothstep is
  symmetric about s = 1/2 (q(s) + q(1-s) = 1), so the bridge contributes
  exactly half its width and int fk = 2c + (1-c), i.e. K(0) = (1+c)/(2pi).
* Triangle-profile kernel in closed form: (1 - cos x) / (pi x^2), an
  independent check of the reconstruction pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyq.errors import InputError
from levyq.kernels import flat_top_kernel
from levyq.numerics import FrequencyGrid, inverse_fourier

from conftest import OrderReport, triangle_kernel, verify_order

DENSE = FrequencyGrid(cutoff=1.0, points=2 ** 16)


@pytest.fixture(scope="module")
def flat():
    return flat_top_kernel(0.5)


@pytest.fixture(scope="module")
def flat_report(flat):
    return verify_order(flat, 4)


@pytest.fixture(scope="module")
def triangle_report():
    return verify_order(triangle_kernel(), 2)


class TestFlatTopProfile:
    def test_plateau_and_support(self, flat):
        assert flat(0.0) == 1.0
        assert flat(1.0) == 0.0
        assert flat(-1.0) == 0.0
        u = np.array([-0.5, -0.2, 0.0, 0.31, 0.5])
        assert np.all(flat(u) == 1.0)
        assert np.all(flat(np.array([1.0, 1.5, -2.0, 40.0])) == 0.0)

    def test_bridge_midpoint_value(self, flat):
        # hand-derived: s = 0.5 -> q = 1 - 0.125 * (10 - 7.5 + 1.5) = 0.5
        assert flat(0.75) == pytest.approx(0.5, abs=1e-15)
        assert flat(-0.75) == pytest.approx(0.5, abs=1e-15)

    def test_bad_flat_radius_rejected(self):
        for c in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(InputError):
                flat_top_kernel(c)

    @given(c=st.floats(min_value=0.05, max_value=0.95))
    @settings(max_examples=40, deadline=None)
    def test_profile_shape_properties(self, c):
        k = flat_top_kernel(c)
        u = np.linspace(0.0, 1.2, 301)
        vals = k(u)
        # range [0, 1], plateau, zero tail, nonincreasing in |u|
        assert np.all(vals <= 1.0 + 1e-15) and np.all(vals >= -1e-15)
        assert np.all(vals[u <= c] == 1.0)
        assert np.all(vals[u >= 1.0] == 0.0)
        assert np.all(np.diff(vals) <= 1e-12)
        # evenness
        assert np.allclose(k(-u), vals, atol=0, rtol=0)

    def test_kernel_value_at_origin(self, flat):
        # closed form (1+c)/(2pi) from the smoothstep symmetry
        K0 = inverse_fourier(flat, DENSE, [0.0]).real[0]
        assert K0 == pytest.approx(1.5 / (2.0 * np.pi), abs=1e-12)

    def test_spatial_decay_envelope(self, flat):
        # C^2 profile => |K(x)| <= C / x^2 on |x| <= 1e3 (measured max of
        # |K| x^2 is ~1.97; bound 3 leaves margin without hiding regressions)
        x = np.logspace(0.0, 3.0, 200)
        K = inverse_fourier(flat, DENSE, x).real
        assert np.max(np.abs(K) * x ** 2) < 3.0

    def test_scaling_identity(self, flat):
        # spectrum fk(h u) reconstructs h^{-1} K(x / h)
        h = 0.3
        x = np.array([0.0, 0.4, 1.1, 2.7])
        lhs = inverse_fourier(lambda u: flat(h * u), DENSE, x).real
        narrow = FrequencyGrid(cutoff=h, points=2 ** 16)
        rhs = inverse_fourier(flat, narrow, x / h).real / h
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestTriangleProfile:
    def test_closed_form_kernel(self):
        # reconstruction must match (1 - cos x)/(pi x^2) pointwise
        tri = triangle_kernel()
        x = np.array([0.5, 1.7, 3.0, 7.3, 20.0, 55.5])
        K = inverse_fourier(tri, DENSE, x).real
        closed = (1.0 - np.cos(x)) / (np.pi * x ** 2)
        np.testing.assert_allclose(K, closed, atol=1e-9)


class TestVerifyOrder:
    def test_flat_top_passes_order_four(self, flat_report):
        rep = flat_report
        assert rep.ok and bool(rep)
        assert rep.failures == ()
        assert abs(rep.residuals[0]) < 1e-8
        for l in range(1, 5):
            assert abs(rep.residuals[l]) < 1e-6, f"moment {l}"

    def test_triangle_fails_exactly_order_two(self, triangle_report):
        rep = triangle_report
        assert not rep.ok and not bool(rep)
        assert rep.failures == (2,)
        assert abs(rep.residuals[0]) < 1e-8  # mass itself is fine
        assert abs(rep.residuals[1]) < 1e-6
        assert abs(rep.residuals[2]) > 1.0

    def test_mass_only_check(self):
        # p = 0 passes iff fk(0) = 1
        assert verify_order(triangle_kernel(), 0).ok
        flat = flat_top_kernel(0.5)
        rep = verify_order(lambda u: 0.9 * flat(u), 0)
        assert not rep.ok
        assert rep.failures == (0,)
        assert rep.residuals[0] == pytest.approx(-0.1, abs=1e-6)

    def test_negative_order_rejected(self, flat):
        with pytest.raises(InputError):
            verify_order(flat, -1)

    def test_report_records_tolerances(self, flat_report):
        assert flat_report.tol == 1e-6
        assert flat_report.mass_tol == 1e-8
        assert isinstance(flat_report, OrderReport)
