"""Direct observation scheme: empirical cf derivatives and the curvature ratio.

Oracles
-------
* Exponential-jump compound Poisson (intensity 1, unit rate), hand-derived
  under the zero-mean jump compensation used throughout the package:
      psi(u)   = 1/(1-iu) - 1 - iu
      psi'(u)  = i (1-iu)^{-2} - i
      psi''(u) = -2 (1-iu)^{-3}
  The curvature is cross-checked once against the quadrature route in
  levyq.models to guard the hand derivation itself.
* Increment sampler (local to this file): an increment over time delta is
      gamma*delta + sigma*sqrt(delta)*Z + sum_{i<=N} J_i - delta*lam*mean_J
  with N ~ Poisson(lam*delta); the subtraction matches the compensated
  drift convention.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levyq.errors import InputError
from levyq.increments import (
    IncrementSample,
    _curvature_ratio,
    _ecf_all,
    _progression_block,
    psi2_from_increments,
    read_increment_csv,
)
from levyq.models import ExponentialJumps, LevyModel, exponent_curvature
from levyq.numerics import _BLOCK, FrequencyGrid


def psi_cp(u):
    u = np.asarray(u, dtype=complex)
    return 1.0 / (1.0 - 1j * u) - 1.0 - 1j * u


def psi1_cp(u):
    u = np.asarray(u, dtype=complex)
    return 1j / (1.0 - 1j * u) ** 2 - 1j


def psi2_cp(u):
    u = np.asarray(u, dtype=complex)
    return -2.0 / (1.0 - 1j * u) ** 3


def sample_cp_increments(rng, n, delta, sigma2, gamma, lam=1.0, rate=1.0):
    """Compensated compound-Poisson + Brownian increments."""
    counts = rng.poisson(lam * delta, size=n)
    sizes = rng.exponential(1.0 / rate, size=counts.sum())
    jump_sums = np.bincount(np.repeat(np.arange(n), counts), weights=sizes,
                            minlength=n)
    z = rng.standard_normal(n)
    mean_jump = 1.0 / rate
    return (
        gamma * delta
        + math.sqrt(sigma2 * delta) * z
        + jump_sums
        - delta * lam * mean_jump
    )


def test_hand_derivation_matches_quadrature_route():
    model = LevyModel(sigma2=0.0, gamma=0.0, jumps=ExponentialJumps(1.0, 1.0))
    for u in (0.0, 1.0, 3.5):
        assert complex(exponent_curvature(model, u)) == pytest.approx(
            complex(psi2_cp(u)), abs=1e-9
        )


def ecf_at(sample, u, k):
    """k-th empirical cf derivative at the scalar frequency u."""
    return _ecf_all(sample.values, np.array([u]))[k][0]


def psi2_at(sample, u):
    """Curvature estimate at any frequencies from the primitives that
    psi2_from_increments tabulates: the curvature ratio where
    |phi| >= (delta n)^{-1/2}, else exactly 0."""
    phi0, phi1, phi2 = _ecf_all(sample.values, np.atleast_1d(u))
    trusted = np.abs(phi0) >= 1.0 / math.sqrt(sample.delta * sample.n)
    safe0 = np.where(trusted, phi0, 1.0)
    return np.where(trusted,
                    _curvature_ratio(safe0, phi1, phi2, sample.delta), 0.0)


class TestEcfDerivative:
    def test_mass_at_zero(self):
        s = IncrementSample(np.array([0.3, -1.2, 4.0]), delta=0.5)
        assert ecf_at(s, 0.0, 0) == pytest.approx(1.0, abs=0)

    def test_two_point_cosine(self):
        s = IncrementSample(np.array([-1.0, 1.0]), delta=1.0)
        assert abs(ecf_at(s, math.pi / 2.0, 0)) < 1e-12

    def test_second_derivative_at_zero(self):
        s = IncrementSample(np.array([-1.0, 1.0]), delta=1.0)
        assert ecf_at(s, 0.0, 2) == pytest.approx(-1.0, abs=1e-15)

    def test_first_derivative_closed_form(self):
        # (1/n) sum iY e^{iuY} for a single point is i y e^{iuy}
        s = IncrementSample(np.array([0.7]), delta=1.0)
        u = 2.3
        expected = 1j * 0.7 * np.exp(1j * u * 0.7)
        assert ecf_at(s, u, 1) == pytest.approx(expected, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(7)
        s = IncrementSample(rng.standard_normal(40), delta=0.2)
        u = np.array([-3.0, 0.0, 1.7, 9.2])
        for k in (0, 1, 2):
            vec = _ecf_all(s.values, u)[k]
            scal = np.array([ecf_at(s, float(x), k) for x in u])
            # batched and single-point paths may differ by SIMD rounding
            np.testing.assert_allclose(vec, scal, atol=1e-15, rtol=1e-14)


def direct_ecf(values, u):
    """Reference (1/n) sum_j (iY_j)^k e^{iuY_j}, k = 0, 1, 2, node by node."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    out = np.empty((3, u.size), dtype=complex)
    for lo in range(0, u.size, 256):
        phase = np.exp(1j * u[lo : lo + 256, None] * values[None, :])
        for k in range(3):
            out[k, lo : lo + 256] = phase @ ((1j * values) ** k) / values.size
    return out


def assert_matches_direct(got, values, u, rtol=1e-12):
    # relative to the largest |phi_k|: the reference itself carries rounding
    # of order eps * |u Y| per term, which swamps entries where phi_k ~ 0
    want = direct_ecf(values, u)
    for k in range(3):
        assert got[k].shape == want[k].shape
        if want[k].size:
            err = np.max(np.abs(got[k] - want[k])) / np.max(np.abs(want[k]))
            assert err <= rtol, (k, err)


@pytest.fixture(scope="module")
def jumpy_values():
    # Gaussian part plus one-sided jumps, as in the compound-Poisson demo;
    # 2000 samples span several sample chunks at every grid size below
    rng = np.random.default_rng(17)
    jumps = rng.exponential(1.0, 2000) * (rng.random(2000) < 0.3)
    return rng.standard_normal(2000) * 0.5 + jumps


class TestBlockedEcf:
    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("points", [128, 512, 8192])
    def test_uniform_grid_matches_direct_sum(self, jumpy_values, points, offset):
        u = FrequencyGrid(cutoff=20.0, points=points, offset=offset).u
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_partial_last_block(self, jumpy_values):
        u = np.linspace(-5.0, 7.0, 100)
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_descending_progression_in_input_order(self, jumpy_values):
        u = FrequencyGrid(cutoff=10.0, points=256).u[::-1]
        assert _progression_block(u) == 64
        assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)

    def test_non_uniform_nodes_in_input_order(self, jumpy_values):
        rng = np.random.default_rng(3)
        grid = FrequencyGrid(cutoff=20.0, points=512).u
        for u in (rng.uniform(-20.0, 20.0, 300),
                  rng.permutation(grid),
                  np.where(np.arange(grid.size) == 200, grid + 1e-3, grid)):
            assert _progression_block(u) == 1
            assert_matches_direct(_ecf_all(jumpy_values, u), jumpy_values, u)
        # a non-finite node must not be replaced by its block's progression
        assert _progression_block(np.where(grid == grid[200], np.nan, grid)) == 1

    def test_scalar_length_one_and_empty(self, jumpy_values):
        s = IncrementSample(jumpy_values, delta=0.5)
        want = direct_ecf(jumpy_values, 2.3)
        for k in range(3):
            got = _ecf_all(s.values, np.array([2.3]))[k]
            assert got.shape == (1,)
            assert abs(got[0] - want[k, 0]) <= 1e-12 * abs(want[k, 0])
        u1 = np.array([-4.1])
        assert_matches_direct(_ecf_all(jumpy_values, u1), jumpy_values, u1)
        empty = np.array([])
        assert_matches_direct(_ecf_all(jumpy_values, empty), jumpy_values, empty)
        assert psi2_at(s, empty).shape == (0,)

    # Long running products.  Scaled by 6 the samples reach |Y| = 40, so
    # at cutoff 300 the phases pass |uY| = 1.2e4 rad; 2^16 and 2^19 points
    # give 8 and 64 re-seeded runs of start rows.  The direct sum is taken
    # on every 97th node only.
    @pytest.mark.parametrize("offset", [False, True])
    @pytest.mark.parametrize("points", [2 ** 16, 2 ** 19])
    def test_long_products_match_direct_sum(self, jumpy_values, points, offset):
        values = 6.0 * jumpy_values
        u = FrequencyGrid(cutoff=300.0, points=points, offset=offset).u
        assert np.max(np.abs(u)) * np.max(np.abs(values)) > 1e4
        assert u.size // 64 > 64   # more than one run of start rows
        got = _ecf_all(values, u)
        sub = slice(None, None, 97)
        assert_matches_direct(tuple(g[sub] for g in got), values, u[sub])

    @pytest.mark.parametrize("points", [2 ** 13, 2 ** 16, 2 ** 19])
    def test_phase_rounding_does_not_grow_with_node_count(self, points):
        # dyadic nodes and samples make every product u * y exact, so the
        # direct exponential is right to 1 ulp and the difference is the
        # rounding of the running products alone; re-seeding keeps it
        # under 2 * _BLOCK ulp (a single run of start rows reaches 800 ulp
        # at 2^19 points)
        u = np.arange(1, points // 2 + 1) * 2.0 ** -10
        for y in (40.375, -3.125, 0.8125, 1000.5):
            got = _ecf_all(np.array([y]), u)
            want = np.exp(1j * u * y)
            for k in range(3):
                err = np.max(np.abs(got[k] - (1j * y) ** k * want)) / abs(y) ** k
                assert err <= 2 * _BLOCK * np.finfo(float).eps, (y, k, err)

    def test_partial_last_run_and_block(self, jumpy_values):
        # 10,000 nodes: 157 starts, i.e. runs of 64, 64 and 29 start rows,
        # and a last block of 16 nodes
        u = np.linspace(0.5, 300.0, 10_000)
        assert _progression_block(u) == 64
        got = _ecf_all(jumpy_values, u)
        sub = slice(None, None, 37)
        assert_matches_direct(tuple(g[sub] for g in got), jumpy_values, u[sub])
        assert_matches_direct(tuple(g[-64:] for g in got), jumpy_values, u[-64:])

    def test_long_descending_progression(self, jumpy_values):
        u = FrequencyGrid(cutoff=300.0, points=2 ** 16).u[::-1]
        got = _ecf_all(jumpy_values, u)
        sub = slice(None, None, 97)
        assert_matches_direct(tuple(g[sub] for g in got), jumpy_values, u[sub])

    # The largest phase |uY| is drawn and the samples are scaled to it.  Up
    # to 2,000 rad the worst of 600 random draws was 3.9e-13.  Beyond that,
    # on coarse plain grids, the nodes alone (linspace leaves them up to
    # 2 ulp(cutoff) off the progression the factored sum follows) move
    # phi'' by up to 2e-12 of its peak; the finer grids above reach 1.2e4 rad.
    @given(cutoff=st.floats(1.0, 300.0), k=st.integers(7, 16),
           offset=st.booleans(), span=st.floats(1.0, 2000.0))
    @settings(max_examples=20, deadline=None)
    def test_grids_match_direct_sum(self, jumpy_values, cutoff, k, offset,
                                    span):
        values = jumpy_values * (span / (cutoff * np.max(np.abs(jumpy_values))))
        u = FrequencyGrid(cutoff=cutoff, points=2 ** k, offset=offset).u
        got = _ecf_all(values, u)
        sub = slice(None, None, max(1, u.size // 400))
        assert_matches_direct(tuple(g[sub] for g in got), values, u[sub])


class TestHermitianEcf:
    @given(cutoff=st.floats(0.1, 300.0), k=st.integers(1, 10),
           u=st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_mirror_is_signed_conjugate(self, jumpy_values, cutoff, k, u):
        # phi_k(-u) = (-1)^k conj phi_k(u), on a grid's positive nodes (the
        # blocked sum) and on arbitrary frequencies (the direct sum)
        for nodes in (FrequencyGrid(cutoff=cutoff, points=2 ** k).u,
                      np.array(u)):
            pos, neg = _ecf_all(jumpy_values, nodes), _ecf_all(jumpy_values, -nodes)
            for order in range(3):
                scale = np.mean(np.abs(jumpy_values) ** order)
                np.testing.assert_allclose(
                    neg[order], (-1) ** order * np.conj(pos[order]),
                    rtol=0, atol=1e-12 * scale)


class TestIncrementSample:
    def test_validation(self):
        with pytest.raises(InputError):
            IncrementSample(np.array([]), delta=0.1)
        with pytest.raises(InputError):
            IncrementSample(np.array([1.0, np.nan]), delta=0.1)
        with pytest.raises(InputError):
            IncrementSample(np.array([1.0]), delta=0.0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "inc.csv"
        orig = np.array([0.25, -1.5, 3.125e-4, 0.1 + 0.2])
        path.write_text("increment\n" + "".join(f"{float(v)!r}\n" for v in orig))
        back = read_increment_csv(path, delta=0.1)
        np.testing.assert_array_equal(back.values, orig)
        assert back.delta == 0.1

    def test_csv_not_utf8_names_line(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"increment\n1.0\n\xb10.5\n")
        with pytest.raises(InputError, match=r":3: not UTF-8"):
            read_increment_csv(path, delta=0.1)

    def test_csv_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("value\n1.0\n")
        with pytest.raises(InputError, match="increment"):
            read_increment_csv(path, delta=0.1)

    def test_csv_bad_number_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("increment\n1.0\noops\n")
        with pytest.raises(InputError, match=":3"):
            read_increment_csv(path, delta=0.1)

    def test_csv_extra_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("increment\n1.0,2.0\n")
        with pytest.raises(InputError, match="one column"):
            read_increment_csv(path, delta=0.1)

    def test_csv_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(InputError):
            read_increment_csv(path, delta=0.1)
        path.write_text("increment\n")
        with pytest.raises(InputError, match="no increment rows"):
            read_increment_csv(path, delta=0.1)


class TestCurvatureEstimate:
    def test_exact_plugin_recovers_curvature(self):
        # replace each empirical phi^(k) by the true derivatives of
        # e^{delta psi}: the ratio must return psi'' identically
        delta = 0.1
        for u in (0.0, 1.0, 5.0):
            psi, p1, p2 = psi_cp(u), psi1_cp(u), psi2_cp(u)
            phi0 = np.exp(delta * psi)
            phi1 = delta * p1 * phi0
            phi2 = (delta * p2 + (delta * p1) ** 2) * phi0
            got = _curvature_ratio(phi0, phi1, phi2, delta)
            assert got == pytest.approx(complex(psi2_cp(u)), abs=1e-10)

    def test_exact_plugin_pure_brownian(self):
        sigma2, gamma, delta = 0.09, 0.4, 0.25
        for u in (0.0, 2.0, -7.0):
            psi = -0.5 * sigma2 * u ** 2 + 1j * gamma * u
            p1 = -sigma2 * u + 1j * gamma
            phi0 = np.exp(delta * psi)
            phi1 = delta * p1 * phi0
            phi2 = (delta * (-sigma2) + (delta * p1) ** 2) * phi0
            got = _curvature_ratio(phi0, phi1, phi2, delta)
            assert got == pytest.approx(-sigma2 + 0j, abs=1e-12)

    def test_indicator_zeroes_untrusted_frequencies(self):
        # n=2, delta=0.1: threshold 1/sqrt(0.2) > 1 >= |phi|, so the whole
        # axis is untrusted and the table must be exactly 0
        s = IncrementSample(np.array([-1.0, 1.0]), delta=0.1)
        spectra = psi2_from_increments(s, FrequencyGrid(11.0, 8))
        assert not spectra.trusted.any()
        np.testing.assert_array_equal(spectra.psi2, np.zeros(4, dtype=complex))
        np.testing.assert_array_equal(spectra.psi1, np.zeros(4, dtype=complex))

    def test_trusted_region_is_active_for_large_samples(self):
        rng = np.random.default_rng(3)
        s = IncrementSample(rng.standard_normal(1000) * 0.05, delta=0.1)
        spectra = psi2_from_increments(s, FrequencyGrid(1.0, 16))
        assert spectra.psi2[0] != 0.0

    def test_requires_two_increments(self):
        with pytest.raises(InputError):
            psi2_from_increments(IncrementSample(np.array([1.0]), delta=0.1),
                                 FrequencyGrid(1.0, 16))

    def test_packaged_estimator(self, jumpy_values):
        # the table holds the primitives' values bitwise on the trusted
        # nodes and exact zeros off them, with no quote-noise summary
        s = IncrementSample(jumpy_values, delta=0.5)
        grid = FrequencyGrid(30.0, 512)
        spectra = psi2_from_increments(s, grid)
        phi0, phi1, phi2 = _ecf_all(s.values, grid.u)
        trusted = spectra.trusted
        np.testing.assert_array_equal(
            trusted, np.abs(phi0) >= 1.0 / math.sqrt(0.5 * s.n))
        assert trusted.any() and not trusted.all()
        np.testing.assert_array_equal(spectra.phi, phi0)
        np.testing.assert_array_equal(
            spectra.psi2[trusted],
            _curvature_ratio(phi0, phi1, phi2, 0.5)[trusted])
        np.testing.assert_array_equal(
            spectra.psi1[trusted], (phi1 / (0.5 * phi0))[trusted])
        for values in (spectra.psi1, spectra.psi2):
            np.testing.assert_array_equal(values[~trusted], 0.0)
        assert spectra.grid is grid
        assert (spectra.horizon, spectra.n_obs) == (0.5, s.n)
        assert spectra.sup_norms is None and spectra.noise_scale is None

    def test_first_derivative_recovers_exponent_slope(self):
        # psi1 = phi' / (delta phi): on the true cf e^{delta psi} it is
        # psi' exactly.  Measured sup error on |u| <= 4 for this seed: 0.22
        # at n = 1e3, 0.060 at 1e4, 0.012 at 1e5 (max |psi'| is 1.15)
        rng = np.random.default_rng(19)
        delta = 0.5
        inc = sample_cp_increments(rng, 100_000, delta, 0.0, 0.0)
        spectra = psi2_from_increments(IncrementSample(inc, delta),
                                       FrequencyGrid(4.0, 64))
        assert spectra.trusted.all()
        err = np.abs(spectra.psi1 - psi1_cp(spectra.grid.u))
        assert np.max(err) < 0.03

    def test_drift_invariance(self):
        rng = np.random.default_rng(11)
        base = rng.standard_normal(500) * 0.3
        grid = FrequencyGrid(8.0, 64)
        v0 = psi2_from_increments(IncrementSample(base, delta=0.1), grid).psi2
        vc = psi2_from_increments(IncrementSample(base + 3.7, delta=0.1),
                                  grid).psi2
        active = (v0 != 0) & (vc != 0)
        # the shift leaves |phi| unchanged, so the trust regions coincide
        np.testing.assert_array_equal(v0 != 0, vc != 0)
        assert active.any()
        np.testing.assert_allclose(vc[active], v0[active], rtol=1e-9)

    @given(u=st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_hermitian_symmetry(self, u):
        rng = np.random.default_rng(5)
        s = IncrementSample(rng.standard_normal(200) * 0.2, delta=0.1)
        assert abs(psi2_at(s, -u)[0] - np.conj(psi2_at(s, u)[0])) <= 1e-12


class TestMonteCarloConsistency:
    def test_error_decreases_with_sample_size(self):
        sigma2, gamma, delta = 0.04, 0.1, 0.1
        model = LevyModel(sigma2=sigma2, gamma=gamma, jumps=ExponentialJumps(1.0, 1.0))
        u = np.linspace(-5.0, 5.0, 21)
        truth = exponent_curvature(model, u)
        seeds = np.random.SeedSequence(20260816).spawn(50)
        med = {}
        for n in (10 ** 3, 10 ** 4, 10 ** 5):
            errs = []
            for ss in seeds:
                rng = np.random.default_rng(ss)
                inc = sample_cp_increments(rng, n, delta, sigma2, gamma)
                est = psi2_at(IncrementSample(inc, delta), u)
                errs.append(np.mean(np.abs(est - truth)))
            med[n] = float(np.median(errs))
        assert med[10 ** 4] < med[10 ** 3]
        assert med[10 ** 5] < med[10 ** 4]
