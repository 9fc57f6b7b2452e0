"""Experiment-driver tests.

Oracles:
  * config parsing is checked against hand-built ExperimentConfig values;
  * Monte Carlo truth columns are checked against the frozen root values in
    conftest (dual-route oracle: adaptive quadrature + closed form);
  * the demo recovery bound for compound Poisson Exp(1) jumps uses the
    closed-form tail integral N(t) = intensity * exp(-t), whose tau=0.5
    upper quantile is ln 2;
  * determinism and serialization round-trips are exact-equality checks.

Two benchmark-table expectations are intentionally kept as strict expected
failures rather than loosened: at 100 quotes the piecewise-linear price
interpolant carries a curvature error that overwhelms the shrinking
spectral numerator beyond |u| ~ 12, while every bandwidth on the selection
grid integrates frequencies past 30.  The resulting quantile bias floor
(about 1e-2 to 2e-2 at the best fixed bandwidth, even with zero quote
noise) sits above those expectations.  README section "Known deviations
from the benchmark table" walks through the measurements.
"""

import dataclasses
import json
import math
import re

import numpy as np
import pytest
import scipy.integrate

import levyq.harness
import levyq.options
from levyq.adaptive import _full_grid, build_grid
from levyq.errors import InputError, NumericalError
from levyq.harness import (
    DEFAULT_CHAIN_TAUS,
    _cells_for,
    _chain_estimates,
    ExperimentConfig,
    RmseTable,
    demo_direct,
    estimate_chain,
    load_config,
    observation_model,
    parse_config_text,
    pricing_model,
    run_mc_table,
)
from levyq.inversion import TailInversion, grid_points, tail_quantiles
from levyq.kernels import flat_top_kernel
from levyq.models import ExponentialJumps, martingale_drift
from levyq.numerics import FrequencyGrid
from levyq.options import (_perturbed_chain, _synthetic_design,
                           compute_chain_spectra, generate_synthetic_chain,
                           write_chain_csv)
from levyq.simulate import sample_increments

from conftest import (TRUE_QUANTILES, one_quantile, oracles, sigma_at,
                      tail_estimates)

LN2 = math.log(2.0)

# small-but-valid settings for fast end-to-end runs
TINY_MC = dict(n=32, taus=(1.0,), spectral_points=1024, replications=1,
               seed=11)


def demo_config(**overrides):
    base = dict(kind="compound-poisson-exp", intensity=1.0, jump_rate=1.0,
                sigma=0.0, gamma=0.0, increment_delta=0.5, h=0.05,
                method="exact-compound-poisson", spectral_points=512,
                taus=(0.5,), seed=0, n=1000)
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# configuration parsing


class TestConfigParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == ExperimentConfig()

    def test_full_file_lands_typed(self):
        text = """
        # model
        kind = cgmy
        C = 2.0
        G = 4
        M = 9
        Y = 0.7
        sigma = 0.2
        n = 64
        noise_fraction = 0.02
        taus = 0.5, 1.0, 2.5
        replications = 7
        seed = 3
        spectral_points = 2048
        method = inverse-cdf-from-characteristic-function
        """
        cfg = parse_config_text(text)
        assert cfg.C == 2.0 and cfg.G == 4.0 and cfg.M == 9.0 and cfg.Y == 0.7
        assert cfg.n == 64 and isinstance(cfg.n, int)
        assert cfg.taus == (0.5, 1.0, 2.5)
        assert cfg.replications == 7 and cfg.seed == 3
        assert cfg.method == "inverse-cdf-from-characteristic-function"
        # untouched keys keep their defaults
        assert cfg.T == ExperimentConfig().T

    def test_docstring_names_every_key(self):
        # README sends users to this docstring for the list of keys
        doc = ExperimentConfig.__doc__
        missing = [f.name for f in dataclasses.fields(ExperimentConfig)
                   if not re.search(rf"\b{f.name}\b", doc)]
        assert not missing

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config_text("# only a comment\n\n  \nL = 1.2 # inline\n")
        assert cfg.L == 1.2

    def test_space_separated_taus(self):
        assert parse_config_text("taus = 0.5 1.5").taus == (0.5, 1.5)

    def test_unknown_key_names_line(self):
        with pytest.raises(InputError) as err:
            parse_config_text("n = 100\nbogus_key = 1\n")
        assert "line 2" in str(err.value) and "bogus_key" in str(err.value)

    def test_duplicate_key_names_line(self):
        with pytest.raises(InputError) as err:
            parse_config_text("n = 100\nT = 0.5\nn = 200\n")
        assert "line 3" in str(err.value)

    def test_bad_integer_names_line(self):
        with pytest.raises(InputError) as err:
            parse_config_text("\nn = 12.5\n")
        assert "line 2" in str(err.value)

    def test_missing_equals_names_line(self):
        with pytest.raises(InputError) as err:
            parse_config_text("n 100\n")
        assert "line 1" in str(err.value)

    def test_load_config_reads_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n = 48\nseed = 9\n")
        cfg = load_config(path)
        assert cfg.n == 48 and cfg.seed == 9

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(InputError):
            load_config(tmp_path / "absent.cfg")

    @pytest.mark.parametrize("kwargs", [
        dict(kind="poisson"),
        dict(sigma=1e200),                # sigma^2 overflows
        dict(method="shot-noise"),
        dict(n=0),
        dict(Y=2.0),
        dict(kernel_c=1.0),
        dict(kernel_c=0.0),
        dict(L=1.0),
        dict(T=0.0),
        dict(noise_fraction=-0.1),
        dict(taus=()),
        dict(taus=(1.0, 0.5)),
        dict(taus=(1.0, 1.0)),
        dict(spectral_points=1000),       # not a power of two
        dict(spectral_points=8),          # too small
        dict(x_max=0.01),                 # below eta
        dict(replications=0),
        dict(seed=-1),
        dict(eta=0.003),                  # below the first tail node
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(InputError):
            ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# model assembly


class TestModelAssembly:
    def test_pricing_model_pins_martingale_drift(self):
        cfg = ExperimentConfig(gamma=123.0)   # pricing must ignore gamma
        model = pricing_model(cfg)
        assert model.gamma == pytest.approx(
            martingale_drift(cfg.sigma ** 2, model.jumps), abs=0.0)

    def test_observation_model_keeps_config_gamma(self):
        cfg = ExperimentConfig(kind="brownian", gamma=0.7)
        model = observation_model(cfg)
        assert model.gamma == 0.7 and model.jumps is None

    def test_compound_poisson_kind(self):
        cfg = ExperimentConfig(kind="compound-poisson-exp", intensity=2.0,
                               jump_rate=3.0)
        model = observation_model(cfg)
        assert model.jumps == ExponentialJumps(intensity=2.0, rate=3.0)


# ---------------------------------------------------------------------------
# Monte Carlo table


class TestMcTable:
    def test_single_replication_deterministic(self):
        cfg = ExperimentConfig(**TINY_MC)
        first = run_mc_table(cfg)
        second = run_mc_table(cfg)
        assert first.to_csv() == second.to_csv()
        assert first.failures == 0

    def test_no_quadrature_on_the_run_path(self, monkeypatch):
        # the truth columns come from closed-form tails
        def no_quad(*args, **kwargs):
            raise AssertionError("adaptive quadrature called")

        monkeypatch.setattr(scipy.integrate, "quad", no_quad)
        assert run_mc_table(ExperimentConfig(**TINY_MC)).failures == 0
        report = demo_direct(demo_config(n=1000, intensity=5.0))
        assert all(row["truth"] is not None
                   for row in report["results"] if row["side"] == "+")

    def test_seed_override_changes_noise(self):
        cfg = ExperimentConfig(**TINY_MC)
        base = run_mc_table(cfg)
        other = run_mc_table(dataclasses.replace(cfg, seed=12))
        assert base.to_csv() != other.to_csv()

    def test_csv_schema(self):
        cfg = ExperimentConfig(**TINY_MC)
        table = run_mc_table(cfg)
        lines = table.to_csv().strip().split("\n")
        assert lines[0] == ("tau,q_minus,q_plus,rmse_oracle_minus,"
                            "rmse_adaptive_minus,rmse_oracle_plus,"
                            "rmse_adaptive_plus")
        assert len(lines) == 1 + len(cfg.taus)

    def test_failed_pick_leaves_only_its_cell(self, monkeypatch):
        # cell (1.0, '+') of replication 0 loses its pick.  That cell's
        # RMSE columns are then those of replications 1 and 2 alone, as a
        # run whose whole replication 0 fails gives them; every other cell
        # is the clean run's, bit for bit
        cfg = ExperimentConfig(n=32, taus=(0.5, 1.0), spectral_points=1024,
                               replications=3, seed=11)
        clean = run_mc_table(cfg)
        original_select = levyq.harness.adaptive_quantile
        calls = []

        def drop_one_pick(*args):
            selection = original_select(*args)
            calls.append(selection)
            if len(calls) > 1:
                return selection
            chosen = selection.chosen.copy()
            chosen[3] = -1     # row 3: tau 1.0, side '+'
            return dataclasses.replace(selection, chosen=chosen)

        monkeypatch.setattr(levyq.harness, "adaptive_quantile",
                            drop_one_pick)
        failed_pick = run_mc_table(cfg)
        monkeypatch.undo()

        original_spectra = levyq.options._ChainDesign.spectra
        first = []

        def fail_first_chain(design, prices):
            first[:] = first or prices[:1]
            if any(p is first[0] for p in prices):
                raise NumericalError("synthetic failure")
            return original_spectra(design, prices)

        monkeypatch.setattr(levyq.options._ChainDesign, "spectra",
                            fail_first_chain)
        without_first = run_mc_table(cfg)

        assert len(calls) == 3
        assert failed_pick.failures == 1
        assert failed_pick.failure_log == (
            "replication 0, tau 1, side +: every bandwidth was dropped by "
            "the density guard; no interval to intersect",)
        assert failed_pick.rows[0] == clean.rows[0]
        got, alone, base = (dataclasses.astuple(table.rows[1]) for table in
                            (failed_pick, without_first, clean))
        # tau, truths and the '-' columns, then the '+' columns
        assert got[:5] == base[:5]
        assert got[5:] == alone[5:]
        assert got[5:] != base[5:]

    def test_oracle_mode_with_per_replication_screen(self):
        # at 0.12 % noise the screen passes, at a different j_min in each
        # replication; the oracle still compares every grid bandwidth and
        # the table is complete (this config once raised a raw ValueError)
        cfg = ExperimentConfig(noise_fraction=0.0012, replications=10)
        table = run_mc_table(cfg)
        assert table.failures == 0
        for row in table.rows:
            assert math.isfinite(row.rmse_oracle_minus)
            assert math.isfinite(row.rmse_oracle_plus)

    def test_rejects_brownian(self):
        with pytest.raises(InputError):
            run_mc_table(ExperimentConfig(kind="brownian", **TINY_MC))

    def test_rejects_tiny_and_huge_chains(self):
        with pytest.raises(InputError):
            run_mc_table(ExperimentConfig(n=8, replications=1))
        # a window [-n, n] whose grid would need more than 2^19 points
        with pytest.raises(InputError):
            run_mc_table(ExperimentConfig(n=10 ** 6, replications=1))

    def test_rejects_unreachable_tau(self):
        # Exp(1) compound Poisson with intensity 1 has total mass 1, so
        # tau = 500 has no true quantile to compare against
        with pytest.raises(InputError):
            run_mc_table(ExperimentConfig(kind="compound-poisson-exp",
                                          intensity=1.0, n=32,
                                          taus=(500.0,), replications=1))

    def test_rejects_bad_rep_and_seed_overrides(self):
        # replications and seed as config keys, validated on every replace
        cfg = ExperimentConfig(**TINY_MC)
        with pytest.raises(InputError):
            dataclasses.replace(cfg, replications=0)
        with pytest.raises(InputError):
            dataclasses.replace(cfg, seed=-4)

    def test_truth_columns_match_frozen_roots(self, mc_table_default):
        for row in mc_table_default.rows:
            q_minus, q_plus = TRUE_QUANTILES[row.tau]
            assert row.q_minus == pytest.approx(q_minus, abs=1e-6)
            assert row.q_plus == pytest.approx(q_plus, abs=1e-6)

    @pytest.mark.xfail(strict=True, reason=(
        "the post-hoc best fixed bandwidth at 100 quotes floors near "
        "RMSE*100 ~ 1.7 for this cell (measured 200-replication value), "
        "far above the benchmark window [0.15, 0.60]: the piecewise-linear "
        "interpolant's curvature error dominates the spectrum beyond "
        "|u| ~ 12 regardless of quote noise.  See README, 'Known "
        "deviations from the benchmark table'."))
    def test_benchmark_window_tau1_minus(self, mc_table_default):
        row = [r for r in mc_table_default.rows if r.tau == 1.0][0]
        assert 0.15 <= row.rmse_oracle_minus <= 0.60

    @pytest.mark.xfail(strict=True, reason=(
        "bias-only recovery at 1e-2 is unattainable with 100 quotes: with "
        "zero noise the best-bandwidth error still reaches ~1.9e-2 on six "
        "of ten cells because every grid bandwidth integrates the "
        "interpolation-error band.  See README, 'Known deviations from "
        "the benchmark table'."))
    def test_zero_noise_single_replication_bias(self):
        cfg = ExperimentConfig(noise_fraction=0.0, replications=1, seed=0)
        table = run_mc_table(cfg)
        assert table.failures == 0
        for row in table.rows:
            # one replication: oracle RMSE is the best |error| on the grid
            assert row.rmse_oracle_minus <= 1.0    # x100 scale
            assert row.rmse_oracle_plus <= 1.0


# ---------------------------------------------------------------------------
# results frozen from a reference implementation

# Computed with per-segment spline transforms (series/recursion) and E2
# from scipy's complex exp1; the breakpoint sum and the sine/cosine
# integrals must reproduce them.  Every per-bandwidth q is the last crossing
# of tau, solved in closed form on the tail table, on the grids the sizing
# rule gives (grid_points: 1,024 points at n = 100).  Rows: tau, q_minus,
# q_plus, then the oracle/adaptive RMSE x 100 for the minus and the plus
# side.
FROZEN_TABLE = (
    (0.5, 0.17852489840127528, 0.12546803387440741, 0.17182423615850229,
     0.6282369329524047, 1.3516390358986285, 1.4310209066973034),
    (1.0, 0.12015464727170763, 0.08667558549903329, 1.7473831596265472,
     1.7945635583510189, 2.3058860241886374, 2.3058860241886374),
    (1.5, 0.09145128022171559, 0.06723333995230493, 1.6740353025853403,
     1.6740353025853403, 2.261914530827689, 2.261914530827689),
    (2.0, 0.07370016969181595, 0.05502228472121059, 1.1603791467657403,
     1.1603791467657403, 1.9820970721323539, 1.9820970721323539),
    (2.5, 0.06146587842367589, 0.04649250612296162, 0.5579769273398072,
     0.5579769273398072, 1.6455336555579598, 1.6455336555579598),
)
FROZEN_CHAIN_TAUS = (0.4, 0.8, 1.2, 1.6, 2.0)
# per side: (chosen quantile, chosen bandwidth, sigma of the chosen record)
FROZEN_CHAIN = {
    "minus": (
        (0.1833680576397233, 0.03138428376721003, 0.09662503137295386),
        (0.14598617016440038, 0.03138428376721003, 0.14351225027895473),
        (0.12241615616996895, 0.03138428376721003, 0.19314244775726894),
        (0.10434982258842339, 0.03138428376721003, 0.25116235644621715),
        (0.08953702703348765, 0.03138428376721003, 0.32115008764481034),
    ),
    "plus": (
        (0.14585788736059355, 0.03138428376721003, 0.1437279141577888),
        (0.11534999896657872, 0.03138428376721003, 0.21314664678668405),
        (0.09566822094714783, 0.03138428376721003, 0.2889611288804544),
        (0.08100156676684706, 0.03138428376721003, 0.37598742695208687),
        (0.06944185783156871, 0.03138428376721003, 0.4767264456250197),
    ),
}
# demo_direct on compound-Poisson-exp increments (intensity 5, Exp(1)
# jumps, sigma 0, spacing 0.5, h 0.05), n = 5,000, seed 1, default taus,
# on the 1,024 spectral points the sizing rule gives (grid_points),
# inverted by Gaussian gridding, the cf summed over the sample centred at
# its median.  Rows: tau, side, estimate, at_threshold.
FROZEN_DIRECT_CONFIG = dict(
    kind="compound-poisson-exp", intensity=5.0, jump_rate=1.0, sigma=0.0,
    gamma=0.0, increment_delta=0.5, h=0.05, method="exact-compound-poisson",
    n=5000, seed=1)
FROZEN_DIRECT = (
    (0.5, "-", 0.02, True),
    (0.5, "+", 2.307217562433853, False),
    (1.0, "-", 0.02, True),
    (1.0, "+", 1.5281697698901326, False),
    (1.5, "-", 0.02, True),
    (1.5, "+", 1.1578782919278774, False),
    (2.0, "-", 0.02, True),
    (2.0, "+", 0.8774005107834109, False),
    (2.5, "-", 0.02, True),
    (2.5, "+", 0.6478086376467967, False),
)


# the pins above as the fixed 8,192-point grid gave them, before the grid
# was sized by the rule: a config that sets spectral_points = 8192 must
# reproduce them (the table and the chain to the same rtol, the direct
# estimates bit for bit)
FIXED_COUNT_TABLE = (
    (0.5, 0.17852489840127528, 0.12546803387440741, 0.17180570485935434,
     0.6282369346712885, 1.351623385394584, 1.4310209082184988),
    (1.0, 0.12015464727170763, 0.08667558549903329, 1.7465111089228502,
     1.7945635612370066, 2.305886026243355, 2.305886026243355),
    (1.5, 0.09145128022171559, 0.06723333995230493, 1.6740353056449684,
     1.6740353056449684, 2.2619145334231967, 2.2619145334231967),
    (2.0, 0.07370016969181595, 0.05502228472121059, 1.1603791491633981,
     1.1603791491633981, 1.982097075142097, 1.982097075142097),
    (2.5, 0.06146587842367589, 0.04649250612296162, 0.5579769283211897,
     0.5579769283211897, 1.6455336586782574, 1.6455336586782574),
)
FIXED_COUNT_CHAIN = {
    "minus": (0.18336805764337993, 0.14598617011993859, 0.12241615612257822,
              0.10434982255622996, 0.08953702702539394),
    "plus": (0.14585788734520067, 0.11534999900358599, 0.09566822099578876,
             0.08100156680903407, 0.06944185785883382),
}
FIXED_COUNT_DIRECT = (2.307217562429571, 1.5281697698940402,
                      1.1578782919295774, 0.877400510790254,
                      0.6478086376502635)


class TestFrozenResults:
    def test_small_default_table(self):
        table = run_mc_table(ExperimentConfig(replications=2, seed=0))
        assert table.failures == 0
        got = [(r.tau, r.q_minus, r.q_plus, r.rmse_oracle_minus,
                r.rmse_adaptive_minus, r.rmse_oracle_plus,
                r.rmse_adaptive_plus) for r in table.rows]
        np.testing.assert_allclose(got, FROZEN_TABLE, rtol=1e-10, atol=0)

    def test_chain_choices(self):
        cfg = ExperimentConfig()
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=1)
        report, _ = estimate_chain(chain, cfg, taus=FROZEN_CHAIN_TAUS)
        for key, frozen in FROZEN_CHAIN.items():
            got = []
            for row in report["estimates"][key]:
                records = report["diagnostics"][key][f"{row['tau']:g}"]
                sigma = next(r["sigma"] for r in records if r["chosen"])
                got.append((row["quantile"], row["bandwidth"], sigma))
            np.testing.assert_allclose(got, frozen, rtol=1e-10, atol=0)

    def test_direct_estimates(self):
        report = demo_direct(ExperimentConfig(**FROZEN_DIRECT_CONFIG))
        got = tuple((r["tau"], r["side"], r["estimate"], r["at_threshold"])
                    for r in report["results"])
        assert got == FROZEN_DIRECT

    @pytest.mark.parametrize("gamma", [1e9, 1e11])
    def test_direct_estimates_do_not_move_with_the_drift(self, gamma):
        # psi'' is drift-invariant; the sums over the median-centred sample
        # keep it so in floating point (measured: 8.6e-9 at 1e9 and 9.6e-7
        # at 1e11, where the raw increments themselves round at 6e-8 and
        # 6e-6), where the raw sample's cf lost the '+' estimates entirely
        report = demo_direct(ExperimentConfig(**{**FROZEN_DIRECT_CONFIG,
                                                 "gamma": gamma}))
        got = [(r["tau"], r["side"], r["estimate"], r["at_threshold"])
               for r in report["results"]]
        for (tau, side, value, clamped), want in zip(got, FROZEN_DIRECT):
            assert (tau, side, clamped) == (want[0], want[1], want[3])
            assert value == pytest.approx(want[2], rel=0, abs=1e-5)

    def test_explicit_count_reproduces_the_fixed_grid(self):
        table = run_mc_table(ExperimentConfig(replications=2, seed=0,
                                              spectral_points=8192))
        got = [(r.tau, r.q_minus, r.q_plus, r.rmse_oracle_minus,
                r.rmse_adaptive_minus, r.rmse_oracle_plus,
                r.rmse_adaptive_plus) for r in table.rows]
        np.testing.assert_allclose(got, FIXED_COUNT_TABLE, rtol=1e-10, atol=0)
        assert table.grid.points == 8192

        cfg = ExperimentConfig(spectral_points=8192)
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=1)
        report, _ = estimate_chain(chain, cfg, taus=FROZEN_CHAIN_TAUS)
        for key, frozen in FIXED_COUNT_CHAIN.items():
            got = [row["quantile"] for row in report["estimates"][key]]
            np.testing.assert_allclose(got, frozen, rtol=1e-10, atol=0)
        assert report["spectral_grid"]["points"] == 8192
        assert report["config"]["spectral_points"] == 8192

        report = demo_direct(ExperimentConfig(**FROZEN_DIRECT_CONFIG,
                                              spectral_points=8192))
        assert tuple(r["estimate"] for r in report["results"]
                     if r["side"] == "+") == FIXED_COUNT_DIRECT


# ---------------------------------------------------------------------------
# chain estimation


@pytest.fixture(scope="module")
def noisy_chain_setup(bench_model):
    cfg = ExperimentConfig(n=64, spectral_points=2048)
    chain = generate_synthetic_chain(
        bench_model, cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
        (cfg.strike_mean, cfg.strike_variance), seed=3)
    return cfg, chain


class TestEstimateChain:
    def test_file_round_trip_is_exact(self, noisy_chain_setup, tmp_path):
        cfg, chain = noisy_chain_setup
        path = tmp_path / "chain.csv"
        write_chain_csv(path, chain)
        taus = (0.5, 1.0)
        direct_report, direct_plots = estimate_chain(chain, cfg, taus=taus)
        file_report, file_plots = estimate_chain(path, cfg, taus=taus)
        assert json.dumps(direct_report, sort_keys=True) == \
            json.dumps(file_report, sort_keys=True)
        assert direct_plots == file_plots

    def test_report_and_plot_schema(self, noisy_chain_setup):
        cfg, chain = noisy_chain_setup
        report, plots = estimate_chain(chain, cfg, taus=(0.5, 1.0))
        assert report["n"] == 64
        assert report["config"]["n"] == 64     # config echo for provenance
        assert report["taus"] == [0.5, 1.0]
        assert set(plots) == {"minus", "plus"}
        for side in ("minus", "plus"):
            rows = report["estimates"][side]
            assert [r["tau"] for r in rows] == [0.5, 1.0]
            for r in rows:
                assert r["bandwidth"] in report["bandwidth_grid"]
            lines = plots[side].strip().split("\n")
            assert lines[0] == "tau,quantile"
            assert len(lines) == 3
            # plot rows mirror the report values exactly
            assert float(lines[1].split(",")[1]) == rows[0]["quantile"]

    def test_chain_and_mc_paths_give_identical_quantiles(self):
        # one chain, built the way run_mc_table builds replication 0, goes
        # through estimate_chain and through the Monte Carlo per-replication
        # path; both masters are [-n, n], so the per-bandwidth quantiles
        # must agree bitwise
        cfg = ExperimentConfig(n=64, spectral_points=2048, taus=(0.5, 1.0))
        xs, exact = _synthetic_design(
            pricing_model(cfg), cfg.T, cfg.n,
            (cfg.strike_mean, cfg.strike_variance))
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])
        chain = _perturbed_chain(xs, exact, cfg.T, cfg.r, cfg.noise_fraction,
                                 rng)
        report, _ = estimate_chain(chain, cfg, taus=cfg.taus)

        master = FrequencyGrid(cutoff=float(cfg.n), points=cfg.spectral_points)
        spectra = compute_chain_spectra(chain, master)
        bw = build_grid(cfg.n, cfg.L, spectra)
        full = _full_grid(cfg.n, cfg.L)
        first = full.size - bw.values.size
        inversion = TailInversion(master, flat_top_kernel(cfg.kernel_c),
                                  full, cfg.x_max)
        qs, _, selection, errors = _chain_estimates(spectra, inversion, first,
                                                    cfg, cfg.taus)
        assert errors == [None] * 4
        assert report["bandwidth_grid"] == list(bw.values)
        for s, (key, side) in enumerate((("minus", "-"), ("plus", "+"))):
            for i, row in enumerate(report["estimates"][key]):
                rows = report["diagnostics"][key][f"{row['tau']:g}"]
                assert [r["q"] for r in rows] == list(qs[2 * i + s, first:])
                assert row["quantile"] == selection.pick(2 * i + s)[1]

    def test_invalid_threshold_fails_only_its_cell(self, monkeypatch):
        # one cell's quantile at one bandwidth is moved to x_max, where the
        # deviation bound is undefined: the batched sigma call of that
        # bandwidth raises, yet only that cell may fail, with the message a
        # one-cell call gives, and every other cell stays as it was
        cfg = ExperimentConfig(n=48, spectral_points=1024, taus=(0.5, 1.0))
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=3)
        master = FrequencyGrid(cutoff=float(cfg.n), points=cfg.spectral_points)
        spectra = compute_chain_spectra(chain, master)
        bw = build_grid(cfg.n, cfg.L, spectra)
        kernel = flat_top_kernel(cfg.kernel_c)

        def run():
            inversion = TailInversion(master, kernel, bw.values, cfg.x_max)
            return _chain_estimates(spectra, inversion, 0, cfg, cfg.taus)

        clean_qs, _, clean, clean_errors = run()
        bad_row, bad_h = 3, float(bw.values[3])   # tau 1.0, side '+'

        def shifted(table, taus, eta):
            values, clamped, density = tail_quantiles(table, taus, eta)
            column = list(table.bandwidths).index(bad_h)
            values[bad_row, column] = cfg.x_max
            return values, clamped, density

        monkeypatch.setattr(levyq.harness, "tail_quantiles", shifted)
        qs, _, selection, errors = run()
        with pytest.raises(InputError) as alone:
            sigma_at(spectra, kernel, bad_h, cfg.x_max, cfg.x_max)
        assert isinstance(errors[bad_row], InputError)
        assert str(errors[bad_row]) == str(alone.value)
        assert clean_errors == [None] * 4
        for row in range(4):
            if row == bad_row:
                continue
            assert errors[row] is None
            assert np.array_equal(qs[row], clean_qs[row])
            assert selection.pick(row) == clean.pick(row)
            assert selection.records(row) == clean.records(row)

    def test_intervals_read_each_sides_density(self):
        # V_h = multiplier * sigma_h / |density_h(q_h)|, with the density of
        # the cell's own side read at its own quantile, as the scalar
        # TailOracle.density gives it
        cfg = ExperimentConfig(n=48, spectral_points=1024, taus=(0.5, 1.0))
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
            (cfg.strike_mean, cfg.strike_variance), seed=3)
        spectra = compute_chain_spectra(
            chain, FrequencyGrid(float(cfg.n), cfg.spectral_points))
        bw = build_grid(cfg.n, cfg.L, spectra)
        kernel = flat_top_kernel(cfg.kernel_c)
        dists = oracles(tail_estimates(spectra, kernel, bw.values, cfg.x_max))
        inversion = TailInversion(spectra.grid, kernel, bw.values, cfg.x_max)
        _, _, selection, _ = _chain_estimates(spectra, inversion, 0, cfg,
                                              cfg.taus)
        multiplier = (1.0 + cfg.delta) * math.sqrt(
            2.0 * math.log(math.log(cfg.n)))
        for row, (tau, side) in enumerate(_cells_for(cfg.taus)):
            sign = 1.0 if side == "+" else -1.0
            for dist, record in zip(dists, selection.records(row)):
                density = dist.density(sign * record["q"])
                assert record["V"] == (multiplier * record["sigma"]
                                       / abs(density))

    def test_large_chain_inverts_the_full_band(self):
        # beyond n = 400 the master window stays [-n, n]: psi~'' is still
        # trusted out to |u| = n (measured at n = 500 without noise and
        # n = 1000 at 1 % noise), so the smallest bandwidth 1/n keeps its
        # whole band, as a one-bandwidth inversion on its own grid does
        cfg = ExperimentConfig(n=500, noise_fraction=0.0, spectral_points=2048)
        chain = generate_synthetic_chain(
            pricing_model(cfg), cfg.T, cfg.r, cfg.n, 0.0,
            (cfg.strike_mean, cfg.strike_variance), seed=1)
        report, _ = estimate_chain(chain, cfg, taus=(1.0,))
        h = report["bandwidth_grid"][0]
        assert h == 1.0 / cfg.n
        alone = oracles(tail_estimates(
            compute_chain_spectra(chain, FrequencyGrid(1.0 / h,
                                                       cfg.spectral_points)),
            flat_top_kernel(cfg.kernel_c), [h], cfg.x_max))[0]
        # a column of the (N, 13) inversion has the bits of the same
        # column inverted alone
        for key, side in (("minus", "-"), ("plus", "+")):
            q = one_quantile(alone, 1.0, cfg.eta, side).value
            assert report["diagnostics"][key]["1"][0]["q"] == q

    def test_default_tau_ladder(self):
        assert DEFAULT_CHAIN_TAUS[0] == pytest.approx(0.2)
        assert DEFAULT_CHAIN_TAUS[-1] == pytest.approx(4.0)
        assert len(DEFAULT_CHAIN_TAUS) == 20

    def test_insufficient_strikes(self, bench_model):
        cfg = ExperimentConfig(n=16)
        chain = generate_synthetic_chain(bench_model, cfg.T, cfg.r, 8, 0.01,
                                         (0.0, 0.5), seed=1)
        with pytest.raises(InputError):
            estimate_chain(chain, cfg)

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,price,noise\n"
                        "-0.1,0.03,0.001\n"
                        "0.0,not_a_number,0.001\n")
        with pytest.raises(InputError) as err:
            estimate_chain(path, ExperimentConfig())
        assert str(err.value).startswith("line 3: bad number in row:")

    def test_tau_validation(self, noisy_chain_setup):
        cfg, chain = noisy_chain_setup
        with pytest.raises(InputError):
            estimate_chain(chain, cfg, taus=(1.0, 0.5))
        with pytest.raises(InputError):
            estimate_chain(chain, cfg, taus=())

    @pytest.mark.xfail(strict=True, reason=(
        "with zero quote noise every deviation bound collapses to zero, "
        "the interval intersection degenerates, and the selector lands on "
        "the smallest grid bandwidth -- the one that integrates the whole "
        "interpolation-error band; measured error 4.7e-3 vs the 3e-3 "
        "window.  See README, 'Known deviations from the benchmark "
        "table'."))
    def test_noiseless_benchmark_left_quantile(self, bench_model):
        cfg = ExperimentConfig(noise_fraction=0.0)
        chain = generate_synthetic_chain(
            bench_model, cfg.T, cfg.r, cfg.n, 0.0,
            (cfg.strike_mean, cfg.strike_variance), seed=1)
        report, _ = estimate_chain(chain, cfg, taus=(0.5,))
        q = report["estimates"]["minus"][0]["quantile"]
        assert abs(q - 0.1778) <= 3e-3


# ---------------------------------------------------------------------------
# direct-increment demo


@pytest.fixture(scope="module")
def ln2_pilot():
    """50 seeded demo runs at two sample sizes, shared by the tests below."""
    errors = {}
    for n in (100, 100_000):
        errs = []
        for seed in range(50):
            rep = demo_direct(demo_config(n=n, seed=seed))
            row = [r for r in rep["results"] if r["side"] == "+"][0]
            errs.append(abs(row["estimate"] - LN2))
        errors[n] = np.array(errs)
    return errors


class TestDemoDirect:
    def test_deterministic_for_fixed_seed(self):
        cfg = demo_config(n=2000, seed=5)
        assert demo_direct(cfg) == demo_direct(cfg)

    def test_report_fields(self):
        rep = demo_direct(demo_config(n=500, seed=2))
        assert rep["n"] == 500 and rep["bandwidth"] == 0.05
        assert rep["config"]["kind"] == "compound-poisson-exp"
        sides = {(r["tau"], r["side"]) for r in rep["results"]}
        assert sides == {(0.5, "-"), (0.5, "+")}

    def test_ln2_recovery_fifty_seeds(self, ln2_pilot):
        # pilot-calibrated bound: |q - ln 2| <= 0.05 in at least 45/50 runs
        within = int(np.sum(ln2_pilot[100_000] <= 0.05))
        assert within >= 45

    def test_median_error_improves_with_sample_size(self, ln2_pilot):
        assert np.median(ln2_pilot[100]) > np.median(ln2_pilot[100_000])

    def test_tau_beyond_mass_returns_threshold(self):
        # Exp(1) jumps with intensity 1: total mass 1 < tau = 10, so the
        # scan never crosses and the estimate clamps to eta on both sides
        for seed in (0, 1, 2):
            cfg = demo_config(n=500, seed=seed, taus=(10.0,))
            rep = demo_direct(cfg)
            for row in rep["results"]:
                assert row["estimate"] == cfg.eta
                assert row["at_threshold"] is True
                assert row["truth"] is None

    def test_positive_jumps_leave_left_side_at_threshold(self):
        rep = demo_direct(demo_config(n=5000, seed=4))
        left = [r for r in rep["results"] if r["side"] == "-"][0]
        assert left["at_threshold"] is True
        assert left["estimate"] == demo_config().eta

    def test_brownian_reports_no_truth(self):
        cfg = ExperimentConfig(kind="brownian", sigma=0.3, gamma=0.1,
                               n=400, increment_delta=0.1, h=0.05,
                               spectral_points=512, taus=(0.5,),
                               method="inverse-cdf-from-characteristic-function",
                               seed=6)
        rep = demo_direct(cfg)
        for row in rep["results"]:
            assert row["truth"] is None and row["abs_error"] is None


# ---------------------------------------------------------------------------
# the grid every command sizes by inversion.grid_points


def _chain(cfg, seed=1):
    return generate_synthetic_chain(
        pricing_model(cfg), cfg.T, cfg.r, cfg.n, cfg.noise_fraction,
        (cfg.strike_mean, cfg.strike_variance), seed=seed)


class TestSpectralGrid:
    # the stated tolerance of grid_points: reported estimates within 1e-8
    # of the converged grid's
    TOL = 1e-8

    def test_commands_record_the_rule_count(self):
        cfg = ExperimentConfig(n=32, taus=(1.0,), replications=1, seed=11)
        xs, _ = _synthetic_design(pricing_model(cfg), cfg.T, cfg.n,
                                  (cfg.strike_mean, cfg.strike_variance))
        table = run_mc_table(cfg)
        assert table.grid == FrequencyGrid(
            32.0, grid_points(32.0, cfg.x_max, float(np.ptp(xs))))

        cfg = ExperimentConfig(n=48)
        chain = _chain(cfg)
        report, _ = estimate_chain(chain, cfg, taus=(1.0,))
        grid = FrequencyGrid(48.0, grid_points(48.0, cfg.x_max,
                                               float(np.ptp(chain.xs))))
        assert report["spectral_grid"] == {
            "cutoff": 48.0, "points": grid.points, "spacing": grid.spacing}
        assert report["config"]["spectral_points"] is None

        cfg = demo_config(spectral_points=None)
        sample = sample_increments(observation_model(cfg),
                                   cfg.increment_delta, cfg.method, cfg.seed,
                                   cfg.n)
        report = demo_direct(cfg)
        assert report["spectral_grid"]["points"] == grid_points(
            1.0 / cfg.h, cfg.x_max, float(np.ptp(sample.values)))
        assert report["config"]["spectral_points"] is None

    def test_large_designs_run(self):
        # the fixed 8,192 points capped mc-table at 256 quotes and made
        # estimate-chain refuse chains above about 2,570 quotes
        table = run_mc_table(ExperimentConfig(n=300, replications=1,
                                              taus=(1.0,)))
        assert table.failures == 0 and table.grid.points == 4096
        cfg = ExperimentConfig(n=3000)
        report, _ = estimate_chain(_chain(cfg), cfg, taus=(1.0,))
        assert report["spectral_grid"]["points"] == 32768
        for key in ("minus", "plus"):
            assert np.isfinite(report["estimates"][key][0]["quantile"])

    def test_chain_estimates_converged_at_the_rule_count(self):
        cfg = ExperimentConfig(n=50)
        chain = _chain(cfg)
        points = grid_points(50.0, cfg.x_max, float(np.ptp(chain.xs)))
        picks = []
        for count in (None, 4 * points):
            report, _ = estimate_chain(
                chain, dataclasses.replace(cfg, spectral_points=count),
                taus=FROZEN_CHAIN_TAUS)
            picks.append([(row["quantile"], row["bandwidth"])
                          for key in ("minus", "plus")
                          for row in report["estimates"][key]])
        rule, fine = np.array(picks)
        assert np.array_equal(rule[:, 1], fine[:, 1])
        assert np.max(np.abs(rule[:, 0] - fine[:, 0])) <= self.TOL

    def test_direct_estimates_converged_at_the_rule_count(self):
        cfg = ExperimentConfig(**FROZEN_DIRECT_CONFIG)
        rule = demo_direct(cfg)
        fine = demo_direct(dataclasses.replace(
            cfg, spectral_points=4 * rule["spectral_grid"]["points"]))
        for a, b in zip(rule["results"], fine["results"]):
            assert a["at_threshold"] == b["at_threshold"]
            assert abs(a["estimate"] - b["estimate"]) <= self.TOL
