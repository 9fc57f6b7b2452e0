"""Experiment drivers: Monte Carlo error tables, chain estimation, direct demo.

Three entry points, exposed one-to-one by the command line:

* :func:`run_mc_table` -- repeated synthetic option chains -> a table of
  root-mean-square errors against the model truth, for both the post-hoc
  best fixed bandwidth ("oracle") and the data-driven pick ("adaptive");
* :func:`estimate_chain` -- one observed chain -> generalized quantile
  curves on both sides with per-bandwidth diagnostics;
* :func:`demo_direct` -- increments of a simulated process estimated at a
  fixed, user-chosen bandwidth, compared against closed-form truth where
  truth exists.

Configuration is a flat ``key = value`` text file so a run can be reproduced
from one small artifact; every key is validated on load.  Everything
downstream of the seed is deterministic: replication r draws its noise from
the r-th child of a single SeedSequence, so results do not depend on the
order in which replications execute.

All three drivers hand the inversion step the same table: the estimated
cf and exponent derivatives on one frequency grid (`numerics.Spectra`,
from `options.compute_chain_spectra` or `increments.psi2_from_increments`),
and every bandwidth's tail function comes from one batched inversion of
all its kernel-damped columns (`inversion.tail_estimates`).  The option
drivers tabulate on the master window |u| <= n, the band of the smallest
grid bandwidth 1/n; the direct demo on |u| <= 1/h, the band of its one
bandwidth.  The Monte Carlo loop prices the chain once (the strike design
is fixed) and re-perturbs it per replication, and the deviation bounds of
all (tau, side) cells of a chain come from one `sigma_tilde` call per
bandwidth.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass, fields

import numpy as np
from scipy.special import ndtri

from .adaptive import _top_index, adaptive_quantile, build_grid, sigma_tilde
from .errors import InputError, LevyqError, NoSolutionError
from .increments import psi2_from_increments
from .inversion import (FIRST_TAIL_NODE, SPECTRAL_POINTS, X_MAX_DEFAULT,
                        checked_tail_nodes, quantile_from_distribution,
                        tail_estimates)
from .kernels import flat_top_kernel
from .models import (CGMYJumps, ExponentialJumps, LevyModel,
                     martingale_drift, true_quantile)
from .numerics import FrequencyGrid
from .options import (OptionChain, compute_chain_spectra, option_function,
                      read_chain_csv)
from .simulate import METHODS, IncrementSampler, sample_increments

__all__ = [
    "ExperimentConfig",
    "RmseRow",
    "RmseTable",
    "parse_config_text",
    "load_config",
    "observation_model",
    "pricing_model",
    "run_mc_table",
    "estimate_chain",
    "demo_direct",
    "DEFAULT_CHAIN_TAUS",
]

_KINDS = ("cgmy", "brownian", "compound-poisson-exp")
_MODES = ("oracle", "adaptive", "both")

# default threshold ladder for the per-chain quantile curves: 0.2, 0.4, .., 4
DEFAULT_CHAIN_TAUS = tuple(round(0.2 * k, 10) for k in range(1, 21))

# quote-count ceiling for the Monte Carlo path; its master frequency window
# is [-n, n] (= the full band of the smallest bandwidth 1/n), and this keeps
# that window finely resolved at the default node count.
_MC_MAX_QUOTES = 256


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, fully-validated description of one experiment.

    Model keys: kind ("cgmy" | "brownian" | "compound-poisson-exp"), C, G,
    M, Y (tempered-stable jump parameters), sigma (diffusion volatility),
    gamma (drift, used only for directly observed processes -- pricing
    always pins the drift by the martingale identity), intensity and
    jump_rate (exponential compound-Poisson jumps).

    Observation keys: r (interest rate), T (maturity), S0 (spot), n (number
    of quotes or increments), noise_fraction (quote noise as a fraction of
    the exact price), strike_mean / strike_variance (Gaussian quantile
    design of log-strikes).

    Estimator keys: eta (smallest admissible threshold, at least the first
    tail node 0.004), kernel_c (flat-top fraction), x_max (truncation of
    the jump domain), spectral_points (frequency nodes, a power of two).

    Bandwidth-selection keys: L (geometric grid ratio), delta (slack in the
    deviation-bound multiplier).

    Monte Carlo keys: replications, seed, taus (threshold levels), mode
    ("oracle" | "adaptive" | "both").

    Direct-increment keys: increment_delta (time spacing), h (fixed
    bandwidth), method (sampling scheme).
    """

    # model
    kind: str = "cgmy"
    C: float = 1.0
    G: float = 5.0
    M: float = 8.0
    Y: float = 0.5
    sigma: float = 0.1
    gamma: float = 0.0
    intensity: float = 1.0
    jump_rate: float = 1.0
    # observation scheme
    r: float = 0.06
    T: float = 0.25
    S0: float = 1.0
    n: int = 100
    noise_fraction: float = 0.01
    strike_mean: float = 0.0
    strike_variance: float = 0.5
    # estimator
    eta: float = 0.02
    kernel_c: float = 0.5
    x_max: float = X_MAX_DEFAULT
    spectral_points: int = SPECTRAL_POINTS
    # bandwidth selection
    L: float = 1.1
    delta: float = 0.1
    # monte carlo
    replications: int = 200
    seed: int = 0
    taus: tuple = (0.5, 1.0, 1.5, 2.0, 2.5)
    mode: str = "both"
    # direct-increment scheme
    increment_delta: float = 0.5
    h: float = 0.05
    method: str = "exact-compound-poisson"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.mode not in _MODES:
            raise InputError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.method not in METHODS:
            raise InputError(
                f"method must be one of {METHODS}, got {self.method!r}")
        for name in ("C", "G", "M", "intensity", "jump_rate", "T", "S0",
                     "strike_variance", "eta", "x_max", "increment_delta",
                     "h", "delta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise InputError(f"{name} must be positive, got {value}")
        for name in ("Y", "sigma", "gamma", "r", "noise_fraction",
                     "strike_mean", "kernel_c", "L"):
            if not np.isfinite(getattr(self, name)):
                raise InputError(f"{name} must be finite")
        if not self.Y < 2:
            raise InputError(f"Y must be below 2, got {self.Y}")
        if self.sigma < 0:
            raise InputError(f"sigma must be nonnegative, got {self.sigma}")
        if self.noise_fraction < 0:
            raise InputError(
                f"noise_fraction must be nonnegative, got {self.noise_fraction}")
        if not 0 < self.kernel_c < 1:
            raise InputError(
                f"kernel_c must lie strictly in (0, 1), got {self.kernel_c}")
        if not self.L > 1:
            raise InputError(f"L must exceed 1, got {self.L}")
        if not FIRST_TAIL_NODE <= self.eta < self.x_max:
            raise InputError(f"eta = {self.eta} must lie in [first tail node "
                             f"{FIRST_TAIL_NODE:g}, x_max = {self.x_max})")
        for name in ("n", "spectral_points", "replications", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.n < 1:
            raise InputError(f"n must be at least 1, got {self.n}")
        p = self.spectral_points
        if p < 16 or (p & (p - 1)) != 0:
            raise InputError(
                f"spectral_points must be a power of two >= 16, got {p}")
        if self.replications < 1:
            raise InputError(
                f"replications must be at least 1, got {self.replications}")
        if self.seed < 0:
            raise InputError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "taus", _levels(self.taus))


def _levels(taus) -> tuple:
    """Threshold levels as a tuple of floats, checked to be nonempty,
    positive, finite and strictly increasing."""
    taus = tuple(float(t) for t in taus)
    if not taus:
        raise InputError("taus must be a non-empty list of levels")
    if not all(np.isfinite(t) and t > 0 for t in taus):
        raise InputError(f"taus must be positive and finite, got {taus}")
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise InputError(f"taus must be strictly increasing, got {taus}")
    return taus


_INT_KEYS = {"n", "spectral_points", "replications", "seed"}
_STR_KEYS = {"kind", "mode", "method"}
_TUPLE_KEYS = {"taus"}
_ALL_KEYS = {f.name for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse ``key = value`` lines ('#' starts a comment, blanks ignored)."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(
                f"config line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _ALL_KEYS:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"config line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _STR_KEYS:
                values[key] = val
            elif key in _TUPLE_KEYS:
                parts = val.replace(",", " ").split()
                if not parts:
                    raise ValueError("empty list")
                values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = float(val)
        except ValueError as exc:
            raise InputError(
                f"config line {lineno}: cannot parse {val!r} for key {key!r}"
            ) from exc
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    """Read and validate an experiment configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def _config_dict(config: ExperimentConfig) -> dict:
    out = asdict(config)
    out["taus"] = list(out["taus"])
    return out


# ---------------------------------------------------------------------------
# model construction


def _jumps_for(config: ExperimentConfig):
    if config.kind == "cgmy":
        return CGMYJumps(C=config.C, G=config.G, M=config.M, Y=config.Y)
    if config.kind == "compound-poisson-exp":
        return ExponentialJumps(config.intensity, config.jump_rate)
    return None


def observation_model(config: ExperimentConfig) -> LevyModel:
    """The process as directly observed: configured drift, no pricing tilt."""
    return LevyModel(sigma2=config.sigma ** 2, gamma=config.gamma,
                     jumps=_jumps_for(config))


def pricing_model(config: ExperimentConfig) -> LevyModel:
    """Risk-neutral version: drift pinned by the martingale identity."""
    jumps = _jumps_for(config)
    sigma2 = config.sigma ** 2
    return LevyModel(sigma2=sigma2, gamma=martingale_drift(sigma2, jumps),
                     jumps=jumps)


# ---------------------------------------------------------------------------
# Monte Carlo table


@dataclass(frozen=True)
class RmseRow:
    """One threshold level of the error table.

    q_minus / q_plus are the model-truth generalized quantiles; the four
    rmse columns are root-mean-square errors over the surviving
    replications, scaled by 100 (display convention).  Columns not covered
    by the requested mode are NaN.
    """

    tau: float
    q_minus: float
    q_plus: float
    rmse_oracle_minus: float
    rmse_adaptive_minus: float
    rmse_oracle_plus: float
    rmse_adaptive_plus: float


def _csv_cell(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return ""
    return repr(float(value))


@dataclass(frozen=True)
class RmseTable:
    """Error table plus bookkeeping: attempted replications, excluded
    failures (count and messages), and the mode that produced it."""

    rows: tuple
    replications: int
    failures: int
    failure_log: tuple
    mode: str

    def to_csv(self) -> str:
        lines = ["tau,q_minus,q_plus,rmse_oracle_minus,rmse_adaptive_minus,"
                 "rmse_oracle_plus,rmse_adaptive_plus"]
        for row in self.rows:
            lines.append(",".join(_csv_cell(v) for v in (
                row.tau, row.q_minus, row.q_plus,
                row.rmse_oracle_minus, row.rmse_adaptive_minus,
                row.rmse_oracle_plus, row.rmse_adaptive_plus)))
        return "\n".join(lines) + "\n"


def _cells_for(taus):
    return [(tau, side) for tau in taus for side in ("-", "+")]


@dataclass(frozen=True)
class _CellEstimate:
    """One (tau, side) cell of one chain: the quantile and clamp flag at
    every inverted bandwidth, and the selector's (h, q, diagnostics) over
    the screened grid (None when the selector was not run)."""

    qs: np.ndarray
    clamped: np.ndarray
    selection: tuple | None


def _attempt(fn, *args):
    """fn(*args), or the LevyqError it raised in place of the result."""
    try:
        return fn(*args)
    except LevyqError as exc:
        return exc


def _chain_estimates(spectra, bw, kernel, config, taus, *, oracle, adaptive):
    """Per-(tau, side) estimates for one chain from its tabulated spectra.

    All tail tables come from one tail_estimates call on the spectra grid.
    With `oracle` the bandwidths are the full grid (the post-hoc standard
    compares every grid bandwidth, whatever the screen kept), otherwise the
    screened subset ``bw.values``; the interval rule (with `adaptive`)
    always runs over the screened subset, after one sigma_tilde call per
    screened bandwidth for all cells still standing.  Returns a dict
    mapping (tau, side) to a _CellEstimate, or to the LevyqError that cell
    raised (the rest of the chain is still used).
    """
    hs = build_grid(bw.n, bw.L).values if oracle else bw.values
    first = bw.j_min if oracle else 0   # index of bw.values[0] in hs
    dists = tail_estimates(spectra, kernel, hs, config.x_max)

    def search(tau, side):
        return [quantile_from_distribution(dist, tau, config.eta, side)
                for dist in dists]

    found = {cell: _attempt(search, *cell) for cell in _cells_for(taus)}
    out = {cell: v for cell, v in found.items() if isinstance(v, LevyqError)}

    sigmas = {cell: [] for cell in found}
    for j in range(first, hs.size) if adaptive else ():
        live = [cell for cell in found if cell not in out]
        h = float(hs[j])
        q_live = [found[cell][j].value for cell in live]
        values = _attempt(sigma_tilde, spectra, kernel, h, q_live,
                          [side for _, side in live], config.x_max)
        if isinstance(values, LevyqError):
            # redo each cell alone, so an error stays with its own cell
            values = [_attempt(sigma_tilde, spectra, kernel, h, q, side,
                               config.x_max)
                      for q, (_, side) in zip(q_live, live)]
        for cell, value in zip(live, values):
            sigmas[cell].append(value)
            if isinstance(value, LevyqError):
                out[cell] = value

    for cell, quantiles in found.items():
        if cell in out:
            continue
        qs = np.array([qe.value for qe in quantiles])
        selection = None
        if adaptive:
            sign = 1.0 if cell[1] == "+" else -1.0
            dens = [dists[j].density(sign * qs[j])
                    for j in range(first, hs.size)]
            selection = _attempt(adaptive_quantile, hs[first:], qs[first:],
                                 dens, sigmas[cell], spectra.n_obs,
                                 config.delta)
        clamped = np.array([qe.at_threshold for qe in quantiles])
        out[cell] = (selection if isinstance(selection, LevyqError) else
                     _CellEstimate(qs=qs, clamped=clamped, selection=selection))
    return out


def run_mc_table(config: ExperimentConfig) -> RmseTable:
    """Replicated synthetic chains -> RMSE table against model truth.

    The strike design and exact prices are computed once; each replication
    perturbs them with its own child of one seed sequence, re-estimates the
    quantiles at every grid bandwidth, and (in adaptive modes) runs the
    bandwidth selector.  "Oracle" errors take, per (tau, side), the fixed
    grid bandwidth with the smallest root-mean-square error over the whole
    run -- a post-hoc standard no data-driven rule can see.

    Failures (any estimation error in one replication cell) are excluded
    from the averages and counted in the returned table.
    """
    if config.kind == "brownian":
        raise InputError("the Monte Carlo table needs a jump component; "
                         "kind = brownian has none")
    if config.n < 10:
        raise InputError(f"need at least 10 quotes per chain, got {config.n}")
    if config.n > _MC_MAX_QUOTES:
        raise InputError(
            f"run_mc_table supports at most {_MC_MAX_QUOTES} quotes per "
            "chain (its master window [-n, n] stays finely resolved at the "
            "default node count); estimate_chain takes larger chains")
    _top_index(config.n, config.L)  # else every replication fails
    master = FrequencyGrid(cutoff=float(config.n),
                           points=config.spectral_points)
    checked_tail_nodes(master, config.x_max)  # else every replication fails

    model = pricing_model(config)
    truth = {}
    for tau, side in _cells_for(config.taus):
        try:
            truth[(tau, side)] = true_quantile(model.jumps, tau, side)
        except NoSolutionError as exc:
            raise InputError(
                f"tau = {tau} exceeds the jump mass on side '{side}'; "
                "no true quantile to compare against") from exc

    kernel = flat_top_kernel(config.kernel_c)
    ranks = np.arange(1, config.n + 1) / (config.n + 1.0)
    xs = config.strike_mean + math.sqrt(config.strike_variance) * ndtri(ranks)
    exact = np.maximum(option_function(model, config.T, xs), 0.0)
    noise_sd = config.noise_fraction * exact

    want_oracle = config.mode in ("oracle", "both")
    want_adaptive = config.mode in ("adaptive", "both")
    cells = _cells_for(config.taus)
    kept = {cell: [] for cell in cells}
    failures = []

    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    for index, child in enumerate(children):
        rng = np.random.default_rng(child)
        noise = rng.standard_normal(config.n) * noise_sd
        try:
            chain = OptionChain(maturity=config.T, rate=config.r, xs=xs,
                                prices=exact + noise, noise_levels=noise_sd)
            spectra = compute_chain_spectra(chain, master, degree=1)
            bw = build_grid(config.n, config.L, spectra)
            result = _chain_estimates(spectra, bw, kernel, config,
                                      config.taus, oracle=want_oracle,
                                      adaptive=want_adaptive)
        except LevyqError as exc:
            failures.append(f"replication {index}: {exc}")
            continue
        for cell in cells:
            value = result[cell]
            if isinstance(value, LevyqError):
                tau, side = cell
                failures.append(
                    f"replication {index}, tau {tau:g}, side {side}: {value}")
            else:
                kept[cell].append(value)

    rows = []
    for tau in config.taus:
        columns = {}
        for side in ("-", "+"):
            cell = (tau, side)
            q_true = truth[cell]
            oracle = math.nan
            adaptive = math.nan
            if kept[cell]:
                if want_oracle:
                    stacked = np.array([est.qs for est in kept[cell]])
                    per_h = np.sqrt(np.mean((stacked - q_true) ** 2, axis=0))
                    oracle = 100.0 * float(np.min(per_h))
                if want_adaptive:
                    picks = np.array([est.selection[1] for est in kept[cell]])
                    adaptive = 100.0 * float(
                        np.sqrt(np.mean((picks - q_true) ** 2)))
            columns[side] = (oracle, adaptive)
        rows.append(RmseRow(
            tau=tau,
            q_minus=truth[(tau, "-")],
            q_plus=truth[(tau, "+")],
            rmse_oracle_minus=columns["-"][0],
            rmse_adaptive_minus=columns["-"][1],
            rmse_oracle_plus=columns["+"][0],
            rmse_adaptive_plus=columns["+"][1],
        ))
    return RmseTable(rows=tuple(rows), replications=config.replications,
                     failures=len(failures), failure_log=tuple(failures),
                     mode=config.mode)


# ---------------------------------------------------------------------------
# single-chain estimation


def estimate_chain(chain, config: ExperimentConfig, taus=None):
    """Adaptive quantile curves for one option chain.

    `chain` is an OptionChain or a path to a chain CSV (read with the
    configured maturity, rate, and spot).  Returns ``(report, plots)``:
    `report` is a JSON-ready dict with the chosen quantiles, the bandwidth
    grid, and full per-(tau, side) selector diagnostics; `plots` maps
    "minus"/"plus" to two-column CSV texts (tau, quantile) ready to plot.

    The spectra are tabulated once on the master grid |u| <= n, the full
    band of the smallest grid bandwidth 1/n, and every grid bandwidth is
    inverted from it in one batch: the same per-chain path as the Monte
    Carlo loop.
    """
    if isinstance(chain, (str, os.PathLike)):
        chain = read_chain_csv(chain, maturity=config.T, rate=config.r,
                               spot=config.S0)
    if chain.n < 10:
        raise InputError(
            f"need at least 10 quotes to estimate, got {chain.n}")
    taus = _levels(DEFAULT_CHAIN_TAUS if taus is None else taus)

    kernel = flat_top_kernel(config.kernel_c)
    master = FrequencyGrid(cutoff=float(chain.n),
                           points=config.spectral_points)
    spectra = compute_chain_spectra(chain, master, degree=1)
    bw = build_grid(chain.n, config.L, spectra)
    cells = _chain_estimates(spectra, bw, kernel, config, taus,
                             oracle=False, adaptive=True)

    estimates = {"-": [], "+": []}
    diagnostics = {"-": {}, "+": {}}
    for side in ("-", "+"):
        for tau in taus:
            cell = cells[(tau, side)]
            if isinstance(cell, LevyqError):
                raise cell
            h_chosen, q_chosen, diag = cell.selection
            chosen_index = int(np.argmin(np.abs(bw.values - h_chosen)))
            estimates[side].append({
                "tau": tau,
                "quantile": q_chosen,
                "bandwidth": h_chosen,
                "at_threshold": bool(cell.clamped[chosen_index]),
            })
            diagnostics[side][f"{tau:g}"] = diag.to_json_rows()

    report = {
        "n": chain.n,
        "maturity": chain.maturity,
        "rate": chain.rate,
        "noise_scale": spectra.noise_scale,
        "bandwidth_grid": [float(h) for h in bw.values],
        "grid_feasible": bool(bw.feasible),
        "taus": list(taus),
        "config": _config_dict(config),
        "estimates": {"minus": estimates["-"], "plus": estimates["+"]},
        "diagnostics": {"minus": diagnostics["-"], "plus": diagnostics["+"]},
    }
    plots = {}
    for key, side in (("minus", "-"), ("plus", "+")):
        lines = ["tau,quantile"]
        for row in estimates[side]:
            lines.append(f"{row['tau']:g},{row['quantile']!r}")
        plots[key] = "\n".join(lines) + "\n"
    return report, plots


# ---------------------------------------------------------------------------
# direct-increment demo


def demo_direct(config: ExperimentConfig, taus=None) -> dict:
    """Estimate quantiles from simulated increments at a fixed bandwidth.

    No bandwidth selection: the configured h is used as-is.  The spectra
    table of the increments covers its band |u| <= 1/h with
    `spectral_points` nodes and goes through `tail_estimates`, the
    inversion the chain drivers use.  Truth columns
    are filled from the closed-form tail integral where the model has one
    (and the level is reachable); otherwise they are None.
    """
    taus = _levels(config.taus if taus is None else taus)
    model = observation_model(config)
    sampler = IncrementSampler(model=model, delta=config.increment_delta,
                               method=config.method, seed=config.seed)
    sample = sample_increments(sampler, config.n)
    grid = FrequencyGrid(cutoff=1.0 / config.h, points=config.spectral_points)
    spectra = psi2_from_increments(sample, grid)
    dist = tail_estimates(spectra, flat_top_kernel(config.kernel_c),
                          [config.h], config.x_max)[0]
    results = []
    for tau in taus:
        for side in ("-", "+"):
            qe = quantile_from_distribution(dist, tau, config.eta, side)
            truth = None
            if model.jumps is not None:
                try:
                    truth = true_quantile(model.jumps, tau, side)
                except NoSolutionError:
                    truth = None
            results.append({
                "tau": tau,
                "side": side,
                "estimate": qe.value,
                "at_threshold": qe.at_threshold,
                "truth": truth,
                "abs_error": None if truth is None
                else abs(qe.value - truth),
            })
    return {
        "n": int(sample.n),
        "increment_delta": sample.delta,
        "method": config.method,
        "seed": config.seed,
        "bandwidth": config.h,
        "config": _config_dict(config),
        "results": results,
    }
