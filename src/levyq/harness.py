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
order in which replications execute.  Every Monte Carlo run fills all four
RMSE columns (oracle and adaptive, on both sides).

All three drivers hand the inversion step the same table: the estimated
cf and exponent derivatives on one frequency grid (`numerics.Spectra`,
from `options.compute_chain_spectra` or `increments.psi2_from_increments`),
inverted at every bandwidth into one `inversion.TailTable`.  The option
drivers tabulate on the master window |u| <= n, the band of the smallest
grid bandwidth 1/n; the direct demo on |u| <= 1/h, the band of its one
bandwidth.  Every driver sizes that grid by one rule,
`inversion.grid_points`, from the window, x_max and the extent of its data
(the log-strike range, or the range of the increments), unless the config
sets `spectral_points`; the chain report and the demo report record the
grid used under "spectral_grid".  Every command reads its estimates as
rows, one per (tau, side) cell in `_cells_for` order (tau outer, '-'
before '+'), with one column per bandwidth: the quantiles and densities
from one `inversion.tail_quantiles` pass, and per chain the deviation
bounds from one `sigma_tilde` call per bandwidth and the picks from one
`adaptive_quantile` call (`_chain_estimates`).  The Monte Carlo loop
prices the chain once (the strike design is fixed), forms the noise
summary and the `inversion.TailInversion` (kernel rows, transform plan)
once, and re-perturbs the prices per replication; the replications are
tabulated in groups that share one phase table per frequency chunk
(`options._ChainDesign`).  Every command refuses, before it allocates,
an inversion larger than `inversion._MAX_INVERSION`.
"""
from __future__ import annotations

import math
import os
from dataclasses import asdict, astuple, dataclass, fields

import numpy as np

from .adaptive import (_bound_terms, _full_grid, _top_index,
                       adaptive_quantile, build_grid, sigma_tilde)
from .errors import InputError, LevyqError, NoSolutionError
from .increments import psi2_from_increments
from .inversion import (_MAX_SPECTRAL_POINTS, FIRST_TAIL_NODE, X_MAX_DEFAULT,
                        TailInversion, _check_inversion_size, grid_points,
                        tail_quantiles)
from .kernels import flat_top_kernel
from .models import (CGMYJumps, ExponentialJumps, LevyModel,
                     characteristic_exponent, martingale_drift, true_quantile)
from .numerics import FrequencyGrid
from .options import (_MARTINGALE_TOL, _ChainDesign, _perturbed_chain,
                      _synthetic_design, compute_chain_spectra, read_chain_csv)
from .simulate import METHODS, sample_increments

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

# default threshold ladder for the per-chain quantile curves: 0.2, 0.4, .., 4
DEFAULT_CHAIN_TAUS = tuple(round(0.2 * k, 10) for k in range(1, 21))

# most quotes or increments, checked before anything is allocated:
# demo-direct took 28-72 bytes per increment at 10^6 increments (512
# points, exact and inverse-cdf sampling), so 10^7 increments stand for at
# most 0.72 GB.  The spectral points have their own cap,
# `inversion._MAX_SPECTRAL_POINTS`
_MAX_N = 10 ** 7
# smallest tempering rate G or M.  The truth oracle evaluates the CGMY tail
# C rate^Y Gamma(-Y, rate t) at t down to 3.7e-13 (the floor of
# `models.true_quantile`'s bracket), and Gamma(a, z) steps up through
# z^a e^{-z} for a > -2, so rate t must stay above 1 / sqrt(max float) =
# 7.5e-155: rate >= 2.0e-142, rounded up.  Below it z^a overflows, or z
# underflows to 0.0 and 0.0^a divides by zero
_MIN_RATE = 1e-140
# the least that the largest exact quote of an mc-table strike design may
# be.  On the default model, whose prices at |x| >= 20 lie below e^-20 =
# 2e-9, `options.option_function` returned values within 3.0e-16 of 0 for
# 20 <= |x| < 128.7 (80,000 points), the domain of its pricing grid, whose
# aliased prices beyond are refused.  A design whose quotes all lie below
# 1e-14, above that dust, carries no signal.  The default design's quotes
# run from 7.0e-8 to 0.059
_QUOTE_FLOOR = 1e-14

# mc-table tabulates the spectra of a group of replications together, so
# that one phase table per frequency chunk serves them all.  A replication's
# table holds _REPLICATION_BYTES per spectral point (three complex values
# and a flag per positive node: 205 kB at 8,192 points, measured with
# tracemalloc), and its transforms as much again while the group is formed;
# the tables of a group hold at most _GROUP_BYTES (81 replications at the
# 1,024 points the sizing rule gives the default n = 100, 10 at 8,192)
_REPLICATION_BYTES = 25
_GROUP_BYTES = 2 ** 21


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
    the jump domain), spectral_points (frequency nodes, a power of two in
    [16, 2^19]; unset, every command sizes its grid by
    `inversion.grid_points`, and a set value overrides that rule).

    Bandwidth-selection keys: L (geometric grid ratio), delta (slack in the
    deviation-bound multiplier).

    Monte Carlo keys: replications, seed, taus (the threshold levels of
    mc-table and demo-direct; estimate-chain ignores them and reports
    DEFAULT_CHAIN_TAUS, 0.2, 0.4, .., 4.0).

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
    spectral_points: int | None = None
    # bandwidth selection
    L: float = 1.1
    delta: float = 0.1
    # monte carlo
    replications: int = 200
    seed: int = 0
    taus: tuple = (0.5, 1.0, 1.5, 2.0, 2.5)
    # direct-increment scheme
    increment_delta: float = 0.5
    h: float = 0.05
    method: str = "exact-compound-poisson"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"kind must be one of {_KINDS}, got {self.kind!r}")
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
        for name in ("G", "M"):
            if not getattr(self, name) >= _MIN_RATE:
                raise InputError(
                    f"{name} must be at least {_MIN_RATE:g}, where the "
                    f"tail's Gamma(-Y, {name} t) stays finite, got "
                    f"{getattr(self, name)!r}")
        if self.sigma < 0:
            raise InputError(f"sigma must be nonnegative, got {self.sigma}")
        if not math.isfinite(self.sigma * self.sigma):
            raise InputError(f"sigma^2 must be finite, got sigma = {self.sigma}")
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
            if name == "spectral_points" and value is None:
                continue
            if not isinstance(value, int) or isinstance(value, bool):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.n <= _MAX_N:
            raise InputError(f"n must lie in [1, {_MAX_N}], got {self.n}")
        p = self.spectral_points
        if p is not None and (not 16 <= p <= _MAX_SPECTRAL_POINTS
                              or (p & (p - 1)) != 0):
            raise InputError(
                "spectral_points must be a power of two in "
                f"[16, {_MAX_SPECTRAL_POINTS}], got {p}")
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


# each key is parsed as the type of its default; spectral_points, unset by
# default, as an integer
_KEY_TYPES = {f.name: type(f.default) for f in fields(ExperimentConfig)}
_KEY_TYPES["spectral_points"] = int


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
        kind = _KEY_TYPES.get(key)
        if kind is None:
            raise InputError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise InputError(f"config line {lineno}: duplicate key {key!r}")
        try:
            if kind is tuple:
                parts = val.replace(",", " ").split()
                if not parts:
                    raise ValueError("empty list")
                values[key] = tuple(float(p) for p in parts)
            else:
                values[key] = kind(val)
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


def _spectral_grid(config: ExperimentConfig, cutoff: float, span: float,
                   bandwidths: int) -> FrequencyGrid:
    """The grid on |u| <= cutoff: `config.spectral_points` nodes if the
    config sets them, else as many as `grid_points` asks for the window,
    x_max and the data's extent `span`.  An inversion of that many
    bandwidths that would exceed the cap is refused first."""
    points = config.spectral_points
    if points is None:
        points = grid_points(cutoff, config.x_max, span)
    _check_inversion_size(bandwidths, points, config.x_max)
    return FrequencyGrid(cutoff=cutoff, points=points)


def _grid_record(grid: FrequencyGrid) -> dict:
    """The grid a run used, as its report records it."""
    return {"cutoff": grid.cutoff, "points": grid.points,
            "spacing": grid.spacing}


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


def _check_pricing_sigma(config: ExperimentConfig) -> None:
    """Refuse a sigma too large to price.  psi(-i) = sigma^2/2 + gamma +
    (jump part) cancels to 0 under the martingale drift, but the sum rounds
    by about eps sigma^2 / 2, which swallows the jump part; option pricing
    accepts |phi_T(-i) - 1| up to _MARTINGALE_TOL, so eps sigma^2 T / 2 must
    stay below it (sigma below about 1.9e4 at T = 0.25)."""
    rounding = np.finfo(float).eps * 0.5 * config.sigma ** 2 * config.T
    if rounding > _MARTINGALE_TOL:
        raise InputError(
            f"sigma = {config.sigma:g} is too large for option pricing: "
            f"sigma^2 T / 2 rounds by about {rounding:.3g} in psi(-i), above "
            f"the martingale tolerance {_MARTINGALE_TOL:g}")


def _check_cf_floor(model: LevyModel, config: ExperimentConfig,
                    grid: FrequencyGrid) -> None:
    """Refuse a model whose increment cf |phi_delta| is already below the
    trust threshold (delta n)^{-1/2} of `psi2_from_increments` at the first
    grid node, where it is largest: no node could then be trusted."""
    u = grid.u[0]
    level = abs(np.exp(config.increment_delta
                       * characteristic_exponent(model, u)))
    floor = 1.0 / math.sqrt(config.increment_delta * config.n)
    if not level >= floor:
        raise InputError(
            f"the model's |phi_delta| at the first grid node u = {u:.3g} is "
            f"{level:.3g}, below the cf's trust threshold (increment_delta "
            f"n)^-1/2 = {floor:.3g}: no node carries signal at sigma = "
            f"{config.sigma:g}, increment_delta = {config.increment_delta:g}")


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
    replications, scaled by 100 (display convention); NaN where no
    replication of that cell survived.  The field names are the CSV header.
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
    """Error table plus bookkeeping: attempted replications, the number of
    excluded (replication, tau, side) cells, the failure messages (one
    per failed cell, or one for a replication that failed as a whole) and
    the frequency grid every replication was tabulated on."""

    rows: tuple
    replications: int
    failures: int
    failure_log: tuple
    grid: FrequencyGrid

    def to_csv(self) -> str:
        lines = [",".join(f.name for f in fields(RmseRow))]
        lines += [",".join(map(_csv_cell, astuple(row))) for row in self.rows]
        return "\n".join(lines) + "\n"


def _cells_for(taus):
    return [(tau, side) for tau in taus for side in ("-", "+")]


def _attempt(fn, *args):
    """fn(*args), or the LevyqError it raised in place of the result."""
    try:
        return fn(*args)
    except LevyqError as exc:
        return exc


def _chain_estimates(spectra, inversion, first, config, taus):
    """The estimates of one chain from its tabulated spectra, one row per
    (tau, side) cell in `_cells_for(taus)` order.

    `inversion` (a `TailInversion` on the spectra grid) holds the full
    grid for mc-table's oracle (the post-hoc standard compares every grid
    bandwidth, whatever the screen kept), or the screened grid; the screen
    kept its bandwidths from index `first` on.  Over those, one
    sigma_tilde call per bandwidth bounds every cell still standing, and
    one adaptive_quantile call picks for all of them.

    Returns (qs, clamped, selection, errors): the quantile and clamp flag
    of every cell at every inverted bandwidth, the `Selection` over the
    bandwidths from `first` on (None where it failed as a whole), and per
    cell the LevyqError that cell raised or None.  An error stays with its
    own cell, whose selection row is then not to be read; the other rows
    do not depend on it.
    """
    hs = inversion.bandwidths
    qs, clamped, density = tail_quantiles(inversion.table(spectra), taus,
                                          config.eta)
    errors = [None] * qs.shape[0]
    terms = _bound_terms(spectra, config.x_max, hs[first:],
                         inversion.kernel_rows[first:])
    sigmas = np.zeros((qs.shape[0], hs.size - first))
    for j in range(first, hs.size):
        live = [i for i, error in enumerate(errors) if error is None]
        h = float(hs[j])
        values = _attempt(sigma_tilde, spectra, h, qs[live, j], terms)
        if isinstance(values, LevyqError):
            # redo each cell alone, so an error stays with its own cell
            values = [_attempt(sigma_tilde, spectra, h, qs[i, j], terms)
                      for i in live]
        for i, value in zip(live, values):
            if isinstance(value, LevyqError):
                errors[i] = value
            else:
                sigmas[i, j - first] = value
    selection = _attempt(adaptive_quantile, hs[first:], qs[:, first:],
                         density[:, first:], sigmas, spectra.n_obs,
                         config.delta)
    if isinstance(selection, LevyqError):
        return qs, clamped, None, [error or selection for error in errors]
    for i in np.flatnonzero(selection.chosen < 0):
        errors[i] = errors[i] or _attempt(selection.pick, i)
    return qs, clamped, selection, errors


def _group_spectra(design, prices) -> list:
    """design.spectra(prices), one table per price vector; if that raises,
    each alone, so that an error stays with its own replication."""
    tables = _attempt(design.spectra, prices)
    if not isinstance(tables, LevyqError):
        return tables
    alone = [_attempt(design.spectra, [p]) for p in prices]
    return [t if isinstance(t, LevyqError) else t[0] for t in alone]


def run_mc_table(config: ExperimentConfig) -> RmseTable:
    """Replicated synthetic chains -> RMSE table against model truth.

    The strike design, exact prices, noise summary and inversion are
    formed once; each replication perturbs the prices with its own child
    of one seed sequence, re-estimates the quantiles at every grid
    bandwidth, and runs the bandwidth selector.  The replications' spectra
    are tabulated in groups of about _GROUP_BYTES, each table bit for bit
    what it would be alone.
    "Oracle" errors take, per (tau, side), the fixed grid bandwidth with the
    smallest root-mean-square error over the whole run -- a post-hoc
    standard no data-driven rule can see.

    Failures (any estimation error in one replication cell, or in a whole
    replication) are excluded from the averages and counted per cell in the
    returned table.  A strike design whose exact quotes all lie below
    _QUOTE_FLOOR, the measured dust of the pricing quadrature, is refused.
    """
    if config.kind == "brownian":
        raise InputError("the Monte Carlo table needs a jump component; "
                         "kind = brownian has none")
    if config.n < 10:
        raise InputError(f"need at least 10 quotes per chain, got {config.n}")
    _check_pricing_sigma(config)
    # else every replication fails, or asks for more memory than allowed;
    # the strike range can only add nodes, so a window refused without it
    # is refused before the chain is priced
    bandwidths = _full_grid(config.n, config.L)
    _spectral_grid(config, float(config.n), 0.0, bandwidths.size)
    model = pricing_model(config)
    xs, exact = _synthetic_design(model, config.T, config.n,
                                  (config.strike_mean, config.strike_variance))
    master = _spectral_grid(config, float(config.n), float(np.ptp(xs)),
                            bandwidths.size)
    inversion = TailInversion(master, flat_top_kernel(config.kernel_c),
                              bandwidths, config.x_max)

    cells = _cells_for(config.taus)
    truth = {}
    for tau, side in cells:
        try:
            truth[(tau, side)] = true_quantile(model.jumps, tau, side)
        except NoSolutionError as exc:
            raise InputError(
                f"tau = {tau} exceeds the jump mass on side '{side}'; "
                "no true quantile to compare against") from exc

    # the noise levels _perturbed_chain gives every replication
    design = _ChainDesign(xs, config.noise_fraction * exact, config.T, master)
    if not exact.max() >= _QUOTE_FLOOR:
        raise InputError(
            f"every exact quote of the strike design is below "
            f"{_QUOTE_FLOOR:g}, the pricing quadrature's dust (largest "
            f"{exact.max():.3g} at strike_mean = {config.strike_mean:g}): "
            "its chains carry no signal")
    # (replications x cells x bandwidths) quantiles, the pick of every
    # replication cell and which cells are clean
    shape = (config.replications, len(cells))
    quantiles = np.empty(shape + (bandwidths.size,))
    picks = np.empty(shape)
    clean = np.zeros(shape, dtype=bool)
    failures = []

    children = np.random.SeedSequence(config.seed).spawn(config.replications)
    size = max(1, _GROUP_BYTES // (_REPLICATION_BYTES * master.points))
    for start in range(0, config.replications, size):
        indices = range(start, min(start + size, config.replications))
        prices = [_perturbed_chain(xs, exact, config.T, config.r,
                                   config.noise_fraction,
                                   np.random.default_rng(children[index])
                                   ).prices for index in indices]
        for index, spectra in zip(indices, _group_spectra(design, prices)):
            try:
                if isinstance(spectra, LevyqError):
                    raise spectra
                first = bandwidths.size - build_grid(
                    config.n, config.L, spectra).values.size
                qs, _, selection, errors = _chain_estimates(
                    spectra, inversion, first, config, config.taus)
            except LevyqError as exc:
                failures.append(f"replication {index}: {exc}")
                continue
            quantiles[index] = qs
            for row, ((tau, side), error) in enumerate(zip(cells, errors)):
                if error is None:
                    picks[index, row] = selection.pick(row)[1]
                    clean[index, row] = True
                else:
                    failures.append(f"replication {index}, tau {tau:g}, "
                                    f"side {side}: {error}")

    columns = []
    for row, cell in enumerate(cells):
        kept = clean[:, row]
        if not kept.any():
            columns.append([math.nan, math.nan])
            continue
        q_true = truth[cell]
        per_h = np.sqrt(np.mean((quantiles[kept, row] - q_true) ** 2, axis=0))
        columns.append([100.0 * float(np.min(per_h)), 100.0 * float(
            np.sqrt(np.mean((picks[kept, row] - q_true) ** 2)))])
    rows = [RmseRow(tau, truth[(tau, "-")], truth[(tau, "+")],
                    *columns[2 * i], *columns[2 * i + 1])
            for i, tau in enumerate(config.taus)]
    return RmseTable(rows=tuple(rows), replications=config.replications,
                     failures=int(np.count_nonzero(~clean)),
                     failure_log=tuple(failures), grid=master)


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
    band of the smallest grid bandwidth 1/n, sized from n, x_max and the
    chain's log-strike range, and every grid bandwidth is inverted from it
    in one batch: the same per-chain path as the Monte Carlo loop.  The
    report records that grid under "spectral_grid".  A config whose sigma
    could not price a chain is refused as mc-table refuses it.
    """
    _check_pricing_sigma(config)
    if isinstance(chain, (str, os.PathLike)):
        chain = read_chain_csv(chain, maturity=config.T, rate=config.r,
                               spot=config.S0)
    if chain.n < 10:
        raise InputError(
            f"need at least 10 quotes to estimate, got {chain.n}")
    if not np.any(chain.prices):
        raise InputError("every price of the chain is 0: it carries no signal")
    taus = _levels(DEFAULT_CHAIN_TAUS if taus is None else taus)

    master = _spectral_grid(config, float(chain.n), float(np.ptp(chain.xs)),
                            _top_index(chain.n, config.L) + 1)
    spectra = compute_chain_spectra(chain, master)
    bw = build_grid(chain.n, config.L, spectra)
    inversion = TailInversion(master, flat_top_kernel(config.kernel_c),
                              bw.values, config.x_max)
    _, clamped, selection, errors = _chain_estimates(spectra, inversion, 0,
                                                     config, taus)

    estimates = {"minus": [], "plus": []}
    diagnostics = {"minus": {}, "plus": {}}
    for s, key in enumerate(estimates):
        for i, tau in enumerate(taus):
            row = 2 * i + s
            if errors[row] is not None:
                raise errors[row]
            h, q = selection.pick(row)
            estimates[key].append({
                "tau": tau,
                "quantile": q,
                "bandwidth": h,
                "at_threshold": bool(clamped[row, selection.chosen[row]]),
            })
            diagnostics[key][f"{tau:g}"] = selection.records(row)

    report = {
        "n": chain.n,
        "maturity": chain.maturity,
        "rate": chain.rate,
        "noise_scale": spectra.noise_scale,
        "bandwidth_grid": [float(h) for h in bw.values],
        "grid_feasible": bool(bw.feasible),
        "spectral_grid": _grid_record(master),
        "taus": list(taus),
        "config": _config_dict(config),
        "estimates": estimates,
        "diagnostics": diagnostics,
    }
    plots = {key: "tau,quantile\n" + "".join(
        f"{row['tau']:g},{row['quantile']!r}\n" for row in rows)
        for key, rows in estimates.items()}
    return report, plots


# ---------------------------------------------------------------------------
# direct-increment demo


def demo_direct(config: ExperimentConfig) -> dict:
    """Estimate quantiles from simulated increments at a fixed bandwidth.

    No bandwidth selection: the configured h is used as-is.  The spectra
    table of the increments covers its band |u| <= 1/h, on the grid
    `grid_points` sizes from 1/h, x_max and the range of the sample (which
    the report records under "spectral_grid"), and is inverted by a
    `TailInversion` of its one bandwidth, as the chain drivers invert
    theirs; one `tail_quantiles` pass finds every level on both sides.
    Truth columns are filled from the closed-form tail integral where the
    model has one (and the level is reachable); otherwise they are None.
    """
    taus = config.taus
    cutoff = 1.0 / config.h

    def grid_for(span):
        try:
            return _spectral_grid(config, cutoff, span, 1)
        except InputError as exc:
            raise InputError(f"h = {config.h:g} is too small: {exc}") from None

    # the sample's range can only add nodes: a window that is refused
    # without it is refused before sampling
    grid = grid_for(0.0)
    model = observation_model(config)
    sample = sample_increments(model, config.increment_delta, config.method,
                               config.seed, config.n)
    if config.spectral_points is None:
        grid = grid_for(float(np.ptp(sample.values)))
    _check_cf_floor(model, config, grid)
    spectra = psi2_from_increments(sample, grid)
    table = TailInversion(grid, flat_top_kernel(config.kernel_c),
                          [config.h], config.x_max).table(spectra)
    qs, clamped, _ = tail_quantiles(table, taus, config.eta)
    results = []
    for row, (tau, side) in enumerate(_cells_for(taus)):
        value = float(qs[row, 0])
        truth = None
        if model.jumps is not None:
            try:
                truth = true_quantile(model.jumps, tau, side)
            except NoSolutionError:
                truth = None
        results.append({
            "tau": tau,
            "side": side,
            "estimate": value,
            "at_threshold": bool(clamped[row, 0]),
            "truth": truth,
            "abs_error": None if truth is None else abs(value - truth),
        })
    return {
        "n": int(sample.n),
        "increment_delta": sample.delta,
        "method": config.method,
        "seed": config.seed,
        "bandwidth": config.h,
        "spectral_grid": _grid_record(grid),
        "config": _config_dict(config),
        "results": results,
    }
