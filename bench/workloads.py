"""The three benchmark workloads: inputs, CLI argument lists and output checks.

Each workload is one ``levyq`` subcommand run in-process through
``levyq.cli.main``.  Inputs come only from the benchmark seed; the program
sees nothing but the generated config and chain files.

* ``mc_table``  -- ``levyq mc-table`` at the default ExperimentConfig with
  MC_REPLICATIONS replications: the paper's Monte Carlo table.  Loads the
  batched path (spline spectra, sigma_tilde, quantile search, truth oracle,
  the tail-node x frequency phase basis that sets peak memory).
* ``chain``     -- ``levyq estimate-chain`` on one synthetic n=100 CGMY chain
  at 1 % noise, default config and tau ladder.  Single-chain latency through
  the per-bandwidth inversion stack, which re-evaluates the spline
  transforms and rebuilds the phase matrix once per bandwidth.
* ``direct``    -- ``levyq demo-direct`` on compound-Poisson-exp increments
  (intensity 5, Exp(1) sizes, sigma 0, spacing 0.5, h 0.05, n 5e4).  One
  bandwidth with an O(n)-per-node empirical cf; no spline, screen, sigma or
  selection, so it predicts "no change" for those layers.  The '-' side has
  no mass and exercises the clamp path.

Every operation's output is checked; ``check`` returns an error string (or
None) together with the delivered-quantile errors used for ``q_rmse``.
"""
from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import gamma as gamma_fn
from scipy.special import gammaincc

from levyq.harness import (DEFAULT_CHAIN_TAUS, ExperimentConfig,
                           pricing_model)
from levyq.options import generate_synthetic_chain, write_chain_csv

# Replications per mc-table operation.  The sigma work of a replication
# depends on its noise draw (trusted nodes vary 30-100 % between draws);
# six draws average that out while one operation takes 10-13 s on a
# 2-core Xeon, so a 20-second run holds two operations.
MC_REPLICATIONS = 6

# Frozen ground-truth quantile magnitudes of the default CGMY measure
# (C=1, G=5, M=8, Y=0.5), the same values as TRUE_QUANTILES in
# tests/conftest.py: tau -> (left, right).
TRUE_QUANTILES = {
    0.5: (0.178525, 0.125468),
    1.0: (0.120155, 0.086676),
    1.5: (0.091451, 0.067233),
    2.0: (0.073700, 0.055022),
    2.5: (0.061466, 0.046493),
}
TRUE_QUANTILE_TOL = 1e-6

# Direct workload: intensity 5 puts every default tau (<= 2.5) on the '+'
# side, where the exact quantile is log(intensity / tau) / jump_rate.
DIRECT_INTENSITY = 5.0
DIRECT_JUMP_RATE = 1.0
# Allowed |estimate - truth| for a '+' estimate of the direct workload.  At
# n = 5e4 and h = 0.05, seed 1 misses by 0.09 at tau = 0.5, where the tail
# is thinnest; seeds 1, 2, 101-110 and 301-310 all passed 0.25.
DIRECT_TOL = 0.25

# name -> keyword overrides of ExperimentConfig.  "tiny" is the warm-up
# operation of every set-up and the size bench/selftest.py runs.
SIZES = {
    "full": {
        "mc_table": {"replications": MC_REPLICATIONS},
        "chain": {},
        "direct": {"n": 50_000},
    },
    "tiny": {
        "mc_table": {"replications": 1, "n": 32, "spectral_points": 512,
                     "taus": (1.0,)},
        "chain": {"n": 32, "spectral_points": 512},
        "direct": {"n": 5_000, "spectral_points": 512, "taus": (1.0,)},
    },
}

_DIRECT_MODEL = {
    "kind": "compound-poisson-exp",
    "intensity": DIRECT_INTENSITY,
    "jump_rate": DIRECT_JUMP_RATE,
    "sigma": 0.0,
    "gamma": 0.0,
    "increment_delta": 0.5,
    "h": 0.05,
    "method": "exact-compound-poisson",
}


def _config_text(values: dict) -> str:
    lines = []
    for key, value in values.items():
        if isinstance(value, tuple):
            value = " ".join(repr(v) for v in value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def cgmy_quantile(jumps: dict, tau: float, side: str) -> float:
    """Exact CGMY quantile magnitude from the incomplete-gamma closed form.

    N(+t) = C M^Y Gamma(-Y, M t) and N(-t) = C G^Y Gamma(-Y, G t), with
    Gamma(-Y, z) = (z^-Y e^-z - Gamma(1-Y, z)) / Y for 0 < Y < 1.  This is
    independent of levyq's quadrature oracle.
    """
    C, Y = jumps["C"], jumps["Y"]
    rate = jumps["M"] if side == "+" else jumps["G"]

    def tail(t):
        z = rate * t
        upper = gammaincc(1.0 - Y, z) * gamma_fn(1.0 - Y)
        return C * rate ** Y * (z ** -Y * math.exp(-z) - upper) / Y - tau

    return brentq(tail, 1e-10, 50.0, xtol=1e-14, rtol=1e-14)


class Workload:
    """Inputs and checks for one workload at one size, in one directory."""

    def __init__(self, name: str, seed: int, size: str, workdir: Path):
        self.name = name
        self.seed = seed
        self.dir = workdir
        self.overrides = SIZES[size][name]
        self.config = ExperimentConfig(**self.overrides)
        self.argv: list = []
        self.out = workdir / "out"
        self.truth: dict = {}

    def setup(self) -> None:
        """Write the input files and the CLI argument list."""
        self.dir.mkdir(parents=True, exist_ok=True)
        cfg = self.dir / "run.cfg"
        if self.name == "mc_table":
            cfg.write_text(_config_text({**self.overrides, "seed": self.seed}))
            self.argv = ["mc-table", "--config", str(cfg),
                         "--out", str(self.out)]
        elif self.name == "chain":
            cfg.write_text(_config_text(self.overrides))
            config = self.config
            chain = generate_synthetic_chain(
                pricing_model(config), config.T, config.r, config.n,
                config.noise_fraction,
                (config.strike_mean, config.strike_variance), self.seed)
            write_chain_csv(self.dir / "chain.csv", chain)
            self.argv = ["estimate-chain", "--chain",
                         str(self.dir / "chain.csv"), "--config", str(cfg),
                         "--out", str(self.out)]
        else:
            cfg.write_text(_config_text(
                {**_DIRECT_MODEL, **self.overrides, "seed": self.seed}))
            self.argv = ["demo-direct", "--config", str(cfg),
                         "--out", str(self.out)]

    def load_truth(self) -> None:
        """Model truth for the (tau, side) cells of chain and direct.

        mc_table checks its own truth columns against TRUE_QUANTILES.  Not
        part of the timed set-up: this is the benchmark's reference.
        """
        config = self.config
        if self.name == "direct":
            self.truth = {(tau, "+"): math.log(DIRECT_INTENSITY / tau)
                          / DIRECT_JUMP_RATE for tau in config.taus}
        elif self.name == "chain":
            jumps = {"C": config.C, "G": config.G, "M": config.M,
                     "Y": config.Y}
            self.truth = {(tau, side): cgmy_quantile(jumps, tau, side)
                          for tau in DEFAULT_CHAIN_TAUS for side in "-+"}

    def clear_output(self) -> None:
        if self.out.is_dir():
            for path in self.out.iterdir():
                path.unlink()
            self.out.rmdir()
        elif self.out.exists():
            self.out.unlink()

    def check(self, stdout: str):
        """(error or None, q_rmse, q_rmse_oracle) for the last operation."""
        try:
            return getattr(self, f"_check_{self.name}")(stdout)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc!r}", math.nan, math.nan

    def _check_mc_table(self, stdout: str):
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        taus = [float(row["tau"]) for row in rows]
        if taus != list(self.config.taus):
            return f"table levels {taus}", math.nan, math.nan
        adaptive, oracle = [], []
        for row in rows:
            want = TRUE_QUANTILES[float(row["tau"])]
            got = (float(row["q_minus"]), float(row["q_plus"]))
            if max(abs(g - w) for g, w in zip(got, want)) > TRUE_QUANTILE_TOL:
                return f"truth columns {got} != {want}", math.nan, math.nan
            for side in ("minus", "plus"):
                cell_o = row[f"rmse_oracle_{side}"]
                cell_a = row[f"rmse_adaptive_{side}"]
                if not (cell_o and cell_a and math.isfinite(float(cell_o))
                        and math.isfinite(float(cell_a))):
                    return f"non-finite RMSE cell at tau {row['tau']}", \
                        math.nan, math.nan
                oracle.append(float(cell_o))
                adaptive.append(float(cell_a))
        match = re.search(r"(\d+) failures", stdout)
        if match is None or int(match.group(1)) != 0:
            return "replication cells excluded from the table", \
                math.nan, math.nan
        q_rmse = math.sqrt(sum(a * a for a in adaptive) / len(adaptive))
        return None, q_rmse, sum(oracle) / len(oracle)

    def _check_chain(self, stdout: str):
        report = json.loads((self.out / "report.json").read_text())
        errors = []
        per_h: dict = {}
        for key, side in (("minus", "-"), ("plus", "+")):
            rows = report["estimates"][key]
            if [row["tau"] for row in rows] != report["taus"]:
                return f"{key} estimates do not cover the tau ladder", \
                    math.nan, math.nan
            for row in rows:
                q = row["quantile"]
                if not (isinstance(q, float) and math.isfinite(q)):
                    return f"non-finite estimate {q!r}", math.nan, math.nan
                truth = self.truth.get((row["tau"], side))
                if truth is None:
                    continue
                errors.append(q - truth)
                for rec in report["diagnostics"][key][f"{row['tau']:g}"]:
                    per_h.setdefault(rec["h"], []).append(rec["q"] - truth)
        full = [v for v in per_h.values() if len(v) == len(errors)]
        oracle = min(100.0 * math.sqrt(np.mean(np.square(v))) for v in full)
        return None, 100.0 * math.sqrt(np.mean(np.square(errors))), oracle

    def _check_direct(self, stdout: str):
        report = json.loads(self.out.read_text())
        errors = []
        seen = set()
        for row in report["results"]:
            seen.add((row["tau"], row["side"]))
            truth = self.truth.get((row["tau"], row["side"]))
            if truth is None:
                if not row["at_threshold"]:
                    return (f"'-' side at tau {row['tau']} did not clamp; "
                            "the process has no negative jumps"), \
                        math.nan, math.nan
                continue
            err = row["estimate"] - truth
            if not abs(err) <= DIRECT_TOL:
                return (f"'+' estimate {row['estimate']!r} at tau "
                        f"{row['tau']} is off by more than {DIRECT_TOL}"), \
                    math.nan, math.nan
            errors.append(err)
        if seen != {(tau, side) for tau in self.config.taus
                    for side in "-+"}:
            return "results do not cover every (tau, side)", \
                math.nan, math.nan
        q_rmse = 100.0 * math.sqrt(np.mean(np.square(errors)))
        # one fixed bandwidth: the best fixed bandwidth is that one
        return None, q_rmse, q_rmse
