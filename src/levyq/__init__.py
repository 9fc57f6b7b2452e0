"""Nonparametric estimation of jump-intensity quantiles of Levy processes.

Two observation schemes feed a common spectral pipeline:

* equidistant increments of the process (empirical characteristic function),
* noisy option prices across strikes (implied characteristic function),

from which the curvature of the characteristic exponent is estimated and
tabulated on a frequency grid (one `Spectra` table for either scheme),
kernel-smoothed, and inverted into jump-intensity densities, tail
intensities, and their generalized quantiles.  A fully data-driven
(Lepski-type) bandwidth selection and a Monte Carlo benchmark harness
are included, along with a small CLI (`levyq`).
"""

# what the three commands, demos/ and bench/ import from the package
from .errors import InputError, LevyqError, NumericalError
from .models import ExponentialJumps, LevyModel, exponent_curvature
from .numerics import FrequencyGrid
from .kernels import flat_top_kernel
from .increments import psi2_from_increments
from .simulate import sample_increments
from .inversion import TailInversion, grid_points, tail_quantiles
from .options import generate_synthetic_chain, write_chain_csv
from .harness import (
    DEFAULT_CHAIN_TAUS,
    ExperimentConfig,
    demo_direct,
    estimate_chain,
    load_config,
    pricing_model,
    run_mc_table,
)

__all__ = [
    "DEFAULT_CHAIN_TAUS",
    "ExperimentConfig",
    "ExponentialJumps",
    "FrequencyGrid",
    "InputError",
    "LevyModel",
    "LevyqError",
    "NumericalError",
    "TailInversion",
    "demo_direct",
    "estimate_chain",
    "exponent_curvature",
    "flat_top_kernel",
    "generate_synthetic_chain",
    "grid_points",
    "load_config",
    "pricing_model",
    "psi2_from_increments",
    "run_mc_table",
    "sample_increments",
    "tail_quantiles",
    "write_chain_csv",
]

__version__ = "0.1.0"
