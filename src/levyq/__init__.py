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

from .errors import (
    ChainFormatError,
    InputError,
    LevyqError,
    MartingaleError,
    NoSolutionError,
    NumericalError,
)
from .models import (
    CGMYJumps,
    ExponentialJumps,
    LevyModel,
    characteristic_exponent,
    exponent_curvature,
    jump_second_moment,
    martingale_drift,
    tail_integral,
    true_quantile,
)
from .numerics import FrequencyGrid, Spectra, bracketed_root, inverse_fourier
from .kernels import SpectralKernel, flat_top_kernel
from .increments import IncrementSample, psi2_from_increments, read_increment_csv
from .simulate import METHODS, IncrementSampler, sample_increments
from .inversion import (
    DistributionEstimate,
    QuantileEstimate,
    quantile_from_distribution,
    tail_estimates,
)
from .options import (
    NoiseProfile,
    OptionChain,
    SplineOptionFunction,
    build_spline,
    compute_chain_spectra,
    estimate_noise_profile,
    generate_synthetic_chain,
    option_function,
    read_chain_csv,
    spline_spectra,
    write_chain_csv,
)
from .adaptive import (
    BandwidthGrid,
    BandwidthRecord,
    LepskiDiagnostics,
    adaptive_quantile,
    build_grid,
    sigma_tilde,
    tail_weight_spectrum,
)
from .harness import (
    DEFAULT_CHAIN_TAUS,
    ExperimentConfig,
    RmseRow,
    RmseTable,
    demo_direct,
    estimate_chain,
    load_config,
    observation_model,
    parse_config_text,
    pricing_model,
    run_mc_table,
)

__version__ = "0.1.0"
