"""Nonparametric estimation of jump-intensity quantiles of Levy processes.

Two observation schemes feed a common spectral pipeline:

* equidistant increments of the process (empirical characteristic function),
* noisy option prices across strikes (implied characteristic function),

from which the curvature of the characteristic exponent is estimated,
kernel-smoothed, and inverted into jump-intensity densities, tail
intensities, and their generalized quantiles.  A fully data-driven
(Lepski-type) bandwidth selection and a Monte Carlo benchmark harness
are included, along with a small CLI (`levyq`).
"""

from .errors import (
    ChainFormatError,
    EmptyGridError,
    InputError,
    LevyqError,
    MartingaleError,
    NoSolutionError,
    NumericalError,
)
from .models import (
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
from .numerics import FrequencyGrid, bracketed_root, inverse_fourier
from .kernels import OrderReport, SpectralKernel, flat_top_kernel, triangle_kernel, verify_order
from .increments import (
    IncrementSample,
    Psi2Estimate,
    psi2_from_increments,
    read_increment_csv,
    write_increment_csv,
)
from .simulate import METHODS, IncrementSampler, sample_increments
from .inversion import (
    DistributionEstimate,
    QuantileEstimate,
    density_from_psi2,
    distribution_estimate,
    quantile_from_distribution,
)
from .options import (
    ChainSpectra,
    NoiseProfile,
    OptionChain,
    SplineOptionFunction,
    build_spline,
    call_value,
    compute_chain_spectra,
    estimate_noise_profile,
    generate_synthetic_chain,
    option_function,
    option_psi2,
    phi_tilde,
    psi_tilde_derivatives,
    put_value,
    read_chain_csv,
    weighted_spline_transform,
    write_chain_csv,
)
from .adaptive import (
    BandwidthGrid,
    BandwidthRecord,
    LepskiDiagnostics,
    adaptive_quantile,
    auxiliary_spectra,
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
