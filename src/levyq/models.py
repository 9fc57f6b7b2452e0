"""Levy process models and exact ground-truth oracles.

A model is a characteristic triplet (sigma^2, gamma, jump measure) in the
finite-second-moment ("Kolmogorov") normalization, where the characteristic
exponent reads

    psi(u) = -sigma^2 u^2 / 2 + i gamma u + int (e^{iux} - 1 - iux) nu(dx).

The jump measure nu is given by an intensity density: expected number of
jumps per unit time with sizes in dx.  Tempered-stable (CGMY), compound
Poisson, and variance-gamma families are supported; the CGMY and VG
exponents are closed-form, compound Poisson falls back to quadrature.

The tail-intensity functions and their quantiles computed here serve as
the reference truth for every estimator in the package; they are
closed-form except for a compound-Poisson density given without a `tail`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.special import exp1, gammaincc
from scipy.special import gamma as _gamma_fn

from .errors import InputError, NoSolutionError, NumericalError
from .numerics import bracketed_root

__all__ = [
    "CGMYJumps",
    "CompoundPoissonJumps",
    "VarianceGammaJumps",
    "LevyModel",
    "exponential_jumps",
    "characteristic_exponent",
    "exponent_curvature",
    "martingale_drift",
    "levy_density",
    "total_mass",
    "jump_second_moment",
    "tail_integral",
    "true_quantile",
]


# ---------------------------------------------------------------------------
# jump-measure specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CGMYJumps:
    """Tempered-stable intensity C|x|^{-1-Y} e^{-G|x|} (x<0), C x^{-1-Y} e^{-Mx} (x>0).

    Y < 2 is required; Y in {0, 1} is rejected (the closed form has
    logarithmic limits there and the package does not need them).  For
    Y >= 0 the measure is infinite near 0, so total-mass queries fail.
    """

    C: float
    G: float
    M: float
    Y: float

    def __post_init__(self):
        if not self.C > 0:
            raise InputError(f"C must be positive, got {self.C}")
        if self.G < 0 or self.M < 0:
            raise InputError("G and M must be nonnegative")
        if not self.Y < 2:
            raise InputError(f"Y must be < 2, got {self.Y}")
        if self.Y in (0.0, 1.0):
            raise InputError("Y in {0, 1} is not supported (logarithmic closed form)")


@dataclass(frozen=True)
class CompoundPoissonJumps:
    """Finite-activity jumps given by an intensity density and its total mass.

    `density` maps jump size to intensity density (integrates to
    `total_mass` over the real line).  `jump_sampler(rng, size)`, when
    provided, draws jump sizes from the normalized law density/total_mass;
    it is required by the exact path sampler.  `tail`, when provided, maps
    signed t != 0 to the tail intensity N(t) (see `tail_integral`).
    """

    density: Callable[[float], float]
    total_mass: float
    jump_sampler: Optional[Callable] = None
    tail: Optional[Callable[[float], float]] = None

    def __post_init__(self):
        if not self.total_mass > 0:
            raise InputError("total_mass must be positive")


@dataclass(frozen=True)
class VarianceGammaJumps:
    """Variance-gamma jump component (Brownian motion time-changed by a gamma clock).

    scale:          volatility of the subordinated Brownian motion
    drift:          drift of the subordinated Brownian motion
    variance_rate:  variance per unit time of the gamma subordinator
    """

    scale: float
    drift: float
    variance_rate: float

    def __post_init__(self):
        if not self.scale > 0:
            raise InputError("scale must be positive")
        if not self.variance_rate > 0:
            raise InputError("variance_rate must be positive")

    @property
    def tilt_pair(self):
        """Exponential tilt rates (left, right) of the equivalent two-sided density.

        The variance-gamma measure equals (1/kappa)|x|^{-1} e^{-G|x|} on x<0
        and (1/kappa) x^{-1} e^{-Mx} on x>0 with the rates returned here.
        """
        s2, th, k = self.scale ** 2, self.drift, self.variance_rate
        root = math.sqrt(th * th * k * k + 2.0 * s2 * k)
        right = (root - th * k) / (s2 * k)
        left = (root + th * k) / (s2 * k)
        return left, right


def exponential_jumps(intensity: float = 1.0, rate: float = 1.0) -> CompoundPoissonJumps:
    """Compound Poisson spec with Exp(rate) jump sizes and the given intensity."""
    if rate <= 0:
        raise InputError("rate must be positive")
    lam, beta = float(intensity), float(rate)

    def density(x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0, lam * beta * np.exp(-beta * np.clip(x, 0, None)), 0.0)

    def sampler(rng, size):
        return rng.exponential(scale=1.0 / beta, size=size)

    def tail(t):
        return lam * math.exp(-beta * t) if t > 0 else 0.0

    return CompoundPoissonJumps(density=density, total_mass=lam,
                                jump_sampler=sampler, tail=tail)


@dataclass(frozen=True)
class LevyModel:
    """Characteristic triplet: Gaussian variance, drift, jump specification."""

    sigma2: float
    gamma: float
    jumps: object = None

    def __post_init__(self):
        if self.sigma2 < 0:
            raise InputError("sigma2 must be nonnegative")


# ---------------------------------------------------------------------------
# characteristic exponent
# ---------------------------------------------------------------------------

def _cgmy_strip_check(jumps: CGMYJumps, u):
    im = np.atleast_1d(np.imag(u)).astype(float)
    if np.any(im < -jumps.M) or np.any(im > jumps.G) or np.any(im == -jumps.M):
        raise InputError(
            f"Im(u) must lie in (-M, G] = (-{jumps.M}, {jumps.G}] for this measure"
        )


def _cgmy_jump_exponent(jumps: CGMYJumps, u):
    """Closed form of int (e^{iux}-1-iux) nu(dx) for the tempered-stable density."""
    C, G, M, Y = jumps.C, jumps.G, jumps.M, jumps.Y
    if G == 0 or M == 0:
        raise InputError("closed-form exponent requires G > 0 and M > 0 "
                         "(finite second moment/tempering)")
    _cgmy_strip_check(jumps, u)
    u = np.asarray(u, dtype=complex)
    g = _gamma_fn(-Y)
    # the iuY(M^{Y-1} - G^{Y-1}) terms compensate the subtracted iux
    val = (M - 1j * u) ** Y - M ** Y + 1j * u * Y * M ** (Y - 1.0)
    val = val + (G + 1j * u) ** Y - G ** Y - 1j * u * Y * G ** (Y - 1.0)
    return C * g * val


# Largest |x| probed by the compound-Poisson quadratures.  e^{|x|} stays
# inside float64 range below this, so exponentially tilted integrands
# (complex frequencies like -i) never overflow.
_CP_XMAX = 700.0


def _cp_complex_quad(integrand, side: int):
    """Integrate a complex integrand over one half-axis with a support cut.

    The cut point is found by scanning |integrand|; a final tail panel must
    be numerically negligible, otherwise the integral is declared divergent.
    """
    xs = side * np.logspace(-3, np.log10(_CP_XMAX), 120)
    with np.errstate(over="ignore", invalid="ignore"):
        mags = np.array([abs(integrand(x)) for x in xs])
    mags = np.where(np.isfinite(mags), mags, np.inf)
    scale = np.max(mags[np.isfinite(mags)], initial=0.0)
    if scale == 0.0:
        return 0.0 + 0.0j
    cut = _CP_XMAX
    below = np.nonzero(mags < 1e-16 * scale)[0]
    # take the first point past the global maximum where the integrand
    # has decayed away, if any
    imax = int(np.argmax(mags))
    past = below[below > imax]
    if past.size:
        cut = abs(xs[past[0]])

    def re(x):
        return np.real(integrand(x))

    def im(x):
        return np.imag(integrand(x))

    a, b = (0.0, side * cut) if side > 0 else (side * cut, 0.0)
    val = quad(re, a, b, limit=800)[0] + 1j * quad(im, a, b, limit=800)[0]
    if cut >= _CP_XMAX:
        # no decay inside the probed window: make sure the far panel is
        # actually negligible rather than silently truncated
        ta, tb = (0.55 * _CP_XMAX, _CP_XMAX) if side > 0 else (-_CP_XMAX, -0.55 * _CP_XMAX)
        tail = quad(re, ta, tb, limit=200)[0] + 1j * quad(im, ta, tb, limit=200)[0]
        if abs(tail) > max(1e-12, 1e-10 * abs(val)):
            raise NumericalError("compound-Poisson jump integral does not converge")
    if not np.isfinite(val):
        raise NumericalError("compound-Poisson jump quadrature failed")
    return val


def _cp_jump_exponent(jumps: CompoundPoissonJumps, u):
    """Quadrature of int (e^{iux}-1-iux) density(x) dx, one frequency at a time."""
    dens = jumps.density

    def one(uc):
        def integrand(x):
            return (np.exp(1j * uc * x) - 1.0 - 1j * uc * x) * dens(x)

        return _cp_complex_quad(integrand, +1) + _cp_complex_quad(integrand, -1)

    u_arr = np.atleast_1d(np.asarray(u, dtype=complex))
    vals = np.array([one(uc) for uc in u_arr])
    return vals if np.ndim(u) else vals[0]


def _vg_jump_exponent(jumps: VarianceGammaJumps, u):
    u = np.asarray(u, dtype=complex)
    s2, th, k = jumps.scale ** 2, jumps.drift, jumps.variance_rate
    d = 1.0 - 1j * th * k * u + 0.5 * s2 * k * u * u
    # subordinated log-cf minus iu*theta puts the exponent in compensated form
    return -np.log(d) / k - 1j * u * th


def characteristic_exponent(model: LevyModel, u):
    """Characteristic exponent psi(u), vectorized over u (real or complex).

    psi(u) = -sigma^2 u^2/2 + i gamma u + int(e^{iux}-1-iux) nu(dx); the jump
    integral uses the closed form for CGMY and variance gamma, quadrature for
    compound Poisson.  For CGMY, complex arguments must satisfy
    Im(u) in (-M, G].
    """
    u_c = np.asarray(u, dtype=complex)
    val = -0.5 * model.sigma2 * u_c * u_c + 1j * model.gamma * u_c
    j = model.jumps
    if j is None:
        pass
    elif isinstance(j, CGMYJumps):
        val = val + _cgmy_jump_exponent(j, u)
    elif isinstance(j, CompoundPoissonJumps):
        val = val + _cp_jump_exponent(j, u)
    elif isinstance(j, VarianceGammaJumps):
        val = val + _vg_jump_exponent(j, u)
    else:
        raise InputError(f"unknown jump specification {type(j).__name__}")
    # psi(0) = 0 exactly for every model; do not leave closed-form rounding dust
    val = np.where(u_c == 0, 0.0 + 0.0j, val)
    return val if np.ndim(u) else complex(val)


def exponent_curvature(model: LevyModel, u):
    """Second derivative psi''(u) = -sigma^2 - int e^{iux} x^2 nu(dx), vectorized.

    This is the quantity the estimators recover; it is invariant under drift
    changes and under the linear reparametrizations of the jump exponent.
    """
    u_c = np.asarray(u, dtype=complex)
    out = np.full(u_c.shape, -model.sigma2, dtype=complex)
    j = model.jumps
    if j is None:
        pass
    elif isinstance(j, CGMYJumps):
        if j.G == 0 or j.M == 0:
            raise InputError("curvature requires G > 0 and M > 0")
        _cgmy_strip_check(j, u)
        g2 = _gamma_fn(2.0 - j.Y)  # = Y(Y-1)Gamma(-Y)
        out = out - j.C * g2 * ((j.M - 1j * u_c) ** (j.Y - 2.0)
                                + (j.G + 1j * u_c) ** (j.Y - 2.0))
    elif isinstance(j, CompoundPoissonJumps):
        def one(uc):
            def integrand(x):
                return np.exp(1j * uc * x) * x * x * j.density(x)
            return _cp_complex_quad(integrand, +1) + _cp_complex_quad(integrand, -1)

        flat = np.atleast_1d(u_c)
        out = out - np.array([one(uc) for uc in flat]).reshape(u_c.shape)
    elif isinstance(j, VarianceGammaJumps):
        s2, th, k = j.scale ** 2, j.drift, j.variance_rate
        d = 1.0 - 1j * th * k * u_c + 0.5 * s2 * k * u_c * u_c
        dp = -1j * th * k + s2 * k * u_c
        out = out - (s2 * k * d - dp * dp) / (k * d * d)
    else:
        raise InputError(f"unknown jump specification {type(j).__name__}")
    return out if np.ndim(u) else complex(out)


def martingale_drift(sigma2: float, jumps=None) -> float:
    """Drift gamma making e^{L_t} a martingale: gamma = -sigma^2/2 - int(e^x-1-x)nu(dx).

    Requires the exponential moment int_{x>1} e^x nu(dx) < infinity
    (CGMY: M > 1; exponential jumps: rate > 1).
    """
    if jumps is None:
        return -0.5 * sigma2
    if isinstance(jumps, CGMYJumps):
        if not jumps.M > 1:
            raise InputError("martingale drift needs M > 1 (exponential moment)")
        corr = _cgmy_jump_exponent(jumps, -1j)
    elif isinstance(jumps, VarianceGammaJumps):
        left, right = jumps.tilt_pair
        if not right > 1:
            raise InputError("martingale drift needs the right tilt rate > 1")
        corr = _vg_jump_exponent(jumps, -1j)
    elif isinstance(jumps, CompoundPoissonJumps):
        try:
            corr = _cp_jump_exponent(jumps, -1j)
        except NumericalError as exc:
            raise InputError(
                "exponential moment of the jump measure does not exist") from exc
    else:
        raise InputError(f"unknown jump specification {type(jumps).__name__}")
    if abs(corr.imag) > 1e-8 * max(1.0, abs(corr.real)):
        raise NumericalError("jump exponent at -i should be real")
    return -0.5 * sigma2 - corr.real


# ---------------------------------------------------------------------------
# densities, masses, moments
# ---------------------------------------------------------------------------

def levy_density(jumps, x):
    """Intensity density nu(x) of the jump measure, vectorized, x != 0."""
    x = np.asarray(x, dtype=float)
    if isinstance(jumps, CGMYJumps):
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = jumps.C * ax ** (-1.0 - jumps.Y) * np.exp(
                np.where(x >= 0, -jumps.M * ax, -jumps.G * ax))
        return out
    if isinstance(jumps, CompoundPoissonJumps):
        return np.asarray(jumps.density(x), dtype=float)
    if isinstance(jumps, VarianceGammaJumps):
        left, right = jumps.tilt_pair
        k = jumps.variance_rate
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(np.where(x >= 0, -right * ax, -left * ax)) / (k * ax)
        return out
    raise InputError(f"unknown jump specification {type(jumps).__name__}")


def total_mass(jumps) -> float:
    """Total jump intensity nu(R); rejects infinite-activity measures."""
    if isinstance(jumps, CompoundPoissonJumps):
        return jumps.total_mass
    if isinstance(jumps, CGMYJumps):
        if jumps.Y >= 0:
            raise InputError("total mass is infinite for Y >= 0")
        g = _gamma_fn(-jumps.Y)
        return jumps.C * g * (jumps.M ** jumps.Y + jumps.G ** jumps.Y)
    if isinstance(jumps, VarianceGammaJumps):
        raise InputError("variance-gamma measure has infinite total mass")
    raise InputError(f"unknown jump specification {type(jumps).__name__}")


def jump_second_moment(model_or_jumps) -> float:
    """int x^2 nu(dx), the jump contribution to the variance per unit time."""
    jumps = model_or_jumps.jumps if isinstance(model_or_jumps, LevyModel) else model_or_jumps
    if jumps is None:
        return 0.0
    probe = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
    val = exponent_curvature(probe, 0.0)
    return float(-np.real(val))


def jump_mean(model_or_jumps) -> float:
    """int x nu(dx), the jump contribution to the mean drift."""
    jumps = model_or_jumps.jumps if isinstance(model_or_jumps, LevyModel) else model_or_jumps
    if jumps is None:
        return 0.0
    if isinstance(jumps, CGMYJumps):
        C, G, M, Y = jumps.C, jumps.G, jumps.M, jumps.Y
        g1 = _gamma_fn(1.0 - Y)
        return float(C * g1 * (M ** (Y - 1.0) - G ** (Y - 1.0)))
    if isinstance(jumps, VarianceGammaJumps):
        return float(jumps.drift)
    if isinstance(jumps, CompoundPoissonJumps):
        val = quad(lambda x: x * jumps.density(x), 0.0, np.inf, limit=200)[0]
        val += quad(lambda x: x * jumps.density(x), -np.inf, 0.0, limit=200)[0]
        return float(val)
    raise InputError(f"unknown jump specification {type(jumps).__name__}")


# ---------------------------------------------------------------------------
# tail integrals and generalized quantiles (the ground-truth oracle)
# ---------------------------------------------------------------------------

# absolute and relative tolerance of the tail quadrature route
_TAIL_QUAD_TOL = 1e-10


def _upper_gamma(a: float, z: float) -> float:
    """Upper incomplete gamma Gamma(a, z) for z > 0, a > -2, a not in {0, -1}.

    Negative a steps up by Gamma(a, z) = (Gamma(a+1, z) - z^a e^{-z}) / a.
    """
    if a > 0:
        return gammaincc(a, z) * _gamma_fn(a)
    return (_upper_gamma(a + 1.0, z) - z ** a * math.exp(-z)) / a


def tail_integral(jumps, t: float) -> float:
    """Exact tail intensity N(t) of a jump measure, t != 0.

    N(t) = nu([t, infinity)) for t > 0 and nu((-infinity, t]) for t < 0:
    the expected number of jumps per unit time at least as extreme as t.
    CGMY: C rate^Y Gamma(-Y, rate|t|) (Carr, Geman, Madan & Yor 2002), or
    C|t|^{-Y}/Y at rate 0; variance gamma: E1(rate|t|)/kappa (Madan, Carr &
    Chang 1998); rate M or G, resp. the tilt pair, by the side of t.
    Compound Poisson: its `tail`, else quadrature of the density.
    """
    if t == 0:
        raise InputError("t must be nonzero")
    if jumps is None:
        return 0.0
    s = abs(t)
    if isinstance(jumps, CGMYJumps):
        rate, Y = (jumps.M if t > 0 else jumps.G), jumps.Y
        if rate == 0:
            if Y < 0:
                raise InputError("tail intensity is infinite for Y < 0 "
                                 "without tempering on that side")
            return float(jumps.C * s ** -Y / Y)
        return float(jumps.C * rate ** Y * _upper_gamma(-Y, rate * s))
    if isinstance(jumps, VarianceGammaJumps):
        left, right = jumps.tilt_pair
        return float(exp1((right if t > 0 else left) * s) / jumps.variance_rate)
    if isinstance(jumps, CompoundPoissonJumps) and jumps.tail is not None:
        return float(jumps.tail(t))

    # on the positive axis (mirrored for t < 0), the inner panel in log x,
    # where a blow-up at the origin is smooth.  A quadrature warning or a
    # negative tail would hand a wrong N(t) to true_quantile: both raise.
    sign = 1.0 if t > 0 else -1.0

    def dens(y):
        return levy_density(jumps, sign * y)

    mid = max(2.0 * s, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        try:
            val = quad(lambda y: math.exp(y) * dens(math.exp(y)), math.log(s),
                       math.log(mid), epsabs=_TAIL_QUAD_TOL,
                       epsrel=_TAIL_QUAD_TOL, limit=400)[0]
            val += quad(dens, mid, np.inf, epsabs=_TAIL_QUAD_TOL,
                        epsrel=_TAIL_QUAD_TOL, limit=400)[0]
        except IntegrationWarning as exc:
            raise NumericalError(
                f"tail quadrature failed at t={t}: {exc}") from exc
    if not (np.isfinite(val) and val >= 0.0):
        raise NumericalError(f"tail quadrature gave N({t}) = {val!r}")
    return float(val)


def true_quantile(jumps, tau: float, side: str) -> float:
    """Generalized tau-quantile magnitude: the t > 0 with N(sign * t) = tau.

    side "+" looks at the right tail, side "-" at the left; the returned
    value is the positive jump magnitude in both cases.  Root found by
    bracket expansion plus bisection to absolute tolerance 1e-8.
    """
    if tau <= 0:
        raise InputError("tau must be positive")
    if side not in ("+", "-"):
        raise InputError("side must be '+' or '-'")
    sgn = 1.0 if side == "+" else -1.0

    def f(t):
        return tail_integral(jumps, sgn * t) - tau

    lo = 1e-4
    while f(lo) <= 0.0:
        lo *= 0.25
        if lo < 1e-13:
            raise NoSolutionError(
                f"tau={tau} exceeds the {side} tail mass of the measure")
    hi = max(1.0, 4.0 * lo)
    while f(hi) >= 0.0:
        hi *= 2.0
        if hi > 1e7:
            raise NumericalError("failed to bracket the quantile from above")
    return bracketed_root(f, lo, hi, tol=1e-8)
