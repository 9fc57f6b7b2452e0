"""Levy process models and exact ground-truth oracles.

A model is a characteristic triplet (sigma^2, gamma, jump measure) in the
finite-second-moment ("Kolmogorov") normalization, where the characteristic
exponent reads

    psi(u) = -sigma^2 u^2 / 2 + i gamma u + int (e^{iux} - 1 - iux) nu(dx).

The jump measure nu is given by an intensity density: expected number of
jumps per unit time with sizes in dx.  Two families are supported, the
ones the CLI builds: tempered-stable (CGMY, `kind = cgmy`) and compound
Poisson with exponential sizes (`kind = compound-poisson-exp`).  Their
exponent, curvature, moments, martingale drift and tail intensity are all
closed-form; nothing here integrates numerically.

The tail-intensity functions and their quantiles computed here serve as
the reference truth for every estimator in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincc
from scipy.special import gamma as _gamma_fn

from .errors import InputError, NoSolutionError, NumericalError
from .numerics import bracketed_root

__all__ = [
    "CGMYJumps",
    "ExponentialJumps",
    "LevyModel",
    "characteristic_exponent",
    "exponent_curvature",
    "martingale_drift",
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
    logarithmic limits there and the package does not need them), and so
    is Y below about -171.62, where Gamma(-Y), a factor of the exponent
    and of the tail, overflows.  For Y >= 0 the measure has infinite mass
    near 0.
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
        if not math.isfinite(_gamma_fn(-self.Y)):
            raise InputError(f"Y must lie above about -171.62, where "
                             f"Gamma(-Y) is finite, got {self.Y!r}")


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson jumps: `intensity` jumps per unit time, Exp(`rate`) sizes.

    The intensity density is intensity * rate * e^{-rate x} on x > 0, so the
    measure has total mass `intensity`, mean intensity/rate, and no
    negative jumps.
    """

    intensity: float
    rate: float

    def __post_init__(self):
        if not self.intensity > 0:
            raise InputError(f"intensity must be positive, got {self.intensity}")
        if not self.rate > 0:
            raise InputError(f"rate must be positive, got {self.rate}")


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


def _exp_shift(jumps: ExponentialJumps, u):
    """rate - iu, the denominator of every transform of the exponential
    measure; they converge only for Im(u) > -rate."""
    if np.any(np.imag(u) <= -jumps.rate):
        raise InputError(
            f"Im(u) must exceed -rate = -{jumps.rate} for this measure")
    return jumps.rate - 1j * np.asarray(u, dtype=complex)


def _exp_jump_exponent(jumps: ExponentialJumps, u):
    """Closed form lam beta/(beta - iu) - lam - iu lam/beta of
    int (e^{iux}-1-iux) nu(dx) for intensity lam and Exp(beta) sizes."""
    lam, beta = jumps.intensity, jumps.rate
    u = np.asarray(u, dtype=complex)
    return lam * beta / _exp_shift(jumps, u) - lam - 1j * u * lam / beta


def characteristic_exponent(model: LevyModel, u):
    """Characteristic exponent psi(u), vectorized over u (real or complex).

    psi(u) = -sigma^2 u^2/2 + i gamma u + int(e^{iux}-1-iux) nu(dx), with
    the jump integral in closed form.  Complex arguments must satisfy
    Im(u) in (-M, G] for CGMY and Im(u) > -rate for exponential jumps.
    """
    u_c = np.asarray(u, dtype=complex)
    val = -0.5 * model.sigma2 * u_c * u_c + 1j * model.gamma * u_c
    j = model.jumps
    if j is None:
        pass
    elif isinstance(j, CGMYJumps):
        val = val + _cgmy_jump_exponent(j, u)
    elif isinstance(j, ExponentialJumps):
        val = val + _exp_jump_exponent(j, u)
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
    elif isinstance(j, ExponentialJumps):
        out = out - 2.0 * j.intensity * j.rate / _exp_shift(j, u_c) ** 3
    else:
        raise InputError(f"unknown jump specification {type(j).__name__}")
    return out if np.ndim(u) else complex(out)


def martingale_drift(sigma2: float, jumps=None) -> float:
    """Drift gamma making e^{L_t} a martingale: gamma = -sigma^2/2 - int(e^x-1-x)nu(dx).

    Requires the exponential moment int_{x>1} e^x nu(dx) < infinity
    (CGMY: M > 1; exponential jumps: rate > 1, where the correction is
    lam beta/(beta - 1) - lam - lam/beta).
    """
    if jumps is None:
        return -0.5 * sigma2
    if isinstance(jumps, CGMYJumps):
        if not jumps.M > 1:
            raise InputError("martingale drift needs M > 1 (exponential moment)")
        corr = _cgmy_jump_exponent(jumps, -1j)
    elif isinstance(jumps, ExponentialJumps):
        if not jumps.rate > 1:
            raise InputError(
                "exponential moment of the jump measure does not exist")
        corr = _exp_jump_exponent(jumps, -1j)
    else:
        raise InputError(f"unknown jump specification {type(jumps).__name__}")
    if abs(corr.imag) > 1e-8 * max(1.0, abs(corr.real)):
        raise NumericalError("jump exponent at -i should be real")
    return -0.5 * sigma2 - corr.real


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------

def jump_second_moment(jumps) -> float:
    """int x^2 nu(dx) of a jump specification (None: no jumps), the jump
    contribution to the variance per unit time."""
    if jumps is None:
        return 0.0
    probe = LevyModel(sigma2=0.0, gamma=0.0, jumps=jumps)
    val = exponent_curvature(probe, 0.0)
    return float(-np.real(val))


def jump_mean(jumps) -> float:
    """int x nu(dx) of a jump specification (None: no jumps), the jump
    contribution to the mean drift."""
    if jumps is None:
        return 0.0
    if isinstance(jumps, CGMYJumps):
        C, G, M, Y = jumps.C, jumps.G, jumps.M, jumps.Y
        g1 = _gamma_fn(1.0 - Y)
        return float(C * g1 * (M ** (Y - 1.0) - G ** (Y - 1.0)))
    if isinstance(jumps, ExponentialJumps):
        return float(jumps.intensity / jumps.rate)
    raise InputError(f"unknown jump specification {type(jumps).__name__}")


# ---------------------------------------------------------------------------
# tail integrals and generalized quantiles (the ground-truth oracle)
# ---------------------------------------------------------------------------

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
    C|t|^{-Y}/Y at rate 0, with rate M or G by the side of t.  Exponential
    jumps: lam e^{-beta t} for t > 0, and 0 for t < 0.
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
    if isinstance(jumps, ExponentialJumps):
        lam, beta = jumps.intensity, jumps.rate
        return lam * math.exp(-beta * t) if t > 0 else 0.0
    raise InputError(f"unknown jump specification {type(jumps).__name__}")


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
