"""Levy process models and exact ground-truth oracles.

A model is a characteristic triplet (sigma^2, gamma, jump measure) in the
finite-second-moment ("Kolmogorov") normalization, where the characteristic
exponent reads

    psi(u) = -sigma^2 u^2 / 2 + i gamma u + int (e^{iux} - 1 - iux) nu(dx).

The jump measure nu is given by an intensity density: expected number of
jumps per unit time with sizes in dx.  Two families are supported, the
ones the CLI builds: tempered-stable (CGMY, `kind = cgmy`) and compound
Poisson with exponential sizes (`kind = compound-poisson-exp`).  Their
exponent, curvature, mean, tail intensity and total mass are closed forms
held by the family's class; the module functions add the Gaussian part and
read a missing jump specification (None) as no jumps.  Nothing here
integrates numerically.

The tail-intensity functions and their quantiles computed here serve as
the reference truth for every estimator in the package.
"""

from __future__ import annotations

import math
import sys
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
    and of the tail, overflows.  So is a positive rate whose power rate^p,
    p in {Y, Y-1, Y-2} (the exponent, the mean, the curvature), overflows
    or underflows below the smallest normal float, or gives a term
    C Gamma(-Y) rate^p that overflows.  For Y >= 0 the measure has
    infinite mass near 0.
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
        # numpy's powers of (rate -+ iu) warn where these do not hold;
        # formed here in Python floats, which raise on overflow and do not
        # warn on underflow
        scale = float(self.C) * float(_gamma_fn(-self.Y))
        for name, rate in (("G", self.G), ("M", self.M)):
            if rate == 0:
                continue
            at = f"at {name} = {rate!r}, Y = {self.Y!r}"
            for power, label in ((self.Y, "Y"), (self.Y - 1.0, "(Y-1)"),
                                 (self.Y - 2.0, "(Y-2)")):
                try:
                    value = float(rate) ** float(power)
                except OverflowError:
                    raise InputError(f"{name}^{label} is not finite: it "
                                     f"overflows {at}") from None
                if value < sys.float_info.min:
                    raise InputError(f"{name}^{label} underflows below the "
                                     f"smallest normal float {at}")
                if not math.isfinite(scale * value):
                    raise InputError(f"C Gamma(-Y) {name}^{label} "
                                     f"overflows {at}")

    @property
    def mass(self) -> float:
        """Total intensity nu(R): C Gamma(-Y)(G^Y + M^Y) for Y < 0 with G
        and M positive, infinite otherwise."""
        if self.Y < 0 and self.G > 0 and self.M > 0:
            return self.C * _gamma_fn(-self.Y) * (self.G ** self.Y
                                                  + self.M ** self.Y)
        return math.inf

    def _strip_check(self, u):
        """Refuse an untempered side (G or M zero) or Im(u) outside (-M, G]."""
        if self.G == 0 or self.M == 0:
            raise InputError("the exponent and its curvature need G > 0 and M > 0")
        im = np.atleast_1d(np.imag(u)).astype(float)
        if np.any(im < -self.M) or np.any(im > self.G) or np.any(im == -self.M):
            raise InputError(f"Im(u) must lie in (-M, G] = (-{self.M}, "
                             f"{self.G}] for this measure")

    def exponent(self, u):
        """int (e^{iux}-1-iux) nu(dx) in closed form."""
        C, G, M, Y = self.C, self.G, self.M, self.Y
        self._strip_check(u)
        u = np.asarray(u, dtype=complex)
        # the iuY(M^{Y-1} - G^{Y-1}) terms compensate the subtracted iux
        val = (M - 1j * u) ** Y - M ** Y + 1j * u * Y * M ** (Y - 1.0)
        val = val + (G + 1j * u) ** Y - G ** Y - 1j * u * Y * G ** (Y - 1.0)
        return C * _gamma_fn(-Y) * val

    def curvature(self, u):
        """-int e^{iux} x^2 nu(dx), the second derivative of the exponent."""
        self._strip_check(u)
        u = np.asarray(u, dtype=complex)
        g2 = _gamma_fn(2.0 - self.Y)  # = Y(Y-1)Gamma(-Y)
        if not math.isfinite(g2):
            raise InputError(f"the curvature needs Y above about -169.6, where "
                             f"Gamma(2-Y) is finite, got {self.Y!r}")
        return -self.C * g2 * ((self.M - 1j * u) ** (self.Y - 2.0)
                               + (self.G + 1j * u) ** (self.Y - 2.0))

    def mean(self) -> float:
        """int x nu(dx)."""
        C, G, M, Y = self.C, self.G, self.M, self.Y
        return float(C * _gamma_fn(1.0 - Y) * (M ** (Y - 1.0) - G ** (Y - 1.0)))

    def tail(self, t: float) -> float:
        """N(t) for t != 0: C rate^Y Gamma(-Y, rate|t|) (Carr, Geman, Madan &
        Yor 2002), or C|t|^{-Y}/Y at rate 0, with rate M or G by the side
        of t."""
        rate, Y = (self.M if t > 0 else self.G), self.Y
        if rate == 0:
            if Y < 0:
                raise InputError("tail intensity is infinite for Y < 0 "
                                 "without tempering on that side")
            return float(self.C * abs(t) ** -Y / Y)
        return float(self.C * rate ** Y * _upper_gamma(-Y, rate * abs(t)))


@dataclass(frozen=True)
class ExponentialJumps:
    """Compound-Poisson jumps: `intensity` jumps per unit time, Exp(`rate`) sizes.

    The intensity density is intensity * rate * e^{-rate x} on x > 0, so the
    measure has total mass `intensity`, mean intensity/rate, and no
    negative jumps.  Its transforms, over rate - iu, need Im(u) > -rate.
    """

    intensity: float
    rate: float

    def __post_init__(self):
        if not self.intensity > 0:
            raise InputError(f"intensity must be positive, got {self.intensity}")
        if not self.rate > 0:
            raise InputError(f"rate must be positive, got {self.rate}")

    @property
    def mass(self) -> float:
        return self.intensity

    def _shift(self, u):
        if np.any(np.imag(u) <= -self.rate):
            raise InputError(
                f"Im(u) must exceed -rate = -{self.rate} for this measure")
        return self.rate - 1j * np.asarray(u, dtype=complex)

    def exponent(self, u):
        """lam beta/(beta - iu) - lam - iu lam/beta for intensity lam and
        Exp(beta) sizes."""
        lam, beta = self.intensity, self.rate
        u = np.asarray(u, dtype=complex)
        return lam * beta / self._shift(u) - lam - 1j * u * lam / beta

    def curvature(self, u):
        return -2.0 * self.intensity * self.rate / self._shift(u) ** 3

    def mean(self) -> float:
        return float(self.intensity / self.rate)

    def tail(self, t: float) -> float:
        """lam e^{-beta t} for t > 0, and 0 for t < 0."""
        return self.intensity * math.exp(-self.rate * t) if t > 0 else 0.0


@dataclass(frozen=True)
class LevyModel:
    """Characteristic triplet: Gaussian variance, drift, jump specification
    (a CGMYJumps, an ExponentialJumps, or None for no jumps)."""

    sigma2: float
    gamma: float
    jumps: object = None

    def __post_init__(self):
        if self.sigma2 < 0:
            raise InputError("sigma2 must be nonnegative")
        if not isinstance(self.jumps, (CGMYJumps, ExponentialJumps, type(None))):
            raise InputError(
                f"unknown jump specification {type(self.jumps).__name__}")


# ---------------------------------------------------------------------------
# characteristic exponent and moments
# ---------------------------------------------------------------------------

def characteristic_exponent(model: LevyModel, u):
    """Characteristic exponent psi(u), vectorized over u (real or complex).

    psi(u) = -sigma^2 u^2/2 + i gamma u + int(e^{iux}-1-iux) nu(dx), with
    the jump integral in closed form.  Complex arguments must satisfy
    Im(u) in (-M, G] for CGMY and Im(u) > -rate for exponential jumps.
    """
    u_c = np.asarray(u, dtype=complex)
    val = -0.5 * model.sigma2 * u_c * u_c + 1j * model.gamma * u_c
    if model.jumps is not None:
        val = val + model.jumps.exponent(u)
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
    if model.jumps is not None:
        out = out + model.jumps.curvature(u_c)
    return out if np.ndim(u) else complex(out)


def martingale_drift(sigma2: float, jumps=None) -> float:
    """Drift gamma making e^{L_t} a martingale: gamma = -sigma^2/2 - int(e^x-1-x)nu(dx).

    Requires the exponential moment int_{x>1} e^x nu(dx) < infinity, that
    is -i inside the exponent's domain (CGMY: M > 1; exponential jumps:
    rate > 1).
    """
    if jumps is None:
        return -0.5 * sigma2
    try:
        corr = jumps.exponent(-1j)
    except InputError:
        raise InputError(
            "exponential moment of the jump measure does not exist") from None
    if abs(corr.imag) > 1e-8 * max(1.0, abs(corr.real)):
        raise NumericalError("jump exponent at -i should be real")
    return -0.5 * sigma2 - corr.real


def jump_second_moment(jumps) -> float:
    """int x^2 nu(dx) of a jump specification (None: no jumps), the jump
    contribution to the variance per unit time."""
    return 0.0 if jumps is None else float(-np.real(jumps.curvature(0.0)))


def jump_mean(jumps) -> float:
    """int x nu(dx) of a jump specification (None: no jumps), the jump
    contribution to the mean drift."""
    return 0.0 if jumps is None else jumps.mean()


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
    """Exact tail intensity N(t) of a jump measure (None: no jumps), t != 0.

    N(t) = nu([t, infinity)) for t > 0 and nu((-infinity, t]) for t < 0:
    the expected number of jumps per unit time at least as extreme as t.
    """
    if t == 0:
        raise InputError("t must be nonzero")
    return 0.0 if jumps is None else jumps.tail(t)


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
