"""Option-chain observation scheme.

The observable is the scaled option function O: for forward log-moneyness
x = log(strike/spot) - r*T, O(x) is the call price for x >= 0 and the put
price for x < 0, both normalized by the spot.  O is integrable, vanishes in
both tails, and its Fourier transform determines the characteristic function
phi_T of the log-price at maturity:

    int e^{iux} O(x) dx = (1 - phi_T(u - i)) / (u(u - i)),
    phi_T(u)            = 1 - u(u + i) * int e^{(iu-1)x} O(x) dx.

Estimation interpolates observed (x_j, O_j) by a piecewise polynomial with
linear decay ramps to zero beyond the design range, evaluates the weighted
transforms F_k(u) = int x^k O~(x) e^{(iu-1)x} dx in closed form (no
quadrature error for the interpolant), and differentiates the log of the
reconstructed characteristic function twice.  Integrating each segment by
parts and grouping the end terms by breakpoint x_j gives, with z = iu - 1,

    F_k(u) = sum_r (-1)^r z^{-(r+1)} sum_j C_{k,r,j} e^{z x_j},

C_{k,r,j} = (x^k O~)^(r)(x_j-) - (x^k O~)^(r)(x_j+).  For the linear
interpolant this matches per-segment integration to 1e-11 of max|F_k|.  For
the cubic one the large third-derivative jumps of a noisy chain cancel near
u = 0: with 100 quotes at 1 % noise, F_2 is off by up to 1e-7 of max|F_2|
at |u| < 1 (per-segment integration is exact to rounding there).  The
curvature formulas are rational expressions in F_0, F_1, F_2:

    phi~(u)  = 1 - u(u+i) F_0(u)
    psi~'(u) = -[(2u+i) F_0 + u(iu-1) F_1] / (T phi~)
    psi~''(u)= -[2 F_0 + (4iu-2) F_1 - (u^2+iu) F_2] / (T phi~) - T psi~'^2

Noise handling: quotes carry heteroskedastic errors delta_j.  The profile
rho = delta / sqrt(design density) calibrates the trust guard — curvature
values are reported only where |phi~(u)| >= (1+|u|)^2 * noise amplitude,
the amplitude being ||e^{-x} rho||_L2 / sqrt(n), one standard deviation of
the reconstruction error of phi~ — and the variance surrogate of the
adaptive bandwidth selector (via the weighted sup-norms of rho).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.special import ndtri

from .errors import ChainFormatError, InputError, MartingaleError
from .increments import Psi2Estimate
from .models import LevyModel, characteristic_exponent
from .numerics import FrequencyGrid, inverse_fourier

__all__ = [
    "OptionChain",
    "SplineOptionFunction",
    "NoiseProfile",
    "ChainSpectra",
    "option_function",
    "call_value",
    "put_value",
    "generate_synthetic_chain",
    "build_spline",
    "weighted_spline_transform",
    "phi_tilde",
    "psi_tilde_derivatives",
    "option_psi2",
    "estimate_noise_profile",
    "compute_chain_spectra",
    "read_chain_csv",
    "write_chain_csv",
]


# ---------------------------------------------------------------------------
# chain container and CSV interchange


@dataclass(frozen=True)
class OptionChain:
    """Observed option quotes on a single maturity.

    xs are forward log-moneyness points (strictly increasing), prices are
    spot-normalized option-function values (calls right of 0, puts left),
    noise_levels are the per-quote error scales delta_j >= 0.  Noisy prices
    may dip below zero; that is data, not an error.
    """

    maturity: float
    rate: float
    xs: np.ndarray
    prices: np.ndarray
    noise_levels: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        prices = np.asarray(self.prices, dtype=float)
        noise = np.asarray(self.noise_levels, dtype=float)
        if not self.maturity > 0:
            raise InputError(f"maturity must be positive, got {self.maturity}")
        if xs.ndim != 1 or xs.size < 1:
            raise InputError("xs must be a non-empty 1-d array")
        if prices.shape != xs.shape or noise.shape != xs.shape:
            raise InputError("xs, prices and noise_levels must have equal length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(prices)) and np.all(np.isfinite(noise))):
            raise InputError("chain entries must be finite")
        if xs.size > 1 and not np.all(np.diff(xs) > 0):
            raise InputError("xs must be strictly increasing")
        if np.any(noise < 0):
            raise InputError("noise levels must be nonnegative")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "prices", prices)
        object.__setattr__(self, "noise_levels", noise)

    @property
    def n(self) -> int:
        return self.xs.size


def read_chain_csv(path, maturity: float, rate: float, spot: float | None = None) -> OptionChain:
    """Read a chain from CSV.

    Two exact header forms are accepted: ``x,price,noise`` (log-moneyness
    already forward-adjusted) and ``strike,price,noise`` (requires `spot`;
    x = log(strike/spot) - rate*maturity).  Rows are sorted by x; parse
    failures carry the 1-based line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ChainFormatError("empty chain file", line=1)
    header = lines[0].strip()
    if header == "x,price,noise":
        strike_form = False
    elif header == "strike,price,noise":
        strike_form = True
        if spot is None:
            raise ChainFormatError("strike-format chain needs a spot price", line=1)
    else:
        raise ChainFormatError(
            f"header must be 'x,price,noise' or 'strike,price,noise', got {header!r}",
            line=1,
        )
    xs, prices, noise = [], [], []
    for i, raw in enumerate(lines[1:], start=2):
        row = raw.strip()
        if not row:
            continue
        parts = row.split(",")
        if len(parts) != 3:
            raise ChainFormatError(f"expected 3 comma-separated fields, got {len(parts)}", line=i)
        try:
            a, p, d = (float(v) for v in parts)
        except ValueError as exc:
            raise ChainFormatError(f"bad number in row: {exc}", line=i) from None
        if strike_form:
            if a <= 0:
                raise ChainFormatError(f"strike must be positive, got {a}", line=i)
            a = math.log(a / spot) - rate * maturity
        xs.append(a)
        prices.append(p)
        noise.append(d)
    if not xs:
        raise ChainFormatError("chain file has a header but no rows", line=2)
    order = np.argsort(np.asarray(xs), kind="stable")
    return OptionChain(
        maturity=maturity,
        rate=rate,
        xs=np.asarray(xs)[order],
        prices=np.asarray(prices)[order],
        noise_levels=np.asarray(noise)[order],
    )


def write_chain_csv(path, chain: OptionChain) -> None:
    """Write a chain in the ``x,price,noise`` interchange format."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,price,noise\n")
        for x, p, d in zip(chain.xs, chain.prices, chain.noise_levels):
            fh.write(f"{float(x)!r},{float(p)!r},{float(d)!r}\n")


# ---------------------------------------------------------------------------
# pricing: the exact option function of a model

_PRICING_CUTOFF = 200.0
_PRICING_POINTS = 2 ** 14
# reference diffusion whose option function is known in closed form; its
# spectrum is subtracted so the numerically inverted remainder decays like
# the model's characteristic function instead of only like u^{-2}
_REFERENCE_VOL = 0.25


def _brownian_reference(sigma: float, maturity: float, x: np.ndarray) -> np.ndarray:
    """Closed-form option function of the martingale-fixed pure diffusion."""
    from scipy.special import ndtr

    st = sigma * math.sqrt(maturity)
    x = np.asarray(x, dtype=float)
    d1 = -x / st + st / 2.0
    d2 = d1 - st
    call = ndtr(d1) - np.exp(x) * ndtr(d2)
    # put via parity on the left branch
    return np.where(x >= 0, call, call - 1.0 + np.exp(x))


def _reference_cf_shifted(sigma: float, maturity: float, u: np.ndarray) -> np.ndarray:
    """phi_T(u - i) of the reference diffusion (drift -sigma^2/2)."""
    v = u - 1j
    psi = -0.5 * sigma ** 2 * v ** 2 - 0.5j * sigma ** 2 * v
    return np.exp(maturity * psi)


def option_function(model: LevyModel, maturity: float, x, *, cutoff: float = _PRICING_CUTOFF,
                    points: int = _PRICING_POINTS):
    """Exact (up to quadrature) option function O(x) of a martingale model.

    Inverts (1 - phi_T(u-i)) / (u(u-i)) on a half-step-offset frequency
    grid, after subtracting the analytically known spectrum of a reference
    diffusion so the integrand decays fast.  Values are not floored at 0.
    """
    if not maturity > 0:
        raise InputError(f"maturity must be positive, got {maturity}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi_mi = characteristic_exponent(model, np.array([-1j]))[0]
    gap = abs(np.exp(maturity * psi_mi) - 1.0)
    if gap > 1e-8:
        raise MartingaleError(
            f"model is not martingale-fixed: |phi_T(-i) - 1| = {gap:.3e} > 1e-8"
        )
    grid = FrequencyGrid(cutoff=cutoff, points=points, offset=True)
    u = grid.u
    phi_shift = np.exp(maturity * characteristic_exponent(model, u - 1j))
    ref_shift = _reference_cf_shifted(_REFERENCE_VOL, maturity, u)
    spectrum = (ref_shift - phi_shift) / (u * (u - 1j))
    out = _brownian_reference(_REFERENCE_VOL, maturity, x_arr)
    out += inverse_fourier(spectrum, grid, x_arr).real
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def call_value(model: LevyModel, maturity: float, x):
    """Normalized call price at all log-moneyness, from the same transform."""
    x_arr = np.asarray(x, dtype=float)
    o = option_function(model, maturity, x_arr)
    return o + np.where(x_arr < 0, 1.0 - np.exp(x_arr), 0.0)


def put_value(model: LevyModel, maturity: float, x):
    """Normalized put price at all log-moneyness, from the same transform."""
    x_arr = np.asarray(x, dtype=float)
    o = option_function(model, maturity, x_arr)
    return o - np.where(x_arr >= 0, 1.0 - np.exp(x_arr), 0.0)


def generate_synthetic_chain(model: LevyModel, maturity: float, rate: float, n: int,
                             noise_fraction: float, strike_law: tuple, seed: int) -> OptionChain:
    """Synthetic chain: design points at j/(n+1)-quantiles of N(mean, var).

    True prices are clipped at zero (far-tail quadrature can dip a hair
    negative); per-quote noise is noise_fraction times the true price, and
    the noisy observations themselves are left unclipped.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if noise_fraction < 0:
        raise InputError("noise_fraction must be nonnegative")
    mean, variance = strike_law
    if not variance > 0:
        raise InputError("strike law variance must be positive")
    qs = np.arange(1, n + 1) / (n + 1)
    xs = mean + math.sqrt(variance) * ndtri(qs)
    truth = np.maximum(option_function(model, maturity, xs), 0.0)
    delta = noise_fraction * truth
    eps = np.random.default_rng(seed).standard_normal(n)
    return OptionChain(
        maturity=maturity,
        rate=rate,
        xs=xs,
        prices=truth + delta * eps,
        noise_levels=delta,
    )


# ---------------------------------------------------------------------------
# interpolation


@dataclass(frozen=True, eq=False)
class SplineOptionFunction:
    """Piecewise-polynomial surrogate for the option function.

    Interpolates the knots (degree 1 or 3), continues linearly to zero over
    a pad of twice the mean knot spacing on each side, and is identically
    zero beyond.  Segment data (breakpoints and ascending local coefficients)
    are precomputed for the closed-form weighted transforms.
    """

    knots: np.ndarray
    values: np.ndarray
    degree: int
    pad: float

    def __post_init__(self):
        knots = np.asarray(self.knots, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if knots.ndim != 1 or knots.size < 2:
            raise InputError("need at least two knots")
        if values.shape != knots.shape:
            raise InputError("knots and values must have equal length")
        if not np.all(np.diff(knots) > 0):
            raise InputError("knots must be strictly increasing")
        if self.degree not in (1, 3):
            raise InputError(f"degree must be 1 or 3, got {self.degree}")
        if self.degree == 3 and knots.size < 4:
            raise InputError("cubic interpolation needs at least four knots")
        if self.pad < 0:
            raise InputError("pad must be nonnegative")
        object.__setattr__(self, "knots", knots)
        object.__setattr__(self, "values", values)

        rows = self.degree + 1
        if self.degree == 1:
            slopes = np.diff(values) / np.diff(knots)
            interior = np.vstack([slopes, values[:-1]])  # descending powers
        else:
            # natural ends blend most gently into the linear decay ramps
            interior = CubicSpline(knots, values, bc_type="natural").c
        if self.pad > 0:
            left = np.zeros((rows, 1))
            left[-2, 0] = values[0] / self.pad
            right = np.zeros((rows, 1))
            right[-2, 0] = -values[-1] / self.pad
            right[-1, 0] = values[-1]
            coeffs = np.hstack([left, interior, right])
            breaks = np.concatenate([[knots[0] - self.pad], knots, [knots[-1] + self.pad]])
        else:
            coeffs = interior
            breaks = knots
        object.__setattr__(self, "_breaks", breaks)
        object.__setattr__(self, "_ascending", coeffs[::-1].copy())
        object.__setattr__(self, "_ppoly", PPoly(coeffs, breaks, extrapolate=False))

    @property
    def n_obs(self) -> int:
        return self.knots.size

    @property
    def support(self) -> tuple:
        return (float(self._breaks[0]), float(self._breaks[-1]))

    def __call__(self, x):
        x_arr = np.asarray(x, dtype=float)
        y = self._ppoly(x_arr)
        y = np.where(np.isnan(y), 0.0, y)
        if np.ndim(x) == 0:
            return float(y)
        return y


def build_spline(xs, values, degree: int = 1, pad: float | None = None) -> SplineOptionFunction:
    """Interpolant with default pad = 2 * mean knot spacing (0 disables ramps)."""
    xs = np.asarray(xs, dtype=float)
    if pad is None:
        if xs.size < 2:
            raise InputError("need at least two knots")
        pad = 2.0 * (xs[-1] - xs[0]) / (xs.size - 1)
    return SplineOptionFunction(knots=xs, values=np.asarray(values, dtype=float),
                                degree=degree, pad=float(pad))


# ---------------------------------------------------------------------------
# closed-form weighted transforms F_k(u) = int x^k O~(x) e^{(iu-1)x} dx

_U_CHUNK = 512


def _weighted_transforms(spline: SplineOptionFunction, u: np.ndarray, ks) -> dict:
    """All requested F_k on a common frequency array, as breakpoint sums.

    The jumps of (x^k O~)^(r) follow from those of O~^(s) by Leibniz' rule.
    Per chunk of _U_CHUNK frequencies, one (frequencies x breakpoints) phase
    matrix times each k's (breakpoints x orders r) jump matrix, summed in
    powers of 1/z, gives F_k; |z| >= 1, so no division needs a guard.
    """
    x = spline._breaks
    asc = spline._ascending  # (d+1, S), ascending powers of (x - left edge)
    widths = np.diff(x)
    d = asc.shape[0] - 1
    # jumps[s, j] = O~^(s)(x_j-) - O~^(s)(x_j+); O~ vanishes off its support
    jumps = np.zeros((d + 1, x.size))
    for s in range(d + 1):
        jumps[s, :-1] -= math.factorial(s) * asc[s]
        jumps[s, 1:] += sum(math.perm(p, s) * asc[p] * widths ** (p - s)
                            for p in range(s, d + 1))
    # column r of weights[k]: (-1)^r e^{-x_j} times the jump of (x^k O~)^(r),
    # sum_i C(r, i) k!/(k-i)! x^(k-i) jumps[r-i]
    weights = {
        k: np.exp(-x)[:, None] * np.stack([
            (-1) ** r * sum(math.comb(r, i) * math.perm(k, i) * x ** (k - i) * jumps[r - i]
                            for i in range(max(0, r - d), min(k, r) + 1))
            for r in range(d + k + 1)
        ], axis=1)
        for k in ks
    }

    out = {k: np.empty(u.shape, dtype=complex) for k in ks}
    for lo in range(0, u.size, _U_CHUNK):
        uc = u[lo : lo + _U_CHUNK]
        phase = np.multiply.outer(uc, x)
        cos, sin = np.cos(phase), np.sin(phase)
        inv = 1.0 / (1j * uc - 1.0)
        for k in ks:
            # one product per k, so F_k does not depend on the other ks asked for
            sums = cos @ weights[k] + 1j * (sin @ weights[k])
            acc = sums[:, -1]
            for r in range(sums.shape[1] - 2, -1, -1):
                acc = sums[:, r] + inv * acc
            out[k][lo : lo + _U_CHUNK] = inv * acc
    return out


def weighted_spline_transform(spline: SplineOptionFunction, k: int, u):
    """F_k(u) = int x^k O~(x) e^{(iu-1)x} dx, exact for the interpolant."""
    if k not in (0, 1, 2):
        raise InputError(f"k must be 0, 1 or 2, got {k}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    vals = _weighted_transforms(spline, u_arr, (k,))[k]
    if np.ndim(u) == 0:
        return complex(vals[0])
    return vals


# ---------------------------------------------------------------------------
# spectral estimators


def phi_tilde(spline: SplineOptionFunction, u):
    """Reconstructed characteristic function 1 - u(u+i) F_0(u)."""
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    f0 = _weighted_transforms(spline, u_arr, (0,))[0]
    vals = 1.0 - u_arr * (u_arr + 1j) * f0
    if np.ndim(u) == 0:
        return complex(vals[0])
    return vals


def _psi_all(spline: SplineOptionFunction, maturity: float, u: np.ndarray,
             noise_scale: float):
    """(phi~, trusted, psi~', psi~'') on an array of frequencies.

    trusted marks |phi~(u)| >= (1+|u|)^2 * noise_scale (and phi~ != 0);
    both derivative arrays are zeroed outside it.
    """
    f = _weighted_transforms(spline, u, (0, 1, 2))
    f0, f1, f2 = f[0], f[1], f[2]
    phi = 1.0 - u * (u + 1j) * f0
    threshold = (1.0 + np.abs(u)) ** 2 * noise_scale
    trusted = (np.abs(phi) >= threshold) & (phi != 0)
    safe_phi = np.where(trusted, phi, 1.0)
    tphi = maturity * safe_phi
    num1 = (2.0 * u + 1j) * f0 + u * (1j * u - 1.0) * f1
    psi1 = np.where(trusted, -num1 / tphi, 0.0)
    num2 = 2.0 * f0 + (4j * u - 2.0) * f1 - (u ** 2 + 1j * u) * f2
    psi2 = np.where(trusted, -num2 / tphi - maturity * psi1 ** 2, 0.0)
    return phi, trusted, psi1, psi2


def psi_tilde_derivatives(spline: SplineOptionFunction, maturity: float, u,
                          noise_scale: float = 0.0):
    """First and second derivatives of the reconstructed exponent.

    noise_scale is the amplitude of the trust guard (0 disables it except
    for exact zeros of phi~); pass ||e^{-x} rho|| / sqrt(n) for noisy data.
    """
    if not maturity > 0:
        raise InputError(f"maturity must be positive, got {maturity}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    _, _, psi1, psi2 = _psi_all(spline, maturity, u_arr, noise_scale)
    if np.ndim(u) == 0:
        return complex(psi1[0]), complex(psi2[0])
    return psi1, psi2


def option_psi2(spline: SplineOptionFunction, maturity: float,
                noise_scale: float = 0.0) -> Psi2Estimate:
    """Package the curvature estimator for the inversion pipeline."""

    def evaluate(u):
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        _, _, _, psi2 = _psi_all(spline, maturity, u_arr, noise_scale)
        if np.ndim(u) == 0:
            return complex(psi2[0])
        return psi2

    return Psi2Estimate(eval=evaluate)


# ---------------------------------------------------------------------------
# noise profile

_DENSITY_FLOOR = 1e-12
_PROFILE_GRID = 1000


@dataclass(frozen=True, eq=False)
class NoiseProfile:
    """Design-compensated noise level rho = delta / sqrt(design density).

    sup_norms are max over the design range of |x|^k e^{-x} rho(x) for
    k = 0, 1, 2; l2_weighted is the L2 norm of e^{-x} rho over the design
    range.  Dividing the latter by sqrt(n) gives one standard deviation of
    the phi~ reconstruction noise, the scale of the trust guard.
    """

    rho: object
    sup_norms: tuple
    l2_weighted: float
    density: object


def estimate_noise_profile(chain: OptionChain) -> NoiseProfile:
    """Triangular-kernel design density, Silverman bandwidth, rho and norms."""
    xs = chain.xs
    n = chain.n
    if n < 5:
        raise InputError(f"noise profile needs at least 5 quotes, got {n}")
    sd = float(np.std(xs, ddof=1))
    iqr = float(np.percentile(xs, 75) - np.percentile(xs, 25))
    scale = min(sd, iqr / 1.34)
    if scale <= 0:
        raise InputError("degenerate design: all quoting points coincide")
    bandwidth = 1.06 * scale * n ** (-0.2)

    def density(x):
        x_arr = np.asarray(x, dtype=float)
        t = np.abs(x_arr[..., None] - xs) / bandwidth
        return np.clip(1.0 - t, 0.0, None).sum(axis=-1) / (n * bandwidth)

    def rho(x):
        d = np.interp(np.asarray(x, dtype=float), xs, chain.noise_levels)
        f = np.maximum(density(x), _DENSITY_FLOOR)
        return d / np.sqrt(f)

    grid = np.linspace(xs[0], xs[-1], _PROFILE_GRID)
    weighted = np.exp(-grid) * rho(grid)
    sup_norms = tuple(
        float(np.max(np.abs(grid) ** k * np.abs(weighted))) for k in (0, 1, 2)
    )
    l2 = float(np.sqrt(np.trapezoid(weighted ** 2, grid)))
    return NoiseProfile(rho=rho, sup_norms=sup_norms, l2_weighted=l2,
                        density=density)


# ---------------------------------------------------------------------------
# one-stop spectra bundle for the adaptive selector and the harness


@dataclass(frozen=True, eq=False)
class ChainSpectra:
    """Everything the bandwidth selector needs, tabulated on one grid."""

    grid: FrequencyGrid
    maturity: float
    n_obs: int
    phi: np.ndarray
    psi1: np.ndarray
    psi2: np.ndarray
    trusted: np.ndarray
    sup_norms: tuple
    noise_scale: float


def compute_chain_spectra(chain: OptionChain, grid: FrequencyGrid,
                          degree: int = 1) -> ChainSpectra:
    """Interpolate the chain and tabulate phi~, psi~', psi~'' on the grid."""
    spline = build_spline(chain.xs, chain.prices, degree=degree)
    if np.any(chain.noise_levels > 0):
        profile = estimate_noise_profile(chain)
        sup_norms = profile.sup_norms
        noise_scale = profile.l2_weighted / math.sqrt(chain.n)
    else:
        sup_norms = (0.0, 0.0, 0.0)
        noise_scale = 0.0
    phi, trusted, psi1, psi2 = _psi_all(spline, chain.maturity, grid.u, noise_scale)
    return ChainSpectra(
        grid=grid,
        maturity=chain.maturity,
        n_obs=chain.n,
        phi=phi,
        psi1=psi1,
        psi2=psi2,
        trusted=trusted,
        sup_norms=sup_norms,
        noise_scale=noise_scale,
    )
