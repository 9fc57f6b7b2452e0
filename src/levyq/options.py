"""Option-chain observation scheme.

The observable is the scaled option function O: for forward log-moneyness
x = log(strike/spot) - r*T, O(x) is the call price for x >= 0 and the put
price for x < 0, both normalized by the spot.  O is integrable, vanishes in
both tails, and its Fourier transform determines the characteristic function
phi_T of the log-price at maturity:

    int e^{iux} O(x) dx = (1 - phi_T(u - i)) / (u(u - i)),
    phi_T(u)            = 1 - u(u + i) * int e^{(iu-1)x} O(x) dx.

Estimation interpolates observed (x_j, O_j) piecewise linearly, with ramps
that fall linearly to zero over a pad of twice the mean knot spacing,
2 (x_n - x_1)/(n - 1), beyond each end of the design range; the
interpolant O~ is zero outside that.  The weighted transforms
F_k(u) = int x^k O~(x) e^{(iu-1)x} dx are evaluated in closed form (no
quadrature error for the interpolant), and the log of the reconstructed
characteristic function is differentiated twice.  Integrating each segment
by parts and grouping the end terms by breakpoint x_j gives, with
z = iu - 1,

    F_k(u) = sum_r (-1)^r z^{-(r+1)} sum_j C_{k,r,j} e^{z x_j},

C_{k,r,j} = (x^k O~)^(r)(x_j-) - (x^k O~)^(r)(x_j+); this matches
per-segment integration to 1e-11 of max|F_k|.  The curvature formulas are
rational expressions in F_0, F_1, F_2:

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
from scipy.special import ndtri

from .errors import ChainFormatError, InputError, MartingaleError, NumericalError
from .models import LevyModel, characteristic_exponent
from .numerics import FrequencyGrid, Spectra, inverse_fourier

__all__ = [
    "OptionChain",
    "option_function",
    "generate_synthetic_chain",
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise ChainFormatError(f"not UTF-8 text: {exc.reason}",
                               line=exc.object[:exc.start].count(b"\n") + 1
                               ) from None
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

# largest |phi_T(-i) - 1| option pricing accepts of a martingale model
_MARTINGALE_TOL = 1e-8
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


def option_function(model: LevyModel, maturity: float, x):
    """Exact (up to quadrature) option function O(x) of a martingale model.

    Inverts (1 - phi_T(u-i)) / (u(u-i)) on a frequency grid whose nodes
    keep half a step away from the pole at u = 0, after subtracting the
    analytically known spectrum of a reference diffusion so the integrand
    decays fast.  Values are not floored at 0; a non-finite value (the
    reference overflows far out) raises.

    The grid (_PRICING_POINTS nodes on |u| <= _PRICING_CUTOFF, spacing du)
    repeats the remainder with period 2 pi / du = 257.3, so O(x) holds for
    |x| < pi / du = 128.7 only.  Past it the prices alias: on the default
    CGMY model O is -0.0143 near x = 257.3, an image of the money a period
    away.
    """
    if not maturity > 0:
        raise InputError(f"maturity must be positive, got {maturity}")
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    psi_mi = characteristic_exponent(model, np.array([-1j]))[0]
    gap = abs(np.exp(maturity * psi_mi) - 1.0)
    if gap > _MARTINGALE_TOL:
        raise MartingaleError(
            f"model is not martingale-fixed: |phi_T(-i) - 1| = {gap:.3e} > "
            f"{_MARTINGALE_TOL:g}")
    grid = FrequencyGrid(cutoff=_PRICING_CUTOFF, points=_PRICING_POINTS)
    u = grid.u
    phi_shift = np.exp(maturity * characteristic_exponent(model, u - 1j))
    ref_shift = _reference_cf_shifted(_REFERENCE_VOL, maturity, u)
    spectrum = (ref_shift - phi_shift) / (u * (u - 1j))
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        out = _brownian_reference(_REFERENCE_VOL, maturity, x_arr)
    out += inverse_fourier(spectrum, grid, x_arr)
    if not np.all(np.isfinite(out)):
        bad = x_arr[~np.isfinite(out)][0]
        raise NumericalError(f"option function is not finite at x = {bad:.3g}")
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out[0])
    return out


def _synthetic_design(model: LevyModel, maturity: float, n: int,
                      strike_law: tuple) -> tuple:
    """Design points at the j/(n+1)-quantiles of N(mean, var), j = 1..n,
    and the exact option function there, clipped at zero (far-tail
    quadrature can dip a hair negative)."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    mean, variance = strike_law
    if not variance > 0:
        raise InputError("strike law variance must be positive")
    xs = mean + math.sqrt(variance) * ndtri(np.arange(1, n + 1) / (n + 1))
    return xs, np.maximum(option_function(model, maturity, xs), 0.0)


def _perturbed_chain(xs, exact, maturity: float, rate: float,
                     noise_fraction: float, rng) -> OptionChain:
    """The design's chain with per-quote noise noise_fraction times the
    exact price, one standard normal draw from `rng` per quote; the noisy
    observations themselves are left unclipped."""
    if noise_fraction < 0:
        raise InputError("noise_fraction must be nonnegative")
    delta = noise_fraction * exact
    return OptionChain(maturity=maturity, rate=rate, xs=xs,
                       prices=exact + delta * rng.standard_normal(xs.size),
                       noise_levels=delta)


def generate_synthetic_chain(model: LevyModel, maturity: float, rate: float, n: int,
                             noise_fraction: float, strike_law: tuple, seed: int) -> OptionChain:
    """Synthetic chain: `_synthetic_design` perturbed by `_perturbed_chain`
    with the generator of `seed`."""
    xs, exact = _synthetic_design(model, maturity, n, strike_law)
    return _perturbed_chain(xs, exact, maturity, rate, noise_fraction,
                            np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# interpolation


def _pad(xs: np.ndarray) -> float:
    """Width of the ramps at both ends of the interpolant: twice the mean
    knot spacing."""
    return float(2.0 * (xs[-1] - xs[0]) / (xs.size - 1))


def _linear_table(xs: np.ndarray, values: np.ndarray) -> tuple:
    """Breakpoints and ascending segment coefficients of the interpolant O~.

    O~ interpolates (xs, values) linearly, continues linearly to zero over a
    pad of twice the mean knot spacing, 2 (x_n - x_1)/(n - 1), on each side,
    and is identically zero beyond.  Column j of ascending holds the value
    and the slope of O~ on [breaks[j], breaks[j+1]], as coefficients of
    ascending powers of (x - breaks[j]).
    """
    pad = _pad(xs)
    slopes = np.diff(values) / np.diff(xs)
    interior = np.vstack([slopes, values[:-1]])  # descending powers
    left = np.array([[values[0] / pad], [0.0]])
    right = np.array([[-values[-1] / pad], [values[-1]]])
    coeffs = np.hstack([left, interior, right])
    breaks = np.concatenate([[xs[0] - pad], xs, [xs[-1] + pad]])
    return breaks, coeffs[::-1].copy()


# ---------------------------------------------------------------------------
# closed-form weighted transforms F_k(u) = int x^k O~(x) e^{(iu-1)x} dx

_U_CHUNK = 512


def _group_transforms(breaks: np.ndarray, tables, u: np.ndarray, ks) -> list:
    """All requested F_k on a common frequency array, as breakpoint sums, for
    each of several interpolant tables on the same breakpoints.

    Per chunk of _U_CHUNK frequencies, one (frequencies x breakpoints) phase
    matrix times each table's and each k's (breakpoints x orders r) jump
    matrix, summed in powers of 1/z, gives F_k; |z| >= 1, so no division
    needs a guard.  The phase matrix of a chunk serves every table, and each
    product has the shape of a one-table call, so the F_k of a table do not
    depend on the other tables (or ks) asked for.  Each table of `tables` is
    an `ascending` array of `_linear_table`'s form on `breaks`.
    """
    weights = [_jump_weights(breaks, asc, ks) for asc in tables]
    out = [{k: np.empty(u.shape, dtype=complex) for k in ks} for _ in tables]
    for lo in range(0, u.size, _U_CHUNK):
        uc = u[lo : lo + _U_CHUNK]
        phase = np.multiply.outer(uc, breaks)
        cos, sin = np.cos(phase), np.sin(phase)
        inv = 1.0 / (1j * uc - 1.0)
        for table_weights, table_out in zip(weights, out):
            for k in ks:
                sums = cos @ table_weights[k] + 1j * (sin @ table_weights[k])
                acc = sums[:, -1]
                for r in range(sums.shape[1] - 2, -1, -1):
                    acc = sums[:, r] + inv * acc
                table_out[k][lo : lo + _U_CHUNK] = inv * acc
    return out


def _jump_weights(x: np.ndarray, asc: np.ndarray, ks) -> dict:
    """Per k, the (breakpoints x orders r) matrix whose column r is (-1)^r
    e^{-x_j} times the jump of (x^k O~)^(r) at x_j.

    asc: (2, S), value and slope of the linear interpolant O~ on the
    segments between the breakpoints x.  Only O~ and O~' jump, so by
    Leibniz' rule the jump of (x^k O~)^(r) is sum_i C(r, i) k!/(k-i)!
    x^(k-i) jumps[r-i] over i = r-1, r.
    """
    # jumps[s, j] = O~^(s)(x_j-) - O~^(s)(x_j+); O~ vanishes off its
    # support, and inside jumps[0] is 0 up to the rounding of the segment
    # ends, which is kept
    jumps = np.zeros((2, x.size))
    jumps[:, :-1] -= asc
    jumps[:, 1:] += [asc[0] + asc[1] * np.diff(x), asc[1]]
    return {
        k: np.exp(-x)[:, None] * np.stack([
            (-1) ** r * sum(math.comb(r, i) * math.perm(k, i) * x ** (k - i)
                            * jumps[r - i]
                            for i in range(max(0, r - 1), min(k, r) + 1))
            for r in range(k + 2)
        ], axis=1)
        for k in ks
    }


# ---------------------------------------------------------------------------
# spectral estimators


def _check_knots(xs: np.ndarray) -> None:
    if xs.ndim != 1 or xs.size < 2:
        raise InputError("need two or more knots, one price each")
    if not np.all(np.diff(xs) > 0):
        raise InputError("knots must be strictly increasing")


# the left end x of the interpolant must keep e^{-2x} finite: e^{-x} weighs
# every transform F_k and the noise profile, whose L2 norm squares it
_LEFT_END = -0.5 * math.log(np.finfo(float).max)


def _check_left_end(xs: np.ndarray) -> None:
    """Refuse knots whose interpolant starts left of _LEFT_END (-354.9),
    before any e^{-x} is formed."""
    left = xs[0] - _pad(xs)
    if not left >= _LEFT_END:
        raise InputError(
            f"the leftmost knot x = {xs[0]:g} starts the interpolant at "
            f"{left:g}, where e^(-2x) overflows (it must start at "
            f"{_LEFT_END:.1f} or right of it); quote no strike that far "
            "below the forward")


def _curvature(u, f: dict, maturity: float, noise_scale: float) -> tuple:
    """(phi~, trusted, psi~', psi~'') from the transforms F_0, F_1, F_2.

    A maturity so small that psi~' = O(1/T) cannot be squared, or psi~''
    is not finite on a trusted node, raises NumericalError."""
    f0, f1, f2 = f[0], f[1], f[2]
    phi = 1.0 - u * (u + 1j) * f0
    threshold = (1.0 + np.abs(u)) ** 2 * noise_scale
    trusted = (np.abs(phi) >= threshold) & (phi != 0)
    safe_phi = np.where(trusted, phi, 1.0)
    num1 = (2.0 * u + 1j) * f0 + u * (1j * u - 1.0) * f1
    num2 = 2.0 * f0 + (4j * u - 2.0) * f1 - (u ** 2 + 1j * u) * f2
    with np.errstate(all="ignore"):  # checked below
        tphi = maturity * safe_phi
        psi1 = np.where(trusted, -num1 / tphi, 0.0)
        psi2 = np.where(trusted, -num2 / tphi - maturity * psi1 ** 2, 0.0)
    if not (np.all(np.isfinite(psi1)) and np.all(np.isfinite(psi2))):
        raise NumericalError(
            f"the exponent curvature overflows at maturity T = {maturity:g}: "
            "psi~' = O(1/T) cannot be squared")
    return phi, trusted, psi1, psi2


# ---------------------------------------------------------------------------
# noise profile

_DENSITY_FLOOR = 1e-12
_PROFILE_GRID = 1000


def _noise_profile(xs: np.ndarray, noise_levels: np.ndarray) -> tuple:
    """The quote-noise summary of a design: (sup_norms, l2_weighted).

    The profile is rho = delta / sqrt(f), delta the noise levels
    interpolated between the quotes and f the triangular-kernel density of
    the design (Silverman bandwidth), floored at _DENSITY_FLOOR.  On
    _PROFILE_GRID points of the design range, sup_norms are max |x|^k
    e^{-x} rho(x) for k = 0, 1, 2 and l2_weighted is the L2 norm of
    e^{-x} rho; dividing the latter by sqrt(n) gives one standard deviation
    of the phi~ reconstruction noise, the scale of the trust guard.  A
    summary that overflows is refused (InputError).
    """
    n = xs.size
    if n < 5:
        raise InputError(f"noise profile needs at least 5 quotes, got {n}")
    sd = float(np.std(xs, ddof=1))
    iqr = float(np.percentile(xs, 75) - np.percentile(xs, 25))
    scale = min(sd, iqr / 1.34)
    if scale <= 0:
        raise InputError("degenerate design: all quoting points coincide")
    bandwidth = 1.06 * scale * n ** (-0.2)
    grid = np.linspace(xs[0], xs[-1], _PROFILE_GRID)
    t = np.abs(grid[..., None] - xs) / bandwidth
    density = np.clip(1.0 - t, 0.0, None).sum(axis=-1) / (n * bandwidth)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        rho = (np.interp(grid, xs, noise_levels)
               / np.sqrt(np.maximum(density, _DENSITY_FLOOR)))
        weighted = np.exp(-grid) * rho
        sup_norms = tuple(float(np.max(np.abs(grid) ** k * np.abs(weighted)))
                          for k in (0, 1, 2))
        l2 = float(np.sqrt(np.trapezoid(weighted ** 2, grid)))
    if not np.all(np.isfinite(sup_norms + (l2,))):
        raise InputError(
            f"the quote-noise summary is not finite: e^(-x) times the noise "
            f"profile overflows (largest noise level "
            f"{np.max(noise_levels):g}, leftmost knot x = {xs[0]:g})")
    return sup_norms, l2


# ---------------------------------------------------------------------------
# the spectra table of a chain


def compute_chain_spectra(chain: OptionChain, grid: FrequencyGrid) -> Spectra:
    """Interpolate the chain and tabulate phi~, psi~', psi~'' on the grid,
    with the noise summary the bandwidth selector reads."""
    design = _ChainDesign(chain.xs, chain.noise_levels, chain.maturity, grid)
    return design.spectra([chain])[0]


class _ChainDesign:
    """What the chains quoted on one strike design share: the knots and the
    breakpoints of their interpolants, the quote noise levels and the
    noise summary drawn from them, the maturity and the frequency grid.

    `spectra` tabulates several such chains at once, with one phase table
    per frequency chunk (`_group_transforms`); each table is bit for bit
    the one `compute_chain_spectra` gives the chain alone.
    """

    def __init__(self, xs, noise_levels, maturity: float,
                 grid: FrequencyGrid):
        self.xs = np.asarray(xs, dtype=float)
        self.noise_levels = np.asarray(noise_levels, dtype=float)
        _check_knots(self.xs)
        _check_left_end(self.xs)
        if np.any(self.noise_levels > 0):
            self.sup_norms, l2 = _noise_profile(self.xs, self.noise_levels)
            self.noise_scale = l2 / math.sqrt(self.xs.size)
        else:
            self.sup_norms = (0.0, 0.0, 0.0)
            self.noise_scale = 0.0
        self.maturity = maturity
        self.grid = grid

    def spectra(self, chains) -> list:
        """One Spectra table per chain, in order."""
        for chain in chains:
            if not (chain.maturity == self.maturity
                    and np.array_equal(chain.xs, self.xs)
                    and np.array_equal(chain.noise_levels, self.noise_levels)):
                raise InputError("chain is not quoted on this design")
        if not chains:
            return []
        u = self.grid.u
        tables = [_linear_table(self.xs, chain.prices) for chain in chains]
        transforms = _group_transforms(tables[0][0], [asc for _, asc in tables],
                                       u, (0, 1, 2))
        transforms.reverse()
        out = []
        for chain in chains:
            # each chain's transforms are dropped as soon as its table is made
            phi, trusted, psi1, psi2 = _curvature(u, transforms.pop(),
                                                  self.maturity,
                                                  self.noise_scale)
            out.append(Spectra(grid=self.grid, horizon=self.maturity,
                               n_obs=chain.n, phi=phi, psi1=psi1, psi2=psi2,
                               trusted=trusted, sup_norms=self.sup_norms,
                               noise_scale=self.noise_scale))
        return out
