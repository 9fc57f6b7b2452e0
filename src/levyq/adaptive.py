"""Data-driven bandwidth selection for the option scheme.

Three layers:

  * a geometric bandwidth grid h_j = L^j / n, capped above where the
    bandwidth reaches (log10 n)^{-5} and cut below at the first index whose
    frequency window passes a signal-to-noise screen S(j) <= 1;

  * a computable deviation bound for the tail-integral estimator at a fixed
    bandwidth: three auxiliary spectra (the linearization of the estimator
    in the three observable transforms) are assembled from the chain
    spectra, their L2 norms weighted by the noise profile's sup norms,
    giving sigma_tilde = (2 pi sqrt(n) T)^{-1} sum_k ||x^k e^{-x} rho||_inf
    * ||chi_k||_L2.  One call serves every (threshold, side) cell of a
    bandwidth: the factors that depend on h alone are formed once, and only
    the tail weight and the three norms are per cell;

  * the interval-intersection rule: each bandwidth proposes the interval
    quantile +- (1+delta) sqrt(2 log log n) sigma_tilde / density; the
    selected bandwidth is the largest whose interval still meets the
    running intersection of all smaller ones.

The screen S(j) integrates the (noise-calibrated) variance surrogate of
the reconstructed characteristic function over the window |u| <= 1/h_j.
On realistic desk-scale chains the screen fails at *every* grid bandwidth:
the window of the smallest grid bandwidth already extends beyond the trust
region, where the integrand saturates, and the saturated value exceeds 1
by a wide margin (it would need n in the 1e60 range to pass).  build_grid
then records the infeasibility and keeps the full grid (j_min = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import sici

from .errors import InputError, NoSolutionError, NumericalError
from .inversion import X_MAX_DEFAULT
from .kernels import SpectralKernel
from .numerics import Spectra

__all__ = [
    "BandwidthGrid",
    "BandwidthRecord",
    "LepskiDiagnostics",
    "tail_weight_spectrum",
    "build_grid",
    "auxiliary_spectra",
    "sigma_tilde",
    "adaptive_quantile",
]


# ---------------------------------------------------------------------------
# spectrum of the truncated tail weight g_t(x) = x^{-2} on [t, X_max]


def _e2(w: np.ndarray) -> np.ndarray:
    """Exponential integral of order 2 on the imaginary axis, E2(iw), w real.

    E2(iw) = e^{-iw} - iw E1(iw) with E1(iw) = -Ci(|w|) + i sign(w) (Si(|w|)
    - pi/2), so from the real sine and cosine integrals

        E2(iw) = cos w + |w| (Si(|w|) - pi/2) + i (w Ci(|w|) - sin w).

    The removable value E2(0) = 1 is filled explicitly; |E2(iw)| <= 1 and
    E2(-iw) = conj E2(iw) throughout.
    """
    w = np.asarray(w, dtype=float)
    si, ci = sici(np.abs(w))
    with np.errstate(invalid="ignore"):
        out = (np.cos(w) + np.abs(w) * (si - 0.5 * np.pi)) + 1j * (w * ci - np.sin(w))
    return np.where(w == 0, 1.0 + 0j, out)


def tail_weight_spectrum(t, u, x_max: float = X_MAX_DEFAULT):
    """int g_t(x) e^{-iux} dx for the truncated tail weight.

    g_t(x) = x^{-2} 1_{[t, x_max]} for t > 0 and x^{-2} 1_{[-x_max, t]} for
    t < 0.  Closed form via the exponential integral:

        int_t^X x^{-2} e^{-iux} dx = E2(iut)/t - E2(iuX)/X,

    and the t < 0 side by the reflection x -> -x, which turns the X term
    into -conj(E2(iuX)/X).  Exact at u = 0 (value 1/|t| - 1/x_max).

    `t` is one signed threshold or a 1-D array of them; an array gives one
    row per threshold, and the X term is formed once for all rows.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts == 0):
        raise InputError("tail weight needs a nonzero threshold t")
    if not np.all(x_max > np.abs(ts)):
        raise InputError(
            f"x_max = {x_max} must exceed |t| = {np.max(np.abs(ts))}")
    u_arr = np.asarray(u, dtype=float).ravel()
    tail = _e2(u_arr * x_max) / x_max
    vals = np.empty((ts.size, u_arr.size), dtype=complex)
    for row, ti in zip(vals, ts):
        head = _e2(u_arr * ti) / ti
        row[:] = head - tail if ti > 0 else -head - np.conj(tail)
    vals = vals.reshape(np.shape(t) + np.shape(u))
    return complex(vals) if vals.ndim == 0 else vals


# ---------------------------------------------------------------------------
# bandwidth grid


@dataclass(frozen=True)
class BandwidthGrid:
    """Geometric grid h_j = L^j / n for j in [j_min, j_max].

    s_values holds the screen statistic per index 0..j_max when a chain was
    supplied (None otherwise); feasible records whether the screen was
    actually passed or the fallback kept the full grid.
    """

    n: int
    L: float
    j_min: int
    j_max: int
    values: np.ndarray
    s_values: np.ndarray | None = None
    feasible: bool = True


def _require_noise_profile(spectra: Spectra, step: str) -> None:
    """Refuse a table without a quote-noise summary (an increments table):
    the screen and the deviation bound are built from the option scheme's
    noise profile, and the increments scheme has no counterpart yet."""
    if spectra.sup_norms is None or spectra.noise_scale is None:
        raise InputError(
            f"{step} needs an option chain's quote-noise profile; this "
            "spectra table has none (no bandwidth selection for increments "
            "yet)")


def _screen_statistic(spectra: Spectra, n: int, cutoffs: np.ndarray) -> np.ndarray:
    """S(j) = (log10 n)^2 n^{-1/2} s_rho (int_{|u|<=1/h_j, trusted}
    (1+u^4)/|phi~|^2 du)^{1/2}, read at every cutoff off one prefix sum of
    the grid weights times the even integrand on the trusted nodes.

    s_rho is the weighted L2 norm of the noise profile; with zero noise the
    statistic vanishes identically and the screen passes everywhere.
    """
    _require_noise_profile(spectra, "the bandwidth screen")
    s_rho = spectra.noise_scale * math.sqrt(spectra.n_obs)
    trusted = spectra.trusted
    u = spectra.grid.u[trusted]
    terms = (spectra.grid.weights[trusted] * (1.0 + u ** 4)
             / np.abs(spectra.phi[trusted]) ** 2)
    prefix = np.concatenate([[0.0], np.cumsum(terms)])
    pref = math.log10(n) ** 2 / math.sqrt(n) * s_rho
    return pref * np.sqrt(prefix[np.searchsorted(u, cutoffs, side="right")])


# most bandwidths build_grid makes: each one is inverted and bounded, about
# 0.65 MB of work arrays at the default 8,192 spectral points (measured
# through estimate_chain at n = 100), so the cap stands for about 0.65 GB;
# the default grid at n = 100, L = 1.1 has 13 bandwidths
_MAX_BANDWIDTHS = 1000


def _top_index(n: int, L: float) -> int:
    """j_max of the grid: the smallest j with L^j / n >= (log10 n)^{-5}.

    Refuses n < 10, L <= 1 and grids of more than _MAX_BANDWIDTHS
    bandwidths, the last before anything of that size is allocated.
    """
    if n < 10:
        raise InputError(f"need n >= 10, got {n}")
    if not L > 1:
        raise InputError(f"grid ratio must exceed 1, got {L}")
    target = math.log10(n) ** -5.0
    j_max = max(0, math.ceil(math.log(target * n) / math.log(L)))
    if j_max + 1 > _MAX_BANDWIDTHS:
        raise InputError(
            f"grid ratio L = {L!r} gives about {j_max + 1} bandwidths at "
            f"n = {n}, above the cap of {_MAX_BANDWIDTHS}; use a larger L")
    while L ** j_max / n < target:
        j_max += 1
    while j_max > 0 and L ** (j_max - 1) / n >= target:
        j_max -= 1
    return j_max


def build_grid(n: int, L: float,
               spectra: Spectra | None = None) -> BandwidthGrid:
    """Bandwidth grid with the data-dependent lower cut.

    j_max is the smallest index with L^j / n >= (log10 n)^{-5}; j_min is the
    first index whose screen statistic S(j) is <= 1 (if S skips past the
    band [1/2, 1] in one step, that index still wins — only the upper bound
    controls consistency).  Without chain spectra the screen is skipped and
    the full grid is returned.  If no bandwidth passes, the full grid is
    kept and flagged feasible=False.  Grids of more than _MAX_BANDWIDTHS
    bandwidths are refused.
    """
    j_max = _top_index(n, L)
    all_values = L ** np.arange(0, j_max + 1) / n
    j_min = 0
    s_values = None
    feasible = True
    if spectra is not None:
        s_values = _screen_statistic(spectra, n, 1.0 / all_values)
        passing = np.flatnonzero(s_values <= 1.0)
        if passing.size:
            j_min = int(passing[0])
        else:
            feasible = False
    return BandwidthGrid(n=n, L=L, j_min=j_min, j_max=j_max,
                         values=all_values[j_min:], s_values=s_values,
                         feasible=feasible)


# ---------------------------------------------------------------------------
# deviation bound at a fixed bandwidth


def _masked_chis(spectra: Spectra, kernel: SpectralKernel, h: float,
                 q, side, x_max: float):
    """Validate the cells (`q` one threshold or a 1-D array, `side` one
    side or one per threshold); return the integration mask and an iterator
    over the cells' (chi0, chi1, chi2) on the masked nodes.  The mask, the
    kernel profile, the masked spectra and the three rational factors
    depend on h alone and are formed once; each cell adds its tail weight.
    """
    _require_noise_profile(spectra, "the deviation bound")
    if not h > 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    qs = np.atleast_1d(np.asarray(q, dtype=float))
    sides = [side] * qs.size if isinstance(side, str) else list(side)
    if qs.ndim != 1 or len(sides) != qs.size:
        raise InputError("need a 1-D array of thresholds, one side each")
    for qi, si in zip(qs, sides):
        if not qi > 0:
            raise InputError(f"threshold must be positive, got {qi}")
        if si not in ("+", "-"):
            raise InputError(f"side must be '+' or '-', got {si!r}")
        if not x_max > qi:
            raise InputError(
                f"x_max = {x_max} must exceed the threshold q = {qi}")
    t = np.array([qi if si == "+" else -qi for qi, si in zip(qs, sides)])
    T = spectra.horizon
    u_all = spectra.grid.u
    mask = spectra.trusted & (u_all <= 1.0 / h)
    u = u_all[mask]
    fk = kernel(h * u)
    phi = spectra.phi[mask]  # trusted nodes, so bounded away from zero
    psi1 = spectra.psi1[mask]
    psi2 = spectra.psi2[mask]
    factors = (
        u * (u - 1j) * (T ** 2 * psi1 ** 2 - T * psi2)
        + 2.0 * T * (1j - 2.0 * u) * psi1
        + 2.0,
        (4j * u + 2.0) - 2.0 * T * u * (1j * u + 1.0) * psi1,
        u * (1j - u),
    )

    def cells():
        for gw in tail_weight_spectrum(t, u, x_max):
            base = gw * fk / phi
            yield tuple(base * f for f in factors)

    return mask, cells()


def auxiliary_spectra(spectra: Spectra, kernel: SpectralKernel, h: float,
                      q, side, x_max: float = X_MAX_DEFAULT):
    """The three linearization spectra chi_0, chi_1, chi_2 and their mask.

    chi_k is the sensitivity of the smoothed tail integral at threshold
    +-q to the k-th observable transform; each is a product of the tail
    weight spectrum, the kernel profile at scale h, and rational expressions
    in (phi~, psi~', psi~'').  The mask marks the integration domain
    u <= 1/h intersected with the trust region; entries outside the mask
    are returned as zero (they never enter the deviation bound, and skipping
    them avoids evaluating the tail weight off the integration domain).
    An array of thresholds gives one row of each chi_k per threshold.
    """
    mask, cells = _masked_chis(spectra, kernel, h, q, side, x_max)
    chis = np.zeros((3, np.size(q), mask.size), dtype=complex)
    for i, cell in enumerate(cells):
        chis[:, i, mask] = cell
    if np.ndim(q) == 0:
        chis = chis[:, 0]
    return chis[0], chis[1], chis[2], mask


def sigma_tilde(spectra: Spectra, kernel: SpectralKernel, h: float,
                q, side, x_max: float = X_MAX_DEFAULT):
    """Deviation bound (2 pi sqrt(n) T)^{-1} sum_k ||x^k e^{-x} rho||_inf
    ||chi_k||_{L2(|u| <= 1/h)} for the tail estimate at threshold +-q.

    An array of thresholds gives an array from one pass over the h-only
    factors.  Each norm sums the grid weights times the even |chi_k|^2.
    """
    mask, cells = _masked_chis(spectra, kernel, h, q, side, x_max)
    if not mask.any():
        raise NumericalError(
            f"trust region is empty on |u| <= {1.0 / h:.3g}; "
            "the noise guard dominates at this bandwidth"
        )
    weights = spectra.grid.weights[mask]
    pref = 1.0 / (2.0 * math.pi * math.sqrt(spectra.n_obs) * spectra.horizon)

    def norm(chi):
        return math.sqrt(weights @ (chi.real ** 2 + chi.imag ** 2))

    values = [pref * sum(s * norm(chi) for s, chi in zip(spectra.sup_norms, cell))
              for cell in cells]
    return values[0] if np.ndim(q) == 0 else np.array(values)


# ---------------------------------------------------------------------------
# interval-intersection selection


@dataclass(frozen=True)
class BandwidthRecord:
    """One row of the selector's audit trail."""

    h: float
    q: float
    sigma: float
    V: float | None
    lo: float | None
    hi: float | None
    chosen: bool
    dropped: bool = False


@dataclass(frozen=True)
class LepskiDiagnostics:
    """Full audit trail of one interval-intersection run."""

    records: tuple
    multiplier: float

    def to_json_rows(self) -> list:
        return [
            {
                "h": r.h, "q": r.q, "sigma": r.sigma, "V": r.V,
                "lo": r.lo, "hi": r.hi, "chosen": r.chosen,
                "dropped": r.dropped,
            }
            for r in self.records
        ]


def adaptive_quantile(bandwidths, quantiles, densities, sigmas, n: int,
                      delta: float = 0.1):
    """Select the largest bandwidth whose interval meets all smaller ones.

    Each bandwidth h proposes q_h +- V_h with
    V_h = (1+delta) sqrt(2 log log n) sigma_h / |density_h|; the scan walks
    the grid upward keeping the running intersection and stops permanently
    once it empties.  Bandwidths with density 0 are dropped (flagged in the
    diagnostics) rather than failing the whole run.

    Returns (chosen h, chosen quantile, LepskiDiagnostics).
    """
    hs = np.asarray(bandwidths, dtype=float)
    qs = np.asarray(quantiles, dtype=float)
    dens = np.asarray(densities, dtype=float)
    sig = np.asarray(sigmas, dtype=float)
    if not (hs.size and hs.size == qs.size == dens.size == sig.size):
        raise InputError("need equal-length nonempty per-bandwidth inputs")
    if hs.size > 1 and not np.all(np.diff(hs) > 0):
        raise InputError("bandwidths must be strictly increasing")
    if n < 3:
        raise InputError(f"need n >= 3 for the log log factor, got {n}")
    if delta <= 0:
        raise InputError(f"delta must be positive, got {delta}")
    if np.any(sig < 0):
        raise InputError("sigma values must be nonnegative")

    multiplier = (1.0 + delta) * math.sqrt(2.0 * math.log(math.log(n)))
    records = []
    lo_run, hi_run = -math.inf, math.inf
    chosen_idx = None
    alive = True
    for i in range(hs.size):
        V = lo = hi = None
        if dens[i] != 0.0:
            V = float(multiplier * sig[i] / abs(dens[i]))
            lo, hi = float(qs[i] - V), float(qs[i] + V)
        if alive and V is not None:
            lo_new, hi_new = max(lo_run, lo), min(hi_run, hi)
            if lo_new <= hi_new:
                lo_run, hi_run = lo_new, hi_new
                chosen_idx = i
            else:
                alive = False  # once empty, stays empty
        records.append(BandwidthRecord(
            h=float(hs[i]), q=float(qs[i]), sigma=float(sig[i]),
            V=V, lo=lo, hi=hi, chosen=False, dropped=V is None,
        ))
    if chosen_idx is None:
        raise NoSolutionError(
            "every bandwidth was dropped by the density guard; "
            "no interval to intersect"
        )
    records[chosen_idx] = replace(records[chosen_idx], chosen=True)
    diag = LepskiDiagnostics(records=tuple(records), multiplier=multiplier)
    return float(hs[chosen_idx]), float(qs[chosen_idx]), diag
