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
    * ||chi_k||_L2;

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
therefore has two modes: strict raises the empty-grid error, permissive
records infeasibility and keeps the full grid (j_min = 0), which is what
the simulation harness uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

from .errors import EmptyGridError, InputError, NoSolutionError, NumericalError
from .inversion import X_MAX_DEFAULT
from .kernels import SpectralKernel
from .options import ChainSpectra

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


def tail_weight_spectrum(t: float, u, x_max: float = X_MAX_DEFAULT):
    """int g_t(x) e^{-iux} dx for the truncated tail weight.

    g_t(x) = x^{-2} 1_{[t, x_max]} for t > 0 and x^{-2} 1_{[-x_max, t]} for
    t < 0.  Closed form via the exponential integral:

        int_t^X x^{-2} e^{-iux} dx = E2(iut)/t - E2(iuX)/X,

    and the t < 0 side by the reflection x -> -x.  Exact at u = 0
    (value 1/|t| - 1/x_max).
    """
    if t == 0:
        raise InputError("tail weight needs a nonzero threshold t")
    if not x_max > abs(t):
        raise InputError(f"x_max = {x_max} must exceed |t| = {abs(t)}")
    u_arr = np.atleast_1d(np.asarray(u, dtype=float))
    if t < 0:
        vals = tail_weight_spectrum(-t, -u_arr, x_max)
    else:
        vals = _e2(u_arr * t) / t - _e2(u_arr * x_max) / x_max
    if np.ndim(u) == 0:
        return complex(vals[0])
    return vals


# The x_max term of the tail weight does not depend on the threshold t, so
# when the deviation bound is evaluated many times on one frequency grid
# (once per bandwidth, threshold, and side) it is cached per grid layout.
_TAIL_TERM_CACHE: dict = {}


def _tail_weight_on_grid(t: float, u: np.ndarray, x_max: float, key,
                         select=None) -> np.ndarray:
    """tail_weight_spectrum(t, u, x_max) with the E2(iu x_max)/x_max term
    cached under `key`; the t < 0 side reuses the conjugate of the cache.
    `select` restricts the evaluation to a boolean subset of the nodes."""
    tail = _TAIL_TERM_CACHE.get(key)
    if tail is None:
        if len(_TAIL_TERM_CACHE) >= 8:
            _TAIL_TERM_CACHE.clear()
        tail = _e2(u * x_max) / x_max
        _TAIL_TERM_CACHE[key] = tail
    if select is not None:
        tail = tail[select]
        u = u[select]
    head = _e2(u * t) / t
    if t > 0:
        return head - tail
    # reflection x -> -x: E2(iut)/(-t) - conj(E2(iu x_max))/x_max
    return -head - np.conj(tail)


# ---------------------------------------------------------------------------
# bandwidth grid


@dataclass(frozen=True)
class BandwidthGrid:
    """Geometric grid h_j = L^j / n for j in [j_min, j_max].

    s_values holds the screen statistic per index 0..j_max when a chain was
    supplied (None otherwise); feasible records whether the screen was
    actually passed or the permissive fallback kept the full grid.
    """

    n: int
    L: float
    j_min: int
    j_max: int
    values: np.ndarray
    s_values: np.ndarray | None = None
    feasible: bool = True


def _screen_statistic(spectra: ChainSpectra, n: int, cutoffs: np.ndarray) -> np.ndarray:
    """S(j) = (log10 n)^2 n^{-1/2} s_rho (int_{|u|<=1/h_j, trusted}
    (1+u^4)/|phi~|^2 du)^{1/2}, trapezoid on the spectra grid.

    s_rho is the weighted L2 norm of the noise profile; with zero noise the
    statistic vanishes identically and the screen passes everywhere.
    """
    s_rho = spectra.noise_scale * math.sqrt(spectra.n_obs)
    u = spectra.grid.u
    with np.errstate(divide="ignore"):
        base = np.where(
            spectra.trusted, (1.0 + u ** 4) / np.abs(spectra.phi) ** 2, 0.0
        )
    pref = math.log10(n) ** 2 / math.sqrt(n) * s_rho
    out = np.empty(cutoffs.size)
    for i, c in enumerate(cutoffs):
        integrand = np.where(np.abs(u) <= c, base, 0.0)
        out[i] = pref * math.sqrt(np.trapezoid(integrand, u))
    return out


def build_grid(n: int, L: float, spectra: ChainSpectra | None = None,
               strict: bool = True) -> BandwidthGrid:
    """Bandwidth grid with the data-dependent lower cut.

    j_max is the smallest index with L^j / n >= (log10 n)^{-5}; j_min is the
    first index whose screen statistic S(j) is <= 1 (if S skips past the
    band [1/2, 1] in one step, that index still wins — only the upper bound
    controls consistency).  Without chain spectra the screen is skipped and
    the full grid is returned.  strict=False downgrades an infeasible
    screen from an error to a flag.
    """
    if n < 10:
        raise InputError(f"need n >= 10, got {n}")
    if not L > 1:
        raise InputError(f"grid ratio must exceed 1, got {L}")
    target = math.log10(n) ** -5.0
    j_max = max(0, math.ceil(math.log(target * n) / math.log(L)))
    while L ** j_max / n < target:
        j_max += 1
    while j_max > 0 and L ** (j_max - 1) / n >= target:
        j_max -= 1

    all_values = L ** np.arange(0, j_max + 1) / n
    j_min = 0
    s_values = None
    feasible = True
    if spectra is not None:
        s_values = _screen_statistic(spectra, n, 1.0 / all_values)
        passing = np.flatnonzero(s_values <= 1.0)
        if passing.size:
            j_min = int(passing[0])
        elif strict:
            raise EmptyGridError(
                f"signal-to-noise screen fails at every bandwidth "
                f"(min S = {s_values.min():.3g} > 1); no usable grid"
            )
        else:
            j_min = 0
            feasible = False
    return BandwidthGrid(n=n, L=L, j_min=j_min, j_max=j_max,
                         values=all_values[j_min:], s_values=s_values,
                         feasible=feasible)


# ---------------------------------------------------------------------------
# deviation bound at a fixed bandwidth


def auxiliary_spectra(spectra: ChainSpectra, kernel: SpectralKernel, h: float,
                      q: float, side: str, x_max: float = X_MAX_DEFAULT):
    """The three linearization spectra chi_0, chi_1, chi_2 and their mask.

    chi_k is the sensitivity of the smoothed tail integral at threshold
    +-q to the k-th observable transform; each is a product of the tail
    weight spectrum, the kernel profile at scale h, and rational expressions
    in (phi~, psi~', psi~'').  The mask marks the integration domain
    |u| <= 1/h intersected with the trust region; entries outside the mask
    are returned as zero (they never enter the deviation bound, and skipping
    them avoids evaluating the tail weight off the integration domain).
    """
    if not h > 0:
        raise InputError(f"bandwidth must be positive, got {h}")
    if not q > 0:
        raise InputError(f"threshold must be positive, got {q}")
    if side not in ("+", "-"):
        raise InputError(f"side must be '+' or '-', got {side!r}")
    if not x_max > q:
        raise InputError(f"x_max = {x_max} must exceed the threshold q = {q}")
    grid = spectra.grid
    u_all = grid.u
    T = spectra.maturity
    mask = spectra.trusted & (np.abs(u_all) <= 1.0 / h)
    t = q if side == "+" else -q
    chi0 = np.zeros(u_all.size, dtype=complex)
    chi1 = np.zeros(u_all.size, dtype=complex)
    chi2 = np.zeros(u_all.size, dtype=complex)
    if mask.any():
        u = u_all[mask]
        gw = _tail_weight_on_grid(
            t, u_all, x_max,
            key=(grid.cutoff, grid.points, grid.offset, x_max), select=mask)
        fk = kernel(h * u)
        phi = spectra.phi[mask]  # trusted nodes, so bounded away from zero
        psi1 = spectra.psi1[mask]
        psi2 = spectra.psi2[mask]
        base = gw * fk / phi
        chi0[mask] = base * (
            u * (u - 1j) * (T ** 2 * psi1 ** 2 - T * psi2)
            + 2.0 * T * (1j - 2.0 * u) * psi1
            + 2.0
        )
        chi1[mask] = base * ((4j * u + 2.0) - 2.0 * T * u * (1j * u + 1.0) * psi1)
        chi2[mask] = base * (u * (1j - u))
    return chi0, chi1, chi2, mask


def sigma_tilde(spectra: ChainSpectra, kernel: SpectralKernel, h: float,
                q: float, side: str, x_max: float = X_MAX_DEFAULT) -> float:
    """Deviation bound (2 pi sqrt(n) T)^{-1} sum_k ||x^k e^{-x} rho||_inf
    ||chi_k||_{L2(|u| <= 1/h)} for the tail estimate at threshold +-q."""
    chi0, chi1, chi2, mask = auxiliary_spectra(spectra, kernel, h, q, side, x_max)
    if not mask.any():
        raise NumericalError(
            f"trust region is empty on |u| <= {1.0 / h:.3g}; "
            "the noise guard dominates at this bandwidth"
        )
    u = spectra.grid.u
    norms = [
        math.sqrt(np.trapezoid(np.where(mask, np.abs(c) ** 2, 0.0), u))
        for c in (chi0, chi1, chi2)
    ]
    pref = 1.0 / (2.0 * math.pi * math.sqrt(spectra.n_obs) * spectra.maturity)
    return pref * sum(s * nm for s, nm in zip(spectra.sup_norms, norms))


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
    chosen_h: float
    chosen_q: float
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
        if dens[i] == 0.0:
            records.append(BandwidthRecord(
                h=float(hs[i]), q=float(qs[i]), sigma=float(sig[i]),
                V=None, lo=None, hi=None, chosen=False, dropped=True,
            ))
            continue
        V = multiplier * sig[i] / abs(dens[i])
        lo, hi = float(qs[i] - V), float(qs[i] + V)
        if alive:
            lo_new, hi_new = max(lo_run, lo), min(hi_run, hi)
            if lo_new <= hi_new:
                lo_run, hi_run = lo_new, hi_new
                chosen_idx = i
            else:
                alive = False  # once empty, stays empty
        records.append(BandwidthRecord(
            h=float(hs[i]), q=float(qs[i]), sigma=float(sig[i]),
            V=float(V), lo=lo, hi=hi, chosen=False,
        ))
    if chosen_idx is None:
        raise NoSolutionError(
            "every bandwidth was dropped by the density guard; "
            "no interval to intersect"
        )
    records[chosen_idx] = BandwidthRecord(
        h=records[chosen_idx].h, q=records[chosen_idx].q,
        sigma=records[chosen_idx].sigma, V=records[chosen_idx].V,
        lo=records[chosen_idx].lo, hi=records[chosen_idx].hi,
        chosen=True,
    )
    diag = LepskiDiagnostics(
        records=tuple(records),
        chosen_h=float(hs[chosen_idx]),
        chosen_q=float(qs[chosen_idx]),
        multiplier=multiplier,
    )
    return float(hs[chosen_idx]), float(qs[chosen_idx]), diag
