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
    * ||chi_k||_L2.  Each ||chi_k||^2 is |g_t|^2, the power of the tail
    weight's spectrum, summed against a weight that depends on h alone, so
    one call serves every (threshold, side) cell of a bandwidth: |g_t|^2
    comes in real arithmetic from one `sici` call over the (cells x nodes)
    array, and the work that depends on neither h nor the cell (the three
    weights without the kernel, the x_max term of g_t) is formed once per
    spectra table (`_bound_terms`);

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
from .numerics import _BLOCK, _MAX_BATCH, Spectra

__all__ = [
    "BandwidthGrid",
    "BandwidthRecord",
    "LepskiDiagnostics",
    "build_grid",
    "sigma_tilde",
    "adaptive_quantile",
]


# ---------------------------------------------------------------------------
# the exponential integral behind the tail weight g_t(x) = x^{-2} on [t, X_max]


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
# 0.4 MB of work arrays at the default 8,192 spectral points (measured
# through estimate_chain at n = 100), so the cap stands for about 0.4 GB;
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


@dataclass(frozen=True, eq=False)
class _BoundTerms:
    """The h-free part of sigma_tilde for one spectra table, on its trusted
    nodes u (increasing): the weights w |factor_k|^2 / |phi~|^2 of the three
    norms, the x_max term E2(iu x_max) / x_max of the tail weight, and the
    block and in-block index of each node for the phase products, whose
    block starts are `starts`."""

    spectra: Spectra
    x_max: float
    u: np.ndarray
    weights: np.ndarray
    tail_re: np.ndarray
    tail_im: np.ndarray
    block: np.ndarray
    offset: np.ndarray
    starts: np.ndarray


def _bound_terms(spectra: Spectra, x_max: float) -> _BoundTerms:
    """Form once per table what sigma_tilde needs at every bandwidth."""
    _require_noise_profile(spectra, "the deviation bound")
    index = np.flatnonzero(spectra.trusted)
    u = spectra.grid.u[index]
    T = spectra.horizon
    phi = spectra.phi[index]  # trusted nodes, so bounded away from zero
    psi1 = spectra.psi1[index]
    psi2 = spectra.psi2[index]
    factors = (
        u * (u - 1j) * (T ** 2 * psi1 ** 2 - T * psi2)
        + 2.0 * T * (1j - 2.0 * u) * psi1
        + 2.0,
        (4j * u + 2.0) - 2.0 * T * u * (1j * u + 1.0) * psi1,
        u * (1j - u),
    )
    scale = spectra.grid.weights[index] / (phi.real ** 2 + phi.imag ** 2)
    weights = np.stack([scale * (f.real ** 2 + f.imag ** 2) for f in factors])
    tail = _e2(u * x_max) / x_max
    block, offset = np.divmod(index, _BLOCK)
    return _BoundTerms(spectra=spectra, x_max=x_max, u=u, weights=weights,
                       tail_re=tail.real.copy(), tail_im=tail.imag.copy(),
                       block=block, offset=offset,
                       starts=spectra.grid.u[::_BLOCK])


def sigma_tilde(spectra: Spectra, kernel: SpectralKernel, h: float,
                q, side, x_max: float = X_MAX_DEFAULT, terms=None):
    """Deviation bound (2 pi sqrt(n) T)^{-1} sum_k ||x^k e^{-x} rho||_inf
    ||chi_k||_{L2(|u| <= 1/h)} for the tail estimate at threshold +-q.

    chi_k = g_t f_K(hu) factor_k / phi~ on the trusted nodes with u <= 1/h,
    where g_t is the spectrum of the tail weight x^{-2} on [t, x_max] (t > 0)
    or [-x_max, t] (t < 0):

        g_t(u) = E2(iut)/t - E2(iu x_max)/x_max,

    and the t < 0 side is its conjugate, so |g_t|^2 is even in t and both
    sides use |t| = q.  With E2(iw) = cos w + w (Si(w) - pi/2)
    + i (w Ci(w) - sin w), |g_t|^2 is formed in real arithmetic from one
    `sici` call over the (cells x nodes) array, and each squared norm is the
    sum of |g_t|^2 against the h-only weight w f_K(hu)^2 |factor_k|^2 /
    |phi~|^2.  cos(ut) and sin(ut) are phase products over blocks of
    _BLOCK nodes: with block start u_a and in-block offset b * spacing,
    e^{iut} = e^{iu_a t} e^{ibt du}, as in `increments._ecf_all`.  The
    cells are taken in chunks of at most _MAX_BATCH (cell, node) pairs.

    An array of thresholds gives an array, each entry equal to the call for
    that threshold alone.  `terms`, from `_bound_terms(spectra, x_max)`,
    carries the work that does not depend on h, so that a caller bounding
    many bandwidths of one table forms it once.
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
    if terms is None:
        terms = _bound_terms(spectra, x_max)
    elif terms.spectra is not spectra or terms.x_max != x_max:
        raise InputError("bound terms of another spectra table or x_max")
    kept = int(np.searchsorted(terms.u, 1.0 / h, side="right"))
    if not kept:
        raise NumericalError(
            f"trust region is empty on |u| <= {1.0 / h:.3g}; "
            "the noise guard dominates at this bandwidth"
        )
    u = terms.u[:kept]
    fk = kernel(h * u)
    weights = terms.weights[:, :kept] * (fk * fk)
    tail_re, tail_im = terms.tail_re[:kept], terms.tail_im[:kept]
    block, offset = terms.block[:kept], terms.offset[:kept]
    starts = terms.starts[: block[-1] + 1]
    steps = spectra.grid.spacing * np.arange(_BLOCK)
    s0, s1, s2 = spectra.sup_norms
    pref = 1.0 / (2.0 * math.pi * math.sqrt(spectra.n_obs) * spectra.horizon)
    values = np.empty(qs.size)
    chunk = max(1, _MAX_BATCH // kept)
    # the chunk's work arrays, made once per call: fresh arrays of this size
    # are mapped and page-faulted anew on every call.  They are filled in
    # place by the operations of re = phase.real / t + u (si - pi/2) -
    # tail_re, im = u ci - phase.imag / t - tail_im and g2 = re^2 + im^2,
    # in that order, so the rounding is that of the plain expressions
    shape = (min(chunk, qs.size), kept)
    work = [np.empty(shape) for _ in range(3)]
    phases = [np.empty(shape, dtype=complex) for _ in range(2)]
    for lo in range(0, qs.size, chunk):
        t = qs[lo : lo + chunk, None]
        re, si, ci = (a[: t.shape[0]] for a in work)
        phase, inner = (a[: t.shape[0]] for a in phases)
        sici(np.multiply(t, u, out=re), out=(si, ci))
        # mode="clip" writes straight into out; the indices are in range
        np.take(np.exp(1j * (t * starts)), block, axis=1, out=phase,
                mode="clip")
        np.take(np.exp(1j * (t * steps)), offset, axis=1, out=inner,
                mode="clip")
        phase *= inner
        np.divide(phase.real, t, out=re)
        si -= 0.5 * np.pi
        re += np.multiply(u, si, out=si)
        re -= tail_re
        im = np.multiply(u, ci, out=ci)
        im -= np.divide(phase.imag, t, out=si)
        im -= tail_im
        re *= re
        im *= im
        g2 = np.add(re, im, out=re)
        # row sums over C-ordered rows, not one matrix product, whose
        # rounding could depend on the number of rows: each cell's bound is
        # the same in any batch (numpy sums rows of another memory order in
        # another order)
        n0, n1, n2 = (np.sqrt(np.multiply(g2, w, out=si).sum(axis=1))
                      for w in weights)
        values[lo : lo + chunk] = pref * (s0 * n0 + s1 * n1 + s2 * n2)
    return float(values[0]) if np.ndim(q) == 0 else values


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
