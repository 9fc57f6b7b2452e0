"""Curvature estimation from equally spaced increments of the process.

Given n increments Y_k observed at time spacing delta, the empirical
characteristic function and its first two derivatives

    phi^(k)(u) = (1/n) sum_j (i Y_j)^k e^{i u Y_j},   k = 0, 1, 2,

combine into estimates of the first two derivatives of the characteristic
exponent,

    psi1(u) = phi'(u) / (delta phi(u)),
    psi2(u) = [phi''(u) phi(u) - phi'(u)^2] / (delta phi(u)^2),

kept only on the trust region |phi(u)| >= (delta n)^{-1/2} and set to 0
elsewhere (the low-frequency cf approach of Neumann & Reiss, Bernoulli
2009).  The ratio is exactly invariant under adding a constant to every
increment, but it cancels terms of order (mean Y)^2; the sums run over the
sample centred at its median, so that a drift costs no digits.

On a uniform frequency grid `_ecf_all` factors the three sums over blocks
of 64 nodes into one matrix product of running-product phase tables: per
sample three exponentials and 3N/64 + 64 table entries (88 at N = 512), in
place of N exponentials.  Other frequencies are summed directly.

`psi2_from_increments` tabulates them on a frequency grid as a
`numerics.Spectra`, the same table the option scheme hands to the
inversion step (`inversion.TailInversion.table`).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import _BLOCK, FrequencyGrid, Spectra

__all__ = [
    "IncrementSample",
    "psi2_from_increments",
    "read_increment_csv",
]


@dataclass(frozen=True)
class IncrementSample:
    """n real increments observed at uniform time spacing delta."""

    values: np.ndarray
    delta: float

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise InputError("increments must be a non-empty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise InputError("increments must be finite")
        if not self.delta > 0:
            raise InputError(f"time spacing must be positive, got {self.delta}")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.size


# cap on the complex entries of one sample chunk's work arrays: the weighted
# start phases (3 x starts x m) and the in-block phases (block x m)
_WORK_ENTRIES = 2 ** 18


def _progression_block(u: np.ndarray) -> int:
    """Block length of the factored sum over the nodes u.

    _BLOCK (or all of u, when shorter) if u is an arithmetic progression to
    within a few rounding units of its largest node, else 1 (also when a
    node is not finite).
    """
    if u.size < 2:
        return 1
    du = (u[-1] - u[0]) / (u.size - 1)
    drift = np.max(np.abs(u - (u[0] + du * np.arange(u.size))))
    if not drift <= 8.0 * np.finfo(float).eps * np.max(np.abs(u)):
        return 1
    return min(_BLOCK, u.size)


def _ecf_all(values: np.ndarray, u: np.ndarray):
    """Empirical cf and its first two derivatives, one sample pass per chunk.

    Returns (phi0, phi1, phi2) arrays aligned with u, where
    phi_k(u) = (1/n) sum (iY)^k e^{iuY}.

    A blocked nonuniform DFT (Greengard & Lee, SIAM Rev. 2004): with block
    start u_a and in-block offset b * du, e^{iuY} = e^{iu_a Y} e^{ib du Y},
    so for each chunk of m samples all three sums come from one matrix
    product of the weighted start phases Y^k e^{iu_a Y} (3 * starts x m)
    with the in-block phases e^{ib du Y} (block x m, read transposed).

    Both tables are geometric in their index, so each row is the row
    before it times a step row, e^{i block du Y} or e^{i du Y}: three
    exponentials per sample (the two steps and e^{iu_0 Y}) replace the
    N / block + block that exponentiating both tables takes.  The start
    rows are cut into runs of `block`, each re-seeded from a direct
    exponential of its first node (one more exponential per sample and
    run), so a phase carries at most 2 * (block - 1) rounded products,
    about 2 * block ulp, whatever the node count.  The rows for k = 1, 2
    are Y and Y^2 times the k = 0 start rows, a real scaling of N / block
    rows; the factors i^k and 1/n are applied once to the sums.

    Nodes that are not an arithmetic progression (scalars, irregular
    points, fewer than two nodes) use block 1: every start row is then a
    seed, which is the direct sum.  `psi2_from_increments` refuses a
    sample of which no phase is resolved.
    """
    n = values.size
    block = _progression_block(u)
    starts = u[::block]
    du = (u[-1] - u[0]) / (u.size - 1) if block > 1 else 0.0
    weighted = 3 * starts.size
    acc = np.zeros((weighted, block), dtype=complex)
    chunk = max(1, min(n, _WORK_ENTRIES // (weighted + block)))
    # the work arrays, made once per call; each chunk views the head of the
    # buffer, so the last, shorter chunk is contiguous as well
    work = np.empty((weighted + block) * chunk, dtype=complex)
    for lo in range(0, n, chunk):
        y = values[lo : lo + chunk]
        table = work[: (weighted + block) * y.size].reshape(-1, y.size)
        outer, inner = table[:weighted], table[weighted:]
        first, by_y, by_y2 = outer.reshape(3, -1, y.size)
        # start phases: runs of `block` rows, each seeded directly; row b of
        # a run is row b - 1 times e^{i block du y}, row by row (np.cumprod
        # accumulates along the strided node axis, 5x slower at (64, 1024))
        first[::block] = np.exp(1j * starts[::block, None] * y)
        step = np.exp(1j * (block * du) * y)
        for b in range(1, min(block, starts.size)):
            rows = first[b::block]
            np.multiply(first[b - 1 :: block][: rows.shape[0]], step, out=rows)
        np.multiply(first, y, out=by_y)
        np.multiply(by_y, y, out=by_y2)
        # in-block phases inner[b] = e^{ib du y}
        inner[0] = 1.0
        step = np.exp(1j * du * y)
        for b in range(1, block):
            np.multiply(inner[b - 1], step, out=inner[b])
        acc += outer @ inner.T
    # acc[k * starts + a, b] is n i^-k phi_k at node a * block + b
    scale = np.array([1.0, 1j, -1.0])[:, None] / n
    return tuple(acc.reshape(3, -1)[:, : u.size] * scale)


def _curvature_ratio(phi0, phi1, phi2, delta: float):
    """Exponent curvature from a cf and its derivatives.

    (phi2 phi0 - phi1^2) / (delta phi0^2); algebraically equals psi''(u)
    when phi_k are the true derivatives of e^{delta psi}.
    """
    return (phi2 * phi0 - phi1 * phi1) / (delta * phi0 * phi0)


def psi2_from_increments(sample: IncrementSample,
                         grid: FrequencyGrid) -> Spectra:
    """Empirical cf and exponent derivatives of the increments on ``grid.u``.

    The sums run over the sample centred at its median m, so phi and psi1
    are those of Y - m (the raw sample's times e^{-ium}, and minus
    im/delta).  The raw sample is refused (InputError) where no phase is
    resolved, max|u| max|Y| >= 2^52 rad, or where n max(Y^2) overflows.

    The trust region is |phi(u)| >= (delta n)^{-1/2}; outside it psi1 and
    psi2 are exactly 0 so downstream integrals simply drop those
    frequencies.  The table carries no quote-noise summary.
    """
    if sample.n < 2:
        raise InputError("need at least 2 increments")
    delta = sample.delta
    ymax, umax = (float(np.max(np.abs(a), initial=0.0))
                  for a in (sample.values, grid.u))
    if not (umax * ymax < 2.0 ** 52
            and math.isfinite(sample.n * ymax * ymax)):
        raise InputError(
            f"increments up to |Y| = {ymax:.3g} cannot be resolved at |u| <= "
            f"{umax:.3g}: |u Y| must stay below 2^52 rad and n Y^2 finite")
    phi0, phi1, phi2 = _ecf_all(sample.values - np.median(sample.values),
                                grid.u)
    trusted = np.abs(phi0) >= 1.0 / math.sqrt(delta * sample.n)
    # guard the division as well: off the trust region phi0 may be ~0
    safe0 = np.where(trusted, phi0, 1.0)
    psi1 = np.where(trusted, phi1 / (delta * safe0), 0.0 + 0.0j)
    psi2 = np.where(trusted, _curvature_ratio(safe0, phi1, phi2, delta),
                    0.0 + 0.0j)
    return Spectra(grid=grid, horizon=delta, n_obs=sample.n, phi=phi0,
                   psi1=psi1, psi2=psi2, trusted=trusted)


def read_increment_csv(path, delta: float) -> IncrementSample:
    """Load increments from a one-column UTF-8 CSV with header ``increment``."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        line = exc.object[:exc.start].count(b"\n") + 1
        raise InputError(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    if [h.strip().lower() for h in header] != ["increment"]:
        raise InputError(
            f"{path}: expected single-column header 'increment', got {header!r}"
        )
    values = []
    for lineno, row in enumerate(reader, start=2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 1:
            raise InputError(f"{path}:{lineno}: expected one column, got {len(row)}")
        try:
            values.append(float(row[0]))
        except ValueError:
            raise InputError(
                f"{path}:{lineno}: not a number: {row[0]!r}"
            ) from None
    if not values:
        raise InputError(f"{path}: no increment rows")
    return IncrementSample(values=np.asarray(values), delta=delta)
