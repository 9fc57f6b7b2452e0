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
increment (the e^{iuc} factors cancel), so no drift correction is needed.

On a uniform frequency grid the three sums factor exactly over blocks of
nodes, e^{i(u_a + b du)Y} = e^{iu_a Y} e^{ib du Y}, and both factors are
powers of one phase per sample, so they are tabulated as running products:
each chunk of samples costs three exponentials per sample (one more per
4,096 further nodes, where a run of start phases is re-seeded) and one
matrix product, instead of N exponentials.  Any other set of frequencies
is summed directly.

`psi2_from_increments` tabulates them on a frequency grid as a
`numerics.Spectra`, the same table the option scheme hands to the
inversion step (`inversion.tail_estimates`).
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


# cap on the complex entries of one sample chunk's work arrays: the block
# start phases (starts x m) and the weighted in-block phases (3 x block x m)
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

    The nodes are summed in blocks, as in `numerics.inverse_fourier`: with
    block start u_a and in-block offset b * du, e^{iu Y} = e^{iu_a Y}
    e^{ib du Y}, so for each chunk of m samples all three sums come from
    one matrix product of the start phases (starts x m) with the in-block
    phases Y^k e^{ib du Y} (3 * block x m, read transposed).

    Both tables are geometric in their index, e^{iu_a Y} = e^{iu_0 Y}
    (e^{i block du Y})^a and e^{ib du Y} = (e^{i du Y})^b, so each row is
    the row before it times a step row, one vectorized product per row.
    Three exponentials per sample (the two steps and e^{iu_0 Y}) replace
    the N / block + block that exponentiating both tables takes.  The
    start rows are cut into runs of `block`, each re-seeded from a direct
    exponential of its first node; a phase then carries at most
    2 * (block - 1) rounded products, about 2 * block ulp, whatever the
    node count, and each run after the first costs one more exponential
    per sample.  The in-block rows for k = 1, 2 are Y and Y^2 times the
    k = 0 rows, a real scaling; the factors i^k and 1/n are applied once
    to the sums.

    Nodes that are not an arithmetic progression (scalars, irregular
    points, fewer than two nodes) use block 1: every start row is then a
    seed, which is the direct sum.
    """
    n = values.size
    block = _progression_block(u)
    starts = u[::block]
    du = (u[-1] - u[0]) / (u.size - 1) if block > 1 else 0.0
    acc = np.zeros((starts.size, 3 * block), dtype=complex)
    chunk = max(1, _WORK_ENTRIES // (starts.size + 3 * block))
    for lo in range(0, n, chunk):
        y = values[lo : lo + chunk]
        # start phases: each run of `block` rows is seeded directly, and
        # row b of a run is row b - 1 times e^{i block du y}.  Row by row,
        # not np.cumprod: that accumulates along the strided node axis and
        # ran 5x slower on (64, 1024) tables
        outer = np.empty((starts.size, y.size), dtype=complex)
        outer[::block] = np.exp(1j * starts[::block, None] * y)
        step = np.exp(1j * (block * du) * y)
        for b in range(1, block):
            rows = outer[b::block]
            np.multiply(outer[b - 1 :: block][: rows.shape[0]], step, out=rows)
        # in-block phases: inner[k, b] = y^k e^{ib du y}
        inner = np.empty((3, block, y.size), dtype=complex)
        inner[0, 0] = 1.0
        step = np.exp(1j * du * y)
        for b in range(1, block):
            np.multiply(inner[0, b - 1], step, out=inner[0, b])
        # real scaling of the interleaved (re, im) pairs
        pairs = inner.view(float)
        y2 = np.repeat(y, 2)
        np.multiply(pairs[0], y2, out=pairs[1])
        np.multiply(pairs[1], y2, out=pairs[2])
        acc += outer @ inner.reshape(3 * block, y.size).T
    # acc[a, k * block + b] is n i^-k phi_k at node a * block + b
    phi = acc.reshape(starts.size, 3, block).transpose(1, 0, 2).reshape(3, -1)
    phi = phi[:, : u.size] * (np.array([1.0, 1j, -1.0])[:, None] / n)
    return phi[0], phi[1], phi[2]


def _curvature_ratio(phi0, phi1, phi2, delta: float):
    """Exponent curvature from a cf and its derivatives.

    (phi2 phi0 - phi1^2) / (delta phi0^2); algebraically equals psi''(u)
    when phi_k are the true derivatives of e^{delta psi}.
    """
    return (phi2 * phi0 - phi1 * phi1) / (delta * phi0 * phi0)


def psi2_from_increments(sample: IncrementSample,
                         grid: FrequencyGrid) -> Spectra:
    """Empirical cf and exponent derivatives of the increments on ``grid.u``.

    The trust region is |phi(u)| >= (delta n)^{-1/2}; outside it psi1 and
    psi2 are exactly 0 so downstream integrals simply drop those
    frequencies.  The table carries no quote-noise summary.
    """
    if sample.n < 2:
        raise InputError("need at least 2 increments")
    delta = sample.delta
    phi0, phi1, phi2 = _ecf_all(sample.values, grid.u)
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
