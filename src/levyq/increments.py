"""Curvature estimation from equally spaced increments of the process.

Given n increments Y_k observed at time spacing delta, the empirical
characteristic function and its first two derivatives

    phi^(k)(u) = (1/n) sum_j (i Y_j)^k e^{i u Y_j},   k = 0, 1, 2,

combine into an estimate of the second derivative of the characteristic
exponent,

    psi2(u) = [phi''(u) phi(u) - phi'(u)^2] / (delta phi(u)^2),

kept only on the trust region |phi(u)| >= (delta n)^{-1/2} and set to 0
elsewhere.  The ratio is exactly invariant under adding a constant to every
increment (the e^{iuc} factors cancel), so no drift correction is needed.

On a uniform frequency grid the three sums factor exactly over blocks of
nodes, e^{i(u_a + b du)Y} = e^{iu_a Y} e^{ib du Y}, so each chunk of samples
costs N/64 + 64 exponentials per sample and one matrix product instead of N
exponentials; any other set of frequencies is summed directly.

`Psi2Estimate` is the common currency handed to the inversion stage by both
this scheme and the option-implied scheme.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .numerics import _BLOCK

__all__ = [
    "IncrementSample",
    "Psi2Estimate",
    "psi2_from_increments",
    "read_increment_csv",
    "write_increment_csv",
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


@dataclass(frozen=True)
class Psi2Estimate:
    """An estimated exponent curvature u -> psi2(u).

    `eval` is a pure vectorized function of frequency returning complex
    values (Hermitian up to floating point).
    """

    eval: object

    def __call__(self, u):
        return self.eval(u)


# cap on the complex entries of one sample chunk's work arrays: the block
# start phases (starts x m) and the weighted in-block phases (m x 3 * block)
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
    e^{ib du Y}, so for each chunk of samples all three derivatives come
    from one matrix product of the start phases (starts x m) with the
    weighted offset phases w_k e^{ib du Y} (m x 3 * block), w_k = (iY)^k / n.
    Per sample that takes N/block + block exponentials instead of N.  Nodes
    that are not an arithmetic progression (scalars, irregular points,
    fewer than two nodes) use block 1, which is the direct sum.
    """
    n = values.size
    block = _progression_block(u)
    starts = u[::block]
    du = (u[-1] - u[0]) / (u.size - 1) if block > 1 else 0.0
    offsets = du * np.arange(block)
    weights = np.stack([np.ones(n), 1j * values, -(values * values)]) / n
    acc = np.zeros((starts.size, 3 * block), dtype=complex)
    chunk = max(1, _WORK_ENTRIES // (starts.size + 3 * block))
    for lo in range(0, n, chunk):
        y = values[lo : lo + chunk]
        outer = np.exp(1j * starts[:, None] * y)
        inner = weights[:, lo : lo + chunk, None] * np.exp(1j * y[:, None] * offsets)
        acc += outer @ inner.transpose(1, 0, 2).reshape(y.size, 3 * block)
    # acc[a, k * block + b] is phi_k at node a * block + b
    phi = acc.reshape(starts.size, 3, block).transpose(1, 0, 2).reshape(3, -1)
    return phi[0, : u.size], phi[1, : u.size], phi[2, : u.size]


def _curvature_ratio(phi0, phi1, phi2, delta: float):
    """Exponent curvature from a cf and its derivatives.

    (phi2 phi0 - phi1^2) / (delta phi0^2); algebraically equals psi''(u)
    when phi_k are the true derivatives of e^{delta psi}.
    """
    return (phi2 * phi0 - phi1 * phi1) / (delta * phi0 * phi0)


def psi2_from_increments(sample: IncrementSample) -> Psi2Estimate:
    """Curvature estimate from increments, zeroed off the trust region.

    The trust region is |phi(u)| >= (delta n)^{-1/2}; outside it the
    estimate is exactly 0 so downstream integrals simply drop those
    frequencies.
    """
    if sample.n < 2:
        raise InputError("need at least 2 increments")
    values = sample.values
    delta = sample.delta
    threshold = 1.0 / math.sqrt(delta * sample.n)

    def evaluate(u):
        scalar = np.isscalar(u) or np.ndim(u) == 0
        u_arr = np.atleast_1d(np.asarray(u, dtype=float))
        phi0, phi1, phi2 = _ecf_all(values, u_arr)
        trusted = np.abs(phi0) >= threshold
        # guard the division as well: off the trust region phi0 may be ~0
        safe0 = np.where(trusted, phi0, 1.0)
        vals = np.where(
            trusted, _curvature_ratio(safe0, phi1, phi2, delta), 0.0 + 0.0j
        )
        return vals[0] if scalar else vals

    return Psi2Estimate(eval=evaluate)


def read_increment_csv(path, delta: float) -> IncrementSample:
    """Load increments from a one-column CSV with header ``increment``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
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


def write_increment_csv(path, sample: IncrementSample) -> None:
    """Write increments in the format `read_increment_csv` accepts."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["increment"])
        for v in sample.values:
            writer.writerow([repr(float(v))])
