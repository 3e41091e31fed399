"""Vector strategies: certificates for the vectorial correlation class.

A strategy is an n x k grid of vectors h[x, a] in a complex inner-product
space.  The bisynchronous conditions make the grid a "vector
permutation": rows and columns are orthogonal families, and every row
sum and column sum equals one common unit vector.  The Gram pairings
<h[x, a], h[y, b]> then form a bisynchronous density.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import Density
from .errors import (
    NegativeEntry,
    NonRealGram,
    PreconditionFailed,
    ShapeMismatch,
)
from .games import as_permutation
from .linalg import DEFAULT_TOL, within
from .qperm import ProjectiveSystem, ensure_verified
from .report import Report


@dataclass(frozen=True)
class VectorStrategy:
    """vectors[x, a] is the m-dimensional vector attached to (input, output)."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=np.complex128)
        if v.ndim != 3 or min(v.shape) < 1:
            raise ShapeMismatch("vectors must form an (n, k, m) array")
        object.__setattr__(self, "vectors", v)

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    @property
    def m(self) -> int:
        return self.vectors.shape[2]


def gram_tensor(v: VectorStrategy) -> np.ndarray:
    """g[x, y, a, b] = <h[x, a], h[y, b]> (conjugation on the first slot)."""
    return np.einsum("xam,ybm->xyab", v.vectors.conj(), v.vectors)


def _first_max(vals: np.ndarray):
    """The largest entry of ``vals`` and the index of its first occurrence in row-major order."""
    i = np.unravel_index(int(vals.argmax()), vals.shape)
    return float(vals[i]), i


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| entrywise, rounded as abs() of one complex number is (np.abs of a
    complex array may differ in the last bit)."""
    return np.hypot(z.real, z.imag)


def verify_bisync_vect(v: VectorStrategy, tol: float = DEFAULT_TOL) -> Report:
    """Check the vector-permutation conditions; the report is exhaustive.

    (i) rows are orthogonal families, (ii) columns are orthogonal
    families, (iii) every row sum and column sum equals one common
    vector h, and h is a unit vector.
    """
    if v.n != v.k:
        raise ShapeMismatch("bisynchronous vector strategies need n = k")
    rep = Report("vect verify")
    g = gram_tensor(v)
    n = v.n

    def ok(dev):
        return within(dev, tol, v.vectors)

    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    # |<h[x, a], h[x, b]>| over (x, a, b) with a < b, in that order
    worst, (x, a, b) = _first_max(np.where(upper, _modulus(g[np.arange(n), np.arange(n)]), 0.0))
    rep.add("row_orthogonality", ok(worst), worst,
            f"<h[{x},{a}], h[{x},{b}]> = {g[x, x, a, b]:.3e}" if worst else None)

    # |<h[x, a], h[y, a]>| over (a, x, y) with x < y, in that order
    worst, (a, x, y) = _first_max(np.where(upper, _modulus(np.einsum("xyaa->axy", g)), 0.0))
    rep.add("column_orthogonality", ok(worst), worst,
            f"<h[{x},{a}], h[{y},{a}]> = {g[x, y, a, a]:.3e}" if worst else None)

    row_sums = v.vectors.sum(axis=1)  # [x, m]
    col_sums = v.vectors.sum(axis=0)  # [a, m]
    h = row_sums[0]
    # the rows' deviations from h, then the columns'
    worst, (i,) = _first_max(np.abs(np.concatenate([row_sums, col_sums]) - h).max(axis=1))
    wit = (f"row sum at x={i} deviates from the common vector" if i < n
           else f"column sum at a={i - n} deviates from the common vector")
    rep.add("sums_agree", ok(worst), worst, wit if worst else None)

    unit_dev = abs(float(np.linalg.norm(h)) - 1.0)
    rep.add("sum_is_unit_vector", ok(unit_dev), unit_dev,
            f"|h| = {np.linalg.norm(h):.12g}")
    return rep


def _gram_to_density(g: np.ndarray, tol: float) -> Density:
    imag = float(np.abs(g.imag).max())
    if not within(imag, tol, g):
        idx = np.unravel_index(int(np.abs(g.imag).argmax()), g.shape)
        raise NonRealGram(f"imaginary part {imag:.3e} at {idx}")
    real = g.real
    if not within(-real.min(), tol, g):
        idx = np.unravel_index(int(real.argmin()), g.shape)
        raise NegativeEntry(f"entry {real[idx]:.3e} at {idx}")
    return Density(real)


def density_from_vectors(v: VectorStrategy, tol: float = DEFAULT_TOL) -> Density:
    """The density of Gram pairings of a verified strategy."""
    rep = verify_bisync_vect(v, tol)
    if not rep.passed:
        raise PreconditionFailed(
            f"strategy fails verification: {', '.join(rep.failed_names())}")
    return _gram_to_density(gram_tensor(v), tol)


def vect_from_projective(sys: ProjectiveSystem,
                         tol: float = DEFAULT_TOL) -> VectorStrategy:
    """Embed a verified projective system as vectors.

    Block entries are flattened with weight sqrt(w / d) so the Gram
    pairings reproduce the trace pairings tau(E[x, a] E[y, b]) exactly.
    """
    ensure_verified(sys, tol)
    n, k = sys.n, sys.k
    m = sum(d * d for d in sys.dims)
    out = np.zeros((n, k, m), dtype=np.complex128)
    offset = 0
    for g, w in zip(sys.grids, sys.weights):
        d = g.shape[2]
        scale = np.sqrt(w / d)
        out[:, :, offset:offset + d * d] = scale * g.reshape(n, k, d * d)
        offset += d * d
    return VectorStrategy(out)


def permutation_strategy(sigma) -> VectorStrategy:
    """Canonical one-dimensional witness of a classical permutation."""
    sigma = as_permutation(sigma)
    return VectorStrategy(np.eye(len(sigma))[sigma][:, :, None])
