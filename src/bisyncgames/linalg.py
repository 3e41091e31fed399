"""Dense complex-matrix kernel used by every other module.

All matrices are dense two-dimensional ``numpy`` arrays with complex128
entries (real arrays are accepted and promoted).  Input whose imaginary part is
exactly zero (:func:`exact_real`) is decomposed in float64 by :func:`hermitian_eig`,
:func:`nullspace` and :func:`joint_commutant`, whose results are complex128 either
way.  Systems are built by broadcasting; tall nullspaces go through R.  The Kraus
commutant of an n = 8 Pauli (x) S_2 channel (ten real 8 x 8 operators) splits into
a 640 x 36 symmetric and a 640 x 28 antisymmetric part, where complex operators
would give one 1280 x 64 system.  ``qperm.commutation_subspace`` reads its
nullspace from an n^2 x n^2 Gram matrix under a certificate and hands its tall
system (1024 x 64 at n = 8, d = 4) to :func:`nullspace` only when that fails.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, InternalMismatch, NotHermitian, ShapeMismatch

DEFAULT_TOL = 1e-9

# Reconstruction slack for the spectral decomposition, in units of
# machine epsilon times the max-norm of the input.
_EIG_RECONSTRUCTION_FACTOR = 1e3


def check_tol(tol) -> None:
    """The one rule for a caller's ``tol``: a finite number > 0, else ``BadInput``.

    0 is refused, not read as "exact": every check compares deviations
    computed in floats, which an exact input still misses by rounding.
    """
    try:
        ok = math.isfinite(tol) and tol > 0
    except TypeError:
        ok = False
    if not ok:
        raise BadInput(f"tol must be a finite number > 0, not {tol!r}")


def numeric_array(a, what: str, real: bool = False, finite: bool = True) -> np.ndarray:
    """``a`` as a numpy array of numbers, without a copy when possible; ``BadInput`` otherwise.

    Refused, not cast: ragged nesting, strings and objects (numpy raises on
    some and parses others), complex entries when ``real`` (numpy would drop
    the imaginary part behind a warning) and, when ``finite``, NaN or ±inf.
    """
    try:
        arr = np.asarray(a)
    except ValueError:
        raise BadInput(f"{what} must be a rectangular array of numbers") from None
    if arr.dtype.kind not in ("buif" if real else "buifc"):
        kinds = "bool, int or float" if real else "bool, int, float or complex"
        raise BadInput(f"{what} entries must be {kinds}, not {arr.dtype}")
    if finite and not np.isfinite(arr).all():
        raise BadInput(f"{what} entries must be finite")
    return arr


def as_cmatrix(a) -> np.ndarray:
    """A finite :func:`numeric_array` as a 2-D complex128 array, without copying when possible."""
    m = numeric_array(a, "matrix").astype(np.complex128, copy=False)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    return m


def exact_real(a) -> np.ndarray:
    """``a`` as a contiguous float64 array if its imaginary part is exactly zero,
    else as complex128: real input runs the kernels in real arithmetic."""
    a = np.asarray(a, dtype=np.complex128)
    return a if a.imag.any() else np.ascontiguousarray(a.real)


def dagger(a) -> np.ndarray:
    """Conjugate transpose of the last two axes (of each matrix in a stack)."""
    return np.conj(np.asarray(a)).swapaxes(-1, -2)


def norm_max(a) -> float:
    """Largest entry magnitude; zero for empty input."""
    a = np.asarray(a)
    return float(np.abs(a).max()) if a.size else 0.0


def within(dev, tol: float, *inputs) -> bool:
    """The library's tolerance rule: ``dev <= tol * max(1, max-norm of the inputs)``.

    ``dev`` is a measured deviation of the inputs from a property; every
    check of the caller's input against the caller's ``tol`` goes through here.
    The max-norms are taken only when ``dev`` exceeds ``tol`` itself.
    """
    return bool(dev <= tol or dev <= tol * max([1.0] + [norm_max(a) for a in inputs]))


def vec(a) -> np.ndarray:
    """Row-major vectorization."""
    return np.asarray(a).reshape(-1)


def kron(a, b) -> np.ndarray:
    """Kronecker product: block (i, j) of the result equals a[i, j] * b."""
    return np.kron(as_cmatrix(a), as_cmatrix(b))


def is_hermitian(a, tol: float = DEFAULT_TOL) -> bool:
    check_tol(tol)
    a = as_cmatrix(a)
    return a.shape[0] == a.shape[1] and within(norm_max(a - dagger(a)), tol, a)


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns of a unitary matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ dagger(v)


def hermitian_eig(a, tol: float = DEFAULT_TOL) -> HermEig:
    """Full spectral decomposition of a Hermitian matrix.

    Raises NotHermitian when ``a`` is not square-Hermitian within ``tol``.
    The reconstruction V diag(w) V* is checked against ``a`` and an
    InternalMismatch is raised if it drifts beyond the documented bound.
    """
    a = as_cmatrix(a)
    if not is_hermitian(a, tol):
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {tol}")
    return _hermitian_eig(a)


def _hermitian_eig(a) -> HermEig:
    """hermitian_eig of the Hermitian part of the square complex128 matrix ``a``, not checked."""
    h = exact_real(0.5 * (a + dagger(a)))
    w, v = np.linalg.eigh(h)
    scale = max(norm_max(a), 1.0)
    bound = _EIG_RECONSTRUCTION_FACTOR * np.finfo(np.float64).eps * scale
    err = norm_max((v * w) @ dagger(v) - h)
    if err > bound:
        raise InternalMismatch(f"eigendecomposition residual {err} exceeds {bound}")
    return HermEig(w, v.astype(np.complex128, copy=False))


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``a`` has least eigenvalue >= -tol (scaled, see within)."""
    return within(-hermitian_eig(a, tol).eigenvalues[0], tol, a)


def is_projection(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``a`` is self-adjoint and idempotent within ``tol`` (entrywise, scaled)."""
    a = as_cmatrix(a)
    return is_hermitian(a, tol) and within(norm_max(a @ a - a), tol, a)


def nullspace(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``m``, one vector per row.

    Singular values at or below ``tol * max(1, sigma_max)`` count as zero.
    """
    check_tol(tol)
    m = exact_real(numeric_array(m, "matrix"))
    if m.size == 0 or m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    s, vh = _reduced_svd(m)
    return vh[np.sum(s > _cutoff(tol, s)):].conj().astype(np.complex128, copy=False)


def _reduced_svd(m):
    """(singular values, V*) of ``m``, with the full V* when ``m`` is wide.  A tall
    ``m`` is first reduced to its R factor, which has the same singular values and
    V*, so no U factor is formed."""
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    return _svd(m, full=m.shape[0] < m.shape[1])


def _svd(m, full: bool = False):
    """(singular values, V*) of ``m``."""
    try:
        _, s, vh = np.linalg.svd(m, full_matrices=full)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer driver (gesdd) fails to converge on
        # rare inputs that its QR-iteration driver (gesvd) takes
        import scipy.linalg

        _, s, vh = scipy.linalg.svd(m, full_matrices=full, lapack_driver="gesvd")
    return s, vh


def _cutoff(tol: float, *singular_values) -> float:
    """``tol * max(1, sigma_max)``, sigma_max taken over every given array of singular
    values: the values at or below it count as zero."""
    return tol * max([1.0] + [float(s[0]) for s in singular_values if s.size])


def joint_commutant(mats, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (trace inner product) of the joint commutant.

    Returns {A : A K = K A and A K* = K* A for every K in ``mats``},
    solved as the nullspace of the vectorized linear system.  All inputs
    must be square of equal size.
    """
    check_tol(tol)
    mats = [as_cmatrix(k) for k in mats]
    if not mats:
        raise ShapeMismatch("need at least one matrix")
    d = mats[0].shape[0]
    if any(k.shape != (d, d) for k in mats):
        raise ShapeMismatch("all matrices must be square of equal size")
    ops = exact_real(np.array(mats))
    if ops.dtype.kind == "f":
        return _real_commutant(ops, tol)
    basis_vecs = nullspace(_commutator_system(np.stack([ops, dagger(ops)], axis=1)), tol)
    return [v.reshape(d, d) for v in basis_vecs]


def _commutator_system(ops) -> np.ndarray:
    """The rows (I (x) op^T - op (x) I) of each d x d op in the stack ``ops``, stacked.

    vec(A op - op A) = (I (x) op^T - op (x) I) vec(A)  [row-major vec]; entry
    [(i, p), (j, q)] is [i = j] op[q, p] - op[i, j] [p = q].
    """
    d = ops.shape[-1]
    diag, system = np.arange(d), np.zeros(ops.shape[:-2] + (d,) * 4, dtype=ops.dtype)
    system[..., diag, :, diag, :] = ops.swapaxes(-1, -2)
    system[..., :, diag, :, diag] -= ops
    return system.reshape(-1, d * d)


def _real_commutant(ops, tol: float) -> list[np.ndarray]:
    """joint_commutant of real operators, posed on symmetric and antisymmetric parts.

    For real K and X = S + A, ||[X, K]||^2 + ||[X, K^T]||^2 = 2 ||[S, K]||^2 + 2 ||[A, K]||^2,
    so in orthonormal bases of the two parts the joint system is block diagonal,
    each block being sqrt 2 times the rows of K alone: the singular values of the
    two blocks are those of the joint system, and one cutoff spans both.
    """
    d = ops.shape[-1]
    system = np.sqrt(2.0) * _commutator_system(ops)
    bases = [b for b in _symmetric_bases(d) if len(b)]
    svds = [_reduced_svd(system @ b.T) for b in bases]
    cutoff = _cutoff(tol, *(s for s, _ in svds))
    null = [vh[np.sum(s > cutoff):] @ b for (s, vh), b in zip(svds, bases)]
    return list(np.concatenate(null).astype(np.complex128).reshape(-1, d, d))


@functools.lru_cache(maxsize=None)
def _symmetric_bases(d: int) -> tuple:
    """Orthonormal bases, as read-only rows of vectorized d x d matrices, of the
    symmetric and of the antisymmetric real matrices."""
    i, j = np.triu_indices(d, 1)
    pairs = np.arange(len(i))
    sym, anti = np.zeros((d + len(i), d, d)), np.zeros((len(i), d, d))
    sym[np.arange(d), np.arange(d), np.arange(d)] = 1.0
    sym[d + pairs, i, j] = sym[d + pairs, j, i] = anti[pairs, i, j] = np.sqrt(0.5)
    anti[pairs, j, i] = -np.sqrt(0.5)
    bases = sym.reshape(-1, d * d), anti.reshape(-1, d * d)
    for b in bases:
        b.setflags(write=False)
    return bases


def orthonormal_span(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal vectors (rows) spanning the given matrices' span."""
    check_tol(tol)
    if not mats:
        return np.zeros((0, 0), dtype=np.complex128)
    stack = np.vstack([vec(as_cmatrix(m)) for m in mats])
    s, vh = _svd(stack)
    return vh[:np.sum(s > _cutoff(tol, s))]


def residual_outside_span(basis, target) -> float:
    """Max-norm of the component of ``target`` outside span(basis).

    ``basis`` may be a list of matrices or an array of orthonormal row
    vectors as produced by :func:`orthonormal_span`.
    """
    t = vec(as_cmatrix(target))
    if isinstance(basis, np.ndarray) and basis.ndim == 2 and basis.shape[1] == t.size:
        q = basis
    else:
        q = orthonormal_span(basis)
    if q.shape[0] == 0:
        return norm_max(t)
    proj = q.T @ (q.conj() @ t)
    return norm_max(t - proj)


def span_containment_residual(basis_a, basis_b, tol: float = DEFAULT_TOL) -> float:
    """Largest residual of any element of span(basis_a) outside span(basis_b)."""
    return _containment_residual(orthonormal_span(basis_a, tol), orthonormal_span(basis_b, tol))


def _containment_residual(qa, qb) -> float:
    """span_containment_residual for spans given as orthonormal rows."""
    if qa.shape[0] == 0:
        return 0.0
    if qb.shape[0] == 0:
        return float(np.abs(qa).max())
    proj = qa - (qa @ qb.conj().T) @ qb
    return float(np.linalg.norm(proj, axis=1).max())
