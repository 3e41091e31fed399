"""Dense complex-matrix kernel used by every other module.

All matrices are dense two-dimensional ``numpy`` arrays with complex128
entries (real arrays are accepted and promoted).  Systems are built by broadcasting
and reach 1024 x 64 (commutation, n = 8, d = 4); tall nullspaces go through R.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalMismatch, NotHermitian, ShapeMismatch

DEFAULT_TOL = 1e-9

# Reconstruction slack for the spectral decomposition, in units of
# machine epsilon times the max-norm of the input.
_EIG_RECONSTRUCTION_FACTOR = 1e3


def as_cmatrix(a) -> np.ndarray:
    """Coerce to a 2-D complex128 array without copying when possible."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
        raise ShapeMismatch(f"expected a nonempty 2-D matrix, got shape {m.shape}")
    return m


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
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return within(norm_max(a - dagger(a)), tol, a)


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
    if a.shape[0] != a.shape[1] or not is_hermitian(a, tol):
        raise NotHermitian(f"matrix of shape {a.shape} is not Hermitian within {tol}")
    h = 0.5 * (a + dagger(a))
    w, v = np.linalg.eigh(h)
    out = HermEig(w, v)
    scale = max(norm_max(a), 1.0)
    bound = _EIG_RECONSTRUCTION_FACTOR * np.finfo(np.float64).eps * scale
    err = norm_max(out.reconstruct() - h)
    if err > bound:
        raise InternalMismatch(f"eigendecomposition residual {err} exceeds {bound}")
    return out


def is_psd(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff the Hermitian matrix ``a`` has least eigenvalue >= -tol (scaled, see within)."""
    a = as_cmatrix(a)
    return within(-hermitian_eig(a, tol).eigenvalues[0], tol, a)


def is_projection(a, tol: float = DEFAULT_TOL) -> bool:
    """True iff ``a`` is self-adjoint and idempotent within ``tol`` (entrywise, scaled)."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        return False
    return within(norm_max(a - dagger(a)), tol, a) and within(norm_max(a @ a - a), tol, a)


def nullspace(m, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal basis of the right nullspace of ``m``, one vector per row.

    Singular values at or below ``tol * max(1, sigma_max)`` count as zero.
    Wide input needs the full V*; tall input is first reduced to its R factor,
    which has the same singular values and V*, so no U factor is formed.
    """
    m = np.asarray(m, dtype=np.complex128)
    if m.size == 0 or m.shape[0] == 0:
        return np.eye(m.shape[1], dtype=np.complex128)
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    rank, vh = _ranked_svd(m, tol, full=m.shape[0] < m.shape[1])
    return vh[rank:].conj()


def _ranked_svd(m, tol: float, full: bool = False):
    """(rank, V*) of ``m``, counting singular values above ``tol * max(1, sigma_max)``."""
    try:
        _, s, vh = np.linalg.svd(m, full_matrices=full)
    except np.linalg.LinAlgError:
        # LAPACK's divide-and-conquer driver (gesdd) fails to converge on
        # rare inputs that its QR-iteration driver (gesvd) takes
        import scipy.linalg

        _, s, vh = scipy.linalg.svd(m, full_matrices=full, lapack_driver="gesvd")
    cutoff = tol * max(1.0, s[0] if s.size else 0.0)
    return int(np.sum(s > cutoff)), vh


def joint_commutant(mats, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis (trace inner product) of the joint commutant.

    Returns {A : A K = K A and A K* = K* A for every K in ``mats``},
    solved as the nullspace of the vectorized linear system.  All inputs
    must be square of equal size.
    """
    mats = [as_cmatrix(k) for k in mats]
    if not mats:
        raise ShapeMismatch("need at least one matrix")
    d = mats[0].shape[0]
    for k in mats:
        if k.shape != (d, d):
            raise ShapeMismatch("all matrices must be square of equal size")
    ops = np.array(mats)
    ops = np.stack([ops, ops.conj().swapaxes(1, 2)], axis=1)  # K, K*, for each K
    # vec(A op - op A) = (I (x) op^T - op (x) I) vec(A)  [row-major vec]; entry
    # [(i, p), (j, q)] is [i = j] op[q, p] - op[i, j] [p = q].
    diag, system = np.arange(d), np.zeros(ops.shape[:2] + (d,) * 4, dtype=np.complex128)
    system[:, :, diag, :, diag, :] = ops.swapaxes(2, 3)
    system[:, :, :, diag, :, diag] -= ops
    basis_vecs = nullspace(system.reshape(-1, d * d), tol)
    return [v.reshape(d, d) for v in basis_vecs]


def orthonormal_span(mats, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal vectors (rows) spanning the given matrices' span."""
    if not mats:
        return np.zeros((0, 0), dtype=np.complex128)
    stack = np.vstack([vec(as_cmatrix(m)) for m in mats])
    rank, vh = _ranked_svd(stack, tol)
    return vh[:rank]


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
