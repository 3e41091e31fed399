"""Linear maps induced by densities: Choi matrices, channel checks, Kraus forms.

A density p(a, b | x, y) with n inputs and k outputs induces the map
Phi(E_xy) = sum_ab p(a, b | x, y) E_ab from n x n to k x k matrices.  The
map is stored through its Choi matrix C = sum_xy E_xy (x) Phi(E_xy),
with the input factor first, so C[(x, a), (y, b)] = p(a, b | x, y).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .densities import Density, PermutationMixture, from_permutation, mixture_density, validate
from .errors import (
    BadInput,
    InternalMismatch,
    InvalidDensity,
    NotCP,
    NotHermitian,
    NotUnitalChannel,
    ShapeMismatch,
)
from .linalg import DEFAULT_TOL, dagger, norm_max, within
from .report import Report


@dataclass(frozen=True)
class ChoiMap:
    """Choi matrix of a linear map from n x n to k x k matrices, kept as a
    private read-only copy so that it is diagonalized at most once."""

    n: int
    k: int
    choi: np.ndarray

    def __post_init__(self):
        c = np.array(self.choi, dtype=np.complex128)
        if c.shape != (self.n * self.k, self.n * self.k):
            raise ShapeMismatch("Choi matrix must be (n k) x (n k)")
        c.flags.writeable = False
        object.__setattr__(self, "choi", c)
        object.__setattr__(self, "_eig", None)  # see _choi_eig

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __post_init__: a fresh frozen copy, no cache
        return ChoiMap, (self.n, self.k, self.choi)


def _choi_eig(m: ChoiMap) -> linalg.HermEig:
    """hermitian_eig of the Choi matrix, cached; callers check Hermiticity at their own tol."""
    if m._eig is None:
        object.__setattr__(m, "_eig", linalg.hermitian_eig(m.choi, np.inf))
    return m._eig


def phi_from_density(d: Density, tol: float = DEFAULT_TOL) -> ChoiMap:
    """Choi matrix of the map induced by a valid density.

    The density determines the map uniquely; :func:`density_tensor`
    recovers it exactly.
    """
    if not validate(d, tol):
        raise InvalidDensity("phi_from_density needs a valid density")
    if not d.square:
        raise ShapeMismatch("need nA = nB and kA = kB")
    return choi_from_tensor(d.p)


def choi_from_tensor(p: np.ndarray) -> ChoiMap:
    """Choi matrix from a raw (possibly non-density) tensor p[x, y, a, b]."""
    p = np.asarray(p, dtype=np.complex128)
    n, k = p.shape[0], p.shape[2]
    return ChoiMap(n, k, p.transpose(0, 2, 1, 3).reshape(n * k, n * k))


def density_tensor(m: ChoiMap) -> np.ndarray:
    """The tensor p[x, y, a, b] encoded in the Choi matrix (exact round trip)."""
    n, k = m.n, m.k
    return m.choi.reshape(n, k, n, k).transpose(0, 2, 1, 3)


def density_from_choi(m: ChoiMap) -> Density:
    t = density_tensor(m)
    if norm_max(t.imag) > 0:
        raise InvalidDensity("Choi matrix encodes complex weights")
    return Density(t.real)


def apply_map(m: ChoiMap, x) -> np.ndarray:
    """Evaluate the map: Phi(X) = sum_xy X[x, y] Phi(E_xy)."""
    x = linalg.as_cmatrix(x)
    if x.shape != (m.n, m.n):
        raise ShapeMismatch(f"argument must be {m.n} x {m.n}")
    return np.einsum("xyab,xy->ab", density_tensor(m), x)


def identity_map(n: int) -> ChoiMap:
    return choi_from_tensor(from_permutation(range(n)).p)


def compose_maps(outer: ChoiMap, inner: ChoiMap) -> ChoiMap:
    """Choi matrix of outer . inner."""
    if inner.k != outer.n:
        raise ShapeMismatch("inner output dimension must match outer input dimension")
    q = density_tensor(outer)
    p = density_tensor(inner)
    r = np.einsum("xyab,vwxy->vwab", q, p)
    return choi_from_tensor(r)


# Max-norm deviation of a map from each checked property; the predicates
# and channel_report both read these values.
_DEVIATIONS = {
    "hermiticity_preserving": lambda m: norm_max(m.choi - dagger(m.choi)),
    "trace_preserving": lambda m: norm_max(
        np.einsum("xyaa->xy", density_tensor(m)) - np.eye(m.n)),
    "unital": lambda m: norm_max(apply_map(m, np.eye(m.n)) - np.eye(m.k)),
    "preserves_all_ones": lambda m: norm_max(
        apply_map(m, np.ones((m.n, m.n))) - np.ones((m.k, m.k))),
    "preserves_entry_sum": lambda m: norm_max(
        np.einsum("xyab->xy", density_tensor(m)) - np.ones((m.n, m.n))),
}


def _check(m: ChoiMap, name: str, tol: float) -> tuple:
    """(passed, deviation), the tolerance scaled by the Choi matrix (linalg.within)."""
    dev = _DEVIATIONS[name](m)
    return within(dev, tol, m.choi), dev


def is_hermiticity_preserving(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    return _check(m, "hermiticity_preserving", tol)[0]


def is_cp(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    """Complete positivity: the Choi matrix is positive semidefinite."""
    return (_check(m, "hermiticity_preserving", tol)[0]
            and within(-_choi_eig(m).eigenvalues[0], tol, m.choi))


def is_tp(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    """Trace preservation: tr Phi(E_xy) = delta_xy, i.e. the partial trace
    of the Choi matrix over the output factor is the identity."""
    return _check(m, "trace_preserving", tol)[0]


def is_unital(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    return _check(m, "unital", tol)[0]


def preserves_J(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the all-ones matrix maps to the all-ones matrix."""
    return _check(m, "preserves_all_ones", tol)[0]


def preserves_sigma(m: ChoiMap, tol: float = DEFAULT_TOL) -> bool:
    """Whether the entry-sum functional is preserved on every matrix unit."""
    return _check(m, "preserves_entry_sum", tol)[0]


def noncp_spectral_margin(m: ChoiMap, tol: float = DEFAULT_TOL) -> float:
    """How far the Choi spectrum sits from the nonnegative reals.

    Zero for PSD Choi matrices.  For a Choi matrix Hermitian at ``tol``
    this is max(0, -(least eigenvalue)); otherwise it is the largest
    distance of any (complex) eigenvalue from the set of nonnegative
    reals.  Any positive value certifies the map is not completely
    positive.  :func:`channel_report` at the same ``tol`` takes the same route.
    """
    return _cp_with_margin(m, tol)[1]


def _cp_with_margin(m: ChoiMap, tol: float) -> tuple:
    """(is_cp(m, tol), spectral non-CP margin), both on the route Hermiticity at ``tol`` picks."""
    if not is_hermiticity_preserving(m, tol):
        ev = np.linalg.eigvals(m.choi)
        return False, float(np.where(ev.real >= 0, np.abs(ev.imag), np.abs(ev)).max())
    least = float(_choi_eig(m).eigenvalues[0])
    return within(-least, tol, m.choi), max(0.0, -least)


def min_choi_eigenvalue(m: ChoiMap, tol: float = DEFAULT_TOL) -> float:
    """Least eigenvalue of the Choi matrix; NotHermitian unless it is Hermitian at ``tol``."""
    if not is_hermiticity_preserving(m, tol):
        raise NotHermitian("Choi matrix is not Hermitian; see noncp_spectral_margin")
    return float(_choi_eig(m).eigenvalues[0])


def channel_report(m: ChoiMap, tol: float = DEFAULT_TOL) -> Report:
    """All channel-property checks in a fixed order."""
    rep = Report("map check")
    rep.add("hermiticity_preserving", *_check(m, "hermiticity_preserving", tol))
    cp, margin = _cp_with_margin(m, tol)
    rep.add("completely_positive", cp, margin,
            None if margin == 0 else f"spectral non-CP margin {margin:.6g}")
    square = ("unital", "preserves_all_ones") if m.n == m.k else ()
    for name in ("trace_preserving", *square, "preserves_entry_sum"):
        rep.add(name, *_check(m, name, tol))
    return rep


def adjoint_map(m: ChoiMap) -> ChoiMap:
    """Adjoint for the trace pairing: Phi*(E_ab) = sum_xy p(a, b | x, y) E_xy."""
    t = density_tensor(m)
    return choi_from_tensor(t.transpose(2, 3, 0, 1))


@dataclass(frozen=True)
class KrausSet:
    """One or more operators K_i, all n x k, with Phi(X) = sum_i K_i* X K_i."""

    operators: tuple

    def __post_init__(self):
        ops = tuple(linalg.as_cmatrix(k) for k in self.operators)
        if not ops:
            raise BadInput("a Kraus set needs at least one operator")
        if any(k.shape != ops[0].shape for k in ops):
            raise ShapeMismatch("Kraus operators must share a shape")
        object.__setattr__(self, "operators", ops)

    def apply(self, x) -> np.ndarray:
        x = linalg.as_cmatrix(x)
        n = self.operators[0].shape[0]
        if x.shape != (n, n):
            raise ShapeMismatch(f"argument must be {n} x {n}")
        return sum(dagger(k) @ x @ k for k in self.operators)


def kraus_from_choi(m: ChoiMap, tol: float = DEFAULT_TOL) -> KrausSet:
    """Kraus operators from the Choi eigendecomposition.

    Eigenpairs with eigenvalue above ``tol`` times the top eigenvalue
    contribute one operator each; orthogonality of eigenvectors makes
    the operators linearly independent.
    """
    return _kraus_with_residual(m, tol)[0]


def _kraus_with_residual(m: ChoiMap, tol: float) -> tuple:
    """(kraus_from_choi(m, tol), max-norm deviation of its Choi matrix from m's)."""
    if not is_cp(m, tol):
        raise NotCP("Kraus extraction requires a completely positive map")
    eig = _choi_eig(m)
    lam = eig.eigenvalues
    keep = lam > tol * max(float(lam[-1]), 1.0)
    ops = np.conj(np.sqrt(lam[keep]) * eig.eigenvectors[:, keep]).T.reshape(-1, m.n, m.k)
    kraus = KrausSet(tuple(ops) or (np.zeros((m.n, m.k), dtype=np.complex128),))
    worst = norm_max(choi_from_kraus(kraus, m.n, m.k).choi - m.choi)
    # the Kraus form is the Hermitian part of C less its dropped eigenpairs,
    # so it may miss C by C's asymmetry and their eigenvalues, as is_cp allowed
    allowed = (_DEVIATIONS["hermiticity_preserving"](m) / 2
               + float(np.abs(lam[~keep]).sum()))
    if worst > 1e-7 * max(1.0, norm_max(m.choi)) + allowed:
        raise InternalMismatch(f"Kraus form deviates from the map by {worst}")
    return kraus, worst


def choi_from_kraus(ks: KrausSet, n: int, k: int) -> ChoiMap:
    """C[(x, a), (y, b)] = sum_i conj(K_i[x, a]) K_i[y, b], for operators K_i of shape n x k."""
    if any(op.shape != (n, k) for op in ks.operators):
        raise ShapeMismatch(f"Kraus operators must be {n} x {k}")
    ops = np.reshape(ks.operators, (-1, n, k))
    return ChoiMap(n, k, np.einsum("ixa,iyb->xayb", ops.conj(), ops).reshape(n * k, n * k))


def fixed_point_set(m: ChoiMap, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of Fix(Phi) = {A : Phi(A) = A} for a unital channel.

    Computed as the nullspace of (Phi - id) in vectorized form and
    cross-checked against the joint commutant of the Kraus operators;
    a dimension disagreement raises InternalMismatch.
    """
    return _fixed_point_bases(m, tol)[0]


def _fixed_point_bases(m: ChoiMap, tol: float):
    """(eigenspace basis, Kraus-commutant basis) of Fix(Phi); see fixed_point_set."""
    if m.n != m.k:
        raise NotUnitalChannel("fixed points need equal input and output dimensions")
    if not (is_unital(m, tol) and is_tp(m, tol)):
        raise NotUnitalChannel("fixed_point_set requires a unital channel")
    try:
        kraus = kraus_from_choi(m, tol)
    except NotCP:
        raise NotUnitalChannel("fixed_point_set requires a unital channel") from None
    n = m.n
    super_op = density_tensor(m).transpose(2, 3, 0, 1).reshape(n * n, n * n)
    basis_vecs = linalg.nullspace(super_op - np.eye(n * n), tol)
    fixed = [v.reshape(n, n) for v in basis_vecs]
    commutant = linalg.joint_commutant(kraus.operators, tol)
    if len(commutant) != len(fixed):
        raise InternalMismatch(
            f"eigenspace dimension {len(fixed)} != Kraus-commutant dimension {len(commutant)}")
    return fixed, commutant


def is_schur_closed(basis, tol: float = DEFAULT_TOL) -> bool:
    """Whether every entrywise product of two basis elements stays in the span."""
    mats = [linalg.as_cmatrix(b) for b in basis]
    if not mats:
        return True
    shape = mats[0].shape
    if any(b.shape != shape for b in mats):
        raise ShapeMismatch("basis elements must share a shape")
    return _schur_closed(mats, linalg.orthonormal_span(mats, tol), tol)


def _schur_closed(mats, span, tol: float) -> bool:
    """is_schur_closed given the span's orthonormal rows; projects one row a * basis at a time."""
    stack = np.array([linalg.vec(b) for b in mats], dtype=np.complex128)
    worst = 0.0
    for a in stack:
        prods = a * stack
        worst = max(worst, norm_max(prods - (prods @ span.conj().T) @ span))
    return worst <= tol * 10 * max(1.0, norm_max(stack) ** 2)


def mixed_permutation_map(mix: PermutationMixture) -> ChoiMap:
    """The map X -> sum_j w_j U_j* X U_j over permutation matrices U_j.

    Equals the map induced by the corresponding mixture density.
    """
    return phi_from_density(mixture_density(mix))
