"""Finite-dimensional projective systems and quantum permutations.

A projective system is an n x k grid of d x d projections E[x, a] with
row sums equal to the identity and columnwise orthogonality
E[x, a] E[y, a] = 0 for x != y.  The ancilla may be a weighted direct
sum of matrix blocks; the state tau is the weighted normalized trace,
tau(A) = sum_i w_i tr(A_i) / d_i, which covers every finite-dimensional
tracial state up to isomorphism.

When n = k and columns also sum to the identity, the grid is a quantum
permutation (magic unitary): the big block matrix u with (x, a) block
E[x, a] is unitary.  Such systems induce bisynchronous densities
p(a, b | x, y) = tau(E[x, a] E[y, b]) and evaluate the factorizable map
X -> (id (x) tau)(u* (X (x) 1) u).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import cpmaps, linalg
from .densities import Density
from .errors import (
    BadInput,
    InternalMismatch,
    ShapeMismatch,
    UnverifiedSystem,
)
from .games import Graph, index_rows
from .linalg import DEFAULT_TOL, dagger, kron, norm_max, within
from .report import Report


@dataclass(frozen=True)
class ProjectiveSystem:
    """Grids of projections over a weighted direct-sum ancilla.

    ``grids[i]`` has shape (n, k, d_i, d_i); ``weights[i]`` is the trace
    weight of block i.  Weights are positive and sum to one so the
    induced trace is a faithful state.  The grids are private read-only
    copies, so a pass of :func:`verify_system` stays true and is remembered.
    """

    grids: tuple
    weights: tuple

    def __post_init__(self):
        grids = tuple(linalg.numeric_array(g, "grid").astype(np.complex128) for g in self.grids)
        weights = tuple(float(w) for w in self.weights)
        if not grids or len(grids) != len(weights):
            raise BadInput("need one weight per ancilla block")
        for g in grids:
            if (g.ndim != 4 or g.shape[:2] != grids[0].shape[:2] or g.shape[2] != g.shape[3]
                    or g.size == 0):
                raise BadInput("each block must be an (n, k, d, d) array, with n, k, d >= 1")
            g.flags.writeable = False
        if not np.isfinite(weights).all():
            raise BadInput("block weights must be finite")
        if min(weights) <= 0 or abs(sum(weights) - 1.0) > 1e-9:
            raise BadInput("block weights must be positive and sum to one")
        object.__setattr__(self, "grids", grids)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_verified_tol", None)  # least tol verify_system passed at

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __post_init__: fresh frozen grids, no memo
        return ProjectiveSystem, (self.grids, self.weights)

    @property
    def n(self) -> int:
        return self.grids[0].shape[0]

    @property
    def k(self) -> int:
        return self.grids[0].shape[1]

    @property
    def dims(self) -> tuple:
        return tuple(g.shape[2] for g in self.grids)

    def tau_of_products(self) -> np.ndarray:
        """t[x, a, y, b] = tau(E[x, a] E[y, b])."""
        n, k = self.n, self.k
        out = np.zeros((n, k, n, k), dtype=np.complex128)
        for g, w in zip(self.grids, self.weights):
            d = g.shape[2]
            out += (w / d) * np.einsum("xaij,ybji->xayb", g, g)
        return out


# A quantum permutation is a square projective system whose columns also
# sum to the identity; the same dataclass carries both.
QuantumPermutation = ProjectiveSystem


def big_matrices(sys: ProjectiveSystem) -> list[np.ndarray]:
    """Per-block (n d) x (k d) matrix with (x, a) block E[x, a]."""
    out = []
    for g in sys.grids:
        n, k, d, _ = g.shape
        out.append(g.transpose(0, 2, 1, 3).reshape(n * d, k * d))
    return out


def verify_system(sys: ProjectiveSystem, tol: float = DEFAULT_TOL) -> Report:
    """Check all defining relations; the report carries one line per relation.

    Each deviation is held to ``tol`` scaled by the blocks (:func:`linalg.within`).
    A pass is remembered on ``sys``: :func:`ensure_verified` at this or a
    looser ``tol`` does not verify again.
    """
    linalg.check_tol(tol)
    n, k = sys.n, sys.k
    rep = Report("qperm verify")
    proj = np.array([np.maximum(np.abs(g - dagger(g)).max(axis=(2, 3)),
                                np.abs(g @ g - g).max(axis=(2, 3))) for g in sys.grids])
    proj_dev = float(proj.max())
    wb, wx, wa = np.unravel_index(int(proj.argmax()), proj.shape)  # first maximum
    ra, rb = np.triu_indices(k, 1)
    cx, cy = np.triu_indices(n, 1)
    row_dev = row_orth_dev = col_orth_dev = pa_proj_dev = pa_sum_dev = col_dev = 0.0
    for g in sys.grids:
        eye = np.eye(g.shape[2])
        p_ops = g.sum(axis=0)  # p_a = sum_x E[x, a]
        row_dev = max(row_dev, norm_max(g.sum(axis=1) - eye))
        row_orth_dev = max(row_orth_dev, norm_max(g[:, ra] @ g[:, rb]))
        col_orth_dev = max(col_orth_dev, norm_max(g[cx] @ g[cy]))
        pa_proj_dev = max(pa_proj_dev, norm_max(p_ops - dagger(p_ops)),
                          norm_max(p_ops @ p_ops - p_ops))
        pa_sum_dev = max(pa_sum_dev, norm_max(p_ops.sum(axis=0) - n * eye))
        # per column: numpy sums a strided column in another order than it sums p_ops
        col_dev = max(col_dev, *(norm_max(g[:, a].sum(axis=0) - eye) for a in range(k)))

    def ok(dev):
        return within(dev, tol, *sys.grids)

    rep.add("projections", ok(proj_dev), proj_dev,
            f"block {wb}, E[x={wx},a={wa}]" if proj_dev > 0 else None)
    rep.add("row_sums", ok(row_dev), row_dev)
    rep.add("row_orthogonality", ok(row_orth_dev), row_orth_dev)
    rep.add("column_orthogonality", ok(col_orth_dev), col_orth_dev)
    rep.add("column_marginals_projections", ok(pa_proj_dev), pa_proj_dev)
    rep.add("column_marginals_sum", ok(pa_sum_dev), pa_sum_dev)
    rep.add("input_output_bound", n <= k, float(max(0, n - k)),
            None if n <= k else f"n = {n} > k = {k}")
    if n == k:
        unit_dev = 0.0
        for big in big_matrices(sys):
            eye_big = np.eye(big.shape[0])
            unit_dev = max(unit_dev, norm_max(dagger(big) @ big - eye_big),
                           norm_max(big @ dagger(big) - eye_big))
        rep.add("column_sums", ok(col_dev), col_dev)
        rep.add("unitarity", ok(unit_dev), unit_dev)
    if rep.passed and (sys._verified_tol is None or tol < sys._verified_tol):
        object.__setattr__(sys, "_verified_tol", tol)
    return rep


def ensure_verified(sys: ProjectiveSystem, tol: float = DEFAULT_TOL) -> None:
    linalg.check_tol(tol)  # before the memo, which a tol of inf would pass
    if sys._verified_tol is not None and tol >= sys._verified_tol:
        return
    rep = verify_system(sys, tol)
    if not rep.passed:
        raise UnverifiedSystem(f"system fails: {', '.join(rep.failed_names())}")


def induced_density(sys: ProjectiveSystem, tol: float = DEFAULT_TOL) -> Density:
    """p(a, b | x, y) = tau(E[x, a] E[y, b]); always bisynchronous."""
    ensure_verified(sys, tol)
    t = sys.tau_of_products()
    if not within(norm_max(t.imag), tol, *sys.grids):
        raise InternalMismatch("trace pairings are not real")
    return Density(t.real.transpose(0, 2, 1, 3))


def from_permutation(sigma) -> QuantumPermutation:
    """The d = 1 quantum permutation of a classical permutation."""
    sigma = index_rows([sigma], "permutation")[0]
    return ProjectiveSystem((np.eye(len(sigma))[sigma][:, :, None, None],), (1.0,))


def direct_sum(u1: ProjectiveSystem, u2: ProjectiveSystem,
               w1: float, w2: float) -> ProjectiveSystem:
    """Ancilla direct sum with trace weights (w1, w2), checked as block weights."""
    if (u1.n, u1.k) != (u2.n, u2.k):
        raise BadInput("summands must share input and output counts")
    grids = u1.grids + u2.grids
    weights = tuple(w1 * w for w in u1.weights) + tuple(w2 * w for w in u2.weights)
    return ProjectiveSystem(grids, weights)


def conjugate(sys: ProjectiveSystem, unitaries) -> ProjectiveSystem:
    """Conjugate every entry blockwise: E[x, a] -> W* E[x, a] W.

    ``unitaries`` is one matrix per block (a single matrix is accepted
    for single-block systems).  The induced density is unchanged.
    """
    if isinstance(unitaries, np.ndarray) or not isinstance(unitaries, (list, tuple)):
        unitaries = [unitaries]
    ws = [linalg.as_cmatrix(w) for w in unitaries]
    if len(ws) != len(sys.grids):
        raise BadInput("need one unitary per ancilla block")
    new_grids = []
    for g, w in zip(sys.grids, ws):
        d = g.shape[2]
        if w.shape != (d, d) or norm_max(dagger(w) @ w - np.eye(d)) > 1e-9:
            raise BadInput("conjugators must be unitaries of the block dimension")
        new_grids.append(np.einsum("ij,xajk,kl->xail", dagger(w), g, w))
    return ProjectiveSystem(tuple(new_grids), sys.weights)


def block_pair(p, q) -> QuantumPermutation:
    """The classical two-block magic unitary on four points.

    Rows 0-1 play (p, 1-p) and rows 2-3 play (q, 1-q) for projections
    p, q of a common dimension.
    """
    p, q = linalg.as_cmatrix(p), linalg.as_cmatrix(q)
    if p.shape != q.shape or p.shape[0] != p.shape[1]:
        raise BadInput("p and q must be square projections of equal size")
    if not (linalg.is_projection(p, 1e-9) and linalg.is_projection(q, 1e-9)):
        raise BadInput("block_pair needs projections")
    d = p.shape[0]
    z = np.zeros((d, d), dtype=np.complex128)
    eye = np.eye(d, dtype=np.complex128)
    rows = [
        [p, eye - p, z, z],
        [eye - p, p, z, z],
        [z, z, q, eye - q],
        [z, z, eye - q, q],
    ]
    g = np.array(rows, dtype=np.complex128)
    return ProjectiveSystem((g,), (1.0,))


def transpose_system(sys: ProjectiveSystem) -> ProjectiveSystem:
    """Swap the roles of inputs and outputs: E'[a, x] = E[x, a]."""
    return ProjectiveSystem(tuple(g.transpose(1, 0, 2, 3) for g in sys.grids),
                            sys.weights)


def factorizable_apply(sys: QuantumPermutation, x,
                       tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evaluate (id (x) tau)(u* (X (x) 1) u) by explicit block arithmetic."""
    x = linalg.as_cmatrix(x)
    n, k = sys.n, sys.k
    if x.shape != (n, n):
        raise ShapeMismatch(f"argument must be {n} x {n}")
    ensure_verified(sys, tol)
    out = np.zeros((k, k), dtype=np.complex128)
    for g, w, big in zip(sys.grids, sys.weights, big_matrices(sys)):
        d = g.shape[2]
        m = dagger(big) @ kron(x, np.eye(d)) @ big
        # the trace of each d x d block (a, b)
        out += (w / d) * np.einsum("aibi->ab", m.reshape(k, d, k, d))
    return out


def intertwines(sys: QuantumPermutation, g: Graph, h: Graph,
                tol: float = DEFAULT_TOL) -> bool:
    """Whether (A_G (x) 1) u = u (A_H (x) 1).

    When the intertwining holds, the induced map is checked to send A_G
    to A_H and its adjoint to send A_H back to A_G; a failure of that
    consequence raises InternalMismatch.
    """
    n = sys.n
    if g.n != n or h.n != n or sys.k != n:
        raise ShapeMismatch("graphs and system must share the vertex count")
    ensure_verified(sys, tol)
    ag = g.adjacency.astype(np.complex128)
    ah = h.adjacency.astype(np.complex128)
    dev = norm_max(_commutators(sys, ag[None], ah[None]))
    if not within(dev, tol, *sys.grids):
        return False
    phi_ag = factorizable_apply(sys, ag, tol)
    m = cpmaps.phi_from_density(induced_density(sys, tol), tol)
    adj_ah = cpmaps.apply_map(cpmaps.adjoint_map(m), ah)
    consequence = max(norm_max(phi_ag - ah), norm_max(adj_ah - ag))
    if consequence > 100 * n * tol:
        raise InternalMismatch(
            f"intertwiner does not transport adjacency matrices: {consequence}")
    return True


@dataclass(frozen=True)
class PatternPartition:
    """Partition of matrix positions forced equal by the system.

    ``classes`` lists the position classes; ``basis`` holds one 0/1
    indicator matrix per class, spanning exactly the matrices A with
    A[i, j] = A[k, l] whenever E[i, k] E[j, l] != 0.
    """

    classes: tuple
    basis: tuple
    warnings: tuple


def fixed_pattern_basis(sys: QuantumPermutation,
                        tol: float = DEFAULT_TOL) -> PatternPartition:
    """Indicator basis of the pattern algebra of a quantum permutation.

    Positions (i, j) and (k, l) are linked when E[i, k] E[j, l] is
    nonzero in some ancilla block; the link test is symmetrized (the two
    product orders vanish together for exact projections) and closed
    transitively into connected components.  Products with max-norm
    within a factor 10 of the threshold are reported as warnings.
    """
    n = sys.n
    if sys.k != n:
        raise ShapeMismatch("pattern basis needs a square system")
    ensure_verified(sys, tol)
    norms = np.zeros((n, n, n, n))
    for g in sys.grids:
        # every product E[i, k] E[j, l] in one GEMM, rows (i, k, a), columns (j, l, c)
        d = g.shape[2]
        prod = g.reshape(n * n * d, d) @ g.transpose(2, 0, 1, 3).reshape(d, n * n * d)
        norms = np.maximum(norms, np.abs(prod).reshape(n, n, d, n, n, d)
                           .max(axis=(2, 5)).transpose(0, 2, 1, 3))
    sym = np.maximum(norms, norms.transpose(1, 0, 3, 2))

    near = np.argwhere((sym > tol / 10) & (sym < tol * 10))[:20]
    warnings = tuple(f"|E[{i},{k}] E[{j},{l}]| = {sym[i, j, k, l]:.3e} "
                     f"is near the threshold {tol}" for i, j, k, l in near)

    # Label each position by the least position linked to it, until stable.
    linked = sym.reshape(n * n, n * n) > tol
    linked = linked | linked.T
    labels, prev = np.arange(n * n), None
    while prev is None or (labels != prev).any():
        prev, labels = labels, np.where(linked, labels, labels[:, None]).min(axis=1)
    roots = np.unique(labels)
    classes = tuple(tuple(divmod(int(pos), n) for pos in np.flatnonzero(labels == r))
                    for r in roots)
    basis = tuple((labels == r).reshape(n, n).astype(float) for r in roots)
    return PatternPartition(classes, basis, warnings)


def commutation_subspace(sys: QuantumPermutation,
                         tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormal basis of {A : (A (x) 1) u = u (A (x) 1)}.

    The subspace is the nullspace of the tall system M of
    :func:`_commutation_system`, under the rank rule of
    :func:`linalg.nullspace`: singular values at or below
    cutoff = tol max(1, sigma_max) count as zero.  It is found from the
    eigenvectors of the n^2 x n^2 Gram matrix M*M, returned only under a
    certificate (:func:`_gram_nullspace`) that the rule gives the same
    rank and that the basis is as accurate as the SVD's; otherwise M
    itself goes through :func:`linalg.nullspace`.
    """
    n = sys.n
    if sys.k != n:
        raise ShapeMismatch("commutation subspace needs a square system")
    ensure_verified(sys, tol)
    basis = _gram_nullspace(sys, tol)
    if basis is None:
        basis = linalg.nullspace(_commutation_system(sys), tol)
    return [v.reshape(n, n) for v in basis]


def _commutation_system(sys: QuantumPermutation) -> np.ndarray:
    """M: column (r, s) is the commutators (:func:`_commutators`) of the unit matrix e_rs."""
    n = sys.n
    return _commutators(sys, np.eye(n * n).reshape(n * n, n, n)).T


def _commutation_gram(sys: QuantumPermutation) -> np.ndarray:
    """M*M of :func:`_commutation_system`, from the pairings t[x, a, y, b] = sum tr(E[x, a]* E[y, b]).

    G[(r, s), (r', s')] = [r = r'] sum_j t[s, j, s', j] + [s = s'] sum_k t[k, r, k, r']
    - t[s, s', r, r'] - t[r', r, s', s]; only adjoints are used, not E^2 = E or sum E = 1,
    so the identity holds for a system that is a quantum permutation only within tol.
    """
    n = sys.n
    flat = [g.reshape(n * n, -1) for g in sys.grids]
    t = sum(f.conj() @ f.T for f in flat).reshape((n,) * 4)
    diag = np.arange(n)
    gram = -(t.transpose(2, 0, 3, 1) + t.transpose(1, 3, 0, 2))  # axes (r, s, r', s')
    gram[diag, :, diag, :] += np.einsum("sjtj->st", t)
    gram[:, diag, :, diag] += np.einsum("krkt->rt", t)
    return gram.reshape(n * n, n * n)


def _gram_nullspace(sys: QuantumPermutation, tol: float):
    """Nullspace of M (rows, as linalg.nullspace gives them) from eigh of M*M, or None.

    The Gram matrix squares the singular values, so its eigenvectors are
    returned only under a certificate.  With cutoff = tol max(1, sigma_max)
    and slack = n^2 eps max(1, lambda_max), the candidate set Z holds the
    eigenvalues at or below cutoff^2 + slack:
    - by Weyl's inequality every other singular value is above cutoff;
    - the commutators of Z's vectors, taken blockwise from the grids, have
      Frobenius norm at most cutoff, so by Courant-Fischer the |Z| least
      singular values are at most cutoff: the rank is the SVD rule's;
    - the next eigenvalue leaves a gap, slack <= tol lambda_next, which
      bounds the angle between Z's span and the exact nullspace by tol.
    """
    n = sys.n
    lam, vecs = np.linalg.eigh(_commutation_gram(sys))
    cutoff = tol * max(1.0, float(np.sqrt(max(lam[-1], 0.0))))
    slack = n * n * np.finfo(np.float64).eps * max(1.0, float(lam[-1]))
    nullity = int(np.searchsorted(lam, cutoff ** 2 + slack, side="right"))
    if nullity < n * n and slack > tol * lam[nullity]:
        return None
    basis = vecs[:, :nullity].T
    if np.linalg.norm(_commutators(sys, basis.reshape(-1, n, n))) > cutoff:
        return None
    return basis


def _commutators(sys: QuantumPermutation, mats: np.ndarray, right=None) -> np.ndarray:
    """(A (x) 1) u - u (B (x) 1) for each A of the stack ``mats``, one row each.

    B is the matching matrix of the stack ``right``, by default A itself.
    A row holds every block's difference in row-major order, the blocks stacked.
    """
    n, m, rows = sys.n, len(mats), []
    right = mats if right is None else right
    for g in sys.grids:
        d = g.shape[2]
        # block (k, j) of (A (x) 1) u is sum_r A[k, r] E[r, j]; of u (B (x) 1), sum_s E[k, s] B[s, j]
        au = (mats.reshape(-1, n) @ g.reshape(n, -1)).reshape(m, n, n, d, d)
        ub = np.matmul(g.transpose(0, 2, 3, 1).reshape(-1, n), right).reshape(m, n, d, d, n)
        rows.append((au.transpose(0, 1, 3, 2, 4) - ub.transpose(0, 1, 2, 4, 3)).reshape(m, -1))
    return np.hstack(rows)


@dataclass(frozen=True)
class FixEquivalence:
    """Cross-checked computations of the fixed-point algebra."""

    report: Report
    commutation_basis: list
    fix_eigen_basis: list
    kraus_commutant_basis: list
    pattern: PatternPartition


def fix_equivalence_check(sys: QuantumPermutation, tol: float = DEFAULT_TOL) -> FixEquivalence:
    """Compare three routes to the fixed-point algebra of the induced map.

    (1) matrices commuting with the magic unitary, (2) fixed points of
    the induced channel, via both the (Phi - id) eigenspace and the
    joint commutant of Kraus operators, and (3) the span of the pattern
    partition.  The report records dimension agreement and mutual
    containment residuals of all the spans; routes that disagree near the
    threshold fail those lines rather than raise.
    """
    induced = induced_density(sys, tol)
    rep = Report("qperm fixpoints")

    s1 = commutation_subspace(sys, tol)
    s2a, s2b = cpmaps._fixed_point_bases(cpmaps.phi_from_density(induced, tol), tol)
    pattern = fixed_pattern_basis(sys, tol)
    s3 = list(pattern.basis)

    # s1 (Gram eigenvectors or rows of V*), s2a and s2b (rows of V*) are orthonormal;
    # s3 holds disjoint 0/1 indicators, orthonormal once each is scaled
    q1, q2a, q2b, q3 = (np.reshape(s, (-1, sys.n ** 2)) for s in (s1, s2a, s2b, s3))
    q3 = q3 / np.sqrt(q3.sum(axis=1, keepdims=True))
    dims = [len(s1), len(s2a), len(s2b), len(s3)]
    rep.add("dimensions_equal", len(set(dims)) == 1,
            float(max(dims) - min(dims)),
            f"commutation {dims[0]}, eigenspace {dims[1]}, "
            f"kraus_commutant {dims[2]}, pattern {dims[3]}")
    pairs = [
        ("commutation_in_fix", q1, q2a),
        ("fix_in_commutation", q2a, q1),
        ("pattern_in_commutation", q3, q1),
        ("commutation_in_pattern", q1, q3),
        ("eigenspace_in_kraus_commutant", q2a, q2b),
        ("kraus_commutant_in_eigenspace", q2b, q2a),
    ]
    for name, a, b in pairs:
        resid = linalg._containment_residual(a, b)
        rep.add(name, resid <= 10 * tol, resid)
    for name, basis, span in (("pattern_schur_closed", s3, q3),
                              ("fix_basis_schur_closed", s2a, q2a)):
        rep.add(name, cpmaps._schur_closed(basis, span, tol), 0.0)
    rep.warnings.extend(pattern.warnings)
    return FixEquivalence(rep, s1, s2a, s2b, pattern)


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_rank1_projection(rng, d: int) -> np.ndarray:
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def random_quantum_permutation(rng, kind: str | None = None) -> QuantumPermutation:
    """Random magic unitary from the stock constructions.

    ``kind`` is one of "classical", "block_pair", "direct_sum",
    "conjugate"; omitted means chosen at random.  Sizes stay within
    n <= 6 and total ancilla dimension <= 4.
    """
    kinds = ("classical", "block_pair", "direct_sum", "conjugate")
    if kind is None:
        kind = kinds[int(rng.integers(len(kinds)))]
    if kind == "classical":
        return from_permutation(rng.permutation(int(rng.integers(2, 7))))
    if kind == "block_pair":
        return block_pair(random_rank1_projection(rng, 2),
                          random_rank1_projection(rng, 2))
    if kind == "direct_sum":
        w = float(rng.uniform(0.25, 0.75))
        style = int(rng.integers(3))
        if style == 0:
            base = block_pair(random_rank1_projection(rng, 2),
                              random_rank1_projection(rng, 2))
            other = from_permutation(rng.permutation(4))
        elif style == 1:
            base = block_pair(random_rank1_projection(rng, 2),
                              random_rank1_projection(rng, 2))
            other = block_pair(random_rank1_projection(rng, 2),
                               random_rank1_projection(rng, 2))
        else:
            nn = int(rng.integers(2, 7))
            base = from_permutation(rng.permutation(nn))
            other = from_permutation(rng.permutation(nn))
        return direct_sum(base, other, w, 1.0 - w)
    if kind == "conjugate":
        inner = random_quantum_permutation(rng, kind=kinds[int(rng.integers(3))])
        ws = [random_unitary(rng, d) for d in inner.dims]
        return conjugate(inner, ws)
    raise BadInput(f"unknown construction kind {kind!r}")
