"""Conditional probability densities p(a, b | x, y) and their classes.

The tensor layout is ``p[x, y, a, b]`` (inputs first).  Class predicates
(valid, nonsignalling, synchronous, bisynchronous, perfect-for-a-game)
are tolerance-based; exact local membership is decided by linear
programming over deterministic strategies.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadWeights,
    InvalidDensity,
    PreconditionFailed,
    ShapeMismatch,
    SolverFailed,
)
from .games import (
    ATOM_GUARD,
    Game,
    as_permutation,
    atoms_within,
    check_response_values,
    forbidden_positions,
)
from .linalg import DEFAULT_TOL, within
from .report import Report

# HiGHS feasibility tolerances for every membership LP: at its defaults
# (1e-7) a mixture some 1e-8 outside the polytope passes near its boundary
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# Simplex iterations allowed per variable and constraint of a membership
# LP.  The solves measured took at most 0.6; at these tolerances HiGHS can
# stall near a degenerate optimum, and the limit turns that into
# SolverFailed instead of an unbounded wait.
_LP_ITERATIONS_PER_SIZE = 10


@dataclass(frozen=True)
class Density:
    """Nonnegative tensor p[x, y, a, b]; see :func:`validate` for the contract."""

    p: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.p, dtype=float)
        if arr.ndim != 4 or min(arr.shape) < 1:
            raise ShapeMismatch("density tensor must have four indices")
        object.__setattr__(self, "p", arr)

    @property
    def nA(self) -> int:
        return self.p.shape[0]

    @property
    def nB(self) -> int:
        return self.p.shape[1]

    @property
    def kA(self) -> int:
        return self.p.shape[2]

    @property
    def kB(self) -> int:
        return self.p.shape[3]

    @property
    def square(self) -> bool:
        return self.nA == self.nB and self.kA == self.kB


def validation_report(d: Density, tol: float = DEFAULT_TOL) -> Report:
    """Nonnegativity and per-(x, y) normalization, with witnesses."""
    rep = Report("density validate")
    neg = -float(d.p.min())
    witness = None
    if neg > 0:
        x, y, a, b = np.unravel_index(int(d.p.argmin()), d.p.shape)
        witness = f"p(a={a},b={b}|x={x},y={y}) = {d.p[x, y, a, b]}"
    rep.add("nonnegative", within(neg, tol, d.p), max(neg, 0.0), witness)
    sums = d.p.sum(axis=(2, 3))
    dev = np.abs(sums - 1.0)
    x, y = np.unravel_index(int(dev.argmax()), dev.shape)
    rep.add("normalized", within(dev.max(), tol, d.p), float(dev.max()),
            f"sum over outputs at (x={x},y={y}) = {sums[x, y]}")
    return rep


def validate(d: Density, tol: float = DEFAULT_TOL) -> bool:
    return validation_report(d, tol).passed


def is_nonsignalling(d: Density, tol: float = DEFAULT_TOL) -> bool:
    """Alice's output marginal must not depend on y, and symmetrically."""
    if not validate(d, tol):
        raise InvalidDensity("nonsignalling test requires a valid density")
    marg_a = d.p.sum(axis=3)          # [x, y, a]
    dev_a = np.abs(marg_a - marg_a[:, :1, :]).max()
    marg_b = d.p.sum(axis=2)          # [x, y, b]
    dev_b = np.abs(marg_b - marg_b[:1, :, :]).max()
    return within(max(dev_a, dev_b), tol, d.p)


def _require_square(d: Density):
    if not d.square:
        raise ShapeMismatch("this classification needs nA = nB and kA = kB")


def is_synchronous_density(d: Density, tol: float = DEFAULT_TOL) -> bool:
    """p(a, b | x, x) = 0 whenever a != b."""
    if not validate(d, tol):
        raise InvalidDensity("classification requires a valid density")
    return _synchronous(d, tol)


def is_bisynchronous_density(d: Density, tol: float = DEFAULT_TOL) -> bool:
    """Synchronous, and p(a, a | x, y) = 0 whenever x != y."""
    if not validate(d, tol):
        raise InvalidDensity("classification requires a valid density")
    return _bisynchronous(d, tol)


def _synchronous(d: Density, tol: float) -> bool:
    """is_synchronous_density for a density already validated."""
    _require_square(d)
    return within(d.p[forbidden_positions(d.nA, d.kA)].max(initial=0.0), tol, d.p)


def _bisynchronous(d: Density, tol: float) -> bool:
    """is_bisynchronous_density for a density already validated."""
    _require_square(d)
    return within(d.p[forbidden_positions(d.nA, d.kA, bisync=True)].max(initial=0.0), tol, d.p)


def is_perfect_for(g: Game, d: Density, tol: float = DEFAULT_TOL) -> bool:
    """No probability mass on losing tuples."""
    if (g.nA, g.nB, g.kA, g.kB) != (d.nA, d.nB, d.kA, d.kB):
        raise ShapeMismatch("game and density shapes disagree")
    return within(d.p[~g.lam].max(initial=0.0), tol, d.p)


def flip_density(d: Density) -> Density:
    """Exchange the roles of inputs and outputs: q(x, y | a, b) = p(a, b | x, y).

    The result need not be a valid density; callers must validate.
    """
    if d.nA != d.kA or d.nB != d.kB:
        raise ShapeMismatch("flip needs input and output sets of equal size per player")
    return Density(d.p.transpose(2, 3, 0, 1))


def compose(q: Density, p: Density) -> Density:
    """r(a, b | v, w) = sum_{x,y} q(a, b | x, y) p(x, y | v, w)."""
    if (q.nA, q.nB) != (p.kA, p.kB):
        raise ShapeMismatch("inner dimensions do not match")
    r = np.einsum("xyab,vwxy->vwab", q.p, p.p)
    return Density(r)


def _atom_coordinates(atoms, k: int) -> np.ndarray:
    """Flat coordinates of the ones of deterministic densities.

    ``atoms`` is an (m, n) array holding one map f: [n] -> [k] per row.
    Row j of the (m, n*n) result lists ((x*n + y)*k + f[x])*k + f[y]
    for (x, y) in row-major order: the entries of p[x, y, a, b] =
    [a = f(x)][b = f(y)] that equal one.
    """
    atoms = np.asarray(atoms, dtype=np.intp)
    m, n = atoms.shape
    xy = np.arange(n * n).reshape(n, n)
    return ((xy * k + atoms[:, :, None]) * k + atoms[:, None, :]).reshape(m, n * n)


def _atom_mixture(atoms, weights, k: int) -> np.ndarray:
    """The tensor sum_j weights[j] * (density of atom j), shape (n, n, k, k)."""
    n = len(atoms[0])
    flat = np.bincount(_atom_coordinates(atoms, k).ravel(),
                       weights=np.repeat(weights, n * n), minlength=n * n * k * k)
    return flat.reshape(n, n, k, k)


def _atom_scores(functional, atoms, k: int) -> np.ndarray:
    """<functional, density of atom j> for each row j of ``atoms``, in one float sum each."""
    return functional[_atom_coordinates(atoms, k)].sum(axis=1)


def from_permutation(sigma) -> Density:
    """Deterministic density of a permutation: p(a, b | x, y) = [a = s(x)][b = s(y)]."""
    sigma = as_permutation(sigma)
    return Density(_atom_mixture([sigma], [1.0], len(sigma)))


def from_response_function(f, k: int) -> Density:
    """Deterministic density of a shared response function [n] -> [k]."""
    f = list(f)
    check_response_values(f, k)
    return Density(_atom_mixture([f], [1.0], k))


def _convex_weights(weights, count: int, what: str) -> np.ndarray:
    """The weights as floats; BadWeights unless one per item, finite, >= 0 and summing to one."""
    w = np.asarray(weights, dtype=float)
    if w.size != count or w.size == 0:
        raise BadWeights(f"need one weight per {what}")
    if not np.isfinite(w).all():
        raise BadWeights("weights must be finite")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        raise BadWeights("weights must be nonnegative and sum to one")
    return w


def mixture(ds, weights) -> Density:
    """Entrywise convex combination of densities of equal shape."""
    ds = list(ds)
    w = _convex_weights(list(weights), len(ds), "density")
    shape = ds[0].p.shape
    if any(d.p.shape != shape for d in ds):
        raise ShapeMismatch("all densities must share a shape")
    acc = np.zeros(shape)
    for wi, di in zip(w, ds):
        acc += wi * di.p
    return Density(acc)


def uniform_density(n: int, k: int) -> Density:
    return Density(np.full((n, n, k, k), 1.0 / (k * k)))


def z3_counterexample() -> Density:
    """Order-3 cyclic bisynchronous nonsignalling density with no quantum model.

    Equal inputs give equal outputs uniformly; distinct inputs force
    a - b = 1 (mod 3) uniformly.  Its flip is not a density and its
    induced map is not even positive.
    """
    p = np.zeros((3, 3, 3, 3))
    for x in range(3):
        for y in range(3):
            for a in range(3):
                for b in range(3):
                    if x == y:
                        p[x, y, a, b] = 1.0 / 3.0 if a == b else 0.0
                    else:
                        p[x, y, a, b] = 1.0 / 3.0 if (a - b) % 3 == 1 else 0.0
    return Density(p)


def noncp_nonsignalling_example() -> Density:
    """Two-input, two-output nonsignalling density whose induced map is not CP.

    Outputs are perfectly correlated on every input pair except (1, 1),
    where they are perfectly anticorrelated.  All marginals are uniform.
    Note the anticorrelated pair sits on the diagonal, so the density is
    not synchronous.
    """
    p = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            if (x, y) != (1, 1):
                p[x, y, 0, 0] = p[x, y, 1, 1] = 0.5
            else:
                p[x, y, 0, 1] = p[x, y, 1, 0] = 0.5
    return Density(p)


@dataclass(frozen=True)
class PermutationMixture:
    """Convex combination of permutations of [n]."""

    weights: np.ndarray
    permutations: tuple

    def __post_init__(self):
        perms = tuple(tuple(int(v) for v in s) for s in self.permutations)
        w = _convex_weights(self.weights, len(perms), "permutation")
        for s in perms:
            as_permutation(s, len(perms[0]))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "permutations", perms)

    @property
    def n(self) -> int:
        return len(self.permutations[0])


def mixture_density(mix: PermutationMixture) -> Density:
    return Density(_atom_mixture(mix.permutations, mix.weights, mix.n))


@dataclass(frozen=True)
class ResponseMixture:
    """Convex combination of shared response functions [n] -> [k]."""

    weights: np.ndarray
    functions: tuple
    k: int

    def __post_init__(self):
        funcs = tuple(tuple(int(v) for v in f) for f in self.functions)
        w = _convex_weights(self.weights, len(funcs), "function")
        n = len(funcs[0])
        if any(len(f) != n for f in funcs):
            raise ShapeMismatch(f"each function must take the {n} inputs 0..{n - 1}")
        for f in funcs:
            check_response_values(f, self.k)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "functions", funcs)


def response_mixture_density(mix: ResponseMixture) -> Density:
    return Density(_atom_mixture(mix.functions, mix.weights, mix.k))


@dataclass(frozen=True)
class Infeasible:
    """Separating-functional certificate that a density is outside a polytope.

    ``functional`` (flat, one entry per density coordinate) and ``offset``
    define f(q) = <functional, q> + offset with f <= 0 on every vertex of
    the polytope while f(density) = ``violation`` > tol.  The violation is
    a separating value, not a distance: from the LP over every atom it is
    that LP's optimum, the sup-norm distance t* when all rows were posed
    and at most t* when only the spanning rows were, as on the full-support
    inputs they settle.  A functional lifted from the support-compatible
    atoms has -M on the zero set Z of the density, and its violation is at
    least t* - M p(Z) for the LP on those atoms (README, "Local
    membership").  ``witness``
    names the density coordinate with the largest residual at the closest
    mixture, or the size of the zero set when every atom meets it;
    ``atoms`` records which vertex family the polytope has
    ("permutations" or "responses").
    """

    violation: float
    functional: np.ndarray
    offset: float
    witness: str
    atoms: str = "permutations"


def _membership_lp(idx, p, rows=None):
    """Minimize the sup-norm slack t over {lam >= 0 : |A lam - p| <= t, sum lam = 1}.

    Column j of A is the flattened density of atom j, whose ones sit at
    ``idx[j]`` (see :func:`_atom_coordinates`).  Only the distinct rows
    are posed: a coordinate that no atom hits becomes the lower bound of
    t, and (x, y, a, b) with its mirror (y, x, b, a) is one two-sided
    row, so the optimum is that of the LP over all coordinates.
    ``rows``, sorted x <= y coordinates such as :func:`_spanning_rows`,
    poses only those: a relaxation, whose optimum is at most t*.  HiGHS
    is handed the dual (README, "Local membership") at ``_LP_OPTIONS``,
    with at most ``_LP_ITERATIONS_PER_SIZE`` simplex iterations per
    variable and constraint; the weights lam are the multipliers of its
    atom constraints.

    Returns (t*, lam, y, mu), with the duals mapped back onto every
    coordinate: y . col + mu <= 0 for every atom and y . p + mu = t*.
    Raises :class:`SolverFailed` when HiGHS reports no optimum, as on
    reaching the iteration limit.
    """
    import scipy.optimize
    import scipy.sparse

    flat = p.reshape(-1)
    mirror = _mirror(p.shape)
    upper = _upper_coordinates(idx)
    hit = np.zeros(flat.size, dtype=bool)
    hit[upper] = True
    if rows is None:
        rows = np.flatnonzero(hit)
    hit[mirror[hit]] = True
    mates = mirror[rows]
    swap = flat[mates] < flat[rows]
    lo, hi = np.where(swap, mates, rows), np.where(swap, rows, mates)
    missed = np.flatnonzero(~hit)
    worst = missed[np.abs(flat[missed]).argmax()] if missed.size else None
    t_floor = 0.0 if worst is None else abs(float(flat[worst]))

    # Variables (alpha, beta, gamma, mu).  Atom j's constraint row has
    # -1 at the alpha and +1 at the beta of each posed row it hits, and
    # +1 at mu.
    ncols, nrows, per_col = idx.shape[0], rows.size, upper.shape[1]
    r = np.searchsorted(rows, upper)
    posed = rows[np.minimum(r, nrows - 1)] == upper
    posed = np.hstack([posed, posed, np.ones((ncols, 1), dtype=bool)])
    indices = np.hstack([r, r + nrows, np.full((ncols, 1), 2 * nrows + 1)])[posed]
    data = np.tile(np.repeat([-1.0, 1.0, 1.0], [per_col, per_col, 1]), (ncols, 1))[posed]
    indptr = np.append(0, np.cumsum(posed.sum(axis=1)))
    a_ub = scipy.sparse.csr_matrix((data, indices, indptr), shape=(ncols, 2 * nrows + 2))
    a_eq = np.append(np.ones(2 * nrows + 1), 0.0)[None, :]
    c = np.concatenate([flat[lo], -flat[hi], [-t_floor, -1.0]])   # linprog minimizes
    bounds = np.zeros((2 * nrows + 2, 2))
    bounds[:, 1] = np.inf
    bounds[-1, 0] = -np.inf
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=np.zeros(ncols), A_eq=a_eq, b_eq=[1.0],
        bounds=bounds, method="highs",
        options={**_LP_OPTIONS, "maxiter": _LP_ITERATIONS_PER_SIZE * (ncols + 1 + c.size)},
    )
    if res.status != 0:
        raise SolverFailed(f"membership LP failed with HiGHS status {res.status}: "
                           f"{res.message}")
    alpha, beta, (gamma, mu) = res.x[:nrows], res.x[nrows:2 * nrows], res.x[2 * nrows:]
    y = np.bincount(hi, beta, flat.size) - np.bincount(lo, alpha, flat.size)
    if worst is not None:
        y[worst] = gamma * np.sign(flat[worst])
    # lam is the multipliers of the atom constraints, which HiGHS may
    # return some 1e-11 below zero
    lam = np.maximum(-res.ineqlin.marginals, 0.0)
    return -float(res.fun), lam, y, float(mu)


def _mirror(shape):
    """Flat index of (y, x, b, a) for each flat coordinate (x, y, a, b)."""
    return np.arange(math.prod(shape)).reshape(shape).transpose(1, 0, 3, 2).reshape(-1)


def _upper_coordinates(idx):
    """The x <= y columns of ``idx`` (see :func:`_atom_coordinates`).

    An atom hits (x, y, a, b) iff it hits the mirror (y, x, b, a), so
    these meet every row of the membership LP it hits exactly once.
    """
    n = math.isqrt(idx.shape[1])
    return idx[:, np.flatnonzero(np.triu(np.ones((n, n), dtype=bool)))]


@functools.cache
def _spanning_rows(family, n, k):
    """Sorted x <= y coordinates whose rows of A span every row over every atom.

    B is the 0/1 incidence of the rows (x <= y representatives) and the
    atoms.  Pivoted Cholesky of the Gram matrix B B^T picks rank(B)
    linearly independent rows of B, which span all of them; each atom
    hits one coordinate per input pair, so the all-ones row lies in their
    span too.  The set depends only on (family, n, k), and is found once.
    """
    import scipy.linalg.lapack
    import scipy.sparse

    upper = _upper_coordinates(_atom_coordinates(atoms_within(family, n, k), k))
    rows, inverse = np.unique(upper, return_inverse=True)
    m, per_atom = upper.shape
    b = scipy.sparse.csr_matrix(
        (np.ones(upper.size), (inverse.ravel(), np.repeat(np.arange(m), per_atom))),
        shape=(rows.size, m))
    _, piv, rank, _ = scipy.linalg.lapack.dpstrf((b @ b.T).toarray())
    spanning = np.sort(rows[piv[:rank] - 1])
    spanning.setflags(write=False)
    return spanning


def _row_system(idx, p):
    """The equations A lam = p, sum lam = 1 for the atoms at ``idx``, on their distinct rows.

    The least-squares system of :func:`_unique_mixture`.  Returns the
    dense (a, b): one row per x <= y coordinate that some atom hits,
    then the all-ones row with target 1.  A row with x < y
    stands for its mirror too, so it is scaled by sqrt(2) and its target
    is the mean of p at the two; ||a lam - b||^2 is then the sum of
    squared residuals over every coordinate, less a constant.
    """
    flat = p.reshape(-1)
    upper = _upper_coordinates(idx)
    rows = np.unique(upper)
    mates = _mirror(p.shape)[rows]
    scale = np.where(mates == rows, 1.0, math.sqrt(2.0))
    r = np.searchsorted(rows, upper)
    a = np.zeros((rows.size + 1, len(idx)))
    a[r, np.arange(len(idx))[:, None]] = scale[r]
    a[-1] = 1.0
    return a, np.append(scale * (flat[rows] + flat[mates]) / 2, 1.0)


def _unique_mixture(idx, p):
    """The least-squares mixture of linearly independent atoms, or None when they are dependent.

    The atoms at ``idx`` are independent as densities exactly when the
    matrix of :func:`_row_system` has full column rank, which needs no
    more atoms than distinct rows plus one; then at most one mixture
    reproduces p, and one ``lstsq`` finds it.  Weights <= 1e-14 are
    dropped and the rest renormalized.  Returns (support, weights).
    """
    if len(idx) > np.count_nonzero(np.bincount(_upper_coordinates(idx).ravel())) + 1:
        return None
    w, _, rank, _ = np.linalg.lstsq(*_row_system(idx, p), rcond=None)
    support = np.flatnonzero(w > 1e-14)
    if rank < len(idx) or not support.size:
        return None
    return support, w[support] / w[support].sum()


def _residual_witness(atoms, lam, p, k, which=""):
    """The coordinate where the mixture ``lam`` of ``atoms`` misses ``p`` most."""
    resid = np.abs(_atom_mixture(atoms, lam, k) - p)
    x, y, a, b = np.unravel_index(int(resid.argmax()), p.shape)
    return (f"p(a={a},b={b}|x={x},y={y}): residual {resid.max():.3e} "
            f"at the closest mixture{which}")


def _decide_membership(family, d, tol, wrap):
    """Solve, then check: a mixture is returned only if it reproduces ``d``
    within ``tol`` on every coordinate, and a certificate only if it
    separates ``d`` by more than ``tol``.

    The compatible atoms C are those whose coordinates all carry more
    than ``tol`` of ``p``; any atom of weight above 2 tol in a mixture
    within ``tol`` lies in C.  When C is linearly independent as
    densities, its one least-squares mixture (:func:`_unique_mixture`)
    is tried first, with no LP.  Then the stages, one LP each and in this
    order: C (only when C is not every atom), every atom on
    :func:`_spanning_rows`, every atom on all rows.  Beyond the family's
    guard the search for every atom raises the guard's error.  Each
    stage checks the LP's own weights (support lam > 1e-12,
    renormalized), whatever its t*: the stages on C and on all rows pose
    every distinct row, so weights at t* <= tol already reproduce p
    within t*, and on a local p the spanning rows carry every other row.

    The LP's functional (y, mu), <= 0 on the atoms posed, is y itself
    on every atom and lifted on C: with Z the coordinates where
    p <= tol, every atom q scores y . q + mu <= M = max(0, mu + sum over
    (x, y) of max over (a, b) of max(y, 0)), and q(Z) is 0 on C and at
    least 1 off it, so y - M 1_Z with offset mu is <= 0 on every atom.
    With C empty there is no LP, and the functional is -1_Z with offset
    1.  Within the guard the offset is reset to minus the functional's
    maximum over every atom, in the float sums of
    :func:`separation_margins`; beyond it, it is the bound above."""
    n, k = d.nA, d.kA
    flat = d.p.reshape(-1)
    zero = flat <= tol
    allowed = ~zero.reshape(d.p.shape)
    compatible = atoms_within(family, n, k, allowed & allowed.transpose(1, 0, 3, 2))
    total = math.factorial(n) if family == "permutations" else k ** n
    listable = total <= ATOM_GUARD[family]
    # every atom, listed at most once and only when a sweep or an LP needs it
    every = functools.cache(
        lambda: compatible if len(compatible) == total else atoms_within(family, n, k))

    def certificate(atoms, lam, y, mu):
        """The functional (y, mu), <= 0 on ``atoms``, as a certificate over every atom."""
        top = float(np.maximum(y, 0.0).reshape(n * n, k * k).max(axis=1).sum())
        lift = max(0.0, mu + top) if len(atoms) < total else 0.0
        functional = y - lift * zero
        if listable:
            offset = -float(_atom_scores(functional, every(), k).max())
        else:
            offset = -max(float(_atom_scores(functional, atoms, k).max(initial=-np.inf)),
                          top - lift)
        if not len(atoms):
            witness = f"every atom meets the {int(zero.sum())} coordinates where p <= tol"
        else:
            which = f" of the {len(atoms)} atoms that avoid p <= tol" if len(atoms) < total else ""
            witness = _residual_witness(atoms, lam, d.p, k, which)
        return Infeasible(float(functional @ flat) + offset, functional, offset, witness, family)

    def checked(atoms, support, weights):
        """(the mixture as a verdict if it is within ``tol`` on every coordinate, its error)."""
        kept = atoms[support]
        err = float(np.abs(_atom_mixture(kept, weights, k) - d.p).max())
        return (wrap(weights, tuple(map(tuple, kept.tolist()))) if err <= tol else None), err

    def settle(atoms, rows):
        """One LP on ``atoms`` and both checks: (verdict or None, why neither check passed)."""
        idx = _atom_coordinates(atoms, k)
        if len(atoms):
            t_star, lam, y, mu = _membership_lp(idx, d.p, rows)
            support = np.flatnonzero(lam > 1e-12)
            verdict, err = checked(atoms, support, lam[support] / lam[support].sum())
            if verdict is not None:
                return verdict, None
        else:
            t_star, lam, y, mu, err = np.inf, None, np.zeros(flat.size), 1.0, np.inf
        cert = certificate(atoms, lam, y, mu)
        if cert.violation > tol:
            return cert, None
        return None, (f"the LP puts the density t* = {t_star:.3e} from the local polytope, "
                      f"but at tol {tol:g} its weights are {err:.3e} away ({err - tol:+.1e} "
                      f"from tol) and its certificate separates by only {cert.violation:.3e} "
                      f"({cert.violation - tol:+.1e} from tol)")

    def stages():
        if len(compatible) < total:
            yield compatible, None
        yield every(), _spanning_rows(family, n, k)
        yield every(), None

    if len(compatible):
        found = _unique_mixture(_atom_coordinates(compatible, k), d.p)
        if found is not None:
            verdict, _ = checked(compatible, *found)
            if verdict is not None:
                return verdict
    for atoms, rows in stages():
        verdict, why = settle(atoms, rows)
        if verdict is not None:
            return verdict
    raise SolverFailed(why)


def local_bisync_membership(d: Density, tol: float = DEFAULT_TOL):
    """Exact membership of a bisynchronous density in the local polytope.

    Feasible inputs yield a PermutationMixture reproducing the density
    within ``tol`` per entry (the decomposition is not unique); otherwise
    an :class:`Infeasible` certificate is returned.

    The permutations compatible with the support (every coordinate above
    ``tol``) are found by search and decided first.  When they are
    linearly independent as densities, one least-squares solve, with no
    LP and no scipy, tries their only candidate mixture; otherwise, or
    when it misses, an LP on them decides.  A nonlocal verdict on a
    density without full support lifts the LP's functional on them to
    every permutation.  The LP over all n! permutations, which decides the
    rest, is posed first on a spanning set of its rows and on all of them
    only when that settles nothing.  A mixture from an LP is its own
    weights, returned once they pass the check.  Either way ``violation`` is a
    separating value, not the distance t* of the LP over all permutations
    and all rows (README, "Local membership").  n is bounded only through
    the guard: PreconditionFailed is raised when the search or an LP would
    hold more than 8! permutations.  SolverFailed is raised when no stage
    settles the density or an LP ends without an optimum, as on reaching
    its iteration limit; its message gives t*, how far the last LP's
    weights are from the density and how far its certificate separates.
    """
    if not validate(d, tol):
        raise PreconditionFailed("density must be valid")
    if not d.square or d.nA != d.kA:
        raise PreconditionFailed("need n inputs and n outputs for both players")
    if not _bisynchronous(d, tol):
        raise PreconditionFailed("density must be bisynchronous")
    return _decide_membership("permutations", d, tol,
                              lambda w, kept: PermutationMixture(w, kept))


def local_sync_membership(d: Density, tol: float = DEFAULT_TOL):
    """Membership of a synchronous density in the local polytope.

    Atoms are the k^n shared response functions; TooLarge is raised when
    an LP would pose more than 3000 of them.
    """
    if not validate(d, tol):
        raise PreconditionFailed("density must be valid")
    if not _synchronous(d, tol):
        raise PreconditionFailed("density must be synchronous")
    k = d.kA
    return _decide_membership("responses", d, tol,
                              lambda w, kept: ResponseMixture(w, kept, k))


def separation_margins(d: Density, cert: Infeasible):
    """Evaluate a certificate: (max over deterministic atoms, value at d).

    A valid certificate has the first value <= ~0 and the second equal to
    the reported violation.  The atom family (all permutations, or all
    shared response functions) is the one recorded on the certificate.
    Every atom is listed, so beyond 8! permutations PreconditionFailed is
    raised, and beyond 3000 response functions TooLarge.
    """
    n, k = d.nA, d.kA
    value_at_d = float(cert.functional @ d.p.reshape(-1) + cert.offset)
    scores = _atom_scores(cert.functional, atoms_within(cert.atoms, n, k), k)
    return float((scores + cert.offset).max()), value_at_d
