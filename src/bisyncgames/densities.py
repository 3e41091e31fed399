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
    BadInput,
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


@functools.cache
def _atom_table(family: str, n: int, k: int):
    """Every atom of ``family`` on n inputs and k outputs, with its coordinates.

    Returns (atoms, idx): the rows of :func:`atoms_within` unmasked (one
    atom per row, in lexicographic order) and idx[j], the coordinates of
    atom j (:func:`_atom_coordinates`).  Listed once per (family, n, k)
    and kept for the process, so both are read-only and compact: atoms
    in the least signed integer type that holds 0..k-1, coordinates in
    int32, which holds the n^2 k^2 <= 9e6 coordinates within the guard.
    Beyond the family's ``ATOM_GUARD`` the listing raises the guard's error.
    """
    atoms = atoms_within(family, n, k)
    idx = _atom_coordinates(atoms, k).astype(np.int32)
    atoms = atoms.astype(np.min_scalar_type(-k))
    atoms.setflags(write=False)
    idx.setflags(write=False)
    return atoms, idx


def _coordinate_mixture(idx, weights, shape) -> np.ndarray:
    """The tensor sum_j weights[j] * (density of the atom at idx[j]), of the given shape."""
    flat = np.bincount(idx.ravel(), weights=np.repeat(weights, idx.shape[1]),
                       minlength=math.prod(shape))
    return flat.reshape(shape)


def _atom_mixture(atoms, weights, k: int) -> np.ndarray:
    """The tensor sum_j weights[j] * (density of atom j), shape (n, n, k, k)."""
    n = len(atoms[0])
    return _coordinate_mixture(_atom_coordinates(atoms, k), weights, (n, n, k, k))


def _atom_scores(functional, idx) -> np.ndarray:
    """<functional, density of atom j> for the atom j at idx[j], in one float sum each."""
    return functional[idx].sum(axis=1)


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


def _int_rows(rows):
    """``rows`` as an (m, n) int array, or None when they differ in length
    or overflow it, and as a tuple of tuples of ints (int() of each value)."""
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    try:
        arr = np.array(rows, dtype=np.intp)
    except (ValueError, OverflowError):
        arr = None
    if arr is not None and arr.ndim == 2:
        return arr, tuple(map(tuple, arr.tolist()))
    return None, tuple(tuple(int(v) for v in s) for s in rows)


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
        arr, perms = _int_rows(self.permutations)
        w = _convex_weights(self.weights, len(perms), "permutation")
        n = len(perms[0])
        # the rows that may be bad, in order; the first bad one raises
        suspects = (range(len(perms)) if arr is None
                    else np.flatnonzero((np.sort(arr, axis=1) != np.arange(n)).any(axis=1)))
        for j in suspects:
            as_permutation(perms[j], n)
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
        arr, funcs = _int_rows(self.functions)
        w = _convex_weights(self.weights, len(funcs), "function")
        n = len(funcs[0])
        if arr is None and any(len(f) != n for f in funcs):
            raise ShapeMismatch(f"each function must take the {n} inputs 0..{n - 1}")
        # the rows that may be bad, in order; the first bad one raises
        suspects = (range(len(funcs)) if arr is None
                    else np.flatnonzero(((arr < 0) | (arr >= self.k)).any(axis=1)))
        for j in suspects:
            check_response_values(funcs[j], self.k)
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
    that LP's optimum, the sup-norm distance t* (0.9 U_7 + 0.1 z_7 reads
    1/84).  A functional lifted from the support-compatible atoms has -M
    on the zero set Z of the density, and its violation is at least
    t* - M p(Z) for the LP on those atoms (README, "Local membership").
    ``witness`` names the density coordinate with the largest residual at
    the closest mixture, or the size of the zero set when every atom
    meets it; ``atoms`` records which vertex family the polytope has
    ("permutations" or "responses").
    """

    violation: float
    functional: np.ndarray
    offset: float
    witness: str
    atoms: str = "permutations"


def _membership_lp(system, p, orbits=None):
    """Minimize the sup-norm slack t over {lam >= 0 : |A lam - p| <= t, sum lam = 1}.

    Column j of A is the flattened density of atom j.  ``system`` is
    what :func:`_distinct_rows` returns for the atoms, and only those
    distinct rows are posed: a coordinate that no atom hits
    becomes the lower bound of t, and (x, y, a, b) with its mirror
    (y, x, b, a) is one two-sided row, so the optimum is that of the LP
    over all coordinates.  HiGHS is handed the dual (README, "Local
    membership") at ``_LP_OPTIONS``, with at most
    ``_LP_ITERATIONS_PER_SIZE`` simplex iterations per variable and
    constraint; the weights lam are the multipliers of its atom
    constraints.

    ``orbits`` (see :func:`_coordinate_orbits`) labels each coordinate
    with its orbit under a group of relabelings that fixes p and maps
    the atoms onto themselves; None means singleton orbits.
    The dual is then posed on orbits: one (alpha, beta) per orbit of
    rows, each of its rows carrying an equal share, and one constraint
    per class of atoms whose constraints coincide (a union of orbits),
    whose multiplier is spread evenly over the class.  The LP is
    invariant, so it has an invariant optimum, and t* is unchanged.

    Returns (t*, lam, y, mu), with the duals mapped back onto every
    coordinate: y . col + mu <= 0 for every atom and y . p + mu = t*.
    Raises :class:`SolverFailed` when HiGHS reports no optimum, as on
    reaching the iteration limit.
    """
    import scipy.optimize
    import scipy.sparse

    flat = p.reshape(-1)
    r, rows, mates = system
    hit = np.zeros(flat.size, dtype=bool)
    hit[rows] = hit[mates] = True
    swap = flat[mates] < flat[rows]
    lo, hi = np.where(swap, mates, rows), np.where(swap, rows, mates)
    missed = np.flatnonzero(~hit)
    worst = missed[np.abs(flat[missed]).argmax()] if missed.size else None
    t_floor = 0.0 if worst is None else abs(float(flat[worst]))

    # Variables (alpha, beta, gamma, mu).  Atom j's constraint row has
    # -1 at the alpha and +1 at the beta of each row it hits, and +1 at mu.
    (ncols, per_col), nrows = r.shape, rows.size
    indices = np.hstack([r, r + nrows, np.full((ncols, 1), 2 * nrows + 1)]).ravel()
    data = np.tile(np.repeat([-1.0, 1.0, 1.0], [per_col, per_col, 1]), ncols)
    indptr = np.arange(ncols + 1) * (2 * per_col + 1)
    a_ub = scipy.sparse.csr_matrix((data, indices, indptr), shape=(ncols, 2 * nrows + 2))
    a_eq = np.append(np.ones(2 * nrows + 1), 0.0)[None, :]
    c = np.concatenate([flat[lo], -flat[hi], [-t_floor, -1.0]])   # linprog minimizes
    bounds = np.zeros((2 * nrows + 2, 2))
    bounds[:, 1] = np.inf
    bounds[-1, 0] = -np.inf
    if orbits is not None:
        # a posed row is a coordinate and its mirror, labeled by the lesser
        # of their orbits; the rows of an orbit share p's lower and upper
        # entries, so any one of them stands for it
        _, first, orbit, size = np.unique(np.minimum(orbits[rows], orbits[mates]),
                                          return_index=True, return_inverse=True,
                                          return_counts=True)
        share = scipy.sparse.csr_matrix((1.0 / size[orbit], (np.arange(nrows), orbit)))
        spread = scipy.sparse.block_diag([share, share, scipy.sparse.identity(2)], "csr")
        pick = np.concatenate([first, first + nrows, [2 * nrows, 2 * nrows + 1]])
        c, a_eq, bounds = c[pick], a_eq[:, pick], bounds[pick]
        # atoms of one orbit score alike, so their constraints coincide bit
        # for bit; one key of raw bytes per row sorts far faster than axis=0
        a_ub = (a_ub @ spread).toarray()
        key = a_ub.view(np.dtype((np.void, a_ub.itemsize * a_ub.shape[1]))).ravel()
        _, one, atom_class, class_size = np.unique(key, return_index=True,
                                                   return_inverse=True, return_counts=True)
        a_ub = a_ub[one]
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=np.zeros(a_ub.shape[0]), A_eq=a_eq, b_eq=[1.0],
        bounds=bounds, method="highs",
        options={**_LP_OPTIONS,
                 "maxiter": _LP_ITERATIONS_PER_SIZE * (a_ub.shape[0] + 1 + c.size)},
    )
    if res.status != 0:
        raise SolverFailed(f"membership LP failed with HiGHS status {res.status}: "
                           f"{res.message}")
    # lam is the multipliers of the atom constraints, which HiGHS may
    # return some 1e-11 below zero
    x, lam = res.x, np.maximum(-res.ineqlin.marginals, 0.0)
    if orbits is not None:
        x = spread @ x
        lam = (lam / class_size)[atom_class]
    alpha, beta, (gamma, mu) = x[:nrows], x[nrows:2 * nrows], x[2 * nrows:]
    y = np.bincount(hi, beta, flat.size) - np.bincount(lo, alpha, flat.size)
    if worst is not None:
        y[worst] = gamma * np.sign(flat[worst])
    return -float(res.fun), lam, y, float(mu)


def _distinct_rows(idx, shape):
    """The distinct rows that the atoms at ``idx`` (see :func:`_atom_coordinates`) hit.

    An atom hits (x, y, a, b) iff it hits the mirror (y, x, b, a), so a
    coordinate and its mirror are one row, and the x <= y coordinates of
    an atom meet each row it hits exactly once.  Returns (r, rows,
    mates): ``rows`` the sorted x <= y coordinates some atom hits,
    ``mates`` their mirrors, and r[j] the positions in ``rows`` of atom
    j's x <= y coordinates.
    """
    n = math.isqrt(idx.shape[1])
    upper = idx[:, np.flatnonzero(np.triu(np.ones((n, n), dtype=bool)))]
    hit = np.zeros(math.prod(shape), dtype=bool)
    hit[upper] = True
    rows = np.flatnonzero(hit)
    mirror = np.arange(hit.size).reshape(shape).transpose(1, 0, 3, 2).reshape(-1)
    return np.cumsum(hit)[upper] - 1, rows, mirror[rows]


def _relabelings(m):
    """The adjacent transpositions of 0..m-1, then its cycle (when m > 2), one per row."""
    moves = np.tile(np.arange(m), (m - 1, 1))
    i = np.arange(m - 1)
    moves[i, i] += 1
    moves[i, i + 1] -= 1
    return np.vstack([moves, np.roll(np.arange(m), -1)]) if m > 2 else moves


@functools.cache
def _candidate_moves(n, k):
    """The candidate relabelings of (n, n, k, k) tensors, as flat coordinate maps, one per row.

    The candidates are the adjacent transpositions and the cycle
    (:func:`_relabelings`) of the inputs, of the outputs, and, when
    n = k, of both at once.  The row of (pi, tau) sends the coordinate
    (x, y, a, b) to (pi[x], pi[y], tau[a], tau[b]), which carries the
    coordinates of atom f onto those of tau . f . pi^-1, so each family
    of atoms is mapped onto itself.  Found once per (n, k).
    """
    ins, outs = _relabelings(n), _relabelings(k)
    pairs = [(s, np.arange(k)) for s in ins] + [(np.arange(n), t) for t in outs]
    if n == k:
        pairs += [(s, s) for s in ins]
    grid = np.arange(n * n * k * k).reshape(n, n, k, k)
    moves = np.array([grid[np.ix_(pi, pi, tau, tau)].reshape(-1) for pi, tau in pairs],
                     dtype=np.intp).reshape(len(pairs), grid.size)
    moves.setflags(write=False)
    return moves


def _symmetries(p):
    """The rows of :func:`_candidate_moves` under which ``p`` is exactly unchanged."""
    flat = p.reshape(-1)
    moves = _candidate_moves(p.shape[0], p.shape[2])
    return moves[(flat[moves] == flat).all(axis=1)]


def _coordinate_orbits(moves):
    """Each flat coordinate's orbit under the group the coordinate maps ``moves`` generate.

    The label is a coordinate of the orbit, the same for all of it.
    Every coordinate takes the least label among itself and its images,
    then the label of its label, until nothing changes.
    """
    label = np.arange(moves.shape[1])
    while True:
        new = label
        for move in moves:
            new = np.minimum(new, new[move])
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def _row_system(p, r, rows, mates):
    """The equations A lam = p, sum lam = 1 on the distinct rows (:func:`_distinct_rows`).

    The least-squares system of :func:`_unique_mixture`.  Returns the
    dense (a, b): one row per x <= y coordinate that some atom hits,
    then the all-ones row with target 1.  A row with x < y
    stands for its mirror too, so it is scaled by sqrt(2) and its target
    is the mean of p at the two; ||a lam - b||^2 is then the sum of
    squared residuals over every coordinate, less a constant.
    """
    flat = p.reshape(-1)
    scale = np.where(mates == rows, 1.0, math.sqrt(2.0))
    a = np.zeros((rows.size + 1, len(r)))
    a[r, np.arange(len(r))[:, None]] = scale[r]
    a[-1] = 1.0
    return a, np.append(scale * (flat[rows] + flat[mates]) / 2, 1.0)


def _unique_mixture(system, p):
    """The least-squares mixture of linearly independent atoms, or None when they are dependent.

    ``system`` is what :func:`_distinct_rows` returns for the atoms.
    They are independent as densities exactly when the matrix of
    :func:`_row_system` has full column rank, which needs no more atoms
    than distinct rows plus one; then at most one mixture reproduces p,
    and one ``lstsq`` finds it.  Weights <= 1e-14 are dropped and the
    rest renormalized.  Returns (support, weights).
    """
    r, rows, mates = system
    if len(r) > rows.size + 1:
        return None
    w, _, rank, _ = np.linalg.lstsq(*_row_system(p, *system), rcond=None)
    support = np.flatnonzero(w > 1e-14)
    if rank < len(r) or not support.size:
        return None
    return support, w[support] / w[support].sum()


def _residual_witness(idx, lam, p, which=""):
    """The coordinate where the mixture ``lam`` of the atoms at ``idx`` misses ``p`` most."""
    resid = np.abs(_coordinate_mixture(idx, lam, p.shape) - p)
    x, y, a, b = np.unravel_index(int(resid.argmax()), p.shape)
    return (f"p(a={a},b={b}|x={x},y={y}): residual {resid.max():.3e} "
            f"at the closest mixture{which}")


def _decide_membership(family, d, tol, wrap):
    """Solve, then check: a mixture is returned only if it reproduces ``d``
    within ``tol`` on every coordinate, and a certificate only if it
    separates ``d`` by more than ``tol``.

    The compatible atoms C are those whose coordinates all carry more
    than ``tol`` of ``p``; any atom of weight above 2 tol in a mixture
    within ``tol`` lies in C.  C is searched for under the mask p > tol,
    unless p > tol wherever an atom can have mass: then, within the
    guard, C is every atom.  Every atom is read from
    :func:`_atom_table`, listed once per process; beyond the family's
    guard the listing raises the guard's error.  When C is linearly
    independent as densities, its one least-squares mixture
    (:func:`_unique_mixture`) is tried first, with no LP.  Then at most
    two stages, one LP each and in this order: C (only when C is not
    every atom), then every atom, on the orbits of the relabelings
    :func:`_symmetries` keeps when it keeps any.  Each atom set's
    coordinates and distinct rows are found once, for its least-squares
    step, its LP and its checks.  Each stage checks the LP's own weights
    (support lam > 1e-12, renormalized), whatever its t*: every LP poses
    every distinct row, so weights at t* <= tol already reproduce p
    within t*.

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
    total = math.factorial(n) if family == "permutations" else k ** n
    listable = total <= ATOM_GUARD[family]
    # no atom hits a forbidden position and some atom hits every other one,
    # so C is every atom exactly when p > tol off the forbidden positions
    if listable and allowed[~forbidden_positions(n, k, family == "permutations")].all():
        compatible, c_idx = _atom_table(family, n, k)
    else:
        compatible = atoms_within(family, n, k, allowed & allowed.transpose(1, 0, 3, 2))
        c_idx = _atom_coordinates(compatible, k)

    def certificate(idx, lam, y, mu):
        """The functional (y, mu), <= 0 on the atoms at ``idx``, as a certificate on every atom."""
        top = float(np.maximum(y, 0.0).reshape(n * n, k * k).max(axis=1).sum())
        lift = max(0.0, mu + top) if len(idx) < total else 0.0
        functional = y - lift * zero
        if listable:
            offset = -float(_atom_scores(functional, _atom_table(family, n, k)[1]).max())
        else:
            offset = -max(float(_atom_scores(functional, idx).max(initial=-np.inf)), top - lift)
        if not len(idx):
            witness = f"every atom meets the {int(zero.sum())} coordinates where p <= tol"
        else:
            which = f" of the {len(idx)} atoms that avoid p <= tol" if len(idx) < total else ""
            witness = _residual_witness(idx, lam, d.p, which)
        return Infeasible(float(functional @ flat) + offset, functional, offset, witness, family)

    def checked(atoms, idx, support, weights):
        """(the mixture as a verdict if it is within ``tol`` on every coordinate, its error)."""
        kept = atoms[support]
        err = float(np.abs(_coordinate_mixture(idx[support], weights, d.p.shape) - d.p).max())
        return (wrap(weights, tuple(map(tuple, kept.tolist()))) if err <= tol else None), err

    def settle(atoms, idx, system, orbits):
        """One LP on ``atoms`` and both checks: (verdict or None, why neither check passed)."""
        if len(atoms):
            t_star, lam, y, mu = _membership_lp(system, d.p, orbits)
            support = np.flatnonzero(lam > 1e-12)
            verdict, err = checked(atoms, idx, support, lam[support] / lam[support].sum())
            if verdict is not None:
                return verdict, None
        else:
            t_star, lam, y, mu, err = np.inf, None, np.zeros(flat.size), 1.0, np.inf
        cert = certificate(idx, lam, y, mu)
        if cert.violation > tol:
            return cert, None
        return None, (f"the LP puts the density t* = {t_star:.3e} from the local polytope, "
                      f"but at tol {tol:g} its weights are {err:.3e} away ({err - tol:+.1e} "
                      f"from tol) and its certificate separates by only {cert.violation:.3e} "
                      f"({cert.violation - tol:+.1e} from tol)")

    c_system = _distinct_rows(c_idx, d.p.shape) if len(compatible) else None

    def stages():
        """(atoms, their coordinates, their distinct rows, orbits) of each LP, in order."""
        if len(compatible) < total:
            yield compatible, c_idx, c_system, None
            atoms, idx = _atom_table(family, n, k)
            system = _distinct_rows(idx, d.p.shape)
        else:
            atoms, idx, system = compatible, c_idx, c_system
        symmetries = _symmetries(d.p)
        yield atoms, idx, system, _coordinate_orbits(symmetries) if len(symmetries) else None

    if len(compatible):
        found = _unique_mixture(c_system, d.p)
        if found is not None:
            verdict, _ = checked(compatible, c_idx, *found)
            if verdict is not None:
                return verdict
    for atoms, idx, system, orbits in stages():
        verdict, why = settle(atoms, idx, system, orbits)
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
    rest, is posed once: on orbits when the density is unchanged by some
    of a fixed set of relabelings (a mixture then spans whole orbits: U_7
    returns all 5040 permutations), otherwise on all rows.  A mixture from
    an LP is its own weights, returned once they pass the check.
    ``violation`` is a separating value: the distance t* of that LP when
    it gives the functional, and at least t* - M p(Z) of the LP on the
    compatible permutations when their functional is lifted (README,
    "Local membership").  All n! permutations are listed once per
    process and n, and kept read-only for every later verdict and
    :func:`separation_margins`.  n is bounded only through the guard:
    PreconditionFailed is raised when the search or an LP would hold more
    than 8! permutations.  SolverFailed is raised when no stage
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
    It scores every atom, read from the table that membership verdicts
    read too (listed once per process and size, and kept), so beyond 8!
    permutations PreconditionFailed is raised, and beyond 3000 response
    functions TooLarge.  ShapeMismatch
    is raised when the functional does not fit the density's coordinates
    or the density is not one of the family's (n, n, k, k, with k = n for
    permutations), and BadInput for an unknown family.
    """
    if cert.atoms not in ATOM_GUARD:
        raise BadInput(f"unknown atom family {cert.atoms!r}")
    _require_square(d)
    n, k = d.nA, d.kA
    if np.shape(cert.functional) != (d.p.size,):
        raise ShapeMismatch(f"the functional needs one entry per coordinate, {d.p.size}")
    if cert.atoms == "permutations" and n != k:
        raise ShapeMismatch("permutation atoms need as many outputs as inputs")
    value_at_d = float(cert.functional @ d.p.reshape(-1) + cert.offset)
    scores = _atom_scores(cert.functional, _atom_table(cert.atoms, n, k)[1])
    return float((scores + cert.offset).max()), value_at_d
