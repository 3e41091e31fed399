"""Conditional probability densities p(a, b | x, y) and their classes.

The tensor layout is ``p[x, y, a, b]`` (inputs first).  Class predicates
(valid, nonsignalling, synchronous, bisynchronous, perfect-for-a-game)
are tolerance-based; exact local membership is decided by linear
programming over deterministic strategies.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
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
    atoms_within,
    forbidden_positions,
    index_rows,
)
from .linalg import DEFAULT_TOL, check_tol, numeric_array, within
from .report import Report

# HiGHS feasibility tolerances for every membership LP: at its defaults
# (1e-7) a mixture some 1e-8 outside the polytope passes near its boundary
_LP_OPTIONS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
# Simplex iterations allowed per variable and constraint of a membership
# LP.  The solves measured took at most 0.6; at these tolerances HiGHS can
# stall near a degenerate optimum, and the limit turns that into
# SolverFailed instead of an unbounded wait.
_LP_ITERATIONS_PER_SIZE = 10
# A solution passes when x, its objective and every row activity are not
# NaN and every bound holds within this: scipy's post-solve check, at its
# default tol of 1e-9
_LP_CHECK_TOL = math.sqrt(1e-9) * 10


@dataclass(frozen=True)
class Density:
    """Nonnegative tensor p[x, y, a, b]; see :func:`validate` for the contract."""

    p: np.ndarray

    def __post_init__(self):
        # NaN and inf are kept: validate reports them
        arr = numeric_array(self.p, "density", real=True, finite=False).astype(float, copy=False)
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
    check_tol(tol)
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

    ``atoms`` is an (m, n) intp array holding one map f: [n] -> [k] per row.
    Row j of the (m, n*n) result lists ((x*n + y)*k + f[x])*k + f[y]
    for (x, y) in row-major order: the entries of p[x, y, a, b] =
    [a = f(x)][b = f(y)] that equal one.
    """
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
    return mixture_density(PermutationMixture([1.0], (sigma,)))


def from_response_function(f, k: int) -> Density:
    """Deterministic density of a shared response function [n] -> [k]."""
    return response_mixture_density(ResponseMixture([1.0], (f,), k))


def _convex_weights(weights, count: int, what: str) -> np.ndarray:
    """The weights as floats; BadWeights unless numbers, one per item, finite, >= 0 and
    summing to one."""
    try:
        w = numeric_array(weights, "weights", real=True, finite=False).astype(float, copy=False)
    except BadInput as e:
        raise BadWeights(str(e)) from None
    if w.size != count or w.size == 0:
        raise BadWeights(f"need one weight per {what}")
    if not np.isfinite(w).all():
        raise BadWeights("weights must be finite")
    if w.min() < -1e-12 or abs(w.sum() - 1.0) > 1e-9:
        raise BadWeights("weights must be nonnegative and sum to one")
    return w


def _keep_atoms(mix, field: str, k: int | None = None):
    """Check a mixture's weights (:func:`_convex_weights`), then its atoms, the rows in
    ``field`` (:func:`games.index_rows`).  The atoms are kept as one read-only (m, n)
    intp array, ``_atoms``, and ``field`` as its rows, a tuple of tuples of ints."""
    rows = getattr(mix, field)
    rows = rows if isinstance(rows, np.ndarray) else list(rows)
    w = _convex_weights(mix.weights, len(rows), field[:-1])
    atoms = index_rows(rows, field[:-1], k)
    object.__setattr__(mix, "weights", w)
    object.__setattr__(mix, field, tuple(map(tuple, atoms.tolist())))
    object.__setattr__(mix, "_atoms", atoms)


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
    x, y, a, b = np.indices((3, 3, 3, 3))
    p = np.where(x == y, a == b, (a - b) % 3 == 1) / 3.0
    return Density(p)


def noncp_nonsignalling_example() -> Density:
    """Two-input, two-output nonsignalling density whose induced map is not CP.

    Outputs are perfectly correlated on every input pair except (1, 1),
    where they are perfectly anticorrelated.  All marginals are uniform.
    Note the anticorrelated pair sits on the diagonal, so the density is
    not synchronous.
    """
    x, y, a, b = np.indices((2, 2, 2, 2))
    p = np.where((x == 1) & (y == 1), a != b, a == b) / 2.0
    return Density(p)


@dataclass(frozen=True)
class PermutationMixture:
    """Convex combination of permutations of [n], given as rows of ints (:func:`_keep_atoms`)."""

    weights: np.ndarray
    permutations: tuple

    def __post_init__(self):
        _keep_atoms(self, "permutations")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __post_init__: the kept array stays read-only
        return type(self), (self.weights, self._atoms)

    @property
    def n(self) -> int:
        return self._atoms.shape[1]


def mixture_density(mix: PermutationMixture) -> Density:
    return Density(_atom_mixture(mix._atoms, mix.weights, mix.n))


@dataclass(frozen=True)
class ResponseMixture:
    """Convex combination of shared response functions [n] -> [k], kept as permutations are."""

    weights: np.ndarray
    functions: tuple
    k: int

    def __post_init__(self):
        _keep_atoms(self, "functions", self.k)

    def __reduce__(self):
        return type(self), (self.weights, self._atoms, self.k)


def response_mixture_density(mix: ResponseMixture) -> Density:
    return Density(_atom_mixture(mix._atoms, mix.weights, mix.k))


@dataclass(frozen=True)
class Infeasible:
    """Separating-functional certificate that a density is outside a polytope.

    ``functional`` (flat, one entry per density coordinate) and ``offset``
    define f(q) = <functional, q> + offset with f <= 0 on every vertex of
    the polytope while f(density) = ``violation`` > tol.  The violation is
    a separating value, not a distance: from the LP over every atom it is
    that LP's optimum, the sup-norm distance t*, which posing the LP on
    orbits keeps (0.9 U_7 + 0.1 z_7 reads 1/84).  A functional lifted
    from the support-compatible atoms has -M on the zero set Z of the
    density, and its violation is at least
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


def _membership_lp(system, p, coordinate_orbit):
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

    The dual is posed on the orbits of the relabelings that fix p
    (:func:`_symmetries`, :func:`_coordinate_orbits`; with none kept
    every orbit is one coordinate).  They map the atoms onto themselves,
    so the LP is invariant, has an invariant optimum, and t* is
    unchanged.  There is one (alpha, beta) per orbit of rows, each of its
    rows carrying an equal share, and one constraint per class of atoms:
    the atoms whose rows fall in the same orbits, counted with
    multiplicity, which are exactly those with equal constraints, and a
    union of orbits of atoms.  Classes are numbered by first occurrence,
    and each class's multiplier is spread evenly over its atoms.  With no
    relabeling kept, every atom is its own class, and the LP is the one
    on all rows, atom by atom, bit for bit.  ``coordinate_orbit`` labels
    each coordinate of p with its orbit, as
    ``_coordinate_orbits(_symmetries(p))`` does.

    The LP goes to HiGHS directly (:func:`_highs_solve`), row by row, with
    the options built once per process (:func:`_highs_options`).
    Returns (t*, lam, y, mu), with the duals mapped back onto every
    coordinate: y . col + mu <= 0 for every atom and y . p + mu = t*.
    Raises :class:`SolverFailed` when HiGHS reports no optimum, as on
    reaching the iteration limit, or its solution fails the check.
    """
    flat = p.reshape(-1)
    r, rows, mates = system
    hit = np.zeros(flat.size, dtype=bool)
    hit[rows] = hit[mates] = True
    swap = flat[mates] < flat[rows]
    lo, hi = np.where(swap, mates, rows), np.where(swap, rows, mates)
    missed = np.flatnonzero(~hit)
    worst = missed[np.abs(flat[missed]).argmax()] if missed.size else None
    t_floor = 0.0 if worst is None else abs(float(flat[worst]))

    # a posed row is a coordinate and its mirror, labeled by the lesser of
    # their orbits; the rows of an orbit share p's lower and upper entries,
    # so its first row stands for it
    _, first_row, orbit, size = np.unique(
        np.minimum(coordinate_orbit[rows], coordinate_orbit[mates]),
        return_index=True, return_inverse=True, return_counts=True)
    m = size.size
    # an atom's key is the orbits of its rows, sorted, and a class is the
    # atoms of one key, numbered in the order of their first atoms (lexsort
    # is stable, so each run of equal keys starts at its first atom)
    key = np.sort(orbit[r], axis=1)
    order = np.lexsort(key.T[::-1])
    new = np.append(True, np.diff(key[order], axis=0).any(axis=1))
    head = np.empty(order.size, dtype=np.intp)
    head[order] = order[new][np.cumsum(new) - 1]
    first_atom = np.sort(order[new])
    atom_class = np.searchsorted(first_atom, head)
    class_size = np.bincount(atom_class)
    first_key = key[first_atom]

    # Variables (alpha, beta, gamma, mu), one alpha and beta per orbit.  A
    # class's constraint row, <= 0, has -1/size at the alpha and +1/size at
    # the beta of the orbit of each row its first atom hits, and +1 at mu.
    # A row's indices increase and the next row starts below its last, so
    # repeats are adjacent; bincount merges them, adding in order.
    ncols, per_col = first_key.shape
    indices = np.hstack([first_key, first_key + m,
                         np.full((ncols, 1), 2 * m + 1)]).ravel()
    data = np.hstack([(-1.0 / size)[first_key], (1.0 / size)[first_key],
                      np.ones((ncols, 1))]).ravel()
    new = np.append(True, np.diff(indices) != 0)
    entry = np.cumsum(new) - 1
    # the last row, = 1: alpha, beta and gamma sum to 1
    nnz = int(entry[-1]) + 1
    indptr = np.append(entry[::2 * per_col + 1], [nnz, nnz + 2 * m + 1])
    indices = np.append(indices[new], np.arange(2 * m + 1))
    data = np.append(np.bincount(entry, data), np.ones(2 * m + 1))
    # HiGHS minimizes
    c = np.concatenate([flat[lo[first_row]], -flat[hi[first_row]], [-t_floor, -1.0]])
    row_bounds = (np.append(np.full(ncols, -np.inf), 1.0), np.append(np.zeros(ncols), 1.0))
    col_bounds = (np.append(np.zeros(2 * m + 1), -np.inf), np.full(2 * m + 2, np.inf))
    x, row_dual, fun = _highs_solve(
        c, (indptr, indices, data), row_bounds, col_bounds,
        _LP_ITERATIONS_PER_SIZE * (ncols + 1 + c.size), _highs_options())
    # lam is the multipliers of the class constraints, which HiGHS may
    # return some 1e-11 below zero
    lam = np.maximum(-row_dual[:ncols], 0.0)
    alpha, beta, (gamma, mu) = (x[:m] / size)[orbit], (x[m:2 * m] / size)[orbit], x[2 * m:]
    y = np.bincount(hi, beta, flat.size) - np.bincount(lo, alpha, flat.size)
    if worst is not None:
        y[worst] = gamma * np.sign(flat[worst])
    return -fun, (lam / class_size)[atom_class], y, float(mu)


@functools.cache
def _highs():
    """scipy's bundled HiGHS extension, ``scipy.optimize._highspy._core``, loaded once.

    Importing it by name would import ``scipy.optimize`` (some 570 modules,
    0.3 s and 40 MB cold), so the extension file is found in scipy's
    directory, which ``find_spec("scipy")`` reports without importing
    scipy, and loaded alone.  It is entered in ``sys.modules`` under its
    full name before it runs, so a later ``import scipy.optimize`` reuses
    it; if scipy.optimize loaded it first, that module is returned.
    """
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    dirs = [os.path.join(d, "optimize", "_highspy")
            for d in importlib.util.find_spec("scipy").submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(name, dirs)
    if spec is None:
        raise ImportError(f"no {name} in {dirs}: the membership LP needs scipy >= 1.15")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[name]
        raise
    return module


@functools.cache
def _highs_options():
    """The HiGHS options of every membership LP, built once per process and never changed.

    Presolve on, dual simplex, no output, and the primal and dual
    feasibility tolerances of ``_LP_OPTIONS``.  Each solve copies them
    into its own HiGHS instance and sets its iteration limit there
    (:func:`_highs_solve`).
    """
    highs = _highs()
    options = highs.HighsOptions()
    options.presolve = "on"
    options.simplex_strategy = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.output_flag = options.log_to_console = False
    for name, value in _LP_OPTIONS.items():
        setattr(options, name, value)
    return options


def _highs_solve(c, a_rows, row_bounds, col_bounds, iteration_limit, options):
    """Minimize c . x in HiGHS subject to bounds on A x and on x.

    ``row_bounds`` and ``col_bounds`` are (lower, upper) pairs of arrays:
    lower <= A x <= upper, entry by entry, and likewise for x.
    ``a_rows`` is A row by row, (indptr, indices, data), with increasing
    column indices in each row.  HiGHS runs at ``options``
    (:func:`_highs_options`), with at most ``iteration_limit`` simplex
    and interior-point iterations.  Returns (x, the row duals, the
    objective).  Raises :class:`SolverFailed`, naming HiGHS's model
    status, when HiGHS reports an error or no optimum, as on reaching
    the iteration limit, and when the solution fails the check after the
    solve: a NaN, or a bound of x or of a row missed by more than
    ``_LP_CHECK_TOL``.
    """
    highs = _highs()
    lp = highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = c.size
    lp.num_row_ = lp.a_matrix_.num_row_ = row_bounds[0].size
    lp.a_matrix_.format_ = highs.MatrixFormat.kRowwise
    start, index, lp.a_matrix_.value_ = a_rows
    # the binding copies a list of ints into its index vectors faster than an int array
    lp.a_matrix_.start_, lp.a_matrix_.index_ = start.tolist(), index.tolist()
    lp.col_cost_ = c
    lp.row_lower_, lp.row_upper_ = row_bounds
    lp.col_lower_, lp.col_upper_ = col_bounds
    solver = highs._Highs()
    solver.passOptions(options)
    solver.setOptionValue("simplex_iteration_limit", iteration_limit)
    solver.setOptionValue("ipm_iteration_limit", iteration_limit)
    error = (solver.passModel(lp) == highs.HighsStatus.kError
             or solver.run() == highs.HighsStatus.kError)
    status = solver.getModelStatus()
    if error or status != highs.HighsModelStatus.kOptimal:
        raise SolverFailed(f"membership LP failed: HiGHS {'error, ' if error else ''}model "
                           f"status '{solver.modelStatusToString(status)}'")
    solution = solver.getSolution()
    x, activity = np.array(solution.col_value), np.array(solution.row_value)
    fun = float(solver.getInfo().objective_function_value)
    tol = _LP_CHECK_TOL
    if (math.isnan(fun) or np.isnan(x).any() or np.isnan(activity).any()
            or (x < col_bounds[0] - tol).any() or (x > col_bounds[1] + tol).any()
            or (activity < row_bounds[0] - tol).any() or (activity > row_bounds[1] + tol).any()):
        raise SolverFailed(f"membership LP failed: the HiGHS solution misses its bounds "
                           f"by more than {tol:.2e}")
    return x, np.array(solution.row_dual), fun


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
    every atom), then every atom.  Each LP is posed on the orbits of
    the relabelings that fix p (:func:`_membership_lp`), which fix the
    mask p > tol and so map C onto itself; their orbits are found at the
    first LP and reused by the second.  Each atom set's
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
        err = float(np.abs(_coordinate_mixture(idx[support], weights, d.p.shape) - d.p).max())
        return (wrap(weights, atoms[support]) if err <= tol else None), err

    @functools.cache
    def coordinate_orbit():
        """The orbits of p's symmetries: found at the first LP, and at most once."""
        return _coordinate_orbits(_symmetries(d.p))

    def settle(atoms, idx, system):
        """One LP on ``atoms`` and both checks: (verdict or None, why neither check passed)."""
        if len(atoms):
            t_star, lam, y, mu = _membership_lp(system, d.p, coordinate_orbit())
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
        """(atoms, their coordinates, their distinct rows) of each LP, in order."""
        yield compatible, c_idx, c_system
        if len(compatible) < total:
            atoms, idx = _atom_table(family, n, k)
            yield atoms, idx, _distinct_rows(idx, d.p.shape)

    if len(compatible):
        found = _unique_mixture(c_system, d.p)
        if found is not None:
            verdict, _ = checked(compatible, c_idx, *found)
            if verdict is not None:
                return verdict
    for atoms, idx, system in stages():
        verdict, why = settle(atoms, idx, system)
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
    every permutation.  The LP over all n! permutations decides the rest.
    Every LP is posed on the orbits of the relabelings, of a fixed set,
    that leave the density unchanged (found once, at the first LP), with
    one constraint per class of permutations read from integer orbit
    keys; with none kept that is the LP on all rows.  Each LP goes to
    HiGHS directly, with options built once per process, and its
    solution is checked after the solve.  A mixture from an LP spans whole orbits (U_7
    returns all 5040 permutations) and is its own weights, returned
    once they pass the check.
    ``violation`` is a separating value: the distance t* of that LP when
    it gives the functional, and at least t* - M p(Z) of the LP on the
    compatible permutations when their functional is lifted (README,
    "Local membership").  All n! permutations are listed once per
    process and n, and kept read-only for every later verdict and
    :func:`separation_margins`.  n is bounded only through the guard:
    PreconditionFailed is raised when the search or an LP would hold more
    than 8! permutations.  SolverFailed is raised when no stage
    settles the density, with a message that gives t*, how far the last
    LP's weights are from the density and how far its certificate
    separates; and when an LP ends without an optimum, as on reaching its
    iteration limit, with a message that names HiGHS's model status.
    """
    if not validate(d, tol):
        raise PreconditionFailed("density must be valid")
    if not d.square or d.nA != d.kA:
        raise PreconditionFailed("need n inputs and n outputs for both players")
    if not _bisynchronous(d, tol):
        raise PreconditionFailed("density must be bisynchronous")
    return _decide_membership("permutations", d, tol, PermutationMixture)


def local_sync_membership(d: Density, tol: float = DEFAULT_TOL):
    """Membership of a synchronous density in the local polytope.

    Atoms are the k^n shared response functions; TooLarge is raised when
    an LP would pose more than 3000 of them.
    """
    if not validate(d, tol):
        raise PreconditionFailed("density must be valid")
    if not _synchronous(d, tol):
        raise PreconditionFailed("density must be synchronous")
    return _decide_membership("responses", d, tol, functools.partial(ResponseMixture, k=d.kA))


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
