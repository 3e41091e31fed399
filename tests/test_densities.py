import dataclasses
import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.optimize
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from bisyncgames import densities as dn
from bisyncgames import games
from bisyncgames.errors import (
    BadInput,
    BadWeights,
    InvalidDensity,
    NotBijective,
    PreconditionFailed,
    ShapeMismatch,
    SolverFailed,
    TooLarge,
)


def test_uniform_validates():
    assert dn.validate(dn.uniform_density(3, 4))


def test_permutation_density_validates_and_is_deterministic():
    d = dn.from_permutation([2, 0, 1])
    assert dn.validate(d)
    assert dn.is_nonsignalling(d)
    assert d.p[0, 1, 2, 0] == 1.0


def test_from_permutation_rejects_nonbijection():
    with pytest.raises(NotBijective):
        dn.from_permutation([0, 0, 1])


def test_identity_permutation_density_pattern():
    d = dn.from_permutation(range(3))
    for x, y, a, b in itertools.product(range(3), repeat=4):
        assert d.p[x, y, a, b] == (1.0 if (a, b) == (x, y) else 0.0)


def test_three_cycle_density_entry():
    d = dn.from_permutation([1, 2, 0])
    assert d.p[0, 1, 1, 2] == 1.0


def test_permutation_densities_always_bisynchronous():
    for n in range(1, 5):
        for sigma in itertools.permutations(range(n)):
            assert dn.is_bisynchronous_density(dn.from_permutation(sigma))


def test_z3_counterexample_classification():
    d = dn.z3_counterexample()
    assert dn.validate(d)
    assert dn.is_nonsignalling(d)
    assert dn.is_bisynchronous_density(d)
    assert d.p[0, 1, 2, 1] == pytest.approx(1 / 3)  # 2 - 1 = 1 mod 3


def test_z3_flip_is_not_a_density():
    flip = dn.flip_density(dn.z3_counterexample())
    assert not dn.validate(flip)
    # the row of input pair (2, 0) carries no mass at all
    assert flip.p[2, 0].sum() == 0.0


def test_flip_involution(rng):
    p = rng.random((3, 3, 3, 3))
    p /= p.sum(axis=(2, 3), keepdims=True)
    d = dn.Density(p)
    again = dn.flip_density(dn.flip_density(d))
    assert np.array_equal(again.p, d.p)


def test_flip_shape_guard():
    with pytest.raises(ShapeMismatch):
        dn.flip_density(dn.uniform_density(2, 3))


def test_nonsignalling_requires_valid():
    bad = dn.Density(np.zeros((2, 2, 2, 2)))
    with pytest.raises(InvalidDensity):
        dn.is_nonsignalling(bad)


def test_sync_and_bisync_examples():
    constant = dn.from_response_function([0, 0], 2)
    assert dn.is_synchronous_density(constant)
    assert not dn.is_bisynchronous_density(constant)
    assert not dn.is_synchronous_density(dn.uniform_density(2, 2))


def test_noncp_example_classification():
    d = dn.noncp_nonsignalling_example()
    assert dn.validate(d)
    assert dn.is_nonsignalling(d)
    # the anticorrelated exception sits on a diagonal input pair, so the
    # density is not synchronous
    assert not dn.is_synchronous_density(d)


def test_is_perfect_for_iso_game():
    c5 = games.cycle_graph(5)
    g = games.iso_game(c5, c5)
    f = [x + 5 if x < 5 else x - 5 for x in range(10)]
    d = dn.from_response_function(f, 10)
    assert dn.is_perfect_for(g, d)


def test_no_density_is_perfect_for_flipped_hom():
    g = games.flip_game(games.hom_game(games.complete_graph(3), games.path_graph(3)))
    assert not dn.is_perfect_for(g, dn.uniform_density(3, 3))
    assert not dn.is_perfect_for(g, dn.from_permutation([0, 1, 2]))


def test_perfect_shape_guard():
    g = games.hom_game(games.complete_graph(2), games.complete_graph(2))
    with pytest.raises(ShapeMismatch):
        dn.is_perfect_for(g, dn.uniform_density(3, 3))


def test_compose_with_identity():
    d = dn.z3_counterexample()
    ident = dn.from_permutation(range(3))
    assert np.abs(dn.compose(d, ident).p - d.p).max() < 1e-15
    assert np.abs(dn.compose(ident, d).p - d.p).max() < 1e-15


def test_compose_of_permutations():
    sigma = [1, 2, 0]
    tau = [2, 1, 0]
    comp = dn.compose(dn.from_permutation(tau), dn.from_permutation(sigma))
    expected = dn.from_permutation([tau[sigma[x]] for x in range(3)])
    assert np.array_equal(comp.p, expected.p)


def test_compose_preserves_bisynchronicity(rng):
    mixes = []
    for _ in range(2):
        perms = [tuple(rng.permutation(4)) for _ in range(3)]
        w = rng.random(3)
        mixes.append(dn.mixture([dn.from_permutation(s) for s in perms], w / w.sum()))
    r = dn.compose(mixes[0], mixes[1])
    assert dn.is_bisynchronous_density(r)
    assert dn.is_nonsignalling(r)


def test_mixture_singleton_and_weights():
    d = dn.z3_counterexample()
    assert np.array_equal(dn.mixture([d], [1.0]).p, d.p)
    with pytest.raises(BadWeights):
        dn.mixture([d, d], [0.7, 0.7])


def test_response_mixture_rejects_bad_weights():
    with pytest.raises(BadWeights):
        dn.ResponseMixture(np.array([2.0, -1.0]), ((0, 1), (1, 0)), 2)
    with pytest.raises(BadWeights):
        dn.ResponseMixture(np.array([1.0]), ((0, 1), (1, 0)), 2)


@pytest.mark.parametrize("value", [5, 2, -1])
def test_response_mixture_rejects_values_outside_the_outputs(value):
    with pytest.raises(ShapeMismatch):
        dn.ResponseMixture(np.array([0.5, 0.5]), ((0, 1), (1, value)), 2)


def test_weight_bounds_are_shared():
    d = dn.from_permutation([1, 0])
    builders = [
        lambda w: dn.mixture([d, d], w),
        lambda w: dn.PermutationMixture(w, ((0, 1), (1, 0))),
        lambda w: dn.ResponseMixture(w, ((0, 1), (1, 0)), 2),
    ]
    for build in builders:
        build(np.array([0.5 + 5e-10, 0.5]))        # sum within 1e-9
        build(np.array([1.0 + 5e-13, -5e-13]))     # least weight within -1e-12
        # NaN fails no comparison, so it needs its own check
        for bad in ([0.5 + 2e-9, 0.5], [1.0 + 2e-12, -2e-12], [math.nan, 1.0], [1.0, math.nan]):
            with pytest.raises(BadWeights):
                build(np.array(bad))


def test_uniform_mixture_of_all_permutations():
    # with sigma uniform over S_3: P(sigma(x) = a) = 1/3 on the diagonal
    # and P(sigma(x) = a, sigma(y) = b) = (n-2)!/n! = 1/6 off it
    perms = list(itertools.permutations(range(3)))
    mix = dn.mixture([dn.from_permutation(s) for s in perms],
                     [1 / 6] * 6)
    for x, y, a, b in itertools.product(range(3), repeat=4):
        if x == y:
            expected = (1 / 3) if a == b else 0.0
        elif a == b:
            expected = 0.0
        else:
            expected = 1 / 6
        assert mix.p[x, y, a, b] == pytest.approx(expected)


def test_mixture_of_bisynchronous_is_bisynchronous(rng):
    ds = [dn.from_permutation(rng.permutation(4)) for _ in range(3)]
    w = rng.random(3)
    assert dn.is_bisynchronous_density(dn.mixture(ds, w / w.sum()))


def test_membership_single_permutation():
    d = dn.from_permutation([1, 0, 2])
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    big = [s for w, s in zip(res.weights, res.permutations) if w > 0.5]
    assert big == [(1, 0, 2)]


def test_membership_recovers_random_mixture(rng):
    perms = [tuple(rng.permutation(4)) for _ in range(4)]
    w = rng.random(len(perms))
    d = dn.mixture([dn.from_permutation(s) for s in perms], w / w.sum())
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    recon = dn.mixture_density(res)
    assert np.abs(recon.p - d.p).max() <= 1e-9


def test_membership_z3_infeasible_with_certificate():
    d = dn.z3_counterexample()
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    assert res.violation > 1e-6
    on_polytope, at_d = dn.separation_margins(d, res)
    assert on_polytope <= 1e-9
    assert at_d == pytest.approx(res.violation, abs=1e-9)


def closed_form_uniform(n):
    """U_n without listing S_n: 1/n on x = y, a = b; 1/(n(n-1)) on x != y, a != b."""
    x, y, a, b = np.indices((n, n, n, n))
    return np.where(x == y, (a == b) / n, (a != b) / (n * (n - 1)))


def test_membership_preconditions():
    with pytest.raises(PreconditionFailed):
        dn.local_bisync_membership(dn.uniform_density(2, 2))
    # the guard bounds the permutations an LP would pose, not n: a single
    # permutation of 9 points is one compatible atom, while U_9 makes the
    # search outgrow 8! partial permutations
    single = dn.local_bisync_membership(dn.from_permutation(range(9)))
    assert isinstance(single, dn.PermutationMixture)
    assert single.permutations == (tuple(range(9)),)
    with pytest.raises(PreconditionFailed, match="exceed the guard of 40320"):
        dn.local_bisync_membership(dn.Density(closed_form_uniform(9)))


@pytest.mark.parametrize("decide", [dn.local_bisync_membership, dn.local_sync_membership])
@pytest.mark.parametrize("flaw", ["negative", "unnormalized"])
def test_membership_rejects_invalid_density(decide, flaw):
    p = dn.from_permutation([1, 2, 0]).p.copy()
    if flaw == "negative":      # still normalized, one entry below -tol
        p[0, 1, 2, 1] = -1e-3
        p[0, 1, 2, 0] -= 1e-3
    else:
        p[1, 2, 0, 0] += 1e-3
    d = dn.Density(p)
    assert not dn.validate(d)
    with pytest.raises(PreconditionFailed, match="valid"):
        decide(d)


@pytest.mark.parametrize("decide", [dn.local_bisync_membership, dn.local_sync_membership])
def test_membership_validates_once(decide, monkeypatch):
    calls = []
    real = dn.validate
    monkeypatch.setattr(dn, "validate", lambda d, tol=1e-9: calls.append(tol) or real(d, tol))
    decide(dn.from_permutation([1, 2, 0]))
    assert calls == [1e-9]


def test_sync_membership_feasible_and_guard(rng):
    funcs = [tuple(rng.integers(0, 2, size=3)) for _ in range(3)]
    w = rng.random(3)
    w /= w.sum()
    d = dn.mixture([dn.from_response_function(f, 2) for f in funcs], w)
    res = dn.local_sync_membership(d)
    assert isinstance(res, dn.ResponseMixture)
    recon = dn.response_mixture_density(res)
    assert np.abs(recon.p - d.p).max() <= 1e-9
    # a deterministic k = 4, n = 12 density has one compatible atom of 4^12
    det = dn.local_sync_membership(dn.from_response_function([0] * 12, 4))
    assert isinstance(det, dn.ResponseMixture)
    assert det.functions == ((0,) * 12,)
    # the uniform mixture of all 4^12 response functions makes the search
    # outgrow the guard
    x, y, a, b = np.indices((12, 12, 4, 4))
    uniform = np.where(x == y, (a == b) / 4, 1 / 16)
    with pytest.raises(TooLarge, match="exceed the guard of 3000"):
        dn.local_sync_membership(dn.Density(uniform))


def test_sync_membership_rejects_entangled_like_density():
    # bisynchronous but nonlocal: the order-3 counterexample is not even
    # synchronous-locally decomposable
    d = dn.z3_counterexample()
    res = dn.local_sync_membership(d)
    assert isinstance(res, dn.Infeasible)
    assert res.violation > 1e-6
    assert res.atoms == "responses"
    # the separating functional is checked over all 3^3 response columns
    on_polytope, at_d = dn.separation_margins(d, res)
    assert on_polytope <= 1e-9
    assert at_d == pytest.approx(res.violation, abs=1e-9)


# ---------------------------------------------------------------------------
# Membership LP: the boundary, solver failure, and the full-row reference


def cyclic_density(n, k):
    """z_{n,k}: equal inputs give equal outputs uniformly; distinct inputs
    force a - b = 1 (mod k) uniformly."""
    x, y, a, b = np.indices((n, n, k, k))
    return np.where(x == y, a == b, (a - b) % k == 1) / k


def uniform_permutation_density(n):
    perms = list(itertools.permutations(range(n)))
    return sum(dn.from_permutation(s).p for s in perms) / len(perms)


def cyclic_functional(n):
    """F(q) = sum over x != y and a - b = 1 (mod n) of q(a, b | x, y).  A
    permutation hits (a, b) = (v + 1, v) at exactly one ordered pair for
    each value v, so F = n on every permutation and on every mixture."""
    x, y, a, b = np.indices((n, n, n, n))
    return (x != y) & ((a - b) % n == 1)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("s", [1e-7, 2e-7, 1e-6])
def test_membership_boundary_slice_is_infeasible(monkeypatch, n, s):
    # d_s = (1 - s) U_n + s z_n is nonlocal for every s > 0; at s = 1e-7 the
    # default HiGHS tolerances alone once let a mixture 1.7e-8 away through
    d = dn.Density((1 - s) * uniform_permutation_density(n) + s * cyclic_density(n, n))
    calls = spy_linprog(monkeypatch)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    # every LP runs at primal and dual feasibility 1e-10, so no second LP
    # is needed this close to the boundary
    assert len(calls) == 1
    # full support: the LP over every atom gives the functional, unlifted,
    # so it is 0 on the zero pattern, where no permutation and no mass sit
    assert not res.functional[games.forbidden_positions(n, n, bisync=True).reshape(-1)].any()
    on_polytope, at_d = dn.separation_margins(d, res)
    assert on_polytope <= 1e-9
    assert at_d == pytest.approx(res.violation, abs=1e-9)
    f = cyclic_functional(n)
    # integer counts on the permutations, so this side is exact
    assert all(int(f[dn.from_permutation(t).p == 1].sum()) == n
               for t in itertools.permutations(range(n)))
    # F(d_s) - n = s n (n - 2) >= 3e-7, far above rounding
    assert float(d.p[f].sum()) - n > 0


def failing_linprog(*args, **kwargs):
    return scipy.optimize.OptimizeResult(status=2, message="infeasible (forced)")


def lp_bound_density():
    """(1 - 1e-6) U_4 + 1e-6 z_4: full support, and its 24 atoms have rank 23,
    so no least-squares step decides it and it poses an LP."""
    return dn.Density((1 - 1e-6) * uniform_permutation_density(4) + 1e-6 * cyclic_density(4, 4))


def test_solver_failure_raises_package_error(monkeypatch):
    monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
    with pytest.raises(SolverFailed, match="status 2"):
        dn.local_bisync_membership(lp_bound_density())


def loop_density(f, k):
    """Reference: p[x, y, f(x), f(y)] = 1, entry by entry."""
    n = len(f)
    p = np.zeros((n, n, k, k))
    for x in range(n):
        for y in range(n):
            p[x, y, f[x], f[y]] = 1.0
    return p


def test_atom_helper_matches_loops(rng):
    for n, k, family in [(1, 1, "permutations"), (3, 3, "permutations"),
                         (5, 5, "permutations"), (4, 2, "responses"), (5, 3, "responses")]:
        if family == "permutations":
            atoms = np.array([rng.permutation(n) for _ in range(4)])
        else:
            atoms = rng.integers(k, size=(4, n))
        idx = dn._atom_coordinates(atoms, k)
        for j, f in enumerate(atoms):
            ref = loop_density(f, k)
            tensor = np.zeros(ref.size)
            tensor[idx[j]] = 1.0
            assert np.array_equal(tensor.reshape(ref.shape), ref)
            assert np.array_equal(dn.from_response_function(f, k).p, ref)
            if family == "permutations":
                assert np.array_equal(dn.from_permutation(f).p, ref)
        w = rng.dirichlet(np.ones(len(atoms)))
        mixed = sum(wj * loop_density(f, k) for wj, f in zip(w, atoms))
        kept = tuple(map(tuple, atoms))
        if family == "permutations":
            rebuilt = dn.mixture_density(dn.PermutationMixture(w, kept))
        else:
            rebuilt = dn.response_mixture_density(dn.ResponseMixture(w, kept, k))
        # same sums, possibly in another order
        assert np.abs(rebuilt.p - mixed).max() <= 1e-15


def full_row_lp(atoms, p, k):
    """Reference: the membership LP over every coordinate, two-sided, plus
    an all-ones normalization row, as first posed.  Returns t*."""
    n = atoms.shape[1]
    rows, cols = [], []
    for j, f in enumerate(atoms):
        for x in range(n):
            for y in range(n):
                rows.append(((x * n + y) * k + f[x]) * k + f[y])
                cols.append(j)
    nrows, ncols = p.size + 1, len(atoms)
    body = scipy.sparse.csc_matrix((np.ones(len(rows)), (rows, cols)),
                                   shape=(p.size, ncols))
    a = scipy.sparse.vstack([body, np.ones((1, ncols))]).tocsc()
    b = np.append(p.reshape(-1), 1.0)
    ones = np.ones((nrows, 1))
    a_ub = scipy.sparse.vstack([scipy.sparse.hstack([a, -ones]),
                                scipy.sparse.hstack([-a, -ones])])
    a_eq = np.append(np.ones(ncols), 0.0)[None, :]
    c = np.zeros(ncols + 1)
    c[-1] = 1.0
    res = scipy.optimize.linprog(c, A_ub=a_ub, b_ub=np.concatenate([b, -b]),
                                 A_eq=a_eq, b_eq=[1.0], method="highs",
                                 options=dn._LP_OPTIONS)
    assert res.status == 0
    return res.fun


def _draw_density(kind, n, k, seed, s):
    rng = np.random.default_rng(seed)
    if kind == "responses":
        atoms = rng.integers(k, size=(4, n))
    else:
        atoms = np.array([rng.permutation(n) for _ in range(4)])
        k = n
    w = rng.dirichlet(np.ones(len(atoms)))
    p = sum(wj * loop_density(f, k) for wj, f in zip(w, atoms))
    if kind != "local":
        p = (1 - s) * p + s * cyclic_density(n, k)
    if kind == "asymmetric":
        # move mass between two off-diagonal outputs of one input pair
        # x != y, leaving the mirror pair (y, x) as it was
        for x, y in [(0, 1), (n - 1, 0)]:
            off = np.where(np.eye(n, dtype=bool), -1.0, p[x, y])
            a, b = np.unravel_index(off.argmax(), off.shape)
            shift = rng.uniform(0.2, 1.0) * p[x, y, a, b]
            p[x, y, a, b] -= shift
            p[x, y, (a + 1) % n, (a + 2) % n] += shift
    return dn.Density(p)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["local", "toward_z", "asymmetric", "responses"]),
       n=st.integers(3, 5), k=st.sampled_from([2, 3]),
       seed=st.integers(0, 2**32 - 1),
       s=st.one_of(st.floats(0.0, 0.4), st.sampled_from([1e-7, 2e-7, 1e-6])))
def test_reduced_lp_matches_full_row_reference(kind, n, k, seed, s):
    d = _draw_density(kind, n, k, seed, s)
    family = "responses" if kind == "responses" else "permutations"
    kk = k if family == "responses" else n
    atoms = games.atoms_within(family, n, kk)
    # both sides at the same HiGHS options: near the boundary HiGHS's
    # default ones leave t* uncertain by ~1e-8
    idx = dn._atom_coordinates(atoms, kk)
    t_star, lam, y, mu = dn._membership_lp(dn._distinct_rows(idx, d.p.shape), d.p)
    assert t_star == pytest.approx(full_row_lp(atoms, d.p, kk), abs=1e-9)
    # the weights and the functional returned by the dual posing
    assert lam.min() >= -1e-12
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert (y[idx].sum(axis=1) + mu).max() <= 1e-9
    assert float(y @ d.p.reshape(-1)) + mu == pytest.approx(t_star, abs=1e-9)
    if family == "responses":
        res = dn.local_sync_membership(d)
        rebuild = dn.response_mixture_density
    else:
        res = dn.local_bisync_membership(d)
        rebuild = dn.mixture_density
    if isinstance(res, dn.Infeasible):
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 1e-9
        assert at_d == pytest.approx(res.violation, abs=1e-9)
    else:
        assert np.abs(rebuild(res).p - d.p).max() <= dn.DEFAULT_TOL


# ---------------------------------------------------------------------------
# Candidate atoms first: the atoms whose coordinates all carry more than tol


def spy_linprog(monkeypatch):
    """Record the number of constraint rows and of variables of every LP."""
    calls = []
    real = scipy.optimize.linprog

    def spy(c, A_ub=None, *args, **kwargs):
        calls.append((A_ub.shape[0], len(c)))
        return real(c, A_ub, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    return calls


def random_permutation_mixture(rng, n, m):
    perms = [rng.permutation(n) for _ in range(m)]
    w = rng.dirichlet(np.ones(m))
    return dn.mixture([dn.from_permutation(s) for s in perms], w)


def block_uniform(n, m):
    """The uniform mixture of the m! permutations of 0..m-1 that fix m..n-1.
    Its compatible atoms are those m!, dependent as densities for m >= 4."""
    fixed = tuple(range(m, n))
    return dn.mixture([dn.from_permutation(s + fixed) for s in itertools.permutations(range(m))],
                      np.full(math.factorial(m), 1 / math.factorial(m)))


def test_sparse_local_mixture_poses_only_candidate_atoms(monkeypatch):
    # 6 random permutations of 7 points are independent: one least-squares
    # solve on them decides, with no LP
    d = random_permutation_mixture(np.random.default_rng(7), 7, 6)
    calls = spy_linprog(monkeypatch)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= dn.DEFAULT_TOL
    assert calls == []
    # the 24 permutations of 4 of the 7 points are not: the LP poses them alone
    d = block_uniform(7, 4)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= dn.DEFAULT_TOL
    atoms = games.atoms_within("permutations", 7, 7)
    dn._membership_lp(dn._distinct_rows(dn._atom_coordinates(atoms, 7), d.p.shape), d.p)
    (cand_atoms, cand_vars), (all_atoms, all_vars) = calls
    assert all_atoms == math.factorial(7)
    assert cand_atoms == 24
    assert cand_vars < all_vars


@pytest.mark.parametrize("eps", [1e-10, 5e-10, 2e-9, 1e-8])
def test_mixture_with_an_atom_near_tol_is_local(eps):
    rng = np.random.default_rng(11)
    n = 5
    base = random_permutation_mixture(rng, n, 4)
    extra = dn.from_permutation(rng.permutation(n))
    d = dn.Density((1 - eps) * base.p + eps * extra.p)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= dn.DEFAULT_TOL


def test_atom_near_tol_is_settled_by_one_lp_on_c(monkeypatch):
    # the extra atom carries 1.5e-9 > tol, so it is compatible.  With
    # independent compatible atoms C one least-squares solve finds it, with
    # no LP; with C dependent (the 24 permutations of 4 of the 5 points, and
    # the extra one) one LP on C does, which at HiGHS's default feasibility
    # tolerance (1e-7) would miss it
    rng = np.random.default_rng(0)
    eps = 1.5e-9
    for n, mix, lps in [(4, random_permutation_mixture(rng, 4, 3), 0), (5, block_uniform(5, 4), 1)]:
        sigma = tuple(rng.permutation(n).tolist())
        d = dn.Density((1 - eps) * mix.p + eps * dn.from_permutation(sigma).p)
        calls = spy_linprog(monkeypatch)
        res = dn.local_bisync_membership(d)
        assert isinstance(res, dn.PermutationMixture)
        assert np.abs(dn.mixture_density(res).p - d.p).max() <= dn.DEFAULT_TOL
        assert len(calls) == lps and all(atoms < math.factorial(n) for atoms, _ in calls)
        assert sigma in res.permutations
        if lps == 0:
            assert len(res.permutations) == 4


def test_nonlocal_with_candidate_atoms_gets_an_exact_certificate():
    n = 6
    mix = random_permutation_mixture(np.random.default_rng(7), n, 6)
    d = dn.Density(0.9 * mix.p + 0.1 * cyclic_density(n, n))
    idx = dn._atom_coordinates(games.atoms_within("permutations", n, n), n)
    candidates = int((d.p.reshape(-1)[idx].min(axis=1) > dn.DEFAULT_TOL).sum())
    assert 0 < candidates < math.factorial(n)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    on_polytope, at_d = dn.separation_margins(d, res)
    # the offset is minus the functional's maximum over the same atoms
    assert on_polytope <= 0.0
    assert at_d == pytest.approx(res.violation, abs=1e-12)
    assert res.violation > dn.DEFAULT_TOL


def loop_synchronous(d, tol):
    """The parent's index arithmetic for densities._synchronous."""
    dn._require_square(d)
    same_input = d.p[np.arange(d.nA), np.arange(d.nA)]
    return float(same_input[:, ~np.eye(d.kA, dtype=bool)].max(initial=0.0)) <= tol


def loop_bisynchronous(d, tol):
    """The parent's index arithmetic for densities._bisynchronous."""
    if not loop_synchronous(d, tol):
        return False
    same_output = np.einsum("xyaa->xya", d.p)[~np.eye(d.nA, dtype=bool)]
    return float(same_output.max(initial=0.0)) <= tol


def test_pattern_predicates_match_loop_references(rng):
    # entries of 0, 1e-10 and 1e-8 on the zero pattern straddle every tol
    checked = set()
    for _ in range(200):
        n, k = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        p = rng.random((n, n, k, k))
        mask = games.forbidden_positions(n, k, bisync=True)
        p[mask] = rng.choice([0.0, 1e-10, 1e-8], size=int(mask.sum()),
                             p=rng.dirichlet(np.ones(3)))
        d = dn.Density(p)
        for tol in (1e-12, 1e-9, 1e-6):
            sync, bisync = dn._synchronous(d, tol), dn._bisynchronous(d, tol)
            assert sync == loop_synchronous(d, tol)
            assert bisync == loop_bisynchronous(d, tol)
            checked.add((sync, bisync))
    assert checked == {(False, False), (True, False), (True, True)}
    with pytest.raises(ShapeMismatch):
        dn._bisynchronous(dn.Density(np.ones((2, 3, 2, 2))), 1e-9)


def test_response_atoms_are_the_guarded_product():
    for n, k in [(1, 1), (2, 3), (3, 2), (4, 3), (5, 2), (5, 4)]:
        atoms = games.atoms_within("responses", n, k)
        ref = np.array(list(itertools.product(range(k), repeat=n)), dtype=np.intp)
        assert atoms.dtype == np.intp and np.array_equal(atoms, ref)
    with pytest.raises(TooLarge, match="exceed the guard of 3000"):
        games.atoms_within("responses", 6, 4)


# ---------------------------------------------------------------------------
# The compatible atoms by search, and the certificate lifted from them


def compatible_atoms(family, p, tol):
    """The search restricted to the atoms whose coordinates all carry more than tol."""
    n, _, k, _ = p.shape
    allowed = p > tol
    return games.atoms_within(family, n, k, allowed & allowed.transpose(1, 0, 3, 2))


@settings(max_examples=80, deadline=None)
@given(family=st.sampled_from(["permutations", "responses"]),
       n=st.integers(1, 6), k=st.integers(1, 4), atoms=st.integers(0, 8),
       fill=st.sampled_from([0.0, 0.05, 0.3, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_compatible_search_equals_the_filtered_listing(family, n, k, atoms, fill, seed):
    if family == "permutations":
        k = n
    elif k ** n > 3000:
        k = 3
    rng = np.random.default_rng(seed)
    draw = (lambda: rng.permutation(n)) if family == "permutations" else \
        (lambda: rng.integers(k, size=n))
    p = sum((rng.random() * loop_density(draw(), k) for _ in range(atoms)),
            np.zeros((n, n, k, k)))
    # noise on a random share of the entries, straddling tol; fill 1 with
    # values above tol everywhere gives full support, fill 0 and no atoms
    # the empty set
    noise = rng.choice([1e-10, 1e-9, 1e-8, 0.5], size=p.shape)
    p += np.where(rng.random(p.shape) < fill, noise, 0.0)
    if fill == 1.0:
        p += 1e-8
    tol = dn.DEFAULT_TOL
    listed = games.atoms_within(family, n, k)
    expect = listed[p.reshape(-1)[dn._atom_coordinates(listed, k)].min(axis=1) > tol]
    found = compatible_atoms(family, p, tol)
    assert found.dtype == np.intp and found.shape == expect.shape
    assert np.array_equal(found, expect)
    if fill == 1.0:
        assert np.array_equal(found, listed)
    if fill == 0.0 and atoms == 0:
        assert found.shape == (0, n)


def test_permutation_atoms_are_itertools_order():
    for n in range(1, 8):
        ref = np.array(list(itertools.permutations(range(n))), dtype=np.intp)
        assert np.array_equal(games.atoms_within("permutations", n, n), ref)


def sparse_nonlocal(rng, family, n, k, atoms):
    """(1 - s) * a mixture of a few random atoms + s * z_{n,k}."""
    if family == "permutations":
        draws, s = [rng.permutation(n) for _ in range(atoms)], rng.uniform(0.05, 0.5)
    else:
        draws, s = [rng.integers(k, size=n) for _ in range(atoms)], rng.uniform(0.45, 0.7)
    w = rng.dirichlet(np.ones(atoms))
    p = sum(wj * loop_density(f, k) for wj, f in zip(w, draws))
    return dn.Density((1 - s) * p + s * cyclic_density(n, k))


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["permutations", "responses"]), n=st.integers(4, 7),
       atoms=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_lifted_certificates_are_checked_over_every_atom(family, n, atoms, seed):
    k = n if family == "permutations" else 3
    d = sparse_nonlocal(np.random.default_rng(seed), family, n, k, atoms)
    decide = dn.local_bisync_membership if family == "permutations" else \
        dn.local_sync_membership
    res = decide(d)
    assert isinstance(res, dn.Infeasible) and res.atoms == family
    assert res.violation > dn.DEFAULT_TOL
    on_polytope, at_d = dn.separation_margins(d, res)
    # the offset is minus the functional's maximum in the same float sums
    assert on_polytope <= 0.0
    assert at_d == res.violation


def zero_set_mass(d):
    flat = d.p.reshape(-1)
    return float(flat[flat <= dn.DEFAULT_TOL].sum())


def test_no_compatible_atom_gives_the_zero_set_certificate():
    # z_n: no permutation keeps a - b = 1 (mod n) on both (x, y) and (y, x)
    z5 = dn.Density(cyclic_density(5, 5))
    assert compatible_atoms("permutations", z5.p, dn.DEFAULT_TOL).shape == (0, 5)
    res = dn.local_bisync_membership(z5)
    assert isinstance(res, dn.Infeasible)
    assert np.array_equal(res.functional, -1.0 * (z5.p.reshape(-1) <= dn.DEFAULT_TOL))
    # 1 - q(Z) <= 0 on every atom; within the guard the offset is then
    # tightened to the least q(Z): every permutation puts 15 of its 20
    # ordered pairs x != y on the zero set
    assert res.offset == 15.0
    assert res.violation == res.offset - zero_set_mass(z5) >= 1 - zero_set_mass(z5)
    assert dn.separation_margins(z5, res) == (0.0, res.violation)
    # beyond the guard the offset is the bound 1 itself
    z9 = dn.Density(cyclic_density(9, 9))
    res = dn.local_bisync_membership(z9)
    assert isinstance(res, dn.Infeasible)
    assert res.offset == 1.0 and res.violation == 1 - zero_set_mass(z9)
    # 9^4 coordinates, of which 81 diagonal and 72 * 9 cyclic ones carry mass
    assert res.witness == "every atom meets the 5832 coordinates where p <= tol"


def test_lifted_offset_beyond_the_guard_holds_on_every_atom():
    # n = 9: the offset comes from the bound, not from a sweep; check it
    # against all 9! permutations, listed 8! at a time by their first value
    n = 9
    rng = np.random.default_rng(3)
    d = dn.Density(0.8 * random_permutation_mixture(rng, n, 4).p + 0.2 * cyclic_density(n, n))
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible) and res.violation > dn.DEFAULT_TOL
    assert "atoms that avoid p <= tol" in res.witness
    rest = games.atoms_within("permutations", n - 1, n - 1)
    worst = -np.inf
    for first in range(n):
        others = np.delete(np.arange(n), first)
        perms = np.column_stack([np.full(len(rest), first), others[rest]])
        idx = dn._atom_coordinates(perms, n)
        worst = max(worst, float((res.functional[idx].sum(axis=1) + res.offset).max()))
    assert worst <= 1e-12
    assert float(res.functional @ d.p.reshape(-1) + res.offset) == res.violation


def test_separation_margins_is_guarded_without_listing():
    z9 = dn.Density(cyclic_density(9, 9))
    cert = dn.local_bisync_membership(z9)
    # the search stops at the first partial listing beyond 8! rows
    with pytest.raises(PreconditionFailed, match="on 6 of 9 inputs exceed the guard"):
        dn.separation_margins(z9, cert)
    z12 = dn.Density(cyclic_density(12, 4))
    cert = dn.local_sync_membership(z12)
    assert isinstance(cert, dn.Infeasible) and cert.atoms == "responses"
    with pytest.raises(TooLarge, match="exceed the guard of 3000"):
        dn.separation_margins(z12, cert)


def test_sparse_mixture_at_n10_is_decided_on_its_compatible_atoms(monkeypatch):
    def no_listing(family, n, k, allowed=None):
        if allowed is None:
            raise AssertionError("all atoms listed")
        return games.atoms_within(family, n, k, allowed)

    d = random_permutation_mixture(np.random.default_rng(5), 10, 3)
    monkeypatch.setattr(dn, "atoms_within", no_listing)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= dn.DEFAULT_TOL


def test_sparse_n8_nonlocal_poses_no_full_lp(monkeypatch):
    mix = random_permutation_mixture(np.random.default_rng(7), 8, 6)
    d = dn.Density(0.9 * mix.p + 0.1 * cyclic_density(8, 8))
    calls = spy_linprog(monkeypatch)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible) and res.violation > dn.DEFAULT_TOL
    assert calls and all(atoms < math.factorial(8) for atoms, _ in calls)
    on_polytope, at_d = dn.separation_margins(d, res)
    assert on_polytope <= 0.0 and at_d == res.violation


def test_response_mixture_shares_the_range_message():
    with pytest.raises(ShapeMismatch) as mixture_error:
        dn.ResponseMixture([1.0], ((0, 5),), 2)
    with pytest.raises(ShapeMismatch) as density_error:
        dn.from_response_function((0, 5), 2)
    assert str(mixture_error.value) == str(density_error.value)


# ---------------------------------------------------------------------------
# Every atom: one LP on all distinct rows, or on orbits


def upper_incidence(family, n, k):
    """Reference: the 0/1 matrix of the x <= y coordinates against every
    atom, by loops, restricted to the coordinates some atom hits.  Returns
    (coordinates, matrix)."""
    atoms = games.atoms_within(family, n, k)
    coords, cols = np.array([(((x * n + y) * k + f[x]) * k + f[y], j)
                             for j, f in enumerate(atoms)
                             for x in range(n) for y in range(x, n)]).T
    hit = np.unique(coords)
    m = np.zeros((hit.size, len(atoms)))
    m[np.searchsorted(hit, coords), cols] = 1.0
    return hit, m


@pytest.mark.parametrize("family, n, k", [("permutations", 1, 1), ("permutations", 4, 4),
                                          ("permutations", 6, 6), ("responses", 1, 3),
                                          ("responses", 4, 3), ("responses", 6, 2)])
def test_distinct_rows_match_the_loop_incidence(family, n, k):
    idx = dn._atom_coordinates(games.atoms_within(family, n, k), k)
    r, rows, mates = dn._distinct_rows(idx, (n, n, k, k))
    coords, b = upper_incidence(family, n, k)
    assert np.array_equal(rows, coords)
    # r[j] lists each row atom j hits once, and no other
    incidence = np.zeros_like(b)
    np.add.at(incidence, (r, np.arange(len(idx))[:, None]), 1.0)
    assert np.array_equal(incidence, b)
    x, y, a, c = np.unravel_index(rows, (n, n, k, k))
    assert np.array_equal(mates, np.ravel_multi_index((y, x, c, a), (n, n, k, k)))


def uniform_atom_density(family, n, k):
    atoms = games.atoms_within(family, n, k)
    return sum(loop_density(f, k) for f in atoms) / len(atoms)


@settings(max_examples=40, deadline=None)
@given(family=st.sampled_from(["permutations", "responses"]),
       base=st.sampled_from(["uniform", "mixture"]),
       n=st.integers(3, 6), k=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       s=st.sampled_from([0.0, 1e-7, 2e-7, 1e-6, 1e-3, 0.05, 0.3, 0.6]))
def test_full_support_verdicts_match_the_full_row_lp(family, base, n, k, seed, s):
    # U_n (or the uniform response density), or 0.8 of a random mixture plus
    # 0.2 of it, moved toward z by s: every atom is compatible
    if family == "permutations":
        k = n
    else:
        n -= 1
    p = uniform_atom_density(family, n, k)
    if base == "mixture":
        rng = np.random.default_rng(seed)
        atoms = (np.array([rng.permutation(n) for _ in range(3)]) if family == "permutations"
                 else rng.integers(k, size=(3, n)))
        w = rng.dirichlet(np.ones(3))
        p = 0.8 * sum(wj * loop_density(f, k) for wj, f in zip(w, atoms)) + 0.2 * p
    d = dn.Density((1 - s) * p + s * cyclic_density(n, k))
    t_star = full_row_lp(games.atoms_within(family, n, k), d.p, k)
    local = t_star <= dn.DEFAULT_TOL
    if family == "permutations":
        res, rebuild = dn.local_bisync_membership(d), dn.mixture_density
    else:
        res, rebuild = dn.local_sync_membership(d), dn.response_mixture_density
    assert isinstance(res, dn.Infeasible) != local
    if local:
        assert np.abs(rebuild(res).p - d.p).max() <= dn.DEFAULT_TOL
    else:
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 0.0
        assert at_d == pytest.approx(res.violation, abs=1e-12)
        assert res.violation > dn.DEFAULT_TOL
        # every atom is compatible, so the functional is the every-atom LP's
        assert res.violation == pytest.approx(t_star, abs=1e-9)


@pytest.mark.parametrize("n, s", [(5, 0.1), (6, 0.1), (6, 0.5)])
def test_lifted_shortfall_skips_the_tight_resolve_on_c(monkeypatch, n, s):
    # at tol = 0.05 the LP on the compatible atoms C puts these at t* > tol,
    # but the lift eats the certificate's margin, so C is posed once and
    # every atom decides
    tol = 0.05
    mix = random_permutation_mixture(np.random.default_rng(3), n, 3)
    d = dn.Density((1 - s) * mix.p + s * cyclic_density(n, n))
    calls = spy_linprog(monkeypatch)
    res = dn.local_bisync_membership(d, tol)
    assert [atoms < math.factorial(n) for atoms, _ in calls] == [True, False]
    local = full_row_lp(games.atoms_within("permutations", n, n), d.p, n) <= tol
    assert isinstance(res, dn.Infeasible) != local
    if local:
        assert np.abs(dn.mixture_density(res).p - d.p).max() <= tol
    else:
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 0.0 and at_d == res.violation > tol


def test_every_membership_lp_gets_the_one_options_object(monkeypatch):
    # a local input that at tol 0.05 poses both stages: the compatible
    # atoms, then every atom on all rows
    mix = random_permutation_mixture(np.random.default_rng(0), 4, 3)
    d = dn.Density(0.8 * mix.p + 0.2 * cyclic_density(4, 4))
    options, real = [], scipy.optimize.linprog

    def spy(*args, **kwargs):
        options.append(kwargs.get("options"))
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    res = dn.local_bisync_membership(d, 0.05)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= 0.05
    # one tolerance setting; only the iteration limit follows the LP's size
    assert len(options) == 2
    assert all(o == {**dn._LP_OPTIONS, "maxiter": o["maxiter"]} for o in options)


# ---------------------------------------------------------------------------
# Independent compatible atoms: one least-squares solve before any LP


def lp_route(decide, d, tol):
    """The verdict with the least-squares step switched off, or the SolverFailed it raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dn, "_unique_mixture", lambda idx, p: None)
        try:
            return decide(d, tol)
        except SolverFailed as exc:
            return exc


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["permutations", "responses"]), n=st.integers(3, 7),
       atoms=st.integers(1, 8), s=st.sampled_from([0.0, 0.0, 0.1, 0.5]),
       tol=st.sampled_from([1e-9, 1e-6, 0.05]), seed=st.integers(0, 2**32 - 1))
def test_least_squares_step_agrees_with_the_lp_route(family, n, atoms, s, tol, seed):
    # a mixture of a few random atoms, moved toward z by s
    rng = np.random.default_rng(seed)
    k = n if family == "permutations" else 3
    draw = (lambda: rng.permutation(n)) if family == "permutations" else \
        (lambda: rng.integers(k, size=n))
    w = rng.dirichlet(np.ones(atoms))
    p = sum(wj * loop_density(draw(), k) for wj in w)
    d = dn.Density((1 - s) * p + s * cyclic_density(n, k))
    if family == "permutations":
        decide, rebuild = dn.local_bisync_membership, dn.mixture_density
    else:
        decide, rebuild = dn.local_sync_membership, dn.response_mixture_density
    try:
        res = decide(d, tol)
    except SolverFailed:
        return
    ref = lp_route(decide, d, tol)
    if not isinstance(ref, SolverFailed):
        assert isinstance(res, dn.Infeasible) == isinstance(ref, dn.Infeasible)
    if isinstance(res, dn.Infeasible):
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 0.0 and at_d > tol
    else:
        assert np.abs(rebuild(res).p - d.p).max() <= tol


def test_least_squares_step_skips_dependent_atoms(monkeypatch):
    # U_4's 24 atoms have rank 23, so the solve reports a deficient rank;
    # U_6's 720 atoms outnumber its 486 + 1 rows, so none is tried.  A
    # single atom is independent
    solves, real = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *args, **kw: solves.append(1) or real(*args, **kw))
    for n, tried in [(4, 1), (6, 0)]:
        solves.clear()
        idx = dn._atom_coordinates(games.atoms_within("permutations", n, n), n)
        p = uniform_permutation_density(n)
        assert dn._unique_mixture(dn._distinct_rows(idx, p.shape), p) is None
        assert len(solves) == tried
    atom = games.atoms_within("permutations", 6, 6)[[7]]
    p = dn.from_permutation(atom[0]).p
    system = dn._distinct_rows(dn._atom_coordinates(atom, 6), p.shape)
    support, weights = dn._unique_mixture(system, p)
    assert support.tolist() == [0] and weights.tolist() == [1.0]


def test_row_system_matches_the_sum_of_squares_over_every_coordinate(rng):
    # ||a lam - b||^2 differs from the squared residual over all n^2 k^2
    # coordinates and the sum of the weights by a constant in lam
    for family, n, k in [("permutations", 5, 5), ("responses", 4, 3)]:
        atoms = games.atoms_within(family, n, k)[rng.choice(20, size=6, replace=False)]
        idx = dn._atom_coordinates(atoms, k)
        p = rng.random((n, n, k, k))
        a, b = dn._row_system(p, *dn._distinct_rows(idx, p.shape))
        dense = np.zeros((p.size + 1, len(atoms)))
        dense[idx, np.arange(len(atoms))[:, None]] = 1.0
        dense[-1] = 1.0
        target = np.append(p.reshape(-1), 1.0)
        gaps = [np.sum((dense @ lam - target) ** 2) - np.sum((a @ lam - b) ** 2)
                for lam in rng.random((4, len(atoms)))]
        assert np.ptp(gaps) <= 1e-9
        assert a.shape[0] < dense.shape[0]


def test_membership_stall_ends_in_seconds():
    # At dual feasibility 1e-10 HiGHS once ran the every-atom LP on this
    # input for over 150k iterations without end; the iteration limit turns
    # that into SolverFailed.  A subprocess, so that a stall fails the test
    # instead of hanging the suite
    code = """
import numpy as np
from bisyncgames import densities as dn
from bisyncgames.errors import SolverFailed
for seed in (2, 3):
    rng = np.random.default_rng(seed)
    perms = [rng.permutation(6) for _ in range(12)]
    mix = dn.mixture([dn.from_permutation(s) for s in perms], rng.dirichlet(np.ones(12)))
    x, y, a, b = np.indices((6, 6, 6, 6))
    z = np.where(x == y, a == b, (a - b) % 6 == 1) / 6
    d = dn.Density((1 - 1e-8) * mix.p + 1e-8 * z)
    try:
        res = dn.local_bisync_membership(d, 0.05)
    except SolverFailed:
        print("SolverFailed")
    else:
        if isinstance(res, dn.Infeasible):
            on_polytope, at_d = dn.separation_margins(d, res)
            print("Infeasible", on_polytope <= 0.0 and at_d > 0.05)
        else:
            print("Mixture", np.abs(dn.mixture_density(res).p - d.p).max() <= 0.05)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(dn.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env, timeout=120).stdout.splitlines()
    assert len(out) == 2 and set(out) <= {"SolverFailed", "Infeasible True", "Mixture True"}


# ---------------------------------------------------------------------------
# Loose tolerance: each stage returns its LP's own weights once they pass


@pytest.mark.parametrize("n, m, seed", [(6, 40, 0), (5, 8, 2)])
def test_loose_tolerance_mixture_is_returned(n, m, seed):
    # the LP puts these within 0.05 of the polytope (for (6, 40, 0) at
    # t* = 0.040) and its own weights pass; a least-squares re-fit of them
    # lands 0.053 away
    mix = random_permutation_mixture(np.random.default_rng(seed), n, m)
    d = dn.Density(0.7 * mix.p + 0.3 * cyclic_density(n, n))
    res = dn.local_bisync_membership(d, 0.05)
    assert isinstance(res, dn.PermutationMixture)
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= 0.05


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), seed=st.integers(0, 2**32 - 1))
def test_mixture_toward_z5_within_tol_is_settled(m, seed):
    # t* is convex along the segment, so it is at most 0.3 t*(z_5) = 0.045
    # < tol: the LP over every atom returns weights within tol, and no
    # input may end in SolverFailed.  A sparse draw may still be settled
    # first by the certificate lifted from its compatible atoms, since the
    # density lies outside the polytope; either verdict must pass its check
    mix = random_permutation_mixture(np.random.default_rng(seed), 5, m)
    d = dn.Density(0.7 * mix.p + 0.3 * cyclic_density(5, 5))
    res = dn.local_bisync_membership(d, 0.05)
    if isinstance(res, dn.Infeasible):
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 0.0 and at_d > 0.05
    else:
        assert np.abs(dn.mixture_density(res).p - d.p).max() <= 0.05


def test_solver_failed_states_the_weights_and_the_separation(monkeypatch):
    # an LP whose weights (all on one atom) miss p and whose functional is
    # zero settles no stage; the message gives both shortfalls.  The
    # identity misses p(a=0,b=1|x=0,y=1) = 0.7 / 12 by 1 - 0.7 / 12
    d = dn.Density(0.7 * uniform_permutation_density(4) + 0.3 * cyclic_density(4, 4))

    def unsettled(system, p, orbits=None):
        return 0.0, np.eye(len(system[0]))[0], np.zeros(p.size), 0.0

    monkeypatch.setattr(dn, "_membership_lp", unsettled)
    with pytest.raises(SolverFailed, match=r"at tol 0\.05 its weights are 9\.417e-01 away "
                                           r"\(\+8\.9e-01 from tol\) and its certificate "
                                           r"separates by only 0\.000e\+00 \(-5\.0e-02 from tol\)"):
        dn.local_bisync_membership(d, 0.05)


# ---------------------------------------------------------------------------
# Symmetric densities: the LP over every atom posed once, on orbits


def candidate_relabelings(n, k):
    """Reference: the adjacent transpositions and the cycle of the inputs, of the
    outputs and (n = k) of both, as (pi, tau) pairs, built with lists."""
    def moves(m):
        swaps = []
        for i in range(m - 1):
            s = list(range(m))
            s[i], s[i + 1] = s[i + 1], s[i]
            swaps.append(s)
        return swaps + ([list(range(1, m)) + [0]] if m > 2 else [])
    pairs = [(s, list(range(k))) for s in moves(n)] + [(list(range(n)), t) for t in moves(k)]
    return pairs + ([(s, s) for s in moves(n)] if n == k else [])


def coordinate_map(pi, tau, shape):
    """Reference: the flat index of (pi[x], pi[y], tau[a], tau[b]) at each flat (x, y, a, b)."""
    return tuple(int(np.ravel_multi_index((pi[x], pi[y], tau[a], tau[b]), shape))
                 for x, y, a, b in itertools.product(*map(range, shape)))


def loop_orbits(size, moves):
    """Reference: the orbit of each coordinate, grown by applying the maps until closed."""
    label = -np.ones(size, dtype=int)
    for start in range(size):
        if label[start] >= 0:
            continue
        orbit, frontier = {start}, [start]
        while frontier:
            c = frontier.pop()
            for move in moves:
                if move[c] not in orbit:
                    orbit.add(move[c])
                    frontier.append(move[c])
        label[list(orbit)] = start
    return label


def symmetric_density(family, n, k, s, relabel=None):
    """U (uniform over the atoms) moved toward z by s; ``relabel`` ("inputs" or
    "outputs") renames that side by a fixed permutation that breaks the cycle."""
    if family == "permutations":
        p = closed_form_uniform(n)
    else:
        p = uniform_atom_density(family, n, k)
    p = (1 - s) * p + s * cyclic_density(n, k)
    if relabel == "inputs":
        sigma = np.roll(np.arange(n), 1)[::-1]
        p = p[np.ix_(sigma, sigma, range(k), range(k))]
    elif relabel == "outputs":
        sigma = np.r_[1, 0, 2:k]
        p = p[np.ix_(range(n), range(n), sigma, sigma)]
    return dn.Density(p)


@pytest.mark.parametrize("family, n, k", [("permutations", 4, 4), ("permutations", 5, 5),
                                          ("responses", 4, 3), ("responses", 3, 2)])
@pytest.mark.parametrize("s", [0.0, 0.3])
@pytest.mark.parametrize("relabel", [None, "inputs", "outputs"])
def test_kept_generators_are_exact_symmetries(family, n, k, s, relabel):
    d = symmetric_density(family, n, k, s, relabel)
    atoms = games.atoms_within(family, n, k)
    expected = []
    for pi, tau in candidate_relabelings(n, k):
        eye_n, eye_k = np.eye(n)[pi], np.eye(k)[tau]
        moved = np.einsum("xX,yY,aA,bB,XYAB->xyab", eye_n, eye_n, eye_k, eye_k, d.p)
        if np.array_equal(moved, d.p):
            expected.append(coordinate_map(pi, tau, d.p.shape))
            # f -> tau . f . pi^-1 maps the atoms of the family onto themselves
            images = np.array(tau)[atoms[:, np.argsort(pi)]]
            assert {tuple(f) for f in images} == {tuple(f) for f in atoms}
    kept = dn._symmetries(d.p)
    assert expected and [tuple(move) for move in kept] == expected
    orbits = dn._coordinate_orbits(kept)
    reference = loop_orbits(d.p.size, expected)
    # the same partition, and p is constant on each part
    assert len(set(zip(orbits, reference))) == len(set(orbits)) == len(set(reference))
    assert np.array_equal(d.p.reshape(-1), d.p.reshape(-1)[orbits])


@pytest.mark.parametrize("family, n", [("permutations", 3), ("permutations", 4),
                                       ("permutations", 5), ("permutations", 6),
                                       ("responses", 3), ("responses", 4), ("responses", 5),
                                       ("responses", 6)])
@pytest.mark.parametrize("s", [0.0, 2e-7, 0.05, 0.6])
@pytest.mark.parametrize("relabel", [None, "inputs", "outputs"])
def test_orbit_lp_verdicts_match_the_full_row_lp(family, n, s, relabel):
    k = n if family == "permutations" else 3 - n % 2
    d = symmetric_density(family, n, k, s, relabel)
    atoms = games.atoms_within(family, n, k)
    t_star = full_row_lp(atoms, d.p, k)
    calls = []
    real = dn._membership_lp

    def spy(system, p, orbits=None):
        calls.append(orbits is not None)
        return real(system, p, orbits)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dn, "_membership_lp", spy)
        if family == "permutations":
            res, rebuild = dn.local_bisync_membership(d), dn.mixture_density
        else:
            res, rebuild = dn.local_sync_membership(d), dn.response_mixture_density
    # every atom is compatible, so the one LP, if the least-squares step
    # leaves one to pose, is the one on orbits
    assert calls in ([], [True])
    assert isinstance(res, dn.Infeasible) == (t_star > dn.DEFAULT_TOL)
    if isinstance(res, dn.Infeasible):
        assert res.violation == pytest.approx(t_star, abs=1e-9)
        on_polytope, at_d = dn.separation_margins(d, res)
        assert on_polytope <= 0.0 and at_d == res.violation
        return
    assert np.abs(rebuild(res).p - d.p).max() <= dn.DEFAULT_TOL
    # the weights are spread evenly over whole orbits of atoms: each kept
    # relabeling moves an atom's coordinates onto those of an atom of equal weight
    kept = res.permutations if family == "permutations" else res.functions
    coordinates = [tuple(sorted(c)) for c in dn._atom_coordinates(np.array(kept), k)]
    weight = dict(zip(coordinates, res.weights))
    for move in dn._symmetries(d.p):
        for c, w in weight.items():
            assert weight.get(tuple(sorted(move[list(c)]))) == pytest.approx(w, abs=1e-12)


@pytest.mark.parametrize("n, s", [(4, 0.3), (5, 0.1), (6, 2e-7)])
def test_orbit_lp_duals_hold_on_every_atom(n, s):
    d = symmetric_density("permutations", n, n, s)
    atoms = games.atoms_within("permutations", n, n)
    idx = dn._atom_coordinates(atoms, n)
    orbits = dn._coordinate_orbits(dn._symmetries(d.p))
    t_star, lam, y, mu = dn._membership_lp(dn._distinct_rows(idx, d.p.shape), d.p, orbits)
    assert t_star == pytest.approx(full_row_lp(atoms, d.p, n), abs=1e-9)
    assert lam.shape == (len(atoms),) and lam.min() >= 0.0
    assert lam.sum() == pytest.approx(1.0, abs=1e-9)
    assert (y[idx].sum(axis=1) + mu).max() <= 1e-9
    assert float(y @ d.p.reshape(-1)) + mu == pytest.approx(t_star, abs=1e-9)
    # y is constant on each orbit of coordinates
    assert np.abs(y - y[orbits]).max() <= 1e-12


def test_asymmetric_input_poses_the_stages_it_posed_before(monkeypatch):
    # the input of test_every_membership_lp_gets_the_one_options_object:
    # no candidate relabeling holds, so it poses the compatible atoms, then
    # every atom once, on all distinct rows
    mix = random_permutation_mixture(np.random.default_rng(0), 4, 3)
    d = dn.Density(0.8 * mix.p + 0.2 * cyclic_density(4, 4))
    assert not len(dn._symmetries(d.p))
    shapes, real = [], scipy.optimize.linprog

    def spy(c, A_ub=None, *args, **kwargs):
        shapes.append(A_ub.shape)
        return real(c, A_ub, *args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "linprog", spy)
    res = dn.local_bisync_membership(d, 0.05)
    assert isinstance(res, dn.PermutationMixture)
    idx = dn._atom_coordinates(games.atoms_within("permutations", 4, 4), 4)
    rows = dn._distinct_rows(idx, d.p.shape)[1].size
    assert len(shapes) == 2 and shapes[0][0] < 24
    assert shapes[1] == (24, 2 * rows + 2)


def test_asymmetric_violation_is_the_all_row_distance():
    # 0.6 U_4 + 0.3 rho + 0.1 z_4, rho the permutation (0 1 3 2), keeps no
    # candidate relabeling and is nonlocal: its violation is the distance
    # t* = 1/60 of the LP over every atom and every row
    rho = dn.from_permutation((0, 1, 3, 2))
    d = dn.Density(0.6 * uniform_permutation_density(4) + 0.3 * rho.p
                   + 0.1 * cyclic_density(4, 4))
    assert not len(dn._symmetries(d.p))
    t_star = full_row_lp(games.atoms_within("permutations", 4, 4), d.p, 4)
    assert t_star == pytest.approx(1 / 60, abs=1e-9)
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    assert res.violation == pytest.approx(t_star, abs=1e-9)
    on_polytope, at_d = dn.separation_margins(d, res)
    assert on_polytope <= 0.0 and at_d == res.violation


def test_separation_margins_raises_package_errors():
    d = dn.Density(0.9 * uniform_permutation_density(4) + 0.1 * cyclic_density(4, 4))
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    # a functional for another shape
    with pytest.raises(ShapeMismatch):
        dn.separation_margins(dn.uniform_density(3, 3), res)
    # permutation atoms on a density with n != k
    wide = dn.uniform_density(2, 3)
    cert = dn.Infeasible(1.0, np.zeros(wide.p.size), 0.0, "", "permutations")
    with pytest.raises(ShapeMismatch):
        dn.separation_margins(wide, cert)
    # an atom family the library does not know
    with pytest.raises(BadInput):
        dn.separation_margins(d, dataclasses.replace(res, atoms="matchings"))


def test_slice_at_n8_is_decided_on_orbits():
    # 0.9 U_8 + 0.1 z_8 over all 8! = 40320 permutations: its distance
    # t* = 3/280, and the certificate re-checks over every atom
    d = dn.Density(0.9 * closed_form_uniform(8) + 0.1 * cyclic_density(8, 8))
    res = dn.local_bisync_membership(d)
    assert isinstance(res, dn.Infeasible)
    assert res.violation == pytest.approx(3 / 280, abs=1e-12)
    assert dn.separation_margins(d, res) == pytest.approx((0.0, 3 / 280), abs=1e-12)


def test_density_at_distance_tol_is_local():
    # 0.7 U_4 + 0.3 z_4 is 0.05 from U_4, its closest mixture, and the LP over
    # all rows once put it at t* = 0.05 + 4e-16 and ended in SolverFailed at
    # tol 0.05; the orbit LP returns U_4's weights, 0.05 away
    d = dn.Density(0.7 * uniform_permutation_density(4) + 0.3 * cyclic_density(4, 4))
    res = dn.local_bisync_membership(d, 0.05)
    assert isinstance(res, dn.PermutationMixture)
    assert len(res.permutations) == 24
    assert np.abs(dn.mixture_density(res).p - d.p).max() <= 0.05


# ---------------------------------------------------------------------------
# The atom table: every atom of a (family, n, k) listed once per process


@pytest.mark.parametrize("family, n, k", [("permutations", 5, 5), ("responses", 4, 3)])
def test_atom_table_is_read_only_and_listed_once(family, n, k):
    atoms, idx = dn._atom_table(family, n, k)
    again = dn._atom_table(family, n, k)
    assert again[0] is atoms and again[1] is idx
    listed = games.atoms_within(family, n, k)
    assert np.array_equal(atoms, listed)
    assert np.array_equal(idx, dn._atom_coordinates(listed, k))
    assert atoms.itemsize == 1 and idx.dtype == np.int32
    for table in (atoms, idx):
        with pytest.raises(ValueError):
            table[0, 0] = 1


_TABLE_SIZES = ([("permutations", n, n) for n in range(1, 7)]
                + [("responses", n, 3) for n in range(1, 7)])


@settings(max_examples=80, deadline=None)
@given(size=st.sampled_from(_TABLE_SIZES), seed=st.integers(0, 2 ** 32 - 1),
       keep=st.sampled_from([0.3, 0.8, 0.97, 1.0]))
def test_compatible_atoms_from_the_table_match_the_search(size, seed, keep):
    family, n, k = size
    allowed = np.random.default_rng(seed).random((n, n, k, k)) < keep
    allowed &= allowed.transpose(1, 0, 3, 2)
    atoms, idx = dn._atom_table(family, n, k)
    from_table = atoms[allowed.reshape(-1)[idx].all(axis=1)]
    assert np.array_equal(from_table, games.atoms_within(family, n, k, allowed))
    # the rule _decide_membership takes the table itself by: no atom hits a
    # forbidden position, so a mask that holds off them keeps every atom
    if allowed[~games.forbidden_positions(n, k, family == "permutations")].all():
        assert len(from_table) == len(atoms)


def test_returned_arrays_do_not_share_the_atom_table():
    table = [t.copy() for t in dn._atom_table("permutations", 5, 5)]
    mix = dn.local_bisync_membership(dn.Density(uniform_permutation_density(5)))
    assert isinstance(mix, dn.PermutationMixture) and len(mix.permutations) == 120
    d = dn.Density(0.9 * uniform_permutation_density(5) + 0.1 * cyclic_density(5, 5))
    cert = dn.local_bisync_membership(d)
    assert isinstance(cert, dn.Infeasible)
    mix.weights[:] = 0.0
    cert.functional[:] = 0.0
    for kept, now in zip(table, dn._atom_table("permutations", 5, 5)):
        assert np.array_equal(kept, now)


def test_atom_table_beyond_the_guard_raises_the_guards_error():
    # separation_margins and the every-atom stage read the table, so they
    # keep the errors of the search (test_separation_margins_is_guarded_without_listing)
    with pytest.raises(PreconditionFailed, match="exceed the guard of 40320"):
        dn._atom_table("permutations", 9, 9)
    with pytest.raises(TooLarge, match="exceed the guard of 3000"):
        dn._atom_table("responses", 8, 3)
