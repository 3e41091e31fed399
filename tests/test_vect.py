import math

import numpy as np
import pytest

from bisyncgames.report import Report

from bisyncgames import densities as dn, qperm, vect
from bisyncgames.errors import (
    BadInput,
    NegativeEntry,
    NonRealGram,
    NotBijective,
    PreconditionFailed,
    ShapeMismatch,
)

from conftest import raises_quietly, sample_systems


def test_permutation_witness_verifies():
    rep = vect.verify_bisync_vect(vect.permutation_strategy([2, 0, 1]))
    assert rep.passed


@pytest.mark.parametrize("sigma", [[5], [0, 0], [1, 2]])
def test_permutation_strategy_rejects_nonbijection(sigma):
    with pytest.raises(NotBijective):
        vect.permutation_strategy(sigma)


def test_perturbed_vector_fails_with_named_witness():
    v = vect.permutation_strategy([1, 0]).vectors.copy()
    v[0, 1, 0] += 1e-3
    rep = vect.verify_bisync_vect(vect.VectorStrategy(v))
    assert not rep.passed
    failed = [c for c in rep.checks if not c.passed]
    assert failed and all(c.witness for c in failed)


def test_rectangular_strategy_rejected():
    with pytest.raises(ShapeMismatch):
        vect.verify_bisync_vect(vect.VectorStrategy(np.zeros((2, 3, 4))))


def test_basis_vector_witness_fails_sum_condition():
    # h[x, a] = delta_{a, sigma(x)} e_{sigma(x)} has orthogonal rows and
    # columns but its row sums differ across x, so it is not a witness
    sigma = [1, 0, 2]
    v = np.zeros((3, 3, 3), dtype=complex)
    for x in range(3):
        v[x, sigma[x], sigma[x]] = 1.0
    rep = vect.verify_bisync_vect(vect.VectorStrategy(v))
    assert rep.check("row_orthogonality").passed
    assert rep.check("column_orthogonality").passed
    assert not rep.check("sums_agree").passed


def test_embedding_of_projective_systems_verifies():
    for sys in sample_systems(101, 8):
        vs = vect.vect_from_projective(sys)
        assert vs.m == sum(d * d for d in sys.dims)
        rep = vect.verify_bisync_vect(vs)
        assert rep.passed, rep.failed_names()


def test_embedding_gram_equals_trace_pairings(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    vs = vect.vect_from_projective(sys)
    gram = vect.gram_tensor(vs)
    t = sys.tau_of_products()  # [x, a, y, b]
    assert np.abs(gram - t.transpose(0, 2, 1, 3)).max() <= 1e-12


def test_density_from_vectors_matches_induced():
    for sys in sample_systems(7, 6):
        d_vect = vect.density_from_vectors(vect.vect_from_projective(sys))
        d_trace = qperm.induced_density(sys)
        assert np.abs(d_vect.p - d_trace.p).max() <= 1e-10
        assert dn.is_bisynchronous_density(d_vect)
        # normalization forced by the common-sum condition
        assert np.abs(d_vect.p.sum(axis=(2, 3)) - 1.0).max() <= 1e-10


def test_density_from_permutation_witness():
    sigma = [1, 2, 0]
    d = vect.density_from_vectors(vect.permutation_strategy(sigma))
    assert np.abs(d.p - dn.from_permutation(sigma).p).max() < 1e-15


def test_density_requires_verified_strategy():
    v = vect.permutation_strategy([1, 0]).vectors.copy()
    v[0, 1, 0] += 1e-3
    with pytest.raises(PreconditionFailed):
        vect.density_from_vectors(vect.VectorStrategy(v))


def test_row_and_column_sum_identities(rng):
    # with k_a the column sums: |k_a| = 1 and k_a equals the common unit h
    for sys in sample_systems(13, 4):
        vs = vect.vect_from_projective(sys)
        h = vs.vectors.sum(axis=1)[0]
        for a in range(vs.k):
            k_a = vs.vectors[:, a, :].sum(axis=0)
            assert abs(np.linalg.norm(k_a) - 1.0) <= 1e-9
            assert np.abs(k_a - h).max() <= 1e-9


def test_gram_guards():
    g = np.zeros((1, 1, 1, 1), dtype=complex)
    g[0, 0, 0, 0] = 1.0 + 1e-3j
    with pytest.raises(NonRealGram):
        vect._gram_to_density(g, 1e-9)
    g = np.full((1, 1, 1, 1), -1e-3, dtype=complex)
    with pytest.raises(NegativeEntry):
        vect._gram_to_density(g, 1e-9)


def loop_verify_bisync_vect(v, tol=dn.DEFAULT_TOL):
    """Reference: the vector-permutation checks, one pairing at a time."""
    rep = Report("vect verify")
    g = vect.gram_tensor(v)
    n = v.n
    worst, wit = 0.0, None
    for x in range(n):
        for a in range(n):
            for b in range(a + 1, n):
                val = abs(g[x, x, a, b])
                if val > worst:
                    worst, wit = val, f"<h[{x},{a}], h[{x},{b}]> = {g[x, x, a, b]:.3e}"
    rep.add("row_orthogonality", worst <= tol, worst, wit)
    worst, wit = 0.0, None
    for a in range(n):
        for x in range(n):
            for y in range(x + 1, n):
                val = abs(g[x, y, a, a])
                if val > worst:
                    worst, wit = val, f"<h[{x},{a}], h[{y},{a}]> = {g[x, y, a, a]:.3e}"
    rep.add("column_orthogonality", worst <= tol, worst, wit)
    row_sums = v.vectors.sum(axis=1)
    col_sums = v.vectors.sum(axis=0)
    h = row_sums[0]
    worst, wit = 0.0, None
    for x in range(n):
        val = float(np.abs(row_sums[x] - h).max())
        if val > worst:
            worst, wit = val, f"row sum at x={x} deviates from the common vector"
    for a in range(n):
        val = float(np.abs(col_sums[a] - h).max())
        if val > worst:
            worst, wit = val, f"column sum at a={a} deviates from the common vector"
    rep.add("sums_agree", worst <= tol, worst, wit)
    unit_dev = abs(float(np.linalg.norm(h)) - 1.0)
    rep.add("sum_is_unit_vector", unit_dev <= tol, unit_dev, f"|h| = {np.linalg.norm(h):.12g}")
    return rep


def test_verify_matches_loop_reference(rng):
    strategies = [vect.vect_from_projective(s) for s in sample_systems(17, 8)]
    strategies += [vect.permutation_strategy(rng.permutation(n)) for n in (1, 2, 5)]
    exact = len(strategies)
    for base in list(strategies):
        # one entry moved: a single pairing and a single row and column sum break
        v = base.vectors.copy()
        x, a = rng.integers(base.n), rng.integers(base.k)
        v[x, a, rng.integers(base.m)] += rng.choice([1e-12, 1e-6, 1e-2])
        strategies.append(vect.VectorStrategy(v))
    for n in (1, 2, 3, 5):
        m = int(rng.integers(1, 6))
        strategies.append(vect.VectorStrategy(rng.normal(size=(n, n, m))
                                              + 1j * rng.normal(size=(n, n, m))))
    # ties: every pairing of equal size, so the first one must be the witness
    strategies.append(vect.VectorStrategy(np.ones((3, 3, 1))))
    verdicts = []
    for v in strategies:
        rep = vect.verify_bisync_vect(v)
        assert rep.to_dict() == loop_verify_bisync_vect(v).to_dict()
        verdicts.append(rep.passed)
    assert all(verdicts[:exact]) and not all(verdicts[exact:])


@pytest.mark.parametrize("value", [np.nan, np.inf, "a"])
def test_vector_strategy_of_non_finite_or_non_numeric_entries_is_bad_input(value):
    raises_quietly(BadInput, lambda: vect.VectorStrategy(np.full((2, 2, 1), value)))


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_verify_names_a_bad_tol(tol):
    with pytest.raises(BadInput, match="tol must be a finite number > 0"):
        vect.verify_bisync_vect(vect.permutation_strategy([1, 0]), tol)
