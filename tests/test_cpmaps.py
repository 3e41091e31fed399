import copy
import itertools
import math
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisyncgames import cpmaps, densities as dn, linalg, qperm
from bisyncgames.errors import (
    BadInput,
    InvalidDensity,
    NotCP,
    NotHermitian,
    NotUnitalChannel,
    ShapeMismatch,
)

from conftest import (assert_same_orthonormal_span, count_calls, force_complex_path, pauli_systems,
                      raises_quietly, sample_systems)


def unit(i, j, d):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def choi_from_kraus_loop(ks, n, k):
    """Reference: apply the Kraus form to every matrix unit E_xy."""
    p = np.zeros((n, n, k, k), dtype=complex)
    for x in range(n):
        for y in range(n):
            p[x, y] = ks.apply(unit(x, y, n))
    return cpmaps.choi_from_tensor(p)


def cyclic_shift(n):
    s = np.zeros((n, n))
    for j in range(n):
        s[(j + 1) % n, j] = 1.0
    return s


def test_identity_choi_is_maximally_entangled_pattern():
    m = cpmaps.phi_from_density(dn.from_permutation(range(3)))
    expected = sum(np.kron(unit(x, y, 3), unit(x, y, 3))
                   for x in range(3) for y in range(3))
    assert np.abs(m.choi - expected).max() == 0.0
    assert cpmaps.is_cp(m)


def test_identity_map_matches_loop_reference():
    for n in range(1, 6):
        p = np.zeros((n, n, n, n), dtype=np.complex128)
        for x in range(n):
            for y in range(n):
                p[x, y, x, y] = 1.0
        m = cpmaps.identity_map(n)
        assert m.choi.dtype == np.complex128
        assert m.choi.tobytes() == cpmaps.choi_from_tensor(p).choi.tobytes()


def test_phi_requires_valid_density():
    with pytest.raises(InvalidDensity):
        cpmaps.phi_from_density(dn.Density(np.zeros((2, 2, 2, 2))))


def test_density_round_trip_exact():
    d = dn.z3_counterexample()
    m = cpmaps.phi_from_density(d)
    assert np.array_equal(cpmaps.density_from_choi(m).p, d.p)


def test_apply_map_identity_and_linearity(rng):
    m = cpmaps.identity_map(3)
    x = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.abs(cpmaps.apply_map(m, x) - x).max() < 1e-15
    with pytest.raises(ShapeMismatch):
        cpmaps.apply_map(m, np.eye(4))


def test_z3_map_sends_all_ones_to_identity_plus_double_shift():
    m = cpmaps.phi_from_density(dn.z3_counterexample())
    out = cpmaps.apply_map(m, np.ones((3, 3)))
    expected = np.eye(3) + 2 * cyclic_shift(3)
    assert np.abs(out - expected).max() <= 1e-12


def test_z3_map_not_cp():
    m = cpmaps.phi_from_density(dn.z3_counterexample())
    assert not cpmaps.is_hermiticity_preserving(m)
    assert not cpmaps.is_cp(m)
    assert cpmaps.noncp_spectral_margin(m) > 0.1
    with pytest.raises(NotHermitian):
        cpmaps.min_choi_eigenvalue(m)
    with pytest.raises(NotCP):
        cpmaps.kraus_from_choi(m)


def test_2x2_example_choi_has_pinned_negative_eigenvalue():
    # Hermitian Choi with spectrum {-1/sqrt2, 0, 1/sqrt2, 1}
    m = cpmaps.phi_from_density(dn.noncp_nonsignalling_example())
    assert cpmaps.is_hermiticity_preserving(m)
    assert not cpmaps.is_cp(m)
    assert cpmaps.min_choi_eigenvalue(m) == pytest.approx(-0.7071067811865476, abs=1e-9)


def test_spectral_functions_test_hermiticity_at_the_callers_tol():
    # the 2x2 example's Choi matrix with one entry moved by 1e-7: Hermitian
    # at tol 1e-6 but not at the default 1e-9
    c = cpmaps.phi_from_density(dn.noncp_nonsignalling_example()).choi.copy()
    c[0, 1] += 1e-7
    m = cpmaps.ChoiMap(2, 2, c)
    assert cpmaps.is_hermiticity_preserving(m, 1e-6) and not cpmaps.is_hermiticity_preserving(m)
    with pytest.raises(NotHermitian):
        cpmaps.min_choi_eigenvalue(m)
    least = cpmaps.min_choi_eigenvalue(m, 1e-6)
    assert least == pytest.approx(-0.7071067811865476, abs=1e-6)
    for tol in (dn.DEFAULT_TOL, 1e-6):
        margin = cpmaps.noncp_spectral_margin(m, tol)
        assert margin == cpmaps.channel_report(m, tol).check("completely_positive").max_violation
    # at 1e-6 the margin comes from the Hermitian route, as the least eigenvalue does
    assert cpmaps.noncp_spectral_margin(m, 1e-6) == -least
    assert cpmaps.noncp_spectral_margin(m) != -least


def test_channel_suite_on_quantum_permutation_maps():
    for sys in sample_systems(11, 8):
        m = cpmaps.phi_from_density(qperm.induced_density(sys))
        assert cpmaps.is_cp(m)
        assert cpmaps.is_tp(m)
        assert cpmaps.is_unital(m)
        assert cpmaps.preserves_J(m)
        assert cpmaps.preserves_sigma(m)


def test_adjoint_of_identity_and_permutation():
    ident = cpmaps.identity_map(3)
    assert np.abs(cpmaps.adjoint_map(ident).choi - ident.choi).max() < 1e-15
    sigma = [1, 2, 0]
    inv = [sigma.index(i) for i in range(3)]
    adj = cpmaps.adjoint_map(cpmaps.phi_from_density(dn.from_permutation(sigma)))
    expected = cpmaps.phi_from_density(dn.from_permutation(inv))
    assert np.abs(adj.choi - expected.choi).max() < 1e-15


def test_adjoint_pairing(rng):
    d = qperm.induced_density(sample_systems(5, 2)[1])
    m = cpmaps.phi_from_density(d)
    adj = cpmaps.adjoint_map(m)
    n = m.n
    for _ in range(5):
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        y = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        lhs = np.trace(cpmaps.apply_map(m, x).conj().T @ y)
        rhs = np.trace(x.conj().T @ cpmaps.apply_map(adj, y))
        assert abs(lhs - rhs) < 1e-10


def test_kraus_identity_map():
    ks = cpmaps.kraus_from_choi(cpmaps.identity_map(3))
    assert len(ks.operators) == 1
    k = ks.operators[0]
    phase = k[0, 0] / abs(k[0, 0])
    assert np.abs(k / phase - np.eye(3)).max() < 1e-12


def test_kraus_reconstruction_and_rank():
    mix = dn.PermutationMixture(np.array([0.3, 0.7]), ((1, 0, 2), (2, 1, 0)))
    m = cpmaps.mixed_permutation_map(mix)
    ks = cpmaps.kraus_from_choi(m)
    recon = cpmaps.choi_from_kraus(ks, m.n, m.k)
    assert np.abs(recon.choi - m.choi).max() <= 1e-9
    eigs = np.linalg.eigvalsh(m.choi)
    assert len(ks.operators) == int((eigs > 1e-9 * eigs.max()).sum())
    # reconstructed map agrees with the mixed permutation action
    u = [np.eye(3)[list(s)] for s in mix.permutations]
    for x in range(3):
        for y in range(3):
            e = unit(x, y, 3)
            direct = sum(w * p.T @ e @ p for w, p in zip(mix.weights, u))
            assert np.abs(ks.apply(e) - direct).max() < 1e-10


def test_kraus_of_block_pair_choi_rank(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    m = cpmaps.phi_from_density(qperm.induced_density(sys))
    ks = cpmaps.kraus_from_choi(m)
    eigs = np.linalg.eigvalsh(0.5 * (m.choi + m.choi.conj().T))
    assert len(ks.operators) == int((eigs > 1e-9 * eigs.max()).sum())
    recon = cpmaps.choi_from_kraus(ks, m.n, m.k)
    assert np.abs(recon.choi - m.choi).max() <= 1e-9
    # operators are linearly independent: the Gram matrix of their
    # vectorizations is nonsingular
    gram = np.array([[np.vdot(a, b) for b in ks.operators] for a in ks.operators])
    assert np.linalg.eigvalsh(gram).min() > 1e-9
    # trace preservation in operator-sum form
    total = sum(k @ k.conj().T for k in ks.operators)
    assert np.abs(total - np.eye(m.n)).max() <= 1e-9


def test_fixed_point_set_identity_map():
    basis = cpmaps.fixed_point_set(cpmaps.identity_map(3))
    assert len(basis) == 9


def test_fixed_point_set_cycle():
    m = cpmaps.phi_from_density(dn.from_permutation([1, 2, 3, 0]))
    basis = cpmaps.fixed_point_set(m)
    assert len(basis) == 4
    for b in basis:
        for d in range(4):
            diag = [b[(i + d) % 4, i] for i in range(4)]
            assert np.abs(np.diff(diag)).max() < 1e-8


def test_fixed_point_set_is_an_algebra(rng):
    sys = sample_systems(23, 4)[1]
    m = cpmaps.phi_from_density(qperm.induced_density(sys))
    basis = cpmaps.fixed_point_set(m)
    from bisyncgames import linalg
    span = linalg.orthonormal_span(basis)
    assert linalg.residual_outside_span(span, np.eye(m.n)) < 1e-9
    for a in basis:
        for b in basis:
            assert linalg.residual_outside_span(span, a @ b) < 1e-8


def test_fixed_point_set_requires_unital_channel():
    with pytest.raises(NotUnitalChannel):
        cpmaps.fixed_point_set(cpmaps.phi_from_density(dn.noncp_nonsignalling_example()))
    with pytest.raises(NotUnitalChannel):
        cpmaps.fixed_point_set(cpmaps.phi_from_density(dn.z3_counterexample()))


def test_is_schur_closed():
    units = [np.zeros((2, 2)) for _ in range(4)]
    for i, (r, c) in enumerate(itertools.product(range(2), repeat=2)):
        units[i][r, c] = 1.0
    assert cpmaps.is_schur_closed(units)
    circulants = [np.eye(3), cyclic_shift(3), cyclic_shift(3) @ cyclic_shift(3)]
    assert cpmaps.is_schur_closed(circulants)
    # oracle: (X+Z) Schur (X+Z) = J, and J = a I + b (X+Z) has no solution
    x_plus_z = np.array([[1.0, 1.0], [1.0, -1.0]])
    stack = np.stack([np.eye(2).ravel(), x_plus_z.ravel()]).T
    coeffs, residual, _, _ = np.linalg.lstsq(stack, np.ones(4), rcond=None)
    assert residual[0] > 0.1
    assert not cpmaps.is_schur_closed([np.eye(2), x_plus_z])


def test_mixed_permutation_map_basics():
    ident = cpmaps.mixed_permutation_map(
        dn.PermutationMixture(np.array([1.0]), ((0, 1),)))
    assert np.abs(ident.choi - cpmaps.identity_map(2).choi).max() < 1e-15
    mix = dn.PermutationMixture(np.array([0.5, 0.5]), ((0, 1), (1, 0)))
    m = cpmaps.mixed_permutation_map(mix)
    out = cpmaps.apply_map(m, unit(0, 1, 2))
    assert np.abs(out - 0.5 * (unit(0, 1, 2) + unit(1, 0, 2))).max() < 1e-15


def test_membership_round_trip_through_mixed_permutation_map(rng):
    perms = [tuple(rng.permutation(4)) for _ in range(3)]
    w = rng.random(3)
    d = dn.mixture([dn.from_permutation(s) for s in perms], w / w.sum())
    res = dn.local_bisync_membership(d)
    m = cpmaps.mixed_permutation_map(res)
    assert np.abs(m.choi - cpmaps.phi_from_density(d).choi).max() <= 1e-9


def test_composition_rule(rng):
    sys_p = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                             qperm.random_rank1_projection(rng, 2))
    sys_q = qperm.direct_sum(qperm.from_permutation(rng.permutation(4)),
                             qperm.from_permutation(rng.permutation(4)), 0.5, 0.5)
    p = qperm.induced_density(sys_p)
    q = qperm.induced_density(sys_q)
    r = dn.compose(q, p)
    assert dn.is_bisynchronous_density(r)
    mp = cpmaps.phi_from_density(p)
    mq = cpmaps.phi_from_density(q)
    composed = cpmaps.compose_maps(mq, mp)
    assert np.abs(composed.choi - cpmaps.phi_from_density(r).choi).max() <= 1e-10


def _pinned_maps():
    rng = np.random.default_rng(41)
    big = rng.normal(size=(3, 3, 3, 3)) * 4.0
    herm = big + big.transpose(1, 0, 3, 2)      # Hermitian Choi, entries above 1
    herm[0, 1, 2, 0] += 5e-9                     # within tol * max-norm, beyond tol
    return ([("identity", cpmaps.identity_map(3)),
             ("z3", cpmaps.phi_from_density(dn.z3_counterexample())),
             ("noncp", cpmaps.phi_from_density(dn.noncp_nonsignalling_example())),
             ("large_entries", cpmaps.choi_from_tensor(herm)),
             ("large_wide", cpmaps.choi_from_tensor(rng.normal(size=(2, 2, 3, 3)) * 3.0))]
            + [(f"induced_{i}", cpmaps.phi_from_density(qperm.induced_density(s)))
               for i, s in enumerate(sample_systems(71, 8))])


@pytest.mark.parametrize("name, m", [(name, m) for name, m in _pinned_maps() if cpmaps.is_cp(m)])
def test_kraus_operators_match_eigenpair_loop(name, m):
    eig = linalg.hermitian_eig(m.choi)
    cutoff = 1e-9 * max(float(eig.eigenvalues[-1]), 1.0)
    ref = [np.conj((np.sqrt(lam) * v).reshape(m.n, m.k))
           for lam, v in zip(eig.eigenvalues, eig.eigenvectors.T) if lam > cutoff]
    ops = cpmaps.kraus_from_choi(m).operators
    assert len(ops) == len(ref)
    for op, r in zip(ops, ref):
        assert np.array_equal(op, r)


@pytest.mark.parametrize("name, m", _pinned_maps())
def test_channel_report_lines_match_predicates_and_deviations(name, m):
    rep = cpmaps.channel_report(m)
    c = m.choi
    p = cpmaps.density_tensor(m)
    n, k = m.n, m.k
    herm = c.conj().T
    if np.abs(c - herm).max() <= 1e-9 * max(1.0, np.abs(c).max()):
        margin = max(0.0, -np.linalg.eigvalsh((c + herm) / 2).min())
    else:
        ev = np.linalg.eigvals(c)
        margin = np.where(ev.real >= 0, np.abs(ev.imag), np.abs(ev)).max()
    expected = {
        "hermiticity_preserving": (cpmaps.is_hermiticity_preserving(m),
                                   np.abs(c - herm).max()),
        "completely_positive": (cpmaps.is_cp(m), margin),
        "trace_preserving": (cpmaps.is_tp(m),
                             np.abs(np.trace(p, axis1=2, axis2=3) - np.eye(n)).max()),
        "preserves_entry_sum": (cpmaps.preserves_sigma(m),
                                np.abs(p.sum(axis=(2, 3)) - 1.0).max()),
    }
    if n == k:
        expected["unital"] = (cpmaps.is_unital(m),
                              np.abs(sum(p[x, x] for x in range(n)) - np.eye(k)).max())
        expected["preserves_all_ones"] = (cpmaps.preserves_J(m),
                                          np.abs(p.sum(axis=(0, 1)) - 1.0).max())
    assert [ch.name for ch in rep.checks] == [
        "hermiticity_preserving", "completely_positive", "trace_preserving",
        *(["unital", "preserves_all_ones"] if n == k else []), "preserves_entry_sum"]
    for ch in rep.checks:
        flag, value = expected[ch.name]
        assert ch.passed == flag, ch.name
        assert ch.max_violation == pytest.approx(value, rel=1e-9, abs=1e-13), ch.name
    if name == "large_entries":
        # the scaled Hermiticity tolerance passes what an unscaled one rejects
        assert rep.check("hermiticity_preserving").passed
        assert rep.check("hermiticity_preserving").max_violation > 1e-9


@pytest.mark.parametrize("n, k, count", [(3, 3, 1), (2, 4, 3), (4, 2, 5), (1, 3, 2)])
def test_choi_from_kraus_matches_matrix_unit_loop(rng, n, k, count):
    ops = [rng.normal(size=(n, k)) + 1j * rng.normal(size=(n, k)) for _ in range(count)]
    ks = cpmaps.KrausSet(tuple(ops))
    fast = cpmaps.choi_from_kraus(ks, n, k)
    assert (fast.n, fast.k) == (n, k)
    assert np.abs(fast.choi - choi_from_kraus_loop(ks, n, k).choi).max() <= 1e-13


def test_choi_from_kraus_rejects_swapped_shapes(rng):
    ks = cpmaps.KrausSet((rng.normal(size=(2, 3)),))
    with pytest.raises(ShapeMismatch):
        cpmaps.choi_from_kraus(ks, 3, 2)


@pytest.mark.parametrize("source", ["induced", "noncp"])
def test_channel_report_diagonalizes_once(source, monkeypatch):
    d = (qperm.induced_density(sample_systems(13, 2)[1]) if source == "induced"
         else dn.noncp_nonsignalling_example())
    m = cpmaps.phi_from_density(d)
    calls = count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"))
    rep = cpmaps.channel_report(m)
    assert rep.check("completely_positive").passed == (source == "induced")
    cpmaps.min_choi_eigenvalue(m)
    if source == "induced":
        cpmaps.kraus_from_choi(m)
    assert calls == Counter(eigh=1)


def test_choi_is_a_frozen_copy():
    c = cpmaps.identity_map(2).choi.copy()
    m = cpmaps.ChoiMap(2, 2, c)
    assert not m.choi.flags.writeable
    assert not np.shares_memory(m.choi, c)
    with pytest.raises(ValueError):
        m.choi[0, 0] = 0.0
    c[0, 0] = 5.0      # the caller's array, not the map's
    assert m.choi[0, 0] == 1.0
    assert cpmaps.is_cp(m)


def test_copies_are_rebuilt_without_the_cached_decomposition():
    m = cpmaps.phi_from_density(dn.noncp_nonsignalling_example())
    least = cpmaps.min_choi_eigenvalue(m)
    assert m._eig is not None
    for other in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert not other.choi.flags.writeable
        assert other._eig is None
        assert (other.n, other.k) == (m.n, m.k)
        assert np.array_equal(other.choi, m.choi)
        assert cpmaps.min_choi_eigenvalue(other) == least


def _schur_residual_by_pairs(mats):
    """Largest residual of any a * b outside the span, pair by pair: the reference."""
    span = linalg.orthonormal_span(mats)
    return max(linalg.residual_outside_span(span, a * b) for a in mats for b in mats)


def test_schur_closed_matches_pairwise_loop(rng):
    sys = qperm.random_quantum_permutation(np.random.default_rng(107), kind="block_pair")
    closed = {
        "pattern": list(qperm.fixed_pattern_basis(sys).basis),
        "fix": cpmaps.fixed_point_set(cpmaps.phi_from_density(qperm.induced_density(sys))),
        "circulants": [np.eye(3), cyclic_shift(3), cyclic_shift(3) @ cyclic_shift(3)],
    }
    not_closed = {
        "x_plus_z": [np.eye(2), np.array([[1.0, 1.0], [1.0, -1.0]])],
        "random": [rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(3)],
    }
    for name, mats in {**closed, **not_closed}.items():
        worst = _schur_residual_by_pairs(mats)
        bound = 1e-8 * max(1.0, max(np.abs(a).max() for a in mats) ** 2)
        assert (worst <= bound) == (name in closed), name
        span = linalg.orthonormal_span(mats)
        assert cpmaps._schur_closed(mats, span, 1e-9) == (name in closed), name
        assert cpmaps.is_schur_closed(mats) == (name in closed), name


def _choi_with_margins(seed, n, k, psd, hermitian, size, tol):
    """A Choi matrix of max-norm ``size`` whose Hermiticity deviation is tol * size / 4
    (hermitian) or 4 tol * size, and whose least eigenvalue is +-size / 10 or so."""
    rng = np.random.default_rng(seed)
    dim = n * k
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = x @ x.conj().T
    w = np.linalg.eigvalsh(h)
    h += (0.1 * w[-1] if psd else -w[0] - 0.1 * w[-1]) * np.eye(dim)
    h *= size / np.abs(h).max()
    y = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    skew = y - y.conj().T
    skew /= np.abs(2 * skew).max()     # C - C* = 2 e skew has max-norm e
    return h + (0.25 if hermitian else 4.0) * tol * size * skew


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), k=st.integers(1, 3),
       psd=st.booleans(), hermitian=st.booleans(), size=st.floats(1.0, 1e3),
       c=st.floats(1.0, 1e6), tol=st.sampled_from([1e-9, 1e-6]))
def test_hermiticity_and_cp_verdicts_are_scale_invariant(seed, n, k, psd, hermitian, size, c, tol):
    choi = _choi_with_margins(seed, n, k, psd, hermitian, size, tol)
    for m in (cpmaps.ChoiMap(n, k, choi), cpmaps.ChoiMap(n, k, c * choi)):
        assert cpmaps.is_hermiticity_preserving(m, tol) == hermitian
        assert cpmaps.is_cp(m, tol) == (hermitian and psd)


def _tensor_with_deviation(seed, n, k, size, dev, prop):
    """p[x, y, a, b] of max-norm ``size`` whose trace-preservation ("tp") or
    unitality ("unital") deviation is ``dev``, all of it at one off-diagonal entry."""
    p = size * np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n, n, k, k))
    if prop == "tp":       # tr Phi(E_xy) reads only the entries with a = b
        target = np.eye(n)
        target[0, 1] = dev
        p[0, 0, 0, 1] = size
        p[:, :, np.arange(k), np.arange(k)] = (target / k)[:, :, None]
    else:                  # Phi(1) reads only the entries with x = y
        target = np.eye(k)
        target[0, 1] = dev
        p[0, 1, 0, 0] = size
        p[np.arange(n), np.arange(n)] = target / n
    return p


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 3), k=st.integers(2, 3),
       size=st.floats(1.0, 1e6), prop=st.sampled_from(["tp", "unital"]),
       tol=st.sampled_from([1e-9, 1e-6]))
def test_tp_and_unital_tolerances_scale_with_the_choi_matrix(seed, n, k, size, prop, tol):
    check = cpmaps.is_tp if prop == "tp" else cpmaps.is_unital
    for delta, passes in ((tol / 2, True), (2 * tol, False)):
        m = cpmaps.choi_from_tensor(_tensor_with_deviation(seed, n, k, size, delta * size, prop))
        assert linalg.norm_max(m.choi) == size
        assert check(m, tol) == passes


@pytest.mark.parametrize("tol, asym", [(1e-6, 1e-8), (1e-10, 5e-10)])
def test_cp_line_takes_its_margin_on_the_route_of_its_own_tol(tol, asym):
    # the asymmetry lies between tol and DEFAULT_TOL = 1e-9, so the two pick different routes
    p = dn.from_permutation([0, 2, 1]).p.copy()
    p[0, 1, 0, 2] += asym
    m = cpmaps.choi_from_tensor(p)
    c = m.choi
    hermitian = tol > asym
    assert cpmaps.is_hermiticity_preserving(m, tol) == hermitian
    if hermitian:
        margin = max(0.0, -np.linalg.eigvalsh((c + c.conj().T) / 2).min())
    else:
        ev = np.linalg.eigvals(c)
        margin = np.where(ev.real >= 0, np.abs(ev.imag), np.abs(ev)).max()
    line = cpmaps.channel_report(m, tol).check("completely_positive")
    assert line.passed == cpmaps.is_cp(m, tol) == hermitian
    assert line.max_violation == pytest.approx(margin, rel=1e-6, abs=1e-15)
    assert line.witness == f"spectral non-CP margin {line.max_violation:.6g}"


def test_apply_map_rejects_a_vector():
    with pytest.raises(ShapeMismatch, match="nonempty 2-D matrix"):
        cpmaps.apply_map(cpmaps.identity_map(2), [1, 2])


def test_kraus_set_needs_operators_of_one_shape(rng):
    with pytest.raises(BadInput, match="at least one operator"):
        cpmaps.KrausSet(())
    with pytest.raises(ShapeMismatch, match="share a shape"):
        cpmaps.KrausSet((rng.normal(size=(2, 3)), rng.normal(size=(3, 2))))
    with pytest.raises(ShapeMismatch, match="must be 2 x 2"):
        cpmaps.KrausSet((rng.normal(size=(2, 3)),)).apply(np.eye(3))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, complex(0.0, np.inf)])
def test_choi_map_of_non_finite_entries_is_bad_input(value):
    c = cpmaps.identity_map(2).choi.copy()
    c[0, 1] = value
    raises_quietly(BadInput, lambda: cpmaps.ChoiMap(2, 2, c))
    raises_quietly(BadInput, lambda: cpmaps.choi_from_tensor(np.full((2, 2, 2, 2), value)))


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
def test_channel_report_names_a_bad_tol(tol):
    with pytest.raises(BadInput, match="tol must be a finite number > 0"):
        cpmaps.channel_report(cpmaps.identity_map(2), tol)


@pytest.mark.parametrize("tol", [math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize("name", [
    "is_cp", "is_tp", "is_unital", "is_hermiticity_preserving", "preserves_J", "preserves_sigma",
    "noncp_spectral_margin", "min_choi_eigenvalue", "kraus_from_choi", "fixed_point_set"])
def test_channel_functions_name_a_bad_tol(name, tol):
    with pytest.raises(BadInput, match="tol must be a finite number > 0"):
        getattr(cpmaps, name)(cpmaps.identity_map(2), tol)


@pytest.mark.parametrize("op", [[["a"]], np.full((2, 2), np.nan), [[1.0], [1.0, 0.0]]])
def test_kraus_set_of_non_numeric_or_non_finite_operators_is_bad_input(op):
    raises_quietly(BadInput, lambda: cpmaps.KrausSet((op,)))


_CHANNEL_SYSTEMS = sample_systems(103, 12) + pauli_systems(103)


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("index", range(len(_CHANNEL_SYSTEMS)))
def test_real_and_complex_paths_give_the_same_fixed_point_bases(index, tol, monkeypatch):
    # the induced Choi matrices are real, so both routes run in float64
    m = cpmaps.phi_from_density(qperm.induced_density(_CHANNEL_SYSTEMS[index], tol), tol)
    assert linalg.exact_real(m.choi).dtype == np.float64
    got = cpmaps._fixed_point_bases(m, tol)
    force_complex_path(monkeypatch)
    expected = cpmaps._fixed_point_bases(cpmaps.ChoiMap(m.n, m.k, m.choi), tol)
    for a, b in zip(got, expected):
        assert_same_orthonormal_span(a, b)


@pytest.mark.parametrize("choi", [[["a"]], [[1.0], [1.0, 0.0]]])
def test_choi_map_of_non_numeric_entries_is_bad_input(choi):
    raises_quietly(BadInput, lambda: cpmaps.ChoiMap(1, 1, choi))
