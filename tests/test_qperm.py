import copy
import itertools
import pickle

import numpy as np
import pytest

from bisyncgames import cpmaps, densities as dn, games, linalg, qperm, vect
from bisyncgames.errors import BadInput, ShapeMismatch, UnverifiedSystem

from conftest import count_calls, pauli_systems, record_nullspace_inputs, sample_systems


def test_verify_classical_permutation():
    rep = qperm.verify_system(qperm.from_permutation([2, 0, 1]))
    assert rep.passed


@pytest.mark.parametrize("sigma", [[5], [0, 0], [1, 2]])
def test_from_permutation_rejects_nonbijection(sigma):
    with pytest.raises(BadInput):
        qperm.from_permutation(sigma)


def test_verify_block_pair(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    rep = qperm.verify_system(sys)
    assert rep.passed
    assert sys.n == sys.k == 4
    # structural relations asserted by the report
    assert rep.check("column_marginals_projections").passed
    assert rep.check("column_marginals_sum").passed
    assert rep.check("input_output_bound").passed
    assert rep.check("column_sums").passed
    assert rep.check("unitarity").passed


def test_verify_catches_broken_projection(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    grids = list(sys.grids)
    g = grids[0].copy()
    g[0, 0] = 0.5 * np.eye(2)
    grids[0] = g
    broken = qperm.ProjectiveSystem(tuple(grids), sys.weights)
    rep = qperm.verify_system(broken)
    assert not rep.check("projections").passed
    with pytest.raises(UnverifiedSystem):
        qperm.induced_density(broken)


def test_rectangular_system_verifies():
    # one input, two outputs: a bisynchronous projective system with n < k
    g = np.zeros((1, 2, 2, 2), dtype=complex)
    g[0, 0] = np.diag([1.0, 0.0])
    g[0, 1] = np.diag([0.0, 1.0])
    sys = qperm.ProjectiveSystem((g,), (1.0,))
    rep = qperm.verify_system(sys)
    assert rep.passed


def test_induced_density_of_permutation_matches_classical():
    sigma = [1, 2, 0]
    d = qperm.induced_density(qperm.from_permutation(sigma))
    assert np.abs(d.p - dn.from_permutation(sigma).p).max() < 1e-15


def test_block_pair_density_entry():
    theta = np.pi / 4
    v = np.array([np.cos(theta), np.sin(theta)])
    p = np.outer(v, v)
    q = np.diag([1.0, 0.0])
    d = qperm.induced_density(qperm.block_pair(p, q))
    assert d.p[0, 0, 0, 0] == pytest.approx(0.5)  # tau of a rank-1 projection


def test_direct_sum_density_is_weighted_mixture():
    s1, s2 = [1, 0, 2], [2, 1, 0]
    u = qperm.direct_sum(qperm.from_permutation(s1), qperm.from_permutation(s2),
                         0.5, 0.5)
    d = qperm.induced_density(u)
    expected = dn.mixture([dn.from_permutation(s1), dn.from_permutation(s2)],
                          [0.5, 0.5])
    assert np.abs(d.p - expected.p).max() < 1e-15


def test_direct_sum_rejects_bad_weights():
    a = qperm.from_permutation([0, 1])
    with pytest.raises(BadInput):
        qperm.direct_sum(a, a, 0.5, 0.6)


def test_conjugation_preserves_density(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    w = qperm.random_unitary(rng, 2)
    conj = qperm.conjugate(sys, w)
    assert qperm.verify_system(conj).passed
    d1 = qperm.induced_density(sys)
    d2 = qperm.induced_density(conj)
    assert np.abs(d1.p - d2.p).max() < 1e-12


def test_commuting_block_pair_reduces_to_classical_mixture():
    d = qperm.induced_density(qperm.block_pair(np.diag([1.0, 0.0]),
                                               np.diag([1.0, 0.0])))
    expected = dn.mixture([dn.from_permutation([0, 1, 2, 3]),
                           dn.from_permutation([1, 0, 3, 2])], [0.5, 0.5])
    assert np.abs(d.p - expected.p).max() < 1e-15


def test_induced_densities_always_bisynchronous():
    for sys in sample_systems(3, 8):
        d = qperm.induced_density(sys)
        assert dn.validate(d)
        assert dn.is_nonsignalling(d)
        assert dn.is_bisynchronous_density(d)


def test_flip_equals_transpose(rng):
    for sys in sample_systems(17, 6):
        d = qperm.induced_density(sys)
        flipped = dn.flip_density(d)
        transposed = qperm.induced_density(qperm.transpose_system(sys))
        assert np.abs(flipped.p - transposed.p).max() <= 1e-12
        assert dn.is_bisynchronous_density(transposed)


def test_factorizable_apply_unital_and_all_ones(rng):
    sys = sample_systems(29, 4)[3]
    n = sys.n
    assert np.abs(qperm.factorizable_apply(sys, np.eye(n)) - np.eye(n)).max() < 1e-12
    j = np.ones((n, n))
    assert np.abs(qperm.factorizable_apply(sys, j) - j).max() < 1e-12


def test_factorizable_apply_matrix_units_formula():
    # Phi(E_xy)[a, b] = tau(E[x, a] E[y, b]) checked entrywise
    rng = np.random.default_rng(5)
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    t = sys.tau_of_products()
    for x in range(4):
        for y in range(4):
            e = np.zeros((4, 4))
            e[x, y] = 1.0
            out = qperm.factorizable_apply(sys, e)
            assert np.abs(out - t[x, :, y, :]).max() < 1e-12


def test_factorizable_apply_agrees_with_choi_map():
    for sys in sample_systems(41, 6):
        m = cpmaps.phi_from_density(qperm.induced_density(sys))
        n = sys.n
        for x in range(n):
            for y in range(n):
                e = np.zeros((n, n))
                e[x, y] = 1.0
                diff = qperm.factorizable_apply(sys, e) - cpmaps.apply_map(m, e)
                assert np.abs(diff).max() <= 1e-10


def loop_factorizable_apply(sys, x):
    """Reference: the trace of each d x d block, one block at a time."""
    n, k = sys.n, sys.k
    out = np.zeros((k, k), dtype=np.complex128)
    for g, w, big in zip(sys.grids, sys.weights, qperm.big_matrices(sys)):
        d = g.shape[2]
        m = qperm.dagger(big) @ np.kron(x, np.eye(d)) @ big
        for a in range(k):
            for b in range(k):
                out[a, b] += (w / d) * np.trace(m[a * d:(a + 1) * d, b * d:(b + 1) * d])
    return out


def test_factorizable_apply_matches_block_loop(rng):
    systems = sample_systems(43, 8) + pauli_systems(44)
    systems.append(qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                                    qperm.random_rank1_projection(rng, 2)))
    for sys in systems:
        n = sys.n
        x = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        for arg in (x, np.eye(n)):
            diff = qperm.factorizable_apply(sys, arg) - loop_factorizable_apply(sys, arg)
            assert np.abs(diff).max() <= 1e-15


def test_intertwines_identity_and_relabeling(rng):
    c5 = games.cycle_graph(5)
    assert qperm.intertwines(qperm.from_permutation(range(5)), c5, c5)
    sigma = list(rng.permutation(5))
    h = games.relabel_graph(c5, sigma)
    assert qperm.intertwines(qperm.from_permutation(sigma), c5, h)


def test_intertwines_fails_for_non_isomorphic():
    c5 = games.cycle_graph(5)
    p5 = games.path_graph(5)
    for s in itertools.permutations(range(5)):
        assert not qperm.intertwines(qperm.from_permutation(s), c5, p5)


def test_intertwines_shape_guard():
    with pytest.raises(ShapeMismatch):
        qperm.intertwines(qperm.from_permutation(range(4)),
                          games.cycle_graph(5), games.cycle_graph(5))


def test_pattern_basis_identity_is_full_matrix_algebra():
    pat = qperm.fixed_pattern_basis(qperm.from_permutation(range(3)))
    assert len(pat.classes) == 9
    assert all(len(c) == 1 for c in pat.classes)


def test_pattern_basis_of_permutation_matches_orbits():
    sigma = [1, 2, 0, 4, 3]
    pat = qperm.fixed_pattern_basis(qperm.from_permutation(sigma))
    # oracle: orbits of (i, j) -> (sigma(i), sigma(j))
    seen = {}
    for i in range(5):
        for j in range(5):
            if (i, j) in seen:
                continue
            orbit = set()
            cur = (i, j)
            while cur not in orbit:
                orbit.add(cur)
                cur = (sigma[cur[0]], sigma[cur[1]])
            for t in orbit:
                seen[t] = frozenset(orbit)
    oracle_classes = set(seen.values())
    assert {frozenset(c) for c in pat.classes} == oracle_classes


def test_pattern_dimension_matches_kraus_commutant(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    pat = qperm.fixed_pattern_basis(sys)
    m = cpmaps.phi_from_density(qperm.induced_density(sys))
    kraus = cpmaps.kraus_from_choi(m)
    commutant = linalg.joint_commutant(kraus.operators)
    assert len(pat.basis) == len(commutant)


def test_fix_equivalence_identity_and_cycle():
    fe = qperm.fix_equivalence_check(qperm.from_permutation(range(3)))
    assert fe.report.passed
    assert len(fe.commutation_basis) == 9
    fe = qperm.fix_equivalence_check(qperm.from_permutation([1, 2, 3, 4, 0]))
    assert fe.report.passed
    assert len(fe.commutation_basis) == 5


def test_fix_equivalence_on_random_systems():
    for sys in sample_systems(59, 6):
        fe = qperm.fix_equivalence_check(sys)
        assert fe.report.passed, fe.report.failed_names()


def test_conjugation_gives_identical_commutation_subspace(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    conj = qperm.conjugate(sys, qperm.random_unitary(rng, 2))
    s1 = qperm.commutation_subspace(sys)
    s2 = qperm.commutation_subspace(conj)
    assert len(s1) == len(s2)
    assert linalg.span_containment_residual(s1, s2) <= 1e-8
    assert linalg.span_containment_residual(s2, s1) <= 1e-8


def test_tau_weights_must_be_positive():
    g = np.zeros((2, 2, 1, 1), dtype=complex)
    g[0, 0] = g[1, 1] = 1.0
    with pytest.raises(BadInput):
        qperm.ProjectiveSystem((g, g), (1.0, 0.0))


def _broken_block_pair():
    rng = np.random.default_rng(5)
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    g = np.array(sys.grids[0])
    g[0, 0] = 0.5 * np.eye(2)
    return qperm.ProjectiveSystem((g,), sys.weights)


_C4 = games.cycle_graph(4)
_VERIFYING_ENTRY_POINTS = {
    "induced_density": lambda s: qperm.induced_density(s),
    "factorizable_apply": lambda s: qperm.factorizable_apply(s, np.eye(4)),
    "intertwines": lambda s: qperm.intertwines(s, _C4, _C4),
    "fixed_pattern_basis": lambda s: qperm.fixed_pattern_basis(s),
    "commutation_subspace": lambda s: qperm.commutation_subspace(s),
    "fix_equivalence_check": lambda s: qperm.fix_equivalence_check(s),
    "vect_from_projective": lambda s: vect.vect_from_projective(s),
}


@pytest.mark.parametrize("name", sorted(_VERIFYING_ENTRY_POINTS))
def test_verifying_entry_points_reject_broken_system(name):
    with pytest.raises(UnverifiedSystem):
        _VERIFYING_ENTRY_POINTS[name](_broken_block_pair())


@pytest.mark.parametrize("name", sorted(_VERIFYING_ENTRY_POINTS))
def test_verifying_entry_points_verify_once(name, monkeypatch):
    calls = []
    real = qperm.verify_system
    monkeypatch.setattr(qperm, "verify_system",
                        lambda s, tol=1e-9: calls.append(tol) or real(s, tol))
    sys = qperm.block_pair(np.diag([1.0, 0.0]), qperm.random_rank1_projection(
        np.random.default_rng(6), 2))
    _VERIFYING_ENTRY_POINTS[name](sys)
    assert len(calls) == 1
    _VERIFYING_ENTRY_POINTS[name](sys)
    assert len(calls) == 1


def test_grids_are_frozen_copies():
    g = np.zeros((2, 2, 1, 1))
    g[0, 0] = g[1, 1] = 1.0
    sys = qperm.ProjectiveSystem((g,), (1.0,))
    assert not sys.grids[0].flags.writeable
    assert not np.shares_memory(sys.grids[0], g)
    with pytest.raises(ValueError):
        sys.grids[0][0, 0, 0, 0] = 0.0
    assert qperm.verify_system(sys).passed
    g[0, 0] = 0.5      # the caller's array, not the system's
    qperm.ensure_verified(sys, 0.0)
    assert sys.grids[0][0, 0, 0, 0] == 1.0


def test_copies_are_rebuilt_without_the_memo():
    sys = qperm.from_permutation([1, 0, 2])
    qperm.ensure_verified(sys)
    for other in (copy.copy(sys), copy.deepcopy(sys), pickle.loads(pickle.dumps(sys))):
        assert not other.grids[0].flags.writeable
        assert other._verified_tol is None
        assert np.array_equal(other.grids[0], sys.grids[0])


def test_pass_at_loose_tol_does_not_excuse_a_stricter_one():
    g = np.array(qperm.from_permutation([1, 0]).grids[0])
    g[0, 0] += 1e-7
    sys = qperm.ProjectiveSystem((g,), (1.0,))
    qperm.ensure_verified(sys, 1e-5)
    qperm.ensure_verified(sys, 1e-6)
    with pytest.raises(UnverifiedSystem):
        qperm.ensure_verified(sys, 1e-9)
    with pytest.raises(UnverifiedSystem):
        qperm.induced_density(sys)
    assert qperm.induced_density(sys, 1e-5).p.shape == (2, 2, 2, 2)


def _verify_by_loops(sys, tol):
    """verify_system as a loop over (block, x, a, b): the reference for the batched one."""
    def nm(a):
        return float(np.abs(a).max())

    n, k = sys.n, sys.k
    proj_dev, proj_wit = 0.0, None
    row = row_orth = col_orth = pa_proj = pa_sum = col = unit = 0.0
    for bi, g in enumerate(sys.grids):
        eye = np.eye(g.shape[2])
        for x in range(n):
            for a in range(k):
                e = g[x, a]
                dev = max(nm(e - e.conj().T), nm(e @ e - e))
                if dev > proj_dev:
                    proj_dev, proj_wit = dev, f"block {bi}, E[x={x},a={a}]"
            row = max(row, nm(g[x].sum(axis=0) - eye))
            for a in range(k):
                for b in range(a + 1, k):
                    row_orth = max(row_orth, nm(g[x, a] @ g[x, b]))
        for a in range(k):
            for x in range(n):
                for y in range(x + 1, n):
                    col_orth = max(col_orth, nm(g[x, a] @ g[y, a]))
            col = max(col, nm(g[:, a].sum(axis=0) - eye))
        p_ops = g.sum(axis=0)
        for a in range(k):
            pa_proj = max(pa_proj, nm(p_ops[a] - p_ops[a].conj().T),
                          nm(p_ops[a] @ p_ops[a] - p_ops[a]))
        pa_sum = max(pa_sum, nm(p_ops.sum(axis=0) - n * eye))
    out = [("projections", proj_dev, proj_wit), ("row_sums", row, None),
           ("row_orthogonality", row_orth, None), ("column_orthogonality", col_orth, None),
           ("column_marginals_projections", pa_proj, None),
           ("column_marginals_sum", pa_sum, None),
           ("input_output_bound", float(max(0, n - k)),
            None if n <= k else f"n = {n} > k = {k}")]
    if n == k:
        for big in qperm.big_matrices(sys):
            eye_big = np.eye(big.shape[0])
            unit = max(unit, nm(big.conj().T @ big - eye_big), nm(big @ big.conj().T - eye_big))
        out += [("column_sums", col, None), ("unitarity", unit, None)]
    return out


def _perturbed(sys, rng, scale):
    grids = tuple(np.array(g) + scale * (rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
                  for g in sys.grids)
    return qperm.ProjectiveSystem(grids, sys.weights)


def test_batched_verify_matches_loop_reference():
    rng = np.random.default_rng(83)
    systems = sample_systems(83, 12)
    systems += [_perturbed(s, rng, scale) for s in systems for scale in (1e-12, 1e-6)]
    rect = np.zeros((2, 3, 2, 2), dtype=complex)
    rect[0, 0], rect[0, 1], rect[1, 2] = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    systems += [qperm.ProjectiveSystem((rect,), (1.0,)),
                qperm.transpose_system(qperm.ProjectiveSystem((rect,), (1.0,)))]
    for sys in systems:
        rep = qperm.verify_system(sys)
        got = [(c.name, c.max_violation, c.witness) for c in rep.checks]
        assert got == _verify_by_loops(sys, 1e-9)      # bit-identical values and witnesses
        assert [c.passed for c in rep.checks] == [
            v <= 1e-9 if name != "input_output_bound" else v == 0 for name, v, _ in got]


def _classes_by_union_find(sys, tol):
    """Position classes of fixed_pattern_basis by union-find: the reference."""
    n = sys.n
    norms = np.zeros((n, n, n, n))
    for g in sys.grids:
        norms = np.maximum(norms, np.abs(np.einsum("ikab,jlbc->ijklac", g, g)).max(axis=(4, 5)))
    sym = np.maximum(norms, norms.transpose(1, 0, 3, 2))
    parent = list(range(n * n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i, j, k, l in itertools.product(range(n), repeat=4):
        if sym[i, j, k, l] > tol:
            ri, rj = find(i * n + j), find(k * n + l)
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for pos in range(n * n):
        groups.setdefault(find(pos), []).append(divmod(pos, n))
    return tuple(tuple(groups[r]) for r in sorted(groups))


def test_pattern_classes_match_union_find_reference():
    rng = np.random.default_rng(89)
    for sys in sample_systems(89, 16):
        for s, tol in ((sys, 1e-9), (_perturbed(sys, rng, 1e-7), 1e-5)):
            pattern = qperm.fixed_pattern_basis(s, tol)
            assert pattern.classes == _classes_by_union_find(s, tol)
            for cls, ind in zip(pattern.classes, pattern.basis):
                expected = np.zeros((s.n, s.n))
                expected[tuple(zip(*cls))] = 1.0
                assert np.array_equal(ind, expected)


def _commutation_system_by_loop(sys):
    """Column (r, s) is vec((e_rs (x) 1) u - u (e_rs (x) 1)), one Kronecker
    product and two matmuls per column: the reference for the broadcast build."""
    n, blocks = sys.n, []
    for g, big in zip(sys.grids, qperm.big_matrices(sys)):
        eye, cols = np.eye(g.shape[2]), []
        for r in range(n):
            for s in range(n):
                unit = np.zeros((n, n))
                unit[r, s] = 1.0
                lifted = linalg.kron(unit, eye)
                cols.append((lifted @ big - big @ lifted).reshape(-1))
        blocks.append(np.array(cols).T)
    return np.vstack(blocks)


def test_commutation_system_matches_loop_reference(monkeypatch):
    systems = sample_systems(97, 12) + pauli_systems(97)
    assert {s.n for s in systems} >= {4, 8} and len({s.dims for s in systems}) >= 4
    seen = record_nullspace_inputs(monkeypatch)
    for sys in systems:
        seen.clear()
        qperm.commutation_subspace(sys)
        assert len(seen) == 1
        assert np.array_equal(seen[0], _commutation_system_by_loop(sys))


@pytest.mark.parametrize("index", range(4))
def test_fix_check_builds_no_kron_and_spans_each_basis_once(index, monkeypatch):
    sys = (sample_systems(101, 2) + pauli_systems(101)[2:])[index]
    krons = count_calls(monkeypatch, np, ("kron",))
    spans = count_calls(monkeypatch, linalg, ("orthonormal_span",))
    fe = qperm.fix_equivalence_check(sys)
    assert fe.report.passed
    assert krons["kron"] == 0
    assert spans["orthonormal_span"] == 4


def test_conjugate_and_factorizable_apply_reject_vectors():
    s = sample_systems(5, 1)[0]
    with pytest.raises(ShapeMismatch, match="nonempty 2-D matrix"):
        qperm.conjugate(s, np.zeros(3))
    with pytest.raises(ShapeMismatch, match="nonempty 2-D matrix"):
        qperm.factorizable_apply(s, np.zeros(4))
