import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisyncgames import cpmaps, linalg, qperm
from bisyncgames.errors import NotHermitian, ShapeMismatch

from conftest import pauli_systems, random_hermitian, record_nullspace_inputs, sample_systems


def unit(i, j, d):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


def test_kron_identities():
    assert np.array_equal(linalg.kron(np.eye(2), np.eye(3)), np.eye(6))


def test_kron_matrix_unit_block_rule():
    # E_{0,1} (x) I_2 has ones exactly at (0,2) and (1,3)
    out = linalg.kron(unit(0, 1, 2), np.eye(2))
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 2] = expected[1, 3] = 1.0
    assert np.array_equal(out, expected)


def test_kron_trace_multiplicative(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    k = linalg.kron(a, b)
    # oracle: diagonal entry sum by explicit loop
    brute = sum(k[i, i] for i in range(4))
    assert abs(brute - np.trace(a) * np.trace(b)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(0, 100))
def test_kron_associative_exact(da, db, dc, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (rng.integers(-3, 4, size=(d, d)).astype(complex)
               for d in (da, db, dc))
    left = linalg.kron(linalg.kron(a, b), c)
    right = linalg.kron(a, linalg.kron(b, c))
    assert np.array_equal(left, right)


def test_hermitian_eig_diagonal():
    eig = linalg.hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(eig.eigenvalues, [1.0, 2.0, 3.0])


def test_hermitian_eig_pauli_x():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    eig = linalg.hermitian_eig(x)
    assert np.allclose(eig.eigenvalues, [-1.0, 1.0])


def test_hermitian_eig_trace_identity(rng):
    a = random_hermitian(rng, 7)
    eig = linalg.hermitian_eig(a)
    assert abs(eig.eigenvalues.sum() - np.trace(a).real) < 1e-10


def test_hermitian_eig_reconstruction_and_unitarity(rng):
    for d in (2, 5, 9):
        a = random_hermitian(rng, d)
        eig = linalg.hermitian_eig(a)
        scale = max(1.0, np.abs(a).max())
        assert np.abs(eig.reconstruct() - a).max() <= 1e-9 * scale
        v = eig.eigenvectors
        assert np.abs(v @ v.conj().T - np.eye(d)).max() <= 1e-9


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_psd_basic():
    assert linalg.is_psd(np.eye(3))
    assert not linalg.is_psd(np.diag([1.0, -1.0]))


def test_is_psd_all_ones():
    # oracle: J = 3 v v* for the normalized all-ones vector, so the
    # spectrum is {3, 0, 0}
    j = np.ones((3, 3))
    v = np.full(3, 1 / np.sqrt(3))
    assert np.abs(j - 3 * np.outer(v, v)).max() < 1e-15
    assert linalg.is_psd(j)


def test_is_psd_monotone(rng):
    for _ in range(10):
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        c = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        a1 = b @ b.conj().T
        a2 = c @ c.conj().T
        assert linalg.is_psd(a1) and linalg.is_psd(a2)
        assert linalg.is_psd(a1 + a2)


def test_is_psd_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        linalg.is_psd(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_is_projection():
    assert linalg.is_projection(np.eye(4))
    assert linalg.is_projection(0.5 * np.ones((2, 2)))
    assert not linalg.is_projection(0.5 * np.eye(2))


def test_joint_commutant_identity():
    basis = linalg.joint_commutant([np.eye(2)])
    assert len(basis) == 4


def test_joint_commutant_diagonal():
    basis = linalg.joint_commutant([np.diag([1.0, 2.0])])
    assert len(basis) == 2
    for b in basis:
        assert abs(b[0, 1]) < 1e-12 and abs(b[1, 0]) < 1e-12


def cyclic_shift(n):
    s = np.zeros((n, n))
    for j in range(n):
        s[(j + 1) % n, j] = 1.0
    return s


def test_joint_commutant_cyclic_shift():
    s = cyclic_shift(3)
    basis = linalg.joint_commutant([s])
    assert len(basis) == 3
    # oracle: solve the 18 x 9 commutation system assembled entrywise
    rows = []
    for k in (s, s.T):
        for i in range(3):
            for j in range(3):
                row = np.zeros(9, dtype=complex)
                for r in range(3):
                    row[i * 3 + r] += k[r, j]
                    row[r * 3 + j] -= k[i, r]
                rows.append(row)
    from scipy.linalg import null_space
    ns = null_space(np.array(rows))
    assert ns.shape[1] == 3
    # every basis element is circulant: constant along wrapped diagonals
    for b in basis:
        for d in range(3):
            diag = [b[(i + d) % 3, i] for i in range(3)]
            assert np.abs(np.diff(diag)).max() < 1e-9


def test_joint_commutant_closure(rng):
    mats = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            for _ in range(2)]
    basis = linalg.joint_commutant(mats, tol=1e-9)
    for a in basis:
        for k in mats:
            assert np.abs(a @ k - k @ a).max() <= 1e-8
            kd = k.conj().T
            assert np.abs(a @ kd - kd @ a).max() <= 1e-8


def test_nullspace_and_span_helpers():
    m = np.array([[1.0, 1.0, 0.0]])
    ns = linalg.nullspace(m)
    assert ns.shape[0] == 2
    assert np.abs(m @ ns.T).max() < 1e-12
    basis = [np.eye(2), np.array([[0, 1], [1, 0]])]
    assert linalg.residual_outside_span(basis, np.array([[1, 1], [1, 1]])) < 1e-12
    assert linalg.residual_outside_span(basis, np.array([[1, 0], [0, -1]])) > 0.5


def test_span_projection_handles_complex_spans():
    # a span that is not closed under entrywise conjugation
    member = np.array([[1.0, 1j], [0.0, 0.0]])
    span = linalg.orthonormal_span([member])
    assert linalg.residual_outside_span(span, member) < 1e-12
    assert linalg.residual_outside_span(span, member.conj()) > 0.5
    assert linalg.span_containment_residual([member], [member]) < 1e-12


def _tall_rank_deficient(rng, rows, cols, rank):
    left = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
    right = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
    return left @ right


def test_nullspace_of_tall_matrix_matches_full_svd(rng):
    m = _tall_rank_deficient(rng, 300, 40, 33)
    _, s, vh = np.linalg.svd(m)          # full matrices: the reference
    rank = int(np.sum(s > 1e-9 * s[0]))
    expected = vh[rank:].conj()
    ns = linalg.nullspace(m)
    assert ns.shape == expected.shape == (7, 40)
    assert np.abs(m @ ns.T).max() < 1e-9
    # same subspace: equal orthogonal projectors
    assert np.abs(ns.T @ ns.conj() - expected.T @ expected.conj()).max() < 1e-12


def test_nullspace_of_tall_matrix_builds_no_square_factor(rng):
    import tracemalloc
    m = _tall_rank_deficient(rng, 1024, 64, 60)     # input: 1 MiB
    tracemalloc.start()
    try:
        ns = linalg.nullspace(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ns.shape == (4, 64)
    # a 1024 x 1024 complex U alone would take 16 MiB
    assert peak < 4 * 2 ** 20


def test_nullspace_of_wide_matrix_keeps_full_basis(rng):
    m = rng.normal(size=(3, 7)) + 1j * rng.normal(size=(3, 7))
    ns = linalg.nullspace(m)
    assert ns.shape == (4, 7)
    assert np.abs(m @ ns.T).max() < 1e-12
    assert np.abs(ns.conj() @ ns.T - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("shape, rank", [((300, 40), 33), ((3, 7), 3)])
def test_nullspace_survives_an_svd_that_does_not_converge(rng, monkeypatch, shape, rank):
    # numpy's gesdd raised "SVD did not converge" on one 64 x 64 R factor of a
    # Kraus-commutant system (a conjugated Pauli (x) S_2 system, n = 8)
    m = _tall_rank_deficient(rng, *shape, rank)
    rows = [r[None, :] for r in m]
    expected, expected_span = linalg.nullspace(m), linalg.orthonormal_span(rows)

    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", no_convergence)
    ns = linalg.nullspace(m)
    assert ns.shape == expected.shape == (shape[1] - rank, shape[1])
    assert np.abs(ns.T @ ns.conj() - expected.T @ expected.conj()).max() < 1e-12
    # the span of the rows goes through the same retry and rank rule
    span = linalg.orthonormal_span(rows)
    assert span.shape == expected_span.shape == (rank, shape[1])
    assert np.abs(span.T @ span.conj() - expected_span.T @ expected_span.conj()).max() < 1e-12


def _joint_commutant_system_by_loop(mats):
    """(I (x) op^T - op (x) I) for op = K, K* of each K, stacked: the reference."""
    eye, rows = np.eye(mats[0].shape[0]), []
    for k in mats:
        for op in (k, k.conj().T):
            rows.append(np.kron(eye, op.T) - np.kron(op, eye))
    return np.vstack(rows)


def test_joint_commutant_system_matches_loop_reference(rng, monkeypatch):
    kraus = [cpmaps.kraus_from_choi(cpmaps.phi_from_density(qperm.induced_density(s))).operators
             for s in sample_systems(103, 8) + pauli_systems(103)]
    kraus += [[rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)) for _ in range(2)]]
    assert {ops[0].shape[0] for ops in kraus} >= {4, 8}
    seen = record_nullspace_inputs(monkeypatch)
    for ops in kraus:
        seen.clear()
        linalg.joint_commutant(ops)
        assert len(seen) == 1
        assert np.array_equal(seen[0], _joint_commutant_system_by_loop(ops))


def _as_matrices(rows):
    return [v.reshape(1, -1) for v in rows]


@pytest.mark.parametrize("rows, cols, rank", [
    (41, 40, 33), (80, 40, 40), (300, 40, 1), (1024, 64, 60), (256, 16, 9)])
def test_tall_nullspace_agrees_with_full_svd(rng, rows, cols, rank):
    m = _tall_rank_deficient(rng, rows, cols, rank)
    _, s, vh = np.linalg.svd(m)          # full matrices: the reference
    expected = vh[int(np.sum(s > 1e-9 * max(1.0, s[0]))):].conj()
    ns = linalg.nullspace(m)
    assert ns.shape == expected.shape == (cols - rank, cols)
    assert linalg.span_containment_residual(_as_matrices(ns), _as_matrices(expected)) <= 1e-12
    assert linalg.span_containment_residual(_as_matrices(expected), _as_matrices(ns)) <= 1e-12


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros((0, 2)), np.zeros((2, 2, 2))])
def test_as_cmatrix_rejects_what_is_not_a_matrix(a):
    with pytest.raises(ShapeMismatch, match="nonempty 2-D matrix"):
        linalg.as_cmatrix(a)


@pytest.mark.parametrize("mats, message", [([], "at least one"),
                                           ([np.eye(2), np.eye(3)], "square of equal size"),
                                           ([np.ones((2, 3))], "square of equal size")])
def test_joint_commutant_rejects_unequal_or_no_matrices(mats, message):
    with pytest.raises(ShapeMismatch, match=message):
        linalg.joint_commutant(mats)
