from collections import Counter

import numpy as np
import pytest

from bisyncgames import linalg, qperm


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


def random_hermitian(rng, d):
    b = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return b + b.conj().T


def sample_systems(seed, count):
    """Deterministic stream of random quantum permutations covering all
    four stock constructions."""
    rng = np.random.default_rng(seed)
    kinds = ("classical", "block_pair", "direct_sum", "conjugate")
    return [qperm.random_quantum_permutation(rng, kind=kinds[i % 4])
            for i in range(count)]


def count_calls(monkeypatch, module, names):
    """Wrap ``module.<name>`` for each name; the returned Counter counts the calls."""
    calls = Counter()
    for name in names:
        real = getattr(module, name)

        def counted(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))


def pauli_systems(seed):
    """Pauli (n = 4, d = 4) and Pauli (x) S_2 (n = 8, d = 4) magic unitaries,
    each plain and conjugated.  E[i, j] projects onto c_i x c_j / sqrt 2 in
    C^4 for the Pauli matrices c_i and a random unitary x (Banica-Collins)."""
    rng = np.random.default_rng(seed)
    x = qperm.random_unitary(rng, 2)
    g = np.zeros((4, 4, 4, 4), dtype=complex)
    for i, ci in enumerate(_PAULI):
        for j, cj in enumerate(_PAULI):
            v = (ci @ x @ cj).reshape(-1) / np.sqrt(2)
            g[i, j] = np.outer(v, v.conj())
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    grids = (g, np.einsum("ijab,st->isjtab", g, swap).reshape(8, 8, 4, 4))
    plain = [qperm.ProjectiveSystem((grid,), (1.0,)) for grid in grids]
    return plain + [qperm.conjugate(s, qperm.random_unitary(rng, 4)) for s in plain]


def record_nullspace_inputs(monkeypatch):
    """Wrap ``linalg.nullspace``; the returned list collects a copy of each input."""
    seen, real = [], linalg.nullspace

    def recording(m, tol=linalg.DEFAULT_TOL):
        seen.append(np.array(m))
        return real(m, tol)

    monkeypatch.setattr(linalg, "nullspace", recording)
    return seen
