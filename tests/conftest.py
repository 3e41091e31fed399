import os
import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest

from bisyncgames import densities, linalg, qperm
from bisyncgames.errors import BadInput, NotBijective, ShapeMismatch


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


def raises_quietly(error, build):
    """``build()`` raises ``error``, and no warning is emitted on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            build()
    assert [str(w.message) for w in caught] == []


def reference_index_rows(rows, what, bound=None):
    """``games.index_rows`` in plain Python, one row and one entry at a time: the
    rows as lists of ints, or the error of the first bad row."""
    try:
        rows = [list(row) for row in rows]
    except TypeError:
        raise BadInput(f"each {what} must be a sequence of ints") from None
    for row in rows:
        for v in row:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                raise BadInput(f"each {what} must be a sequence of ints")
    rows = [[int(v) for v in row] for row in rows]
    first = len(rows[0]) if rows else 0
    if what == "function":
        for row in rows:
            if len(row) != first:
                raise ShapeMismatch(f"each function must take the {first} inputs 0..{first - 1}")
        for row in rows:
            for v in row:
                if not 0 <= v < bound:
                    raise ShapeMismatch("response values must lie in 0..k-1")
        return rows
    for row in rows:
        if what == "permutation":
            n = first if bound is None else bound
            if sorted(row) != list(range(n)):
                raise NotBijective(f"{row} is not a permutation of 0..{n - 1}")
        elif what == "edge":
            if len(row) != 2 or not (0 <= row[0] < bound and 0 <= row[1] < bound) \
                    or row[0] == row[1]:
                raise BadInput(f"bad edge {row} for {bound} vertices")
        elif len(row) != 4 or not all(0 <= v < m for v, m in zip(row, bound)):
            raise BadInput(f"bad zero tuple {row} for the shape {bound}")
    return rows


_highs_solve = densities._highs_solve


def infeasible_solve(c, a_rows, row_bounds, *args):
    """The membership LP handed to HiGHS with its last row, alpha + beta + gamma
    = 1 over nonnegative variables, asking for -1 instead: HiGHS finds it
    infeasible.  Patched over ``densities._highs_solve``."""
    lower, upper = (np.append(bound[:-1], -1.0) for bound in row_bounds)
    return _highs_solve(c, a_rows, (lower, upper), *args)


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


def rotated_block_pair(theta):
    """block_pair(diag(1, 0), q), q the projection diag(1, 0) rotated by ``theta``:
    near theta = 0 the commutation system has singular values of order theta."""
    c, s = np.cos(theta), np.sin(theta)
    rot = np.array([[c, -s], [s, c]])
    return qperm.block_pair(np.diag([1.0, 0.0]), rot @ np.diag([1.0, 0.0]) @ rot.T)


def record_nullspace_inputs(monkeypatch):
    """Wrap ``linalg.nullspace``; the returned list collects a copy of each input."""
    seen, real = [], linalg.nullspace

    def recording(m, tol=linalg.DEFAULT_TOL):
        seen.append(np.array(m))
        return real(m, tol)

    monkeypatch.setattr(linalg, "nullspace", recording)
    return seen


def force_complex_path(monkeypatch):
    """Make ``linalg.exact_real`` pass every array on as complex128, so the kernels
    that decompose real input in float64 take their complex path."""
    monkeypatch.setattr(linalg, "exact_real", lambda a: np.asarray(a, dtype=np.complex128))


def assert_same_orthonormal_span(a, b, bound=1e-12):
    """Bases ``a`` and ``b`` (matrices or vectors) are complex128, orthonormal and
    span the same space: each containment residual at most ``bound``."""
    qa, qb = (np.reshape(x, (len(x), -1)) for x in (a, b))
    assert len(qa) == len(qb)
    assert qa.dtype == qb.dtype == np.complex128
    assert np.abs(qa.conj() @ qa.T - np.eye(len(qa))).max() <= bound
    assert np.abs(qb.conj() @ qb.T - np.eye(len(qb))).max() <= bound
    assert linalg._containment_residual(qa, qb) <= bound
    assert linalg._containment_residual(qb, qa) <= bound


def fresh_python(code):
    """stdout of ``code`` run in a fresh interpreter with the package's src/ on its path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(densities.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=env).stdout
