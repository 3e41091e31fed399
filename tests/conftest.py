from collections import Counter

import numpy as np
import pytest

from bisyncgames import qperm


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
