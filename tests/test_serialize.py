import json

import numpy as np
import pytest

from bisyncgames import cpmaps, densities as dn, games, qperm, serialize, vect
from bisyncgames.errors import BadInput

from conftest import sample_systems


def test_graph_round_trip(rng):
    g = games.cycle_graph(6)
    again = serialize.graph_from_dict(serialize.graph_to_dict(g))
    assert np.array_equal(again.adjacency, g.adjacency)


def test_game_round_trip():
    g = games.iso_game(games.cycle_graph(3), games.path_graph(3))
    again = serialize.game_from_dict(serialize.game_to_dict(g))
    assert np.array_equal(again.lam, g.lam)


def test_density_round_trip():
    d = dn.z3_counterexample()
    again = serialize.density_from_dict(serialize.density_to_dict(d))
    assert np.array_equal(again.p, d.p)


def test_system_round_trip():
    for sys in sample_systems(71, 4):
        again = serialize.system_from_dict(serialize.system_to_dict(sys))
        assert again.weights == sys.weights
        for a, b in zip(again.grids, sys.grids):
            assert np.array_equal(a, b)


def test_vect_round_trip(rng):
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    v = vect.vect_from_projective(sys)
    again = serialize.vect_from_dict(serialize.vect_to_dict(v))
    assert np.array_equal(again.vectors, v.vectors)


def test_choi_round_trip():
    from bisyncgames import cpmaps
    m = cpmaps.phi_from_density(dn.z3_counterexample())
    again = serialize.choi_from_dict(serialize.choi_to_dict(m))
    assert np.array_equal(again.choi, m.choi)


def test_mixture_round_trip():
    mix = dn.PermutationMixture(np.array([0.25, 0.75]), ((0, 1, 2), (2, 1, 0)))
    again = serialize.mixture_from_dict(serialize.mixture_to_dict(mix))
    assert again.permutations == mix.permutations
    assert np.allclose(again.weights, mix.weights)


def test_matrix_round_trip(rng):
    a = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    again = serialize.matrix_from_dict(serialize.matrix_to_dict(a))
    assert np.array_equal(again, a)


def test_bad_payloads_raise():
    with pytest.raises(BadInput):
        serialize.density_from_dict({"n": 2, "k": 2, "p": [[1.0]]})
    with pytest.raises(BadInput):
        serialize.graph_from_dict({"edges": []})
    with pytest.raises(BadInput):
        serialize.matrix_from_dict({"rows": 1, "cols": 1, "entries": [[1.0]]})



def _signed_zeros(shape):
    """Complex entries drawn from 0.0, -0.0, 1.5 and -2.0 in both parts."""
    parts = np.array([0.0, -0.0, 1.5, -2.0])[np.arange(2 * np.prod(shape)) % 4]
    return np.random.default_rng(5).permutation(parts).view(np.complex128).reshape(shape)


# format: (to_dict, from_dict, wrap an array, array shape, path to the [re, im] pairs)
_COMPLEX_FORMATS = {
    "vect": (serialize.vect_to_dict, serialize.vect_from_dict, vect.VectorStrategy,
             (2, 3, 2), ("h",)),
    "system": (serialize.system_to_dict, serialize.system_from_dict,
               lambda a: qperm.ProjectiveSystem((a,), (1.0,)), (2, 2, 2, 2), ("blocks", 0, "E")),
    "choi": (serialize.choi_to_dict, serialize.choi_from_dict,
             lambda a: cpmaps.ChoiMap(2, 2, a), (4, 4), ("choi",)),
    "matrix": (serialize.matrix_to_dict, serialize.matrix_from_dict, np.asarray,
               (3, 2), ("entries",)),
}


@pytest.mark.parametrize("fmt", sorted(_COMPLEX_FORMATS))
def test_complex_arrays_round_trip_to_the_bit(fmt):
    to_dict, from_dict, wrap, shape, _ = _COMPLEX_FORMATS[fmt]
    text = json.dumps(to_dict(wrap(_signed_zeros(shape))))
    assert "-0.0" in text
    assert json.dumps(to_dict(from_dict(json.loads(text)))) == text


def _map_pairs(obj, fn):
    """``obj`` with every [re, im] pair p replaced by fn(p)."""
    return [_map_pairs(o, fn) for o in obj] if isinstance(obj[0], list) else fn(obj)


@pytest.mark.parametrize("fmt", sorted(_COMPLEX_FORMATS))
@pytest.mark.parametrize("leaf", [lambda p: p + [0.0], lambda p: p[0]], ids=["triple", "bare"])
def test_complex_leaves_must_be_pairs(fmt, leaf):
    to_dict, from_dict, wrap, shape, path = _COMPLEX_FORMATS[fmt]
    d = to_dict(wrap(_signed_zeros(shape)))
    holder = d
    for step in path[:-1]:
        holder = holder[step]
    holder[path[-1]] = _map_pairs(holder[path[-1]], leaf)
    with pytest.raises(BadInput):
        from_dict(d)
