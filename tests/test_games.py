import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bisyncgames import densities, games, qperm, vect
from bisyncgames.errors import (
    BadInput,
    BisyncError,
    NotBijective,
    NotSynchronous,
    ShapeMismatch,
    TooLarge,
)
from bisyncgames.games import (
    Game,
    bisync_lift,
    complete_graph,
    cycle_graph,
    empty_graph,
    flip_game,
    graph_complement,
    hom_game,
    is_bisynchronous,
    is_synchronous,
    iso_game,
    path_graph,
)
from conftest import raises_quietly, reference_index_rows


def random_graph(rng, n):
    adj = rng.integers(0, 2, size=(n, n)).astype(bool)
    adj = np.triu(adj, 1)
    return games.Graph(adj | adj.T)


def random_game(rng, n, k):
    return Game(rng.integers(0, 2, size=(n, n, k, k)).astype(bool))


def test_graph_constructors():
    k3 = complete_graph(3)
    assert k3.adjacency.sum() == 6
    assert graph_complement(k3).adjacency.sum() == 0
    with pytest.raises(BadInput):
        complete_graph(0)
    with pytest.raises(BadInput):
        games.Graph(np.eye(2, dtype=bool))


def test_complement_involution(rng):
    for n in (1, 3, 5):
        g = random_graph(rng, n)
        assert np.array_equal(graph_complement(graph_complement(g)).adjacency,
                              g.adjacency)


def test_complement_of_c5_is_isomorphic_to_c5():
    # oracle: enumerate all 120 relabelings of the pentagram
    c5 = cycle_graph(5)
    comp = graph_complement(c5)
    hits = [s for s in itertools.permutations(range(5))
            if np.array_equal(games.relabel_graph(comp, s).adjacency, c5.adjacency)]
    assert hits


def test_hom_game_synchronous():
    assert is_synchronous(hom_game(complete_graph(3), complete_graph(3)))


def test_hom_game_k2_entries():
    g = hom_game(complete_graph(2), complete_graph(2))
    # an edge of the source must land on an edge of the target
    assert not g.lam[0, 1, 0, 0]
    assert g.lam[0, 1, 0, 1]


def test_random_hom_games_synchronous(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(1, 5)))
        h = random_graph(rng, int(rng.integers(1, 5)))
        assert is_synchronous(hom_game(g, h))


def test_nonsynchronous_game_detected():
    lam = np.ones((2, 2, 2, 2), dtype=bool)
    g = Game(lam)  # allows different answers to equal questions
    assert not is_synchronous(g)


def test_bisynchronous_hom_games():
    assert is_bisynchronous(hom_game(complete_graph(3), cycle_graph(5)))
    assert not is_bisynchronous(hom_game(cycle_graph(5), complete_graph(3)))


def test_hom_from_complete_always_bisynchronous(rng):
    for c in (2, 3, 4):
        g = random_graph(rng, int(rng.integers(2, 6)))
        assert is_bisynchronous(hom_game(complete_graph(c), g))


def test_iso_game_bisynchronous(rng):
    assert is_synchronous(iso_game(cycle_graph(5), cycle_graph(5)))
    assert is_bisynchronous(iso_game(cycle_graph(5), cycle_graph(5)))
    g = random_graph(rng, 3)
    h = random_graph(rng, 3)
    assert is_bisynchronous(iso_game(g, h))


def test_iso_game_k1():
    # one vertex per side: the predicate is 1 exactly when each answer
    # lies in the graph opposite its question
    g = iso_game(complete_graph(1), complete_graph(1))
    for x, y, a, b in itertools.product(range(2), repeat=4):
        assert g.lam[x, y, a, b] == (a != x and b != y)


def test_iso_game_identity_strategy_perfect():
    # oracle: check the winning predicate on all 10^4 tuples
    c5 = cycle_graph(5)
    g = iso_game(c5, c5)
    f = [x + 5 if x < 5 else x - 5 for x in range(10)]
    assert games.is_perfect_deterministic(g, f)


def test_hom_k3_to_k2_has_no_perfect_strategy():
    # K_3 is not 2-colorable: all 2^3 response functions lose somewhere
    g = hom_game(complete_graph(3), complete_graph(2))
    assert not games.has_perfect_deterministic(g)
    assert games.has_perfect_deterministic(hom_game(complete_graph(2), complete_graph(2)))


def test_flip_involution(rng):
    for _ in range(5):
        g = random_game(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        assert np.array_equal(flip_game(flip_game(g)).lam, g.lam)


def test_bisynchronous_iff_both_flips_synchronous(rng):
    samples = [hom_game(complete_graph(3), cycle_graph(5)),
               hom_game(cycle_graph(5), complete_graph(3)),
               iso_game(cycle_graph(4), cycle_graph(4))]
    for _ in range(10):
        samples.append(random_game(rng, 3, 3))
    for g in samples:
        both = is_synchronous(g) and is_synchronous(flip_game(g))
        assert is_bisynchronous(g) == both
        assert is_bisynchronous(g) == is_bisynchronous(flip_game(g))


def test_flip_of_hom_from_complete_has_dead_input_pair():
    # flipping Hom(K_3, P_3) leaves some input pair with no winning answers
    g = flip_game(hom_game(complete_graph(3), path_graph(3)))
    dead = [(x, y) for x in range(3) for y in range(3)
            if x != y and not g.lam[x, y].any()]
    assert (0, 2) in dead


def test_bisync_lift():
    base = hom_game(cycle_graph(5), complete_graph(3))
    lifted = bisync_lift(base)
    assert lifted.kA == 15
    assert is_bisynchronous(lifted)


def test_bisync_lift_random_synchronous(rng):
    for _ in range(5):
        g = random_graph(rng, int(rng.integers(1, 4)))
        h = random_graph(rng, int(rng.integers(1, 4)))
        assert is_bisynchronous(bisync_lift(hom_game(g, h)))


def test_bisync_lift_requires_synchronous():
    with pytest.raises(NotSynchronous):
        bisync_lift(Game(np.ones((2, 2, 2, 2), dtype=bool)))


def test_bisync_lift_of_perfect_strategy():
    # a perfect response function f lifts to x -> (x, f(x))
    g = hom_game(complete_graph(2), complete_graph(2))
    f = [0, 1]
    assert games.is_perfect_deterministic(g, f)
    lifted = bisync_lift(g)
    k = g.kA
    lifted_f = [games.lift_output_index(x, f[x], k) for x in range(2)]
    assert games.is_perfect_deterministic(lifted, lifted_f)


def test_response_function_guard():
    with pytest.raises(TooLarge):
        list(games.atoms_within("responses", 12, 4))


def test_perfect_deterministic_search_prunes_below_the_guard():
    # 4^7 response functions exceed the guard, but the proper partial
    # colourings of K_7 with 4 colours die out at the fifth vertex
    k7_to_k4 = hom_game(complete_graph(7), complete_graph(4))
    assert games.has_perfect_deterministic(k7_to_k4) is False
    assert not loop_has_perfect_deterministic(k7_to_k4)
    assert games.has_perfect_deterministic(hom_game(complete_graph(4), complete_graph(7)))
    # the 7! injective colourings of K_7 by 7 colours outgrow it: 5040 at the sixth vertex
    with pytest.raises(TooLarge, match="5040 partial response functions on 6 of 7 inputs"):
        games.has_perfect_deterministic(hom_game(complete_graph(7), complete_graph(7)))


# Loop references: the parent's definitions of the (bi)synchronous zero
# pattern, the hom game and the response-function search, kept to compare
# the vectorized code against.

def loop_is_synchronous(g):
    if g.nA != g.nB or g.kA != g.kB:
        return False
    off = ~np.eye(g.kA, dtype=bool)
    return not any(g.lam[v, v][off].any() for v in range(g.nA))


def loop_is_bisynchronous(g):
    if not loop_is_synchronous(g):
        return False
    return not any(g.lam[x, y].diagonal().any()
                   for x in range(g.nA) for y in range(g.nA) if x != y)


def loop_hom_game(g, h):
    n, k = g.n, h.n
    lam = np.ones((n, n, k, k), dtype=bool)
    for x in range(n):
        for y in range(n):
            if x == y:
                lam[x, y] = np.eye(k, dtype=bool)
            elif g.adjacency[x, y]:
                lam[x, y] = h.adjacency
    return Game(lam)


def loop_iso_game(g, h):
    ng, nh = g.n, h.n
    m = ng + nh

    def relation(graph, u, v):
        return 0 if u == v else 1 if graph.adjacency[u, v] else 2

    def side(v):
        return (0, v) if v < ng else (1, v - ng)

    lam = np.zeros((m, m, m, m), dtype=bool)
    for x, y, a, b in itertools.product(range(m), repeat=4):
        sx, vx = side(x)
        sy, vy = side(y)
        sa, va = side(a)
        sb, vb = side(b)
        if sa == sx or sb == sy:
            continue
        g_alice, h_alice = (vx, va) if sx == 0 else (va, vx)
        g_bob, h_bob = (vy, vb) if sy == 0 else (vb, vy)
        lam[x, y, a, b] = relation(g, g_alice, g_bob) == relation(h, h_alice, h_bob)
    return Game(lam)


def loop_has_perfect_deterministic(g):
    if g.nA != g.nB or g.kA != g.kB:
        return False
    return any(all(g.lam[x, y, f[x], f[y]] for x in range(g.nA) for y in range(g.nA))
               for f in itertools.product(range(g.kA), repeat=g.nA))


def equivalence_games(rng, count):
    """Random games of every kind the predicates tell apart: non-square,
    square with n != k, synchronous and bisynchronous by construction,
    dense ones with a perfect strategy, and hom games."""
    out = []
    for i in range(count):
        n, k = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        lam = rng.random((n, n, k, k)) < rng.uniform(0.3, 0.95)
        kind = i % 5
        if kind == 0:
            lam = rng.random((n, int(rng.integers(1, 5)), k, int(rng.integers(1, 5)))) < 0.7
        if kind in (1, 2):
            for v in range(n):
                lam[v, v] &= np.eye(k, dtype=bool)
        if kind == 2:
            for x in range(n):
                for y in range(n):
                    if x != y:
                        lam[x, y] &= ~np.eye(k, dtype=bool)
        if kind == 3:
            f = rng.integers(k, size=n)
            lam[np.arange(n)[:, None], np.arange(n), f[:, None], f] = True
        out.append(Game(lam))
        g = random_graph(rng, int(rng.integers(1, 5)))
        h = random_graph(rng, int(rng.integers(1, 5)))
        out.append(hom_game(g, h))
    return out


def test_predicates_match_loop_references(rng):
    for g in equivalence_games(rng, 150):
        assert is_synchronous(g) == loop_is_synchronous(g)
        assert is_bisynchronous(g) == loop_is_bisynchronous(g)
        assert games.has_perfect_deterministic(g) == loop_has_perfect_deterministic(g)
        assert type(games.has_perfect_deterministic(g)) is bool


def test_hom_game_matches_loop_reference(rng):
    for _ in range(100):
        g = random_graph(rng, int(rng.integers(1, 6)))
        h = random_graph(rng, int(rng.integers(1, 6)))
        assert np.array_equal(hom_game(g, h).lam, loop_hom_game(g, h).lam)


def test_iso_game_matches_loop_reference(rng):
    sizes = [(1, 1), (1, 4), (4, 1), (2, 5), (5, 3)]
    sizes += [tuple(int(v) for v in rng.integers(1, 6, size=2)) for _ in range(25)]
    for ng, nh in sizes:
        g, h = random_graph(rng, ng), random_graph(rng, nh)
        assert np.array_equal(iso_game(g, h).lam, loop_iso_game(g, h).lam)


def test_forbidden_positions_is_the_pattern():
    for n, k in [(1, 1), (2, 3), (3, 2), (4, 4)]:
        sync = games.forbidden_positions(n, k)
        bisync = games.forbidden_positions(n, k, bisync=True)
        assert sync.shape == bisync.shape == (n, n, k, k)
        for x, y, a, b in itertools.product(range(n), range(n), range(k), range(k)):
            assert sync[x, y, a, b] == (x == y and a != b)
            assert bisync[x, y, a, b] == ((x == y) != (a == b))


def test_response_functions_are_the_lexicographic_product():
    for n, k in [(1, 1), (1, 4), (3, 2), (2, 3), (5, 3), (4, 4)]:
        fs = games.atoms_within("responses", n, k)
        assert fs.shape == (k ** n, n) and fs.dtype == np.intp
        assert fs.tolist() == [list(f) for f in itertools.product(range(k), repeat=n)]


def test_perfect_deterministic_rejects_values_outside_the_outputs():
    g = hom_game(complete_graph(2), complete_graph(2))
    for f in ([-1, 0], [2, 0]):
        with pytest.raises(ShapeMismatch):
            games.is_perfect_deterministic(g, f)
    assert games.is_perfect_deterministic(g, [1, 0])
    assert not games.is_perfect_deterministic(g, [0, 0])


@pytest.mark.parametrize("sigma", [[5], [0, 0], [1, 2]])
def test_every_permutation_constructor_raises_not_bijective(sigma):
    constructors = [
        densities.from_permutation,
        lambda s: densities.PermutationMixture(np.array([1.0]), (s,)),
        qperm.from_permutation,
        vect.permutation_strategy,
        lambda s: games.relabel_graph(empty_graph(len(s)), s),
    ]
    for build in constructors:
        with pytest.raises(NotBijective, match="is not a permutation of 0.."):
            build(sigma)
        with pytest.raises(BadInput):
            build(sigma)


# ---------------------------------------------------------------------------
# index rows: atoms, edges and game zeros pass one vectorized check


@pytest.mark.parametrize("build", [
    lambda: densities.PermutationMixture([1.0], ([0.5, 1.0],)),
    lambda: densities.PermutationMixture([1.0], ([1.9, 0.2],)),
    lambda: densities.PermutationMixture([1.0], ([1.0, 0.0],)),
    lambda: densities.ResponseMixture([1.0], ([0.5, 1.0],), 2),
    lambda: densities.ResponseMixture([1.0], ([1.9, 0.2],), 2),
    lambda: densities.ResponseMixture([1.0], ([1.0, 0.0],), 2),
    lambda: densities.from_permutation(np.array([1.0, 0.0])),
    lambda: qperm.from_permutation([0.0, 1.0]),
    lambda: vect.permutation_strategy([1.0, 0.0]),
    lambda: games.relabel_graph(path_graph(2), [True, False]),
    lambda: games.graph_from_edges(3, [(0.5, 1)]),
    lambda: games.graph_from_edges(3, [(True, 2)]),
    lambda: games.is_perfect_deterministic(hom_game(complete_graph(2), complete_graph(2)),
                                           [1.0, 0]),
])
def test_non_integer_entries_are_bad_input(build):
    raises_quietly(BadInput, build)


def test_index_rows_returns_read_only_intp_rows():
    rows = [[1, 0, 2], [2, 1, 0]]
    arr = games.index_rows(rows, "permutation")
    assert arr.dtype == np.intp and not arr.flags.writeable and arr.tolist() == rows
    for empty, what, bound in (([], "edge", 3), ([], "zero tuple", (2, 2, 2, 2))):
        assert games.index_rows(empty, what, bound).shape == (0, 2 if what == "edge" else 4)
    assert not games.graph_from_edges(3, []).adjacency.any()
    assert games.index_rows(np.array(rows, dtype=object), "permutation").tolist() == rows


def _maybe_array(rows, as_array):
    if not as_array:
        return rows
    try:
        return np.array(rows)
    except ValueError:
        return rows


_ENTRY = st.one_of(st.integers(0, 4), st.integers(-3, -1), st.integers(2 ** 63, 2 ** 70),
                   st.integers(-2 ** 70, -2 ** 63 - 1), st.floats(-2, 5), st.booleans(),
                   st.just("1"))


@st.composite
def _index_rows_case(draw):
    what = draw(st.sampled_from(["permutation", "function", "edge", "zero tuple"]))
    bound = draw({"permutation": st.none() | st.integers(0, 4), "function": st.integers(1, 4),
                  "edge": st.integers(1, 4),
                  "zero tuple": st.tuples(*[st.integers(1, 3)] * 4)}[what])
    width = draw(st.integers(0, 5))
    row = st.one_of(st.lists(st.integers(0, 4), min_size=width, max_size=width),
                    st.permutations(range(width)), st.lists(_ENTRY, max_size=6))
    rows = draw(st.one_of(st.lists(row, max_size=4), st.lists(_ENTRY, min_size=1, max_size=4)))
    return _maybe_array(rows, draw(st.booleans())), what, bound


def _outcome(check, rows, what, bound):
    try:
        return "ok", [list(map(int, row)) for row in check(rows, what, bound)]
    except BisyncError as e:
        return type(e), str(e)


@settings(max_examples=400, deadline=None)
@given(_index_rows_case())
def test_index_rows_agrees_with_the_plain_python_reference(case):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(games.index_rows, *case) == _outcome(reference_index_rows, *case)


def test_game_and_graph_read_their_arrays_as_numbers():
    for lam in ([[[["a"]]]], np.full((1, 1, 1, 1), np.nan), [[[[1]], [[1], [1]]]]):
        raises_quietly(BadInput, lambda: Game(lam))
    for adj in ([["a", "b"], ["b", "a"]], [[0, np.nan], [np.nan, 0]], [[0], [0, 0]]):
        raises_quietly(BadInput, lambda: games.Graph(adj))
    assert Game(np.ones((1, 1, 1, 1), dtype=int)).lam.dtype == bool
