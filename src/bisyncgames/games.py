"""Two-player finite input-output games: data model and constructions.

A game stores its predicate as a dense boolean tensor ``lam`` indexed
``(x, y, a, b)`` -- inputs first, outputs second.  ``lam[x, y, a, b]`` is
True when the answer pair (a, b) to the question pair (x, y) wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadInput, NotBijective, NotSynchronous, ShapeMismatch, TooLarge

_RESPONSE_GUARD = 3000  # max number of response functions to enumerate
# max entries of a tensor allocated from declared sizes (the m = 48 iso game has 5.3e6)
_ENTRY_GUARD = 10 ** 7


def check_entries(*sizes: int) -> None:
    """TooLarge when a tensor of these sizes would exceed the entry guard."""
    if math.prod(sizes) > _ENTRY_GUARD:
        raise TooLarge(f"a {' x '.join(map(str, sizes))} tensor exceeds the guard of "
                       f"{_ENTRY_GUARD} entries")


def forbidden_positions(n: int, k: int, bisync: bool = False) -> np.ndarray:
    """The (n, n, k, k) mask of the tuples (x, y, a, b) a synchronous game must lose,
    x = y with a != b; with ``bisync``, also x != y with a = b."""
    same_q = np.eye(n, dtype=bool)[:, :, None, None]
    same_a = np.eye(k, dtype=bool)
    return same_q != same_a if bisync else same_q & ~same_a


def response_functions(n: int, k: int) -> np.ndarray:
    """All k^n response functions [n] -> [k], one per row, in lexicographic order."""
    if k ** n > _RESPONSE_GUARD:
        raise TooLarge(f"{k}^{n} response functions exceed the guard of {_RESPONSE_GUARD}")
    return np.indices((k,) * n, dtype=np.intp).reshape(n, k ** n).T


def check_response_values(f, k: int) -> None:
    """ShapeMismatch unless every value of the response function ``f`` lies in 0..k-1."""
    if any(not 0 <= v < k for v in f):
        raise ShapeMismatch("response values must lie in 0..k-1")


def as_permutation(sigma, n: int | None = None) -> list:
    """``sigma`` as a list; NotBijective unless it permutes 0..n-1 (n defaults to its length)."""
    sigma = list(sigma)
    n = len(sigma) if n is None else n
    if sorted(sigma) != list(range(n)):
        raise NotBijective(f"{sigma} is not a permutation of 0..{n - 1}")
    return sigma


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph given by a boolean adjacency matrix."""

    adjacency: np.ndarray

    def __post_init__(self):
        adj = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.shape[0] < 1:
            raise BadInput("adjacency must be a square nonempty boolean matrix")
        if adj.diagonal().any():
            raise BadInput("graphs are loopless: diagonal must be empty")
        if (adj != adj.T).any():
            raise BadInput("adjacency must be symmetric")
        object.__setattr__(self, "adjacency", adj)

    @property
    def n(self) -> int:
        return self.adjacency.shape[0]

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(i + 1, self.n)
                if self.adjacency[i, j]]


def graph_from_edges(n: int, edges) -> Graph:
    adj = np.zeros((n, n), dtype=bool)
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n) or i == j:
            raise BadInput(f"bad edge ({i}, {j}) for {n} vertices")
        adj[i, j] = adj[j, i] = True
    return Graph(adj)


def complete_graph(c: int) -> Graph:
    if c < 1:
        raise BadInput("need at least one vertex")
    adj = ~np.eye(c, dtype=bool)
    return Graph(adj)


def empty_graph(n: int) -> Graph:
    if n < 1:
        raise BadInput("need at least one vertex")
    return Graph(np.zeros((n, n), dtype=bool))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise BadInput("cycles need at least three vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise BadInput("need at least one vertex")
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def graph_complement(g: Graph) -> Graph:
    return Graph(~g.adjacency & ~np.eye(g.n, dtype=bool))


def relabel_graph(g: Graph, sigma) -> Graph:
    """Graph with vertex i of ``g`` renamed sigma[i]."""
    sigma = as_permutation(sigma, g.n)
    adj = np.zeros_like(g.adjacency)
    adj[np.ix_(sigma, sigma)] = g.adjacency
    return Graph(adj)


@dataclass(frozen=True)
class Game:
    """Predicate tensor lam[x, y, a, b] over inputs x, y and outputs a, b."""

    lam: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=bool)
        if lam.ndim != 4 or min(lam.shape) < 1:
            raise BadInput("predicate must be a 4-index boolean tensor")
        object.__setattr__(self, "lam", lam)

    @property
    def nA(self) -> int:
        return self.lam.shape[0]

    @property
    def nB(self) -> int:
        return self.lam.shape[1]

    @property
    def kA(self) -> int:
        return self.lam.shape[2]

    @property
    def kB(self) -> int:
        return self.lam.shape[3]


def is_synchronous(g: Game) -> bool:
    """Same question must get the same answer.

    Requires equal input sets and equal output sets, and lam[v, v, a, b]
    to vanish whenever a != b.  Diagonal entries with a == b are
    unconstrained: rules may forbid some same-answer pairs for other
    reasons (the isomorphism game does) without breaking synchronicity.
    """
    if g.nA != g.nB or g.kA != g.kB:
        return False
    return not g.lam[forbidden_positions(g.nA, g.kA)].any()


def is_bisynchronous(g: Game) -> bool:
    """Synchronous, and distinct questions must get distinct answers."""
    return is_synchronous(g) and not g.lam[forbidden_positions(g.nA, g.kA, bisync=True)].any()


def hom_game(g: Graph, h: Graph) -> Game:
    """Homomorphism game: inputs V(g), outputs V(h).

    Loses exactly when equal inputs get unequal outputs, or when an edge
    of ``g`` is answered by a non-edge of ``h``.
    """
    check_entries(g.n, g.n, h.n, h.n)
    lam = ~forbidden_positions(g.n, h.n)
    lam[g.adjacency] = h.adjacency
    return Game(lam)


def _iso_relation(graph: Graph, u: int, v: int) -> int:
    # 0 = equal, 1 = adjacent, 2 = distinct non-adjacent
    if u == v:
        return 0
    return 1 if graph.adjacency[u, v] else 2


def iso_game(g: Graph, h: Graph) -> Game:
    """Isomorphism game on the tagged disjoint union of V(g) and V(h).

    Vertices 0..g.n-1 are the g-side, g.n..g.n+h.n-1 the h-side.  An
    answer must come from the graph opposite its question, and the pair
    relation (equal / adjacent / distinct non-adjacent) computed among
    the two g-side vertices must match the one among the two h-side
    vertices.
    """
    ng, nh = g.n, h.n
    m = ng + nh
    check_entries(m, m, m, m)

    def side(v):  # (graph index, vertex within it)
        return (0, v) if v < ng else (1, v - ng)

    lam = np.zeros((m, m, m, m), dtype=bool)
    for x, y, a, b in itertools.product(range(m), repeat=4):
        sx, vx = side(x)
        sy, vy = side(y)
        sa, va = side(a)
        sb, vb = side(b)
        if sa == sx or sb == sy:
            continue  # answers must lie in the opposite graph
        g_alice, h_alice = (vx, va) if sx == 0 else (va, vx)
        g_bob, h_bob = (vy, vb) if sy == 0 else (vb, vy)
        if _iso_relation(g, g_alice, g_bob) == _iso_relation(h, h_alice, h_bob):
            lam[x, y, a, b] = True
    return Game(lam)


def flip_game(g: Game) -> Game:
    """Swap the roles of questions and answers: new lam[a, b, x, y] = lam[x, y, a, b]."""
    return Game(g.lam.transpose(2, 3, 0, 1))


def bisync_lift(g: Game) -> Game:
    """Bisynchronous lift of a synchronous game: players also return their question.

    New outputs are pairs (x', a) flattened as x' * k + a; the lifted
    predicate keeps lam(x, y, a, b) and additionally requires x' = x and
    y' = y.  The result is always bisynchronous.
    """
    if not is_synchronous(g):
        raise NotSynchronous("bisync_lift requires a synchronous game")
    n, k = g.nA, g.kA
    check_entries(n, n, n * k, n * k)
    lifted = np.zeros((n, n, n * k, n * k), dtype=bool)
    for x in range(n):
        for y in range(n):
            lifted[x, y, x * k:(x + 1) * k, y * k:(y + 1) * k] = g.lam[x, y]
    return Game(lifted)


def lift_output_index(x: int, a: int, k: int) -> int:
    """Flattened index of the lifted output (x, a)."""
    return x * k + a


def _perfect_rows(g: Game, fs: np.ndarray) -> np.ndarray:
    """For each row f of ``fs``, whether lam[x, y, f[x], f[y]] holds for every x, y."""
    x = np.arange(g.nA)
    return g.lam[x[:, None], x, fs[:, :, None], fs[:, None, :]].all(axis=(1, 2))


def is_perfect_deterministic(g: Game, f) -> bool:
    """Whether the shared response function ``f`` wins on every input pair;
    ShapeMismatch when a value of ``f`` lies outside 0..k-1."""
    f = list(f)
    if g.nA != g.nB or g.kA != g.kB or len(f) != g.nA:
        return False
    check_response_values(f, g.kA)
    return bool(_perfect_rows(g, np.array([f]))[0])


def has_perfect_deterministic(g: Game) -> bool:
    """Exhaustive search over response functions (guarded)."""
    if g.nA != g.nB or g.kA != g.kB:
        return False
    return bool(_perfect_rows(g, response_functions(g.nA, g.kA)).any())
