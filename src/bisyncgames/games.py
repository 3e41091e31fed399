"""Two-player finite input-output games: data model and constructions.

A game stores its predicate as a dense boolean tensor ``lam`` indexed
``(x, y, a, b)`` -- inputs first, outputs second.  ``lam[x, y, a, b]`` is
True when the answer pair (a, b) to the question pair (x, y) wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadInput,
    NotBijective,
    NotSynchronous,
    PreconditionFailed,
    ShapeMismatch,
    TooLarge,
)

# the most partial atoms one search may hold: 8! permutations, 3000 response functions
ATOM_GUARD = {"permutations": math.factorial(8), "responses": 3000}
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


def atoms_within(family: str, n: int, k: int, allowed=None) -> np.ndarray:
    """The permutations of [n] (``family`` "permutations"), or the response
    functions [n] -> [k] ("responses"), whose coordinates (x, y, f(x), f(y))
    all lie in the (n, n, k, k) boolean mask ``allowed`` (every one when
    None), one per row in lexicographic order.  ``allowed`` must hold
    (y, x, b, a) wherever it holds (x, y, a, b): an atom hits both or neither.

    The maps on 0..j-1 are extended by every value v at j, and an extension
    is kept only if (j, j, v, v) and every (i, j, f(i), v) with i < j are
    allowed (for permutations, only if v is unused).  Raises
    PreconditionFailed (permutations) or TooLarge (response functions) once
    the partial maps outgrow the family's ``ATOM_GUARD``.
    """
    perms = family == "permutations"
    limit = ATOM_GUARD[family]
    rows = np.zeros((1, 0), dtype=np.intp)
    for j in range(n):
        keep = np.ones((len(rows), k), dtype=bool)
        if perms:
            np.put_along_axis(keep, rows, False, axis=1)
        if allowed is not None:
            keep &= allowed[j, j].diagonal()
            earlier = np.arange(j)
            keep &= allowed[earlier, j][earlier, rows].all(axis=1)
        r, v = np.nonzero(keep)
        if r.size > limit:
            what = "partial permutations" if perms else "partial response functions"
            raise (PreconditionFailed if perms else TooLarge)(
                f"{r.size} {what} on {j + 1} of {n} inputs exceed the guard of {limit}")
        rows = np.column_stack([rows[r], v])
    return rows


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


def iso_game(g: Graph, h: Graph) -> Game:
    """Isomorphism game on the tagged disjoint union of V(g) and V(h).

    Vertices 0..g.n-1 are the g-side, g.n..g.n+h.n-1 the h-side.  An
    answer must come from the graph opposite its question, and the pair
    relation (equal / adjacent / distinct non-adjacent) computed among
    the two g-side vertices must match the one among the two h-side
    vertices.
    """
    ng = g.n
    m = ng + h.n
    check_entries(m, m, m, m)
    # relation of two vertices of one graph: 0 equal, 1 adjacent, 2 distinct non-adjacent
    rel_g, rel_h = (np.where(np.eye(r.n, dtype=bool), 0, 2 - r.adjacency).astype(np.int8)
                    for r in (g, h))
    q, a = np.arange(m)[:, None], np.arange(m)
    opposite = (q < ng) != (a < ng)  # [question, answer]
    # of a question and an answer from opposite sides the smaller is the
    # g-side vertex; elsewhere the clipped indices are masked out below
    g_of = np.minimum(q, a).clip(max=ng - 1)
    h_of = (np.maximum(q, a) - ng).clip(min=0)
    # Alice's pair (x, a) spans axes 0 and 2 of lam[x, y, a, b], Bob's (y, b) axes 1 and 3
    lam = (rel_g[g_of[:, None, :, None], g_of[None, :, None, :]]
           == rel_h[h_of[:, None, :, None], h_of[None, :, None, :]])
    return Game(lam & opposite[:, None, :, None] & opposite[None, :, None, :])


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


def is_perfect_deterministic(g: Game, f) -> bool:
    """Whether the shared response function ``f`` wins on every input pair;
    ShapeMismatch when a value of ``f`` lies outside 0..k-1."""
    f = list(f)
    if g.nA != g.nB or g.kA != g.kB or len(f) != g.nA:
        return False
    check_response_values(f, g.kA)
    x, f = np.arange(g.nA), np.array(f, dtype=np.intp)
    return bool(g.lam[x[:, None], x, f[:, None], f].all())


def has_perfect_deterministic(g: Game) -> bool:
    """Whether some shared response function wins on every input pair: the
    search over response functions allowed by lam and its mirror (guarded)."""
    if g.nA != g.nB or g.kA != g.kB:
        return False
    return len(atoms_within("responses", g.nA, g.kA, g.lam & g.lam.transpose(1, 0, 3, 2))) > 0
