"""JSON formats for every artifact the package exchanges.

Complex scalars are [re, im] pairs.  All indices are 0-based.  Formats:

graph    {"n": int, "edges": [[i, j], ...]}
game     {"nA", "nB", "kA", "kB", "zeros": [[x, y, a, b], ...]}
density  {"n": int, "k": int, "p": [x][y][a][b]}
vect     {"n": int, "m": int, "h": [x][a] -> [[re, im] * m]}
system   {"n", "k", "blocks": [{"d", "weight", "E": [x][a] -> d x d of [re, im]}]}
choi     {"n", "k", "choi": flattened row-major [re, im] list}
mixture  {"n", "weights": [...], "permutations": [[...], ...]}
matrix   {"rows", "cols", "entries": [row][col] -> [re, im]}
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import numpy as np

from .cpmaps import ChoiMap
from .densities import Density, PermutationMixture
from .errors import BadInput
from .games import Game, Graph, check_entries, graph_from_edges, index_rows
from .qperm import ProjectiveSystem
from .vect import VectorStrategy


def _dump_complex(a) -> list:
    """Nested lists of [re, im] pairs, one per entry of the complex array ``a``."""
    a = np.asarray(a, dtype=np.complex128)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _load_complex(obj) -> np.ndarray:
    """Inverse of _dump_complex, exact to the bit (a -0.0 keeps its sign)."""
    arr = np.asarray(obj)
    if arr.dtype.kind not in "biuf" or arr.ndim == 0 or arr.shape[-1] != 2:
        raise BadInput(f"expected nested [re, im] pairs of numbers, got shape {arr.shape}")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128)[..., 0]


@contextmanager
def _reading(what: str):
    """Turn a KeyError, TypeError or ValueError raised inside into BadInput("bad <what> JSON")."""
    try:
        yield
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput(f"bad {what} JSON: {exc}")


def graph_to_dict(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.edges()]}


def graph_from_dict(d: dict) -> Graph:
    with _reading("graph"):
        return graph_from_edges(int(d["n"]), d.get("edges", []))


def game_to_dict(g: Game) -> dict:
    return {"nA": g.nA, "nB": g.nB, "kA": g.kA, "kB": g.kB,
            "zeros": np.argwhere(~g.lam).tolist()}


def game_from_dict(d: dict) -> Game:
    with _reading("game"):
        shape = (int(d["nA"]), int(d["nB"]), int(d["kA"]), int(d["kB"]))
        check_entries(*shape)
        lam = np.ones(shape, dtype=bool)
        lam[tuple(index_rows(d.get("zeros", []), "zero tuple", shape).T)] = False
    return Game(lam)


def density_to_dict(d: Density) -> dict:
    if not d.square:
        raise BadInput("density JSON covers the square case nA = nB, kA = kB")
    return {"n": d.nA, "k": d.kA, "p": d.p.tolist()}


def density_from_dict(d: dict) -> Density:
    with _reading("density"):
        n, k = int(d["n"]), int(d["k"])
        p = np.asarray(d["p"], dtype=float)
    if p.shape != (n, n, k, k):
        raise BadInput(f"density tensor shape {p.shape} != {(n, n, k, k)}")
    return Density(p)


def vect_to_dict(v: VectorStrategy) -> dict:
    return {"n": v.n, "m": v.m, "h": _dump_complex(v.vectors)}


def vect_from_dict(d: dict) -> VectorStrategy:
    with _reading("vect"):
        n, m = int(d["n"]), int(d["m"])
        arr = _load_complex(d["h"])
    if arr.ndim != 3 or (arr.shape[0], arr.shape[2]) != (n, m):
        raise BadInput(f"vector grid shape {arr.shape} disagrees with n = {n}, m = {m}")
    return VectorStrategy(arr)


def system_to_dict(s: ProjectiveSystem) -> dict:
    blocks = [{"d": g.shape[2], "weight": w, "E": _dump_complex(g)}
              for g, w in zip(s.grids, s.weights)]
    return {"n": s.n, "k": s.k, "blocks": blocks}


def system_from_dict(d: dict) -> ProjectiveSystem:
    with _reading("system"):
        n, k = int(d["n"]), int(d["k"])
        grids, weights = [], []
        for blk in d["blocks"]:
            dim = int(blk["d"])
            weights.append(float(blk["weight"]))
            arr = _load_complex(blk["E"])
            if arr.shape != (n, k, dim, dim):
                raise BadInput(f"block shape {arr.shape} != {(n, k, dim, dim)}")
            grids.append(arr)
    return ProjectiveSystem(tuple(grids), tuple(weights))


def choi_to_dict(m: ChoiMap) -> dict:
    return {"n": m.n, "k": m.k, "choi": _dump_complex(m.choi.reshape(-1))}


def choi_from_dict(d: dict) -> ChoiMap:
    with _reading("choi"):
        n, k = int(d["n"]), int(d["k"])
        flat = _load_complex(d["choi"])
    if flat.shape != ((n * k) ** 2,):
        raise BadInput("choi entry count does not match n, k")
    return ChoiMap(n, k, flat.reshape(n * k, n * k))


def mixture_to_dict(m: PermutationMixture) -> dict:
    return {
        "n": m.n,
        "weights": [float(w) for w in m.weights],
        "permutations": [list(s) for s in m.permutations],
    }


def mixture_from_dict(d: dict) -> PermutationMixture:
    with _reading("mixture"):
        n = int(d["n"])
        mix = PermutationMixture(np.asarray(d["weights"], dtype=float), d["permutations"])
    if mix.n != n:
        raise BadInput(f"mixture permutes {mix.n} points, header says n = {n}")
    return mix


def matrix_to_dict(a) -> dict:
    a = np.asarray(a, dtype=np.complex128)
    return {"rows": a.shape[0], "cols": a.shape[1], "entries": _dump_complex(a)}


def matrix_from_dict(d: dict) -> np.ndarray:
    with _reading("matrix"):
        rows, cols = int(d["rows"]), int(d["cols"])
        if rows < 1 or cols < 1:
            raise BadInput("a matrix needs at least one row and one column")
        arr = _load_complex(d["entries"])
    if arr.shape != (rows, cols):
        raise BadInput("matrix shape disagrees with rows/cols")
    return arr


def load_json(path: str) -> dict:
    """Read a JSON object from a path, or stdin when path is '-'."""
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"cannot read JSON from {path}: {exc}")


def dump_json(obj: dict, path: str, pretty: bool = False) -> None:
    text = json.dumps(obj, indent=2 if pretty else None,
                      separators=None if pretty else (",", ":"))
    if path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
