"""The three workloads: their rounds of inputs, their verdicts and their checks.

A run repeats whole rounds.  A round is a fixed list of verdict kinds;
the inputs of round r are drawn from ``default_rng((seed, tag, r))``,
except the few inputs that are fixed on purpose (the boundary slice and
the n = 7 nonlocal slice of ``decide``, see the README).  The library
receives only the generated inputs.  Checks live in :mod:`checks`,
which does not import the library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import bisyncgames as bg
from bisyncgames import cpmaps, densities, qperm

import checks

HERE = os.path.dirname(os.path.abspath(__file__))


def _rng(seed: int, tag: int, r: int) -> np.random.Generator:
    return np.random.default_rng((seed, tag, r))


# ---------------------------------------------------------------------------
# decide: LP-bound local-membership verdicts

# d_s = (1 - s) U_n + s z_n.  The first three come back "local" although
# every s > 0 is nonlocal (the boundary fault); the last two are controls.
BOUNDARY = ((3, 1e-7, True), (3, 2e-7, True), (4, 1e-7, True),
            (3, 1e-6, False), (4, 1e-6, False))
# n = 7 nonlocal input: one fixed slice.  HiGHS takes 0.9 s to 4.2 s on
# random n = 7 nonlocal draws, even on relabelings of one density, so a
# seeded draw would make verdicts_per_s depend on the seed.
SLICE7 = 0.1


def _mixture(rng, family, n, k, atoms=6):
    w = rng.dirichlet(np.ones(atoms))
    if family == "permutations":
        draws = [rng.permutation(n) for _ in range(atoms)]
    else:
        draws = [rng.integers(k, size=n) for _ in range(atoms)]
    return sum(wi * checks.atom_tensor(f, k) for wi, f in zip(w, draws))


def _decide_item(label, family, p, expect, known_fault=False):
    item = {"label": label, "family": family, "p": p, "expect": expect,
            "density": bg.Density(p), "known_fault": known_fault, "excess": 0.0}
    if expect == "nonlocal":
        item["excess"] = checks.cyclic_excess(p, family)
        if not item["excess"] > 0:
            raise ValueError(f"{label}: the cyclic functional does not show nonlocality")
    return item


def _slice(n, s):
    return (1 - s) * checks.uniform_permutation_density(n) + s * checks.cyclic_density(n, n)


def _local(rng, family, n, k, tag):
    return _decide_item(f"{family} n={n} k={k} local {tag}", family,
                        _mixture(rng, family, n, k), "local")


def _nonlocal(rng, family, n, k, tag):
    # F is n on every permutation, so any s > 0 shows.  On response
    # functions F reaches max_c sum_v c_v c_{v+1}, at most 5/12 of F(z)
    # for the sizes used here (k = 3, n = 4, 6, 7), so s > 0.45 shows.
    s = rng.uniform(0.05, 0.3) if family == "permutations" else rng.uniform(0.45, 0.7)
    p = (1 - s) * _mixture(rng, family, n, k) + s * checks.cyclic_density(n, k)
    return _decide_item(f"{family} n={n} k={k} s={s:.3f} nonlocal {tag}", family, p,
                        "nonlocal")


def decide_round(seed: int, r: int) -> list:
    """34 verdicts: 5 boundary; 6 + 10 + 5 local permutation mixtures at
    n = 5, 6, 7; 3 nonlocal at n = 6 and the n = 7 slice; 2 local and 2
    nonlocal response densities.  The n = 5 verdicts balance the cheap and
    the dear ones, so that the median falls amid the n = 6 local verdicts."""
    rng = _rng(seed, 1, r)
    items = [_decide_item(f"slice n={n} s={s:g}", "permutations", _slice(n, s),
                          "nonlocal", fault) for n, s, fault in BOUNDARY]
    items += [_local(rng, "permutations", 5, 5, i) for i in range(6)]
    items += [_local(rng, "permutations", 6, 6, i) for i in range(10)]
    for n in (6, 7):
        items += [_local(rng, "responses", n, 3, 0), _nonlocal(rng, "responses", n, 3, 0)]
    items += [_nonlocal(rng, "permutations", 6, 6, i) for i in range(3)]
    items += [_local(rng, "permutations", 7, 7, i) for i in range(5)]
    items.append(_decide_item(f"slice n=7 s={SLICE7:g}", "permutations",
                              _slice(7, SLICE7), "nonlocal"))
    return items


class Decide:
    """Round: :func:`decide_round`.  Verdict: membership, then the library's
    own check of the answer (the path the CLI and the demos take)."""

    def __init__(self, seed, tmp, trace):
        self.seed = seed

    def round(self, r):
        return decide_round(self.seed, r)

    def warmup(self):
        rng = _rng(self.seed, 11, 0)
        return [_local(rng, "permutations", 4, 4, "warm-up"),
                _nonlocal(rng, "permutations", 4, 4, "warm-up"),
                _local(rng, "responses", 4, 3, "warm-up")]

    def verdict(self, item):
        d = item["density"]
        if item["family"] == "permutations":
            result = bg.local_bisync_membership(d)
            rebuild = bg.mixture_density
        else:
            result = bg.local_sync_membership(d)
            rebuild = densities.response_mixture_density
        if isinstance(result, bg.Infeasible):
            return result, bg.separation_margins(d, result)
        return result, rebuild(result)

    def check(self, item, out):
        return checks.check_membership(item, *out)


# ---------------------------------------------------------------------------
# fixpoints: quantum-permutation verdicts

STOCK_KINDS = ("classical", "block_pair", "direct_sum", "conjugate")
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1.0, -1.0]))
_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def _unitary(rng, d):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _block_generators(system):
    """Permutations whose generated group has the system's fixed points as invariants.

    The stock constructions have two kinds of block: d = 1 blocks are
    permutation matrices, and d = 2 blocks are block_pair(p, q) on four
    points, whose fixed points are those of the group <(0 1), (2 3)>
    when p and q do not commute.  Returns None for a block_pair whose
    p and q nearly commute, so that the caller draws again.
    """
    gens = []
    for g in system.grids:
        n, _, d, _ = g.shape
        if d == 1:
            e = g[:, :, 0, 0]
            sigma = np.argmax(np.abs(e), axis=1)
            if not np.allclose(e, np.eye(n)[sigma], atol=1e-12):
                raise ValueError("a d = 1 block is not a permutation matrix")
            gens.append(sigma)
            continue
        off = np.abs(g[:2, 2:]).max() + np.abs(g[2:, :2]).max()
        if (n, d) != (4, 2) or off > 1e-12:
            raise ValueError("a d = 2 block is not a block_pair")
        p, q = g[0, 0], g[2, 2]
        if np.abs(p @ q - q @ p).max() < 0.05:
            return None
        gens += [np.array([1, 0, 2, 3]), np.array([0, 1, 3, 2])]
    return gens


def _stock(rng, kind, verdict):
    while True:
        system = qperm.random_quantum_permutation(rng, kind=kind)
        gens = _block_generators(system)
        if gens is not None:
            break
    return {"label": f"stock {kind} n={system.n} dims={system.dims} {verdict}",
            "system": system, "verdict": verdict,
            "dim": checks.pair_orbits(system.n, gens),
            "p": checks.induced_density(system.grids, system.weights)}


def pauli_grid(x: np.ndarray) -> np.ndarray:
    """Banica-Collins Pauli magic unitary: E[i, j] projects onto c_i x c_j in M_2."""
    g = np.zeros((4, 4, 4, 4), dtype=complex)
    for i, ci in enumerate(_PAULI):
        for j, cj in enumerate(_PAULI):
            v = (ci @ x @ cj).reshape(-1) / np.sqrt(2)
            g[i, j] = np.outer(v, v.conj())
    return g


def _generic_unitary(rng):
    """A unitary x whose rotation R[m', m] = tr(c_m' x* c_m x) / 2 has no entry
    below 0.1: every off-diagonal position pair is then linked, and the
    Pauli magic unitary has exactly two orbitals (fixed-point dimension 2)."""
    while True:
        x = _unitary(rng, 2)
        rot = np.array([[np.trace(a @ x.conj().T @ b @ x).real / 2 for b in _PAULI[1:]]
                        for a in _PAULI[1:]])
        if np.abs(rot).min() >= 0.1:
            return x


def _quantum(rng, tensor_swap, conjugated):
    g = pauli_grid(_generic_unitary(rng))
    dim = 2
    if tensor_swap:
        # Pauli (x) S_2 with the transposition: n = 8, d = 4; the orbitals
        # multiply, 2 * 2.
        g = np.einsum("ijab,st->isjtab", g, _SWAP).reshape(8, 8, 4, 4)
        dim *= checks.pair_orbits(2, [np.array([1, 0])])
    system = qperm.ProjectiveSystem((g,), (1.0,))
    if conjugated:
        system = qperm.conjugate(system, _unitary(rng, 4))
    name = ("Pauli x S2" if tensor_swap else "Pauli") + (" conjugated" if conjugated else "")
    return {"label": f"{name} fix", "system": system, "verdict": "fix", "dim": dim,
            "p": checks.induced_density(system.grids, system.weights)}


def fixpoints_round(seed: int, r: int) -> list:
    """32 verdicts: 8 channel reports and 16 fix checks on stock systems,
    then 8 fix checks on Pauli systems (4 with n = 4, 4 with n = 8)."""
    rng = _rng(seed, 2, r)
    items = [_stock(rng, kind, "channel") for kind in STOCK_KINDS for _ in range(2)]
    items += [_stock(rng, kind, "fix") for kind in STOCK_KINDS for _ in range(4)]
    items += [_quantum(rng, swap, conj) for swap in (False, True)
              for conj in (False, True) for _ in range(2)]
    return items


class Fixpoints:
    """Round: :func:`fixpoints_round`.  Verdict: ``fix_equivalence_check`` or
    ``channel_report`` of the induced map."""

    def __init__(self, seed, tmp, trace):
        self.seed = seed

    def round(self, r):
        return fixpoints_round(self.seed, r)

    def warmup(self):
        rng = _rng(self.seed, 12, 0)
        return [_stock(rng, "block_pair", "fix"), _stock(rng, "classical", "channel"),
                _quantum(rng, False, False)]

    def verdict(self, item):
        system = item["system"]
        if item["verdict"] == "fix":
            return qperm.fix_equivalence_check(system)
        return cpmaps.channel_report(cpmaps.phi_from_density(qperm.induced_density(system)))

    def check(self, item, out):
        if item["verdict"] == "fix":
            return checks.check_fixpoints(item, out)
        return checks.check_channel(item, out)


# ---------------------------------------------------------------------------
# cli: one fresh `python -m bisyncgames.cli` process per command


def _write_json(tmp, name, obj):
    path = os.path.join(tmp, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def _system_json(system):
    blocks = [{"d": g.shape[2], "weight": w,
               "E": [[[[[z.real, z.imag] for z in row] for row in e] for e in g_x]
                     for g_x in g]}
              for g, w in zip(system.grids, system.weights)]
    return {"n": system.n, "k": system.k, "blocks": blocks}


def _density_json(p):
    return {"n": p.shape[0], "k": p.shape[2], "p": p.tolist()}


def cli_commands(seed: int, tmp: str) -> list:
    """The six commands of every round, with their JSON inputs written to ``tmp``."""
    rng = _rng(seed, 3, 0)
    mixture5 = _mixture(rng, "permutations", 5, 5)
    channel = _stock(rng, "direct_sum", "channel")
    verify = _stock(rng, "conjugate", "fix")
    fix = _stock(rng, "conjugate", "fix")
    nonlocal6 = _nonlocal(rng, "permutations", 6, 6, "cli")
    return [
        {"label": "density z3", "argv": ["density", "z3"], "exit": 0, "kind": "z3",
         "flags": {"bisynchronous": True}},
        {"label": "density check n=5", "kind": "check", "exit": 0,
         "argv": ["density", "check", "--class", "bisync", "--in",
                  _write_json(tmp, "mixture5.json", _density_json(mixture5))],
         "flags": {"valid": True, "synchronous": True, "bisynchronous": True}},
        {"label": f"map check ({channel['label']})", "kind": "check", "exit": 0,
         "argv": ["map", "check", "--in",
                  _write_json(tmp, "induced.json", _density_json(channel["p"]))],
         "flags": {"completely_positive": checks.channel_flags(channel["p"])
                   ["completely_positive"], "trace_preserving": True, "unital": True}},
        {"label": f"qperm verify ({verify['label']})", "kind": "check", "exit": 0,
         "argv": ["qperm", "verify", "--in",
                  _write_json(tmp, "verify.json", _system_json(verify["system"]))]},
        {"label": f"qperm fixpoints ({fix['label']})", "kind": "fixpoints", "exit": 0,
         "dim": fix["dim"], "n": fix["system"].n,
         "argv": ["qperm", "fixpoints", "--crosscheck", "--in",
                  _write_json(tmp, "fix.json", _system_json(fix["system"]))]},
        {"label": f"density local-decompose ({nonlocal6['label']})", "kind": "decompose",
         "exit": 1, "p": nonlocal6["p"], "flags": {"locally_decomposable": False},
         "argv": ["density", "local-decompose", "--in",
                  _write_json(tmp, "nonlocal6.json", _density_json(nonlocal6["p"]))]},
    ]


class Cli:
    """Round: the same six commands.  Verdict: one fresh CLI process.

    Traced, each process runs through traced_cli.py, which records the
    import, the handler and serialize; ``records`` collects those.
    """

    def __init__(self, seed, tmp, trace):
        self.tmp, self.trace = tmp, trace
        self.commands = cli_commands(seed, tmp)
        self.records: list = []

    def round(self, r):
        return self.commands

    def warmup(self):
        return self.commands[:1]

    def verdict(self, item):
        cmd = [sys.executable, "-m", "bisyncgames.cli"]
        if self.trace:
            path = os.path.join(self.tmp, "cli-trace.json")
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), path]
        proc = subprocess.run(cmd + item["argv"], capture_output=True, text=True,
                              timeout=120)
        if self.trace:
            with open(path, encoding="utf-8") as fh:
                self.records.append(json.load(fh))
        return proc.returncode, proc.stdout

    def check(self, item, out):
        return checks.check_cli(item, *out)


WORKLOADS = {"decide": Decide, "fixpoints": Fixpoints, "cli": Cli}
