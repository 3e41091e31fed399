"""Verdict checks made with numpy alone, apart from the library.

Nothing here imports ``bisyncgames``.  Every check recomputes what it
needs from the generated inputs and from the plain fields of the
returned objects (weights, atoms, functionals, bases, report flags).
Each check returns ``None`` when the verdict is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

TOL = 1e-9


# ---------------------------------------------------------------------------
# Densities: deterministic atoms, the cyclic functional, mixtures, certificates


def all_atoms(family: str, n: int, k: int) -> np.ndarray:
    """Every permutation of [n], or every response function [n] -> [k], one per row."""
    if family == "permutations":
        return np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    return np.array(list(itertools.product(range(k), repeat=n)), dtype=np.int64)


def atom_index(atoms: np.ndarray, k: int) -> np.ndarray:
    """Flat index of the nonzero entry p[x, y, f(x), f(y)] for each atom f and (x, y)."""
    n = atoms.shape[1]
    xy = np.arange(n)
    base = (xy[:, None] * n + xy[None, :]) * k * k
    return base[None] + atoms[:, :, None] * k + atoms[:, None, :]


def atom_tensor(atom, k: int) -> np.ndarray:
    """Deterministic density [a = f(x)][b = f(y)] of one atom f."""
    atom = np.asarray(atom, dtype=np.int64)
    n = atom.size
    p = np.zeros(n * n * k * k)
    p[atom_index(atom[None], k).reshape(-1)] = 1.0
    return p.reshape(n, n, k, k)


def cyclic_density(n: int, k: int) -> np.ndarray:
    """z_{n,k}: equal inputs give equal outputs, distinct inputs force a - b = 1 (mod k)."""
    p = np.zeros((n, n, k, k))
    a = np.arange(k)
    for x in range(n):
        for y in range(n):
            if x == y:
                p[x, y, a, a] = 1.0 / k
            else:
                p[x, y, a, (a - 1) % k] = 1.0 / k
    return p


def uniform_permutation_density(n: int) -> np.ndarray:
    """U_n, the uniform mixture of all n! permutation densities."""
    p = np.zeros((n, n, n, n))
    off = 1.0 - np.eye(n)
    for x in range(n):
        for y in range(n):
            p[x, y] = np.eye(n) / n if x == y else off / (n * (n - 1))
    return p


def cyclic_mask(n: int, k: int) -> np.ndarray:
    """Support of the cyclic functional F: x != y and a - b = 1 (mod k)."""
    x = np.arange(n)
    a = np.arange(k)
    offdiag = (x[:, None] != x[None, :])[:, :, None, None]
    shift = (((a[:, None] - a[None, :]) % k) == 1)[None, None]
    return offdiag & shift


def cyclic_functional_max(family: str, n: int, k: int) -> int:
    """Largest value of F on a deterministic atom, by exact enumeration.

    F is n on every permutation and sum_v c_v c_{v+1} on a response
    function with value counts c.
    """
    atoms = all_atoms(family, n, k)
    hits = ((atoms[:, :, None] - atoms[:, None, :]) % k) == 1
    return int(hits.sum(axis=(1, 2)).max())


def cyclic_excess(p: np.ndarray, family: str) -> float:
    """F(p) minus the largest F on an atom; positive means p is nonlocal."""
    n, k = p.shape[0], p.shape[2]
    return float(p[cyclic_mask(n, k)].sum()) - cyclic_functional_max(family, n, k)


def check_membership(item, result, library_check) -> str | None:
    """Check a local-membership verdict against the way its input was built."""
    p = item["p"]
    n, k = p.shape[0], p.shape[2]
    family = item["family"]
    if hasattr(result, "violation"):
        if item["expect"] != "nonlocal":
            return f"{item['label']}: a mixture of atoms came back nonlocal"
        return _check_certificate(item, result, library_check, family)
    if item["expect"] != "local":
        return (f"{item['label']}: came back local, but the cyclic functional "
                f"exceeds its maximum over atoms by {item['excess']:.3e}")
    return _check_mixture(item, result, library_check, n, k, family)


def _check_mixture(item, mix, library_recon, n, k, family) -> str | None:
    w = np.asarray(mix.weights, dtype=float)
    atoms = mix.permutations if family == "permutations" else mix.functions
    atoms = np.array([list(a) for a in atoms], dtype=np.int64)
    if atoms.ndim != 2 or atoms.shape != (w.size, n):
        return f"{item['label']}: one atom of length {n} per weight expected"
    if w.min() < -TOL or abs(w.sum() - 1.0) > TOL:
        return f"{item['label']}: weights are not a probability vector"
    if family == "permutations":
        if not (np.sort(atoms, axis=1) == np.arange(n)).all():
            return f"{item['label']}: an atom is not a permutation"
    elif atoms.min() < 0 or atoms.max() >= k:
        return f"{item['label']}: an atom is not a response function into [{k}]"
    recon = np.zeros(n * n * k * k)
    np.add.at(recon, atom_index(atoms, k).reshape(w.size, -1),
              np.repeat(w[:, None], n * n, axis=1))
    recon = recon.reshape(n, n, k, k)
    err = float(np.abs(recon - item["p"]).max())
    if err > TOL:
        return f"{item['label']}: mixture is {err:.3e} from the density (tol {TOL})"
    lib = np.asarray(library_recon.p, dtype=float)
    if lib.shape != recon.shape or float(np.abs(lib - recon).max()) > TOL:
        return f"{item['label']}: the library's reconstruction disagrees with the mixture"
    return None


def certificate_margins(functional, offset, p: np.ndarray, family: str):
    """(largest value of the functional on an atom, its value at p)."""
    n, k = p.shape[0], p.shape[2]
    f = np.asarray(functional, dtype=float)
    if f.shape != (n * n * k * k,):
        raise ValueError("functional has the wrong length")
    worst = float((f[atom_index(all_atoms(family, n, k), k)].sum(axis=(1, 2))
                   + offset).max())
    return worst, float(f @ p.reshape(-1) + offset)


def _check_certificate(item, cert, library_margins, family) -> str | None:
    if cert.atoms != family:
        return f"{item['label']}: certificate is over {cert.atoms}, not {family}"
    worst, at_d = certificate_margins(cert.functional, cert.offset, item["p"], family)
    if worst > TOL:
        return f"{item['label']}: certificate is {worst:.3e} > 0 on an atom"
    if not at_d > TOL or abs(at_d - cert.violation) > TOL:
        return (f"{item['label']}: certificate value {at_d:.3e} at d does not "
                f"match the violation {cert.violation:.3e}")
    lib_worst, lib_at_d = library_margins
    if abs(lib_worst - worst) > TOL or abs(lib_at_d - at_d) > TOL:
        return f"{item['label']}: separation_margins disagrees with the atom sweep"
    return None


# ---------------------------------------------------------------------------
# Quantum permutations: induced densities, fixed points, channel flags


def induced_density(grids, weights) -> np.ndarray:
    """p[x, y, a, b] = sum_i w_i tr(E_i[x, a] E_i[y, b]) / d_i, computed here."""
    p = 0.0
    for g, w in zip(grids, weights):
        p = p + (w / g.shape[2]) * np.einsum("xaij,ybji->xyab", g, g)
    if float(np.abs(np.imag(p)).max()) > TOL:
        raise ValueError("trace pairings are not real")
    return np.real(p)


def apply_map(p: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Phi(A) = sum_{x,y} A[x, y] sum_{a,b} p(a, b | x, y) E_ab."""
    return np.einsum("xyab,xy->ab", p, a)


def pair_orbits(n: int, generators) -> int:
    """Number of orbits of the group generated by ``generators`` on [n] x [n]."""
    parent = list(range(n * n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for g in generators:
        for i in range(n):
            for j in range(n):
                ri, rj = find(i * n + j), find(g[i] * n + g[j])
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    return len({find(i) for i in range(n * n)})


def _check_fixed_basis(label, name, basis, p, dim, orthonormal) -> str | None:
    if len(basis) != dim:
        return f"{label}: {name} has dimension {len(basis)}, the construction gives {dim}"
    mats = np.array([np.asarray(b, dtype=complex) for b in basis])
    for a in mats:
        dev = float(np.abs(apply_map(p, a) - a).max())
        if dev > 1e-8 * max(1.0, float(np.abs(a).max())):
            return f"{label}: a {name} element moves under Phi by {dev:.3e}"
    if orthonormal:
        flat = mats.reshape(len(mats), -1)
        gram = flat.conj() @ flat.T
        if float(np.abs(gram - np.eye(len(mats))).max()) > 1e-8:
            return f"{label}: {name} is not orthonormal"
    return None


def check_fixpoints(item, result) -> str | None:
    """Check a fix_equivalence_check result against the construction."""
    label, p, dim = item["label"], item["p"], item["dim"]
    if not result.report.passed:
        return f"{label}: routes disagree: {result.report.failed_names()}"
    for name, basis in (("commutation basis", result.commutation_basis),
                        ("eigenspace basis", result.fix_eigen_basis),
                        ("Kraus-commutant basis", result.kraus_commutant_basis)):
        reason = _check_fixed_basis(label, name, basis, p, dim, True)
        if reason:
            return reason
    reason = _check_fixed_basis(label, "pattern basis", result.pattern.basis, p, dim,
                                False)
    if reason:
        return reason
    n = p.shape[0]
    cover = sum(np.asarray(b, dtype=float) for b in result.pattern.basis)
    if not np.array_equal(cover, np.ones((n, n))):
        return f"{label}: pattern classes do not partition the positions"
    return None


def channel_flags(p: np.ndarray) -> dict:
    """CP, TP and unital flags of the induced map, from this module's own algebra."""
    n, k = p.shape[0], p.shape[2]
    choi = p.transpose(0, 2, 1, 3).reshape(n * k, n * k)
    scale = max(1.0, float(np.abs(choi).max()))
    least = float(np.linalg.eigvalsh(0.5 * (choi + choi.T))[0])
    return {
        "completely_positive": least >= -TOL * scale,
        "trace_preserving": float(np.abs(np.einsum("xyaa->xy", p) - np.eye(n)).max()) <= TOL,
        "unital": float(np.abs(apply_map(p, np.eye(n)) - np.eye(k)).max()) <= TOL,
    }


def check_channel(item, report) -> str | None:
    """Check channel_report flags: CP as our eigvalsh says, TP and unital always."""
    label = item["label"]
    flags = {c.name: bool(c.passed) for c in report.checks}
    own = channel_flags(item["p"])
    if not (own["trace_preserving"] and own["unital"]):
        return f"{label}: induced map is not a unital channel by our own check"
    if flags.get("completely_positive") != own["completely_positive"]:
        return f"{label}: CP flag {flags.get('completely_positive')} != eigvalsh says"
    if not (flags.get("trace_preserving") and flags.get("unital")):
        return f"{label}: TP or unital flag is false on an induced map"
    return None


# ---------------------------------------------------------------------------
# CLI reports


def check_cli(item, returncode: int, stdout: str) -> str | None:
    """Exit code 0 or 1 as expected, and the JSON report carries the verdict."""
    label = item["label"]
    if returncode != item["exit"]:
        return f"{label}: exit code {returncode}, expected {item['exit']}"
    try:
        rep = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return f"{label}: no JSON report on stdout"
    if rep.get("pass") is not (item["exit"] == 0):
        return f"{label}: report pass flag {rep.get('pass')} disagrees with exit code"
    flags = {c["name"]: c["pass"] for c in rep.get("checks", [])}
    for name, want in item.get("flags", {}).items():
        if flags.get(name) is not want:
            return f"{label}: check {name} is {flags.get(name)}, expected {want}"
    art = rep.get("artifacts") or {}
    kind = item["kind"]
    if kind == "z3":
        got = np.asarray(art["density"]["p"], dtype=float)
        if got.shape != (3, 3, 3, 3) or float(np.abs(got - cyclic_density(3, 3)).max()) > TOL:
            return f"{label}: artifact is not the cyclic density z3"
    elif kind == "fixpoints":
        if art.get("dimension") != item["dim"]:
            return f"{label}: dimension {art.get('dimension')}, construction gives {item['dim']}"
        n = item["n"]
        cells = sorted(tuple(c) for cls in art["classes"] for c in cls)
        if len(art["classes"]) != item["dim"] or cells != [(i, j) for i in range(n)
                                                          for j in range(n)]:
            return f"{label}: pattern classes do not partition the positions"
    elif kind == "decompose":
        cert = art.get("certificate")
        if cert is None:
            return f"{label}: no certificate for a nonlocal density"
        worst, at_d = certificate_margins(cert["functional"], cert["offset"], item["p"],
                                          "permutations")
        if worst > TOL or not at_d > TOL or abs(at_d - cert["violation"]) > TOL:
            return f"{label}: certificate does not separate ({worst:.3e}, {at_d:.3e})"
    return None
