"""Command-line front end.

Every subcommand reads/writes the JSON formats of :mod:`serialize`,
prints a machine-readable report object to stdout and exits 0 when all
checks pass, 1 when some check fails (a valid run), and 2 on usage or
input-format errors.  Artifacts are embedded in the report under
"artifacts" and, when ``--out`` names a file, also written there bare.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import cpmaps, densities, games, qperm, serialize, vect
from .errors import BisyncError, NotCP, NotUnitalChannel, UnverifiedSystem
from .linalg import DEFAULT_TOL
from .report import Report


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=DEFAULT_TOL)
    common.add_argument("--in", dest="inp", default="-", metavar="PATH")
    common.add_argument("--out", dest="out", default=None, metavar="PATH")
    common.add_argument("--pretty", action="store_true")

    top = argparse.ArgumentParser(prog="bisyncgames")
    groups = top.add_subparsers(dest="group", required=True)

    def command(group, name, handler):
        p = group.add_parser(name, parents=[common])
        p.set_defaults(handler=handler)
        return p

    game = groups.add_parser("game").add_subparsers(dest="action", required=True)
    p = command(game, "check", _game_check)
    p.add_argument("--class", dest="cls", choices=["sync", "bisync"], default="bisync")
    command(game, "flip", _game_flip)
    for name, builder in (("hom", games.hom_game), ("iso", games.iso_game)):
        p = command(game, name, functools.partial(_game_build, builder=builder, name=name))
        p.add_argument("graph_g", metavar="G.json")
        p.add_argument("graph_h", metavar="H.json")
    command(game, "lift", _game_lift)

    dens = groups.add_parser("density").add_subparsers(dest="action", required=True)
    p = command(dens, "check", _density_check)
    p.add_argument("--class", dest="cls",
                   choices=["valid", "ns", "sync", "bisync"], default="bisync")
    p = command(dens, "perfect", _density_perfect)
    p.add_argument("--game", required=True, metavar="GAME.json")
    command(dens, "flip", _density_flip)
    p = command(dens, "compose", _density_compose)
    p.add_argument("outer", metavar="Q.json")
    p.add_argument("inner", metavar="P.json")
    command(dens, "local-decompose", _density_local)
    command(dens, "z3", _density_z3)

    vct = groups.add_parser("vect").add_subparsers(dest="action", required=True)
    command(vct, "verify", _vect_verify)
    command(vct, "density", _vect_density)

    qp = groups.add_parser("qperm").add_subparsers(dest="action", required=True)
    command(qp, "verify", _qperm_verify)
    command(qp, "density", _qperm_density)
    p = command(qp, "apply", _qperm_apply)
    p.add_argument("matrix", metavar="X.json")
    p = command(qp, "intertwine", _qperm_intertwine)
    p.add_argument("--g", required=True, metavar="G.json")
    p.add_argument("--h", dest="hh", required=True, metavar="H.json")
    p = command(qp, "fixpoints", _qperm_fixpoints)
    p.add_argument("--crosscheck", action="store_true")

    mp = groups.add_parser("map").add_subparsers(dest="action", required=True)
    command(mp, "build", _map_build)
    command(mp, "check", _map_check)
    command(mp, "adjoint", _map_adjoint)
    command(mp, "kraus", _map_kraus)
    command(mp, "fixpoints", _map_fixpoints)
    command(mp, "mixperm", _map_mixperm)
    return top


def _game_check(args):
    g = serialize.game_from_dict(serialize.load_json(args.inp))
    rep = Report("game check")
    rep.add("synchronous", games.is_synchronous(g))
    if args.cls == "bisync":
        rep.add("bisynchronous", games.is_bisynchronous(g))
    return rep, None


def _game_flip(args):
    g = serialize.game_from_dict(serialize.load_json(args.inp))
    rep = Report("game flip")
    flipped = games.flip_game(g)
    rep.add("involution", np.array_equal(games.flip_game(flipped).lam, g.lam))
    return rep, {"game": serialize.game_to_dict(flipped)}


def _game_build(args, builder, name):
    g = serialize.graph_from_dict(serialize.load_json(args.graph_g))
    h = serialize.graph_from_dict(serialize.load_json(args.graph_h))
    built = builder(g, h)
    rep = Report(f"game {name}")
    rep.add("synchronous", games.is_synchronous(built))
    return rep, {"game": serialize.game_to_dict(built)}


def _game_lift(args):
    g = serialize.game_from_dict(serialize.load_json(args.inp))
    lifted = games.bisync_lift(g)
    rep = Report("game lift")
    rep.add("bisynchronous", games.is_bisynchronous(lifted))
    return rep, {"game": serialize.game_to_dict(lifted)}


def _density_check(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    rep = Report("density check")
    vrep = densities.validation_report(d, args.tol)
    valid = vrep.passed
    rep.add("valid", valid, max(c.max_violation for c in vrep.checks))
    if not valid or args.cls == "valid":
        return rep, None
    if args.cls == "ns":
        rep.add("nonsignalling", densities.is_nonsignalling(d, args.tol))
        return rep, None
    # d is validated above; the private classifiers do not validate again
    rep.add("synchronous", densities._synchronous(d, args.tol))
    if args.cls == "bisync":
        rep.add("bisynchronous", densities._bisynchronous(d, args.tol))
    return rep, None


def _density_perfect(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    g = serialize.game_from_dict(serialize.load_json(args.game))
    rep = Report("density perfect")
    rep.add("perfect", densities.is_perfect_for(g, d, args.tol))
    return rep, None


def _density_flip(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    flipped = densities.flip_density(d)
    vrep = densities.validation_report(flipped, args.tol)
    rep = Report("density flip")
    for c in vrep.checks:
        rep.add(f"flip_{c.name}", c.passed, c.max_violation, c.witness)
    return rep, {"density": serialize.density_to_dict(flipped)}


def _density_compose(args):
    q = serialize.density_from_dict(serialize.load_json(args.outer))
    p = serialize.density_from_dict(serialize.load_json(args.inner))
    r = densities.compose(q, p)
    rep = Report("density compose")
    rep.add("composed_valid", densities.validate(r, args.tol))
    return rep, {"density": serialize.density_to_dict(r)}


def _density_local(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    result = densities.local_bisync_membership(d, args.tol)
    rep = Report("density local-decompose")
    if isinstance(result, densities.PermutationMixture):
        recon = densities.mixture_density(result)
        err = float(np.abs(recon.p - d.p).max())
        rep.add("locally_decomposable", True)
        rep.add("reconstruction", err <= args.tol, err)
        return rep, {"mixture": serialize.mixture_to_dict(result)}
    rep.add("locally_decomposable", False, result.violation, result.witness)
    cert = {
        "violation": result.violation,
        "offset": result.offset,
        "functional": [float(v) for v in result.functional],
    }
    return rep, {"certificate": cert}


def _density_z3(args):
    d = densities.z3_counterexample()
    rep = Report("density z3")
    rep.add("bisynchronous", densities.is_bisynchronous_density(d, args.tol))
    return rep, {"density": serialize.density_to_dict(d)}


def _vect_verify(args):
    v = serialize.vect_from_dict(serialize.load_json(args.inp))
    return vect.verify_bisync_vect(v, args.tol), None


def _vect_density(args):
    v = serialize.vect_from_dict(serialize.load_json(args.inp))
    rep = vect.verify_bisync_vect(v, args.tol)
    if not rep.passed:
        return rep, None
    d = vect.density_from_vectors(v, args.tol)
    out = Report("vect density")
    out.checks = list(rep.checks)
    out.add("density_valid", densities.validate(d, args.tol))
    return out, {"density": serialize.density_to_dict(d)}


def _qperm_verify(args):
    s = serialize.system_from_dict(serialize.load_json(args.inp))
    return qperm.verify_system(s, args.tol), None


def _qperm_density(args):
    s = serialize.system_from_dict(serialize.load_json(args.inp))
    rep = qperm.verify_system(s, args.tol)
    if not rep.passed:
        return rep, None
    d = qperm.induced_density(s, args.tol)
    out = Report("qperm density")
    out.add("verified", True)
    out.add("bisynchronous", densities.is_bisynchronous_density(d, args.tol))
    return out, {"density": serialize.density_to_dict(d)}


def _qperm_apply(args):
    s = serialize.system_from_dict(serialize.load_json(args.inp))
    x = serialize.matrix_from_dict(serialize.load_json(args.matrix))
    result = qperm.factorizable_apply(s, x, args.tol)
    rep = Report("qperm apply")
    rep.add("verified", True)
    return rep, {"matrix": serialize.matrix_to_dict(result)}


def _qperm_intertwine(args):
    s = serialize.system_from_dict(serialize.load_json(args.inp))
    g = serialize.graph_from_dict(serialize.load_json(args.g))
    h = serialize.graph_from_dict(serialize.load_json(args.hh))
    rep = Report("qperm intertwine")
    rep.add("intertwines", qperm.intertwines(s, g, h, args.tol))
    return rep, None


def _qperm_fixpoints(args):
    s = serialize.system_from_dict(serialize.load_json(args.inp))
    if args.crosscheck:
        result = qperm.fix_equivalence_check(s, tol=args.tol)
        art = {
            "dimension": len(result.commutation_basis),
            "classes": [list(map(list, cls)) for cls in result.pattern.classes],
        }
        return result.report, art
    pattern = qperm.fixed_pattern_basis(s, args.tol)
    rep = Report("qperm fixpoints")
    rep.add("verified", True)
    rep.warnings.extend(pattern.warnings)
    art = {
        "dimension": len(pattern.basis),
        "classes": [list(map(list, cls)) for cls in pattern.classes],
    }
    return rep, art


def _map_build(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    m = cpmaps.phi_from_density(d, args.tol)
    rep = Report("map build")
    rep.add("built", True)
    return rep, {"choi": serialize.choi_to_dict(m)}


def _map_check(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    m = cpmaps.phi_from_density(d, args.tol)
    return cpmaps.channel_report(m, args.tol), None


def _map_adjoint(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    m = cpmaps.adjoint_map(cpmaps.phi_from_density(d, args.tol))
    rep = Report("map adjoint")
    rep.add("built", True)
    return rep, {"choi": serialize.choi_to_dict(m)}


def _map_kraus(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    m = cpmaps.phi_from_density(d, args.tol)
    rep = Report("map kraus")
    cp = cpmaps.is_cp(m, args.tol)
    rep.add("completely_positive", cp, cpmaps.noncp_spectral_margin(m))
    if not cp:
        return rep, None
    ks, err = cpmaps._kraus_with_residual(m, args.tol)
    rep.add("kraus_reconstructs", err <= 10 * args.tol, err)
    art = {"count": len(ks.operators),
           "operators": [serialize.matrix_to_dict(k) for k in ks.operators]}
    return rep, art


def _map_fixpoints(args):
    d = serialize.density_from_dict(serialize.load_json(args.inp))
    m = cpmaps.phi_from_density(d, args.tol)
    rep = Report("map fixpoints")
    try:
        basis = cpmaps.fixed_point_set(m, args.tol)
    except NotUnitalChannel:
        rep.add("unital_channel", False)
        return rep, None
    rep.add("unital_channel", True)
    art = {"dimension": len(basis),
           "basis": [serialize.matrix_to_dict(b) for b in basis]}
    return rep, art


def _map_mixperm(args):
    mix = serialize.mixture_from_dict(serialize.load_json(args.inp))
    m = cpmaps.mixed_permutation_map(mix)
    rep = Report("map mixperm")
    rep.add("built", True)
    art = {"choi": serialize.choi_to_dict(m),
           "density": serialize.density_to_dict(densities.mixture_density(mix))}
    return rep, art


# Artifact keys whose payload is written bare to --out.
_PRIMARY_ARTIFACT = ("game", "density", "mixture", "choi", "matrix", "certificate")


def run(argv) -> int:
    """Execute one command; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        rep, artifacts = args.handler(args)
    except (UnverifiedSystem, NotCP) as exc:
        rep = Report(f"{args.group} {args.action}")
        rep.add("input_contract", False, witness=str(exc))
        serialize.dump_json(rep.to_dict(), "-", args.pretty)
        return 1
    except BisyncError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    serialize.dump_json(rep.to_dict(artifacts), "-", args.pretty)
    if args.out and args.out != "-" and artifacts:
        for key in _PRIMARY_ARTIFACT:
            if key in artifacts:
                serialize.dump_json(artifacts[key], args.out, args.pretty)
                break
    return 0 if rep.passed else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
