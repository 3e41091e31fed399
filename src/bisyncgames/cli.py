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

    def command(group, name, handler, *reads):
        p = group.add_parser(name, parents=[common])
        p.set_defaults(handler=handler, reads=reads)
        return p

    density = ("inp", serialize.density_from_dict)
    system = ("inp", serialize.system_from_dict)

    game = groups.add_parser("game").add_subparsers(dest="action", required=True)
    p = command(game, "check", _game_check, ("inp", serialize.game_from_dict))
    p.add_argument("--class", dest="cls", choices=["sync", "bisync"], default="bisync")
    command(game, "flip", _game_flip, ("inp", serialize.game_from_dict))
    for name, builder in (("hom", games.hom_game), ("iso", games.iso_game)):
        p = command(game, name, functools.partial(_game_build, builder=builder, name=name),
                    ("graph_g", serialize.graph_from_dict), ("graph_h", serialize.graph_from_dict))
        p.add_argument("graph_g", metavar="G.json")
        p.add_argument("graph_h", metavar="H.json")
    command(game, "lift", _game_lift, ("inp", serialize.game_from_dict))

    dens = groups.add_parser("density").add_subparsers(dest="action", required=True)
    p = command(dens, "check", _density_check, density)
    p.add_argument("--class", dest="cls",
                   choices=["valid", "ns", "sync", "bisync"], default="bisync")
    p = command(dens, "perfect", _density_perfect, density, ("game", serialize.game_from_dict))
    p.add_argument("--game", required=True, metavar="GAME.json")
    command(dens, "flip", _density_flip, density)
    p = command(dens, "compose", _density_compose,
                ("outer", serialize.density_from_dict), ("inner", serialize.density_from_dict))
    p.add_argument("outer", metavar="Q.json")
    p.add_argument("inner", metavar="P.json")
    command(dens, "local-decompose", _density_local, density)
    command(dens, "z3", _density_z3)

    vct = groups.add_parser("vect").add_subparsers(dest="action", required=True)
    command(vct, "verify", _vect_verify, ("inp", serialize.vect_from_dict))
    command(vct, "density", _vect_density, ("inp", serialize.vect_from_dict))

    qp = groups.add_parser("qperm").add_subparsers(dest="action", required=True)
    command(qp, "verify", _qperm_verify, system)
    command(qp, "density", _qperm_density, system)
    p = command(qp, "apply", _qperm_apply, system, ("matrix", serialize.matrix_from_dict))
    p.add_argument("matrix", metavar="X.json")
    p = command(qp, "intertwine", _qperm_intertwine, system,
                ("g", serialize.graph_from_dict), ("hh", serialize.graph_from_dict))
    p.add_argument("--g", required=True, metavar="G.json")
    p.add_argument("--h", dest="hh", required=True, metavar="H.json")
    p = command(qp, "fixpoints", _qperm_fixpoints, system)
    p.add_argument("--crosscheck", action="store_true")

    mp = groups.add_parser("map").add_subparsers(dest="action", required=True)
    command(mp, "build", _map_build, density)
    command(mp, "check", _map_check, density)
    command(mp, "adjoint", _map_adjoint, density)
    command(mp, "kraus", _map_kraus, density)
    command(mp, "fixpoints", _map_fixpoints, density)
    command(mp, "mixperm", _map_mixperm, ("inp", serialize.mixture_from_dict))
    return top


def _game_check(args, g):
    rep = Report("game check")
    rep.add("synchronous", games.is_synchronous(g))
    if args.cls == "bisync":
        rep.add("bisynchronous", games.is_bisynchronous(g))
    return rep, None


def _game_flip(args, g):
    rep = Report("game flip")
    flipped = games.flip_game(g)
    rep.add("involution", np.array_equal(games.flip_game(flipped).lam, g.lam))
    return rep, {"game": serialize.game_to_dict(flipped)}


def _game_build(args, g, h, builder, name):
    built = builder(g, h)
    rep = Report(f"game {name}")
    rep.add("synchronous", games.is_synchronous(built))
    return rep, {"game": serialize.game_to_dict(built)}


def _game_lift(args, g):
    lifted = games.bisync_lift(g)
    rep = Report("game lift")
    rep.add("bisynchronous", games.is_bisynchronous(lifted))
    return rep, {"game": serialize.game_to_dict(lifted)}


def _density_check(args, d):
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


def _density_perfect(args, d, g):
    rep = Report("density perfect")
    rep.add("perfect", densities.is_perfect_for(g, d, args.tol))
    return rep, None


def _density_flip(args, d):
    flipped = densities.flip_density(d)
    vrep = densities.validation_report(flipped, args.tol)
    rep = Report("density flip")
    for c in vrep.checks:
        rep.add(f"flip_{c.name}", c.passed, c.max_violation, c.witness)
    return rep, {"density": serialize.density_to_dict(flipped)}


def _density_compose(args, q, p):
    r = densities.compose(q, p)
    rep = Report("density compose")
    rep.add("composed_valid", densities.validate(r, args.tol))
    return rep, {"density": serialize.density_to_dict(r)}


def _density_local(args, d):
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


def _vect_verify(args, v):
    return vect.verify_bisync_vect(v, args.tol), None


def _vect_density(args, v):
    rep = vect.verify_bisync_vect(v, args.tol)
    if not rep.passed:
        return rep, None
    # v is verified above; the private step does not verify again
    d = vect._gram_to_density(vect.gram_tensor(v), args.tol)
    out = Report("vect density")
    out.checks = list(rep.checks)
    out.add("density_valid", densities.validate(d, args.tol))
    return out, {"density": serialize.density_to_dict(d)}


def _qperm_verify(args, s):
    return qperm.verify_system(s, args.tol), None


def _qperm_density(args, s):
    rep = qperm.verify_system(s, args.tol)
    if not rep.passed:
        return rep, None
    d = qperm.induced_density(s, args.tol)
    out = Report("qperm density")
    out.add("verified", True)
    out.add("bisynchronous", densities.is_bisynchronous_density(d, args.tol))
    return out, {"density": serialize.density_to_dict(d)}


def _qperm_apply(args, s, x):
    result = qperm.factorizable_apply(s, x, args.tol)
    rep = Report("qperm apply")
    rep.add("verified", True)
    return rep, {"matrix": serialize.matrix_to_dict(result)}


def _qperm_intertwine(args, s, g, h):
    rep = Report("qperm intertwine")
    rep.add("intertwines", qperm.intertwines(s, g, h, args.tol))
    return rep, None


def _qperm_fixpoints(args, s):
    if args.crosscheck:
        result = qperm.fix_equivalence_check(s, tol=args.tol)
        rep, basis, pattern = result.report, result.commutation_basis, result.pattern
    else:
        pattern = qperm.fixed_pattern_basis(s, args.tol)
        rep, basis = Report("qperm fixpoints"), pattern.basis
        rep.add("verified", True)
        rep.warnings.extend(pattern.warnings)
    return rep, {"dimension": len(basis),
                 "classes": [list(map(list, cls)) for cls in pattern.classes]}


def _map_build(args, d):
    m = cpmaps.phi_from_density(d, args.tol)
    rep = Report("map build")
    rep.add("built", True)
    return rep, {"choi": serialize.choi_to_dict(m)}


def _map_check(args, d):
    m = cpmaps.phi_from_density(d, args.tol)
    return cpmaps.channel_report(m, args.tol), None


def _map_adjoint(args, d):
    m = cpmaps.adjoint_map(cpmaps.phi_from_density(d, args.tol))
    rep = Report("map adjoint")
    rep.add("built", True)
    return rep, {"choi": serialize.choi_to_dict(m)}


def _map_kraus(args, d):
    m = cpmaps.phi_from_density(d, args.tol)
    rep = Report("map kraus")
    cp, margin = cpmaps._cp_with_margin(m, args.tol)
    rep.add("completely_positive", cp, margin)
    if not cp:
        return rep, None
    ks, err = cpmaps._kraus_with_residual(m, args.tol)
    rep.add("kraus_reconstructs", err <= 10 * args.tol, err)
    art = {"count": len(ks.operators),
           "operators": [serialize.matrix_to_dict(k) for k in ks.operators]}
    return rep, art


def _map_fixpoints(args, d):
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


def _map_mixperm(args, mix):
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
        # each verb's (dest, loader) reads, --in first: the first unreadable file ends the run
        inputs = [loader(serialize.load_json(getattr(args, dest))) for dest, loader in args.reads]
        rep, artifacts = args.handler(args, *inputs)
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
