import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest
import scipy.optimize

from bisyncgames import cli, cpmaps, densities as dn, games, qperm, serialize, vect

from conftest import count_calls


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(args)
    out = buf.getvalue()
    return code, json.loads(out) if out.strip() else None


@pytest.fixture
def z3_path(tmp_path):
    path = tmp_path / "z3.json"
    serialize.dump_json(serialize.density_to_dict(dn.z3_counterexample()), str(path))
    return str(path)


@pytest.fixture
def blockpair_path(tmp_path):
    rng = np.random.default_rng(3)
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    path = tmp_path / "blockpair.json"
    serialize.dump_json(serialize.system_to_dict(sys), str(path))
    return str(path)


def test_density_z3_and_check(tmp_path):
    out = tmp_path / "z3.json"
    code, rep = run_cli(["density", "z3", "--out", str(out)])
    assert code == 0
    code, rep = run_cli(["density", "check", "--class", "bisync", "--in", str(out)])
    assert code == 0
    assert rep["pass"]
    names = [c["name"] for c in rep["checks"]]
    assert names == ["valid", "synchronous", "bisynchronous"]


def test_map_check_z3_fails_cp(z3_path):
    code, rep = run_cli(["map", "check", "--in", z3_path])
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["completely_positive"]["pass"]
    assert not by_name["hermiticity_preserving"]["pass"]
    assert by_name["trace_preserving"]["pass"]


def test_density_flip_reports_zero_row(z3_path):
    code, rep = run_cli(["density", "flip", "--in", z3_path])
    assert code == 1
    by_name = {c["name"]: c for c in rep["checks"]}
    assert not by_name["flip_normalized"]["pass"]
    assert by_name["flip_normalized"]["max_violation"] == 1.0


def test_local_decompose_infeasible_and_feasible(tmp_path, z3_path):
    code, rep = run_cli(["density", "local-decompose", "--in", z3_path])
    assert code == 1
    assert rep["artifacts"]["certificate"]["violation"] > 1e-6

    rng = np.random.default_rng(0)
    perms = [tuple(rng.permutation(4)) for _ in range(3)]
    d = dn.mixture([dn.from_permutation(s) for s in perms], [0.2, 0.3, 0.5])
    dpath = tmp_path / "local.json"
    mpath = tmp_path / "mixture.json"
    serialize.dump_json(serialize.density_to_dict(d), str(dpath))
    code, rep = run_cli(["density", "local-decompose", "--in", str(dpath),
                         "--out", str(mpath)])
    assert code == 0
    # round trip: the emitted mixture is accepted by map mixperm and
    # reproduces the original map
    code, rep2 = run_cli(["map", "mixperm", "--in", str(mpath)])
    assert code == 0
    emitted = rep2["artifacts"]["density"]
    recon = serialize.density_from_dict(emitted)
    assert np.abs(recon.p - d.p).max() <= 1e-9


def test_qperm_flow(tmp_path, blockpair_path):
    code, rep = run_cli(["qperm", "verify", "--in", blockpair_path])
    assert code == 0
    dpath = tmp_path / "induced.json"
    code, rep = run_cli(["qperm", "density", "--in", blockpair_path,
                         "--out", str(dpath)])
    assert code == 0
    code, rep = run_cli(["density", "check", "--class", "bisync", "--in", str(dpath)])
    assert code == 0
    code, rep = run_cli(["qperm", "fixpoints", "--in", blockpair_path, "--crosscheck"])
    assert code == 0
    assert rep["artifacts"]["dimension"] == 6


def test_qperm_apply_and_intertwine(tmp_path):
    c5 = games.cycle_graph(5)
    sigma = [1, 2, 3, 4, 0]
    h = games.relabel_graph(c5, sigma)
    spath = tmp_path / "sys.json"
    gpath = tmp_path / "g.json"
    hpath = tmp_path / "h.json"
    xpath = tmp_path / "x.json"
    serialize.dump_json(serialize.system_to_dict(qperm.from_permutation(sigma)),
                        str(spath))
    serialize.dump_json(serialize.graph_to_dict(c5), str(gpath))
    serialize.dump_json(serialize.graph_to_dict(h), str(hpath))
    serialize.dump_json(serialize.matrix_to_dict(c5.adjacency.astype(complex)),
                        str(xpath))
    code, rep = run_cli(["qperm", "intertwine", "--in", str(spath),
                         "--g", str(gpath), "--h", str(hpath)])
    assert code == 0
    code, rep = run_cli(["qperm", "apply", "--in", str(spath), str(xpath)])
    assert code == 0
    out = serialize.matrix_from_dict(rep["artifacts"]["matrix"])
    assert np.abs(out - h.adjacency).max() < 1e-12


def test_game_flow(tmp_path):
    g1 = tmp_path / "k3.json"
    g2 = tmp_path / "c5.json"
    serialize.dump_json(serialize.graph_to_dict(games.complete_graph(3)), str(g1))
    serialize.dump_json(serialize.graph_to_dict(games.cycle_graph(5)), str(g2))
    gpath = tmp_path / "hom.json"
    code, rep = run_cli(["game", "hom", str(g1), str(g2), "--out", str(gpath)])
    assert code == 0
    code, rep = run_cli(["game", "check", "--class", "bisync", "--in", str(gpath)])
    assert code == 0
    code, rep = run_cli(["game", "lift", "--in", str(gpath)])
    assert code == 0
    code, rep = run_cli(["game", "flip", "--in", str(gpath)])
    assert code == 0


def test_vect_flow(tmp_path, blockpair_path):
    from bisyncgames import vect
    sys = serialize.system_from_dict(serialize.load_json(blockpair_path))
    vpath = tmp_path / "vect.json"
    serialize.dump_json(serialize.vect_to_dict(vect.vect_from_projective(sys)),
                        str(vpath))
    code, rep = run_cli(["vect", "verify", "--in", str(vpath)])
    assert code == 0
    code, rep = run_cli(["vect", "density", "--in", str(vpath)])
    assert code == 0
    d = serialize.density_from_dict(rep["artifacts"]["density"])
    assert np.abs(d.p - qperm.induced_density(sys).p).max() <= 1e-10


def test_map_build_kraus_fixpoints(tmp_path):
    d = dn.from_permutation([1, 2, 3, 0])
    dpath = tmp_path / "cycle.json"
    serialize.dump_json(serialize.density_to_dict(d), str(dpath))
    code, rep = run_cli(["map", "build", "--in", str(dpath)])
    assert code == 0
    code, rep = run_cli(["map", "kraus", "--in", str(dpath)])
    assert code == 0
    assert rep["artifacts"]["count"] == 1
    code, rep = run_cli(["map", "fixpoints", "--in", str(dpath)])
    assert code == 0
    assert rep["artifacts"]["dimension"] == 4
    code, rep = run_cli(["map", "adjoint", "--in", str(dpath)])
    assert code == 0


def test_map_kraus_rejects_noncp(z3_path):
    code, rep = run_cli(["map", "kraus", "--in", z3_path])
    assert code == 1
    assert not rep["checks"][0]["pass"]


def test_map_fixpoints_rejects_non_channel(z3_path):
    code, rep = run_cli(["map", "fixpoints", "--in", z3_path])
    assert code == 1
    assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("unital_channel", False)]


def test_map_fixpoints_rejects_noncp_example(tmp_path):
    path = tmp_path / "noncp.json"
    serialize.dump_json(serialize.density_to_dict(dn.noncp_nonsignalling_example()), str(path))
    code, rep = run_cli(["map", "fixpoints", "--in", str(path)])
    assert code == 1
    assert [(c["name"], c["pass"]) for c in rep["checks"]] == [("unital_channel", False)]
    assert "artifacts" not in rep


@pytest.fixture
def induced_path(tmp_path):
    rng = np.random.default_rng(5)
    sys = qperm.block_pair(qperm.random_rank1_projection(rng, 2),
                           qperm.random_rank1_projection(rng, 2))
    path = tmp_path / "induced.json"
    serialize.dump_json(serialize.density_to_dict(qperm.induced_density(sys)), str(path))
    return str(path)


@pytest.mark.parametrize("action", ["check", "kraus", "fixpoints"])
def test_map_commands_diagonalize_once(action, induced_path, monkeypatch):
    eig = count_calls(monkeypatch, np.linalg, ("eigh", "eigvalsh"))
    preds = count_calls(monkeypatch, cpmaps, ("is_tp", "is_unital"))
    code, rep = run_cli(["map", action, "--in", induced_path])
    assert code == 0
    assert eig == Counter(eigh=1)
    if action == "fixpoints":
        assert preds == Counter(is_tp=1, is_unital=1)


def test_map_kraus_reconstructs_once(induced_path, monkeypatch):
    calls = count_calls(monkeypatch, cpmaps, ("choi_from_kraus",))
    code, rep = run_cli(["map", "kraus", "--in", induced_path])
    assert code == 0
    assert calls == Counter(choi_from_kraus=1)
    line = {c["name"]: c for c in rep["checks"]}["kraus_reconstructs"]
    assert line["pass"] and line["max_violation"] <= 1e-12


@pytest.mark.parametrize("cls", ["sync", "bisync"])
def test_density_check_validates_once(cls, z3_path, monkeypatch):
    calls = []
    real = dn.validation_report
    monkeypatch.setattr(dn, "validation_report",
                        lambda d, tol=1e-9: calls.append(tol) or real(d, tol))
    code, rep = run_cli(["density", "check", "--class", cls, "--in", z3_path])
    assert code == 0
    assert rep["pass"]
    assert calls == [1e-9]


def test_vect_density_verifies_once(tmp_path, monkeypatch):
    path = tmp_path / "vect.json"
    serialize.dump_json(serialize.vect_to_dict(vect.permutation_strategy([2, 0, 1])), str(path))
    calls = count_calls(monkeypatch, vect, ("verify_bisync_vect",))
    code, rep = run_cli(["vect", "density", "--in", str(path)])
    assert code == 0
    assert calls == Counter(verify_bisync_vect=1)
    assert [c["name"] for c in rep["checks"]][-1] == "density_valid"


def test_map_check_and_kraus_take_the_cp_margin_at_their_tol(tmp_path):
    # Choi asymmetry 1e-8 lies between DEFAULT_TOL = 1e-9 and tol = 1e-6: Hermitian at tol
    p = dn.from_permutation([0, 2, 1]).p.copy()
    p[0, 1, 0, 2] += 1e-8
    path = tmp_path / "asym.json"
    serialize.dump_json({"n": 3, "k": 3, "p": p.tolist()}, str(path))
    c = cpmaps.choi_from_tensor(p).choi
    margin = max(0.0, -np.linalg.eigvalsh((c + c.conj().T) / 2).min())
    for action in ("check", "kraus"):
        code, rep = run_cli(["map", action, "--in", str(path), "--tol", "1e-6"])
        assert code == 0
        line = {ch["name"]: ch for ch in rep["checks"]}["completely_positive"]
        assert line["pass"]
        assert line["max_violation"] == pytest.approx(margin, rel=1e-6), action


def test_perturbed_system_is_checked_at_its_tol(tmp_path):
    # E[0, 0] of the (1 2 0) system raised by 1e-7: a quantum permutation at
    # tol 1e-6, so the induced map must be built at that tol too
    sigma = [1, 2, 0]
    s = serialize.system_to_dict(qperm.from_permutation(sigma))
    s["blocks"][0]["E"][0][0][0][0][0] += 1e-7
    spath, gpath, hpath = tmp_path / "sys.json", tmp_path / "g.json", tmp_path / "h.json"
    serialize.dump_json(s, str(spath))
    g = games.graph_from_edges(3, [(0, 1)])
    serialize.dump_json(serialize.graph_to_dict(g), str(gpath))
    serialize.dump_json(serialize.graph_to_dict(games.relabel_graph(g, sigma)), str(hpath))
    code, rep = run_cli(["qperm", "fixpoints", "--crosscheck", "--tol", "1e-6",
                         "--in", str(spath)])
    assert code == 0
    assert rep["artifacts"]["dimension"] == 3
    code, rep = run_cli(["qperm", "intertwine", "--tol", "1e-6", "--in", str(spath),
                         "--g", str(gpath), "--h", str(hpath)])
    assert code == 0


def test_kraus_form_is_checked_against_what_is_cp_accepts(tmp_path):
    # 1e-7 noise on (1 2 0): valid, Hermitian and CP at tol 1e-6, and the
    # Kraus form misses its Choi matrix by about the asymmetry, 2.2e-7
    p = dn.from_permutation([1, 2, 0]).p + 1e-7 * np.random.default_rng(0).normal(size=(3,) * 4)
    path = tmp_path / "noisy.json"
    serialize.dump_json({"n": 3, "k": 3, "p": p.tolist()}, str(path))
    code, rep = run_cli(["map", "kraus", "--tol", "1e-6", "--in", str(path)])
    assert code == 0
    assert [c["pass"] for c in rep["checks"]] == [True, True]
    code, rep = run_cli(["map", "fixpoints", "--tol", "1e-6", "--in", str(path)])
    assert code == 0
    assert rep["artifacts"]["dimension"] == 3


def _nan_weight_system():
    s = serialize.system_to_dict(qperm.from_permutation([1, 0]))
    s["blocks"][0]["weight"] = float("nan")
    return s


@pytest.mark.parametrize("verb, payload", [
    ("qperm verify", _nan_weight_system()),
    ("qperm density", _nan_weight_system()),
    ("map mixperm", {"n": 2, "weights": [float("nan")], "permutations": [[1, 0]]}),
])
def test_nan_weights_exit_2(verb, payload, tmp_path, capsys):
    path = tmp_path / "nan.json"
    serialize.dump_json(payload, str(path))   # json writes NaN and reads it back
    assert cli.run(verb.split() + ["--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and "must be finite" in err


def test_first_unreadable_input_is_reported(tmp_path, z3_path, capsys):
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    no_k = tmp_path / "no_k.json"
    serialize.dump_json({"n": 3, "p": []}, str(no_k))
    game = tmp_path / "game.json"
    game.write_text("[")

    assert cli.run(["density", "compose", missing, z3_path]) == 2
    err = capsys.readouterr().err
    assert missing in err and z3_path not in err

    assert cli.run(["density", "compose", z3_path, str(no_k)]) == 2
    assert capsys.readouterr().err.startswith("error: bad density JSON")

    assert cli.run(["density", "perfect", "--in", str(bad), "--game", str(game)]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and str(game) not in err


def test_deterministic_reports(z3_path):
    def raw(args):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            cli.run(args)
        return buf.getvalue()

    a = raw(["map", "check", "--in", z3_path])
    b = raw(["map", "check", "--in", z3_path])
    assert a == b


def test_usage_and_input_errors(tmp_path):
    assert cli.run(["no-such-group"]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = run_cli(["density", "check", "--in", str(bad)])
    assert code == 2
    missing = tmp_path / "missing.json"
    code, _ = run_cli(["density", "check", "--in", str(missing)])
    assert code == 2
    # shape errors in valid JSON are input errors too
    wrong = tmp_path / "wrong.json"
    serialize.dump_json({"n": 2, "k": 2, "p": [[0.5]]}, str(wrong))
    code, _ = run_cli(["density", "check", "--in", str(wrong)])
    assert code == 2


def test_stdin_roundtrip(z3_path, monkeypatch, capsys):
    import sys
    with open(z3_path) as fh:
        payload = fh.read()
    monkeypatch.setattr(sys, "stdin", io.StringIO(payload))
    code = cli.run(["density", "check", "--class", "ns", "--in", "-"])
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["pass"]


def test_solver_failure_cli_exits_2_without_traceback(monkeypatch, capsys, tmp_path):
    def failing_linprog(*args, **kwargs):
        return scipy.optimize.OptimizeResult(status=2, message="infeasible (forced)")

    # (1 - 1e-6) U_4 + 1e-6 z_4: its 24 atoms have rank 23, so it poses an LP
    perms = [dn.from_permutation(s) for s in itertools.permutations(range(4))]
    z4 = dn.Density(np.fromfunction(
        lambda x, y, a, b: np.where(x == y, a == b, (a - b) % 4 == 1) / 4, (4, 4, 4, 4)))
    d = dn.mixture(perms + [z4], [(1 - 1e-6) / 24] * 24 + [1e-6])
    path = tmp_path / "lp_bound.json"
    serialize.dump_json(serialize.density_to_dict(d), str(path))
    monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
    assert cli.run(["density", "local-decompose", "--in", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: membership LP failed")
    assert "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # scipy is imported by the LP itself, not by importing the package
    code = ("import sys, bisyncgames.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "[]"


def test_sparse_local_decompose_loads_no_scipy(tmp_path):
    # 6 random permutations of 7 points are independent as densities, so one
    # least-squares solve decides the mixture and no LP imports scipy
    rng = np.random.default_rng(7)
    perms = [dn.from_permutation(rng.permutation(7)) for _ in range(6)]
    d = dn.mixture(perms, rng.dirichlet(np.ones(6)))
    path = tmp_path / "sparse.json"
    serialize.dump_json(serialize.density_to_dict(d), str(path))
    code = ("import contextlib, io, sys\n"
            "from bisyncgames import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.run(['density', 'local-decompose', '--in', {str(path)!r}])\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout
    assert out.strip() == "0 []"


def _game_json(zeros):
    return {"nA": 2, "nB": 2, "kA": 2, "kB": 2, "zeros": zeros}


def _swap_system_rows(rows):
    """The swap's quantum permutation with only its first ``rows`` rows of E,
    under the unchanged header n = k = 2."""
    s = serialize.system_to_dict(qperm.from_permutation([1, 0]))
    s["blocks"][0]["E"] = s["blocks"][0]["E"][:rows]
    return s


_MALFORMED = {
    "zero index beyond the shape": ["game", "check", "--in", _game_json([[5, 0, 0, 0]])],
    "negative zero index": ["game", "check", "--in", _game_json([[-1, -1, 0, 1]])],
    "fractional zero index": ["game", "check", "--in", _game_json([[0, 0, 0, 1.5]])],
    "edge with three ends":
        ["game", "hom", {"n": 3, "edges": [[0, 1, 2]]}, {"n": 2, "edges": [[0, 1]]}],
    "fractional edge end":
        ["game", "hom", {"n": 3, "edges": [[0, 1.5]]}, {"n": 2, "edges": [[0, 1]]}],
    "system grid smaller than its header": ["qperm", "verify", "--in", _swap_system_rows(1)],
    "vect grid smaller than its header":
        ["vect", "verify", "--in",
         dict(serialize.vect_to_dict(vect.permutation_strategy([1, 0])), n=3)],
    "vect pairs with three numbers":
        ["vect", "verify", "--in", {"n": 2, "m": 1, "h": [[[[0.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]]],
                                                        [[[1.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]]]]}],
    "system entry that is a bare number":
        ["qperm", "verify", "--in",
         {"n": 1, "k": 1, "blocks": [{"d": 1, "weight": 1.0, "E": [[[[1.0]]]]}]}],
    "mixture shorter than its header":
        ["map", "mixperm", "--in", {"n": 3, "weights": [1.0], "permutations": [[1, 0]]}],
    "intertwine --h edge with three ends":
        ["qperm", "intertwine", "--in", _swap_system_rows(2), "--g", {"n": 2, "edges": [[0, 1]]},
         "--h", {"n": 2, "edges": [[0, 1, 1]]}],
    "matrix without columns":
        ["qperm", "apply", "--in", _swap_system_rows(2),
         {"rows": 2, "cols": 0, "entries": [[], []]}],
    # sizes beyond the 10^7-entry guard, refused before anything is allocated
    "game header beyond the entry guard":
        ["game", "check", "--in", {"nA": 1000000, "nB": 1000000, "kA": 1, "kB": 1}],
    "graph header beyond the entry guard":
        ["game", "hom", {"n": 10000, "edges": []}, {"n": 2, "edges": []}],
    "hom game beyond the entry guard":
        ["game", "hom", {"n": 3000, "edges": []}, {"n": 3000, "edges": []}],
    "lifted game beyond the entry guard":
        ["game", "lift", "--in", {"nA": 1000, "nB": 1000, "kA": 1, "kB": 1}],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_malformed_json_exits_2_without_traceback(case, tmp_path, capsys):
    args = []
    for i, arg in enumerate(_MALFORMED[case]):
        if isinstance(arg, dict):
            path = tmp_path / f"arg{i}.json"
            serialize.dump_json(arg, str(path))
            arg = str(path)
        args.append(arg)
    assert cli.run(args) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err

