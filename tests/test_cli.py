import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relspan.cli
from relspan.cli import dispatch, load_graph
from relspan.graph_core import PointSet, WeightedGraph
from relspan.harness import certify
from relspan.spanner_euclidean import build_bounded_spread_spanner

from helpers import edge_set, save_points
from test_spanner_euclidean import jittered_grid, largest_c2


def run(argv):
    return dispatch([str(a) for a in argv])


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "spanner" in capsys.readouterr().out


def test_unknown_command_usage_error():
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_usage_error():
    assert run(["build", "1d-const", "--n", "8"]) == 2


def test_build_writes_graph_and_sidecar(tmp_path, capsys):
    out = tmp_path / "h.edges"
    assert run(["build", "1d-const", "--n", "32", "--seed", "7", "-o", out]) == 0
    sidecar = json.loads((tmp_path / "h.edges.json").read_text())
    assert sidecar["meta"]["kind"] == "h1d"
    assert sidecar["manifest"]["params"]["seed"] == 7
    g = load_graph(str(out))
    g.validate()
    assert g.n == 32


def test_build_determinism_bytes(tmp_path):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    argv = ["build", "1d-const", "--n", "64", "--xi", "1/2", "--seed", "3", "-o"]
    assert run(argv + [a]) == 0
    assert run(argv + [b]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_expander_cli_with_verify(tmp_path, capsys):
    out = tmp_path / "bip.edges"
    assert run(["expander", "bipartite", "--left", "12", "--right", "12",
                "--xi", "1/4", "--seed", "1", "--verify", "exhaustive",
                "-o", out]) == 0
    sidecar = json.loads((tmp_path / "bip.edges.json").read_text())
    assert sidecar["meta"]["verify"]["passed"] is True
    assert sidecar["meta"]["attempts"] >= 1


def test_strong_and_reliable_cli(tmp_path):
    assert run(["expander", "strong", "--n", "16", "--alpha", "2", "--beta", "1/2",
                "--seed", "2", "--verify", "exhaustive", "-o", tmp_path / "s.edges"]) == 0
    meta = json.loads((tmp_path / "s.edges.json").read_text())["meta"]
    assert meta["verify"]["passed"] is True
    assert run(["expander", "reliable", "--n", "40", "--theta", "0.4",
                "--seed", "3", "-o", tmp_path / "r.edges"]) == 0


def test_manifest_records_every_parameter(tmp_path):
    # builds that differ only in --override-c or --max-attempts must not
    # record equal manifests
    def params(name, argv):
        assert run(argv + ["-o", tmp_path / name]) == 0
        return json.loads((tmp_path / f"{name}.json").read_text())["manifest"]["params"]

    theta = ["build", "1d-theta", "--n", "128", "--theta", "0.5", "--c", "8",
             "--mode", "experimental", "--override-c"]
    assert params("t1.edges", theta + ["1"]) == {
        "target": "1d-theta", "n": 128, "theta": "0.5", "c": 8, "mode": "experimental",
        "override_c": 1, "seed": 0}
    assert params("t2.edges", theta + ["2"])["override_c"] == 2
    assert (tmp_path / "t1.edges").read_bytes() != (tmp_path / "t2.edges").read_bytes()
    bip = ["expander", "bipartite", "--left", "6", "--right", "6", "--xi", "1/2",
           "--verify", "exhaustive", "--max-attempts", "3", "--override-c", "2"]
    assert params("b.edges", bip) == {
        "flavor": "bipartite", "left": 6, "right": 6, "xi": "1/2", "seed": 0,
        "verify": ["exhaustive", None], "max_attempts": 3, "override_c": 2}


@pytest.mark.parametrize("flavor,verify,checked", [
    (["bipartite", "--left", "6", "--right", "6", "--xi", "1/2"], "sampled", 2 * 200),
    (["bipartite", "--left", "6", "--right", "6", "--xi", "1/2"], "exhaustive", 42),
    (["strong", "--n", "10", "--alpha", "2", "--beta", "1/2"], "sampled:7", 7),
    (["strong", "--n", "10", "--alpha", "2", "--beta", "1/2"], "exhaustive", 1023),
    (["reliable", "--n", "20", "--theta", "0.4"], "sampled", 100),
    (["reliable", "--n", "20", "--theta", "0.4"], "sampled:3", 3),
])
def test_expander_verify_runs(tmp_path, flavor, verify, checked):
    assert run(["expander", *flavor, "--verify", verify, "-o", tmp_path / "e.edges"]) == 0
    meta = json.loads((tmp_path / "e.edges.json").read_text())["meta"]
    assert meta["verify"]["checked"] == checked


@pytest.mark.parametrize("flavor,verify", [
    (["reliable", "--n", "20", "--theta", "0.4"], "exhaustive"),
    (["bipartite", "--left", "6", "--right", "6", "--xi", "1/2"], "foo"),
    (["bipartite", "--left", "6", "--right", "6", "--xi", "1/2"], "sampled:0"),
    (["strong", "--n", "10", "--alpha", "2", "--beta", "1/2"], "exhaustive:3"),
    (["strong", "--n", "10", "--alpha", "2", "--beta", "1/2"], "sampled:x"),
])
def test_expander_verify_rejects_what_the_flavor_cannot_run(tmp_path, capsys, flavor, verify):
    assert run(["expander", *flavor, "--verify", verify, "-o", tmp_path / "e.edges"]) == 2
    assert "argument --verify" in capsys.readouterr().err
    assert not (tmp_path / "e.edges").exists()


def test_verified_bipartite_cli_needs_an_attempt(tmp_path, capsys):
    assert run(["expander", "bipartite", "--left", "6", "--right", "6", "--xi", "1/2",
                "--verify", "exhaustive", "--max-attempts", "0",
                "-o", tmp_path / "e.edges"]) == 2
    assert capsys.readouterr().err == "error: max_attempts must be at least 1, got 0\n"
    assert not (tmp_path / "e.edges").exists()


def test_verified_bipartite_cli_refuses_a_wide_side(tmp_path, capsys):
    # side R of 100 vertices does not fit the 64-bit neighborhood masks
    assert run(["expander", "bipartite", "--left", "4", "--right", "100", "--xi", "1/2",
                "--verify", "exhaustive", "-o", tmp_path / "e.edges"]) == 2
    assert capsys.readouterr().err.startswith("error: enumeration budget exceeded")
    assert not (tmp_path / "e.edges").exists()


def test_shadow_1d_cli(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n9\n")
    out = tmp_path / "shadow.json"
    assert run(["shadow", "1d", "--n", "32", "--alpha", "1/2", "--bad", bad,
                "-o", out]) == 0
    payload = json.loads(out.read_text())
    assert 3 in payload["members"] and 9 in payload["members"]
    assert payload["bound_checks"]["general_ok"]
    assert payload["witnesses"]


def test_shadow_balls_and_cones_cli(tmp_path):
    pts = jittered_grid(5, 5, seed=1)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    bad = tmp_path / "bad.txt"
    bad.write_text("0\n12\n")
    assert run(["shadow", "balls", "--points", pfile, "--alpha", "1/2",
                "--bad", bad, "-o", tmp_path / "b.json"]) == 0
    assert run(["shadow", "cones", "--points", pfile, "--alpha", "1/2",
                "--bad", bad, "-o", tmp_path / "c.json"]) == 0
    balls = set(json.loads((tmp_path / "b.json").read_text())["members"])
    cones = set(json.loads((tmp_path / "c.json").read_text())["members"])
    assert balls <= cones


def test_shadow_quadtree_cli(tmp_path):
    pts = jittered_grid(4, 4, seed=2)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    bad = tmp_path / "bad.txt"
    bad.write_text("5\n")
    assert run(["shadow", "quadtree", "--points", pfile, "--gamma", "7/8",
                "--bad", bad, "-o", tmp_path / "q.json"]) == 0
    assert 5 in json.loads((tmp_path / "q.json").read_text())["members"]


@pytest.mark.parametrize("flaw, message", [("duplicate", "point set contains duplicate points"),
                                           ("nan", "point set has non-finite coordinates")])
def test_point_contract_errors_exit_two(tmp_path, capsys, flaw, message):
    pts = jittered_grid(4, 4, seed=2)
    pts[9] = pts[3] if flaw == "duplicate" else np.nan
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    bad = tmp_path / "bad.txt"
    bad.write_text("5\n")
    outs = [tmp_path / name for name in ("q.json", "b.json", "c.json", "hd.edges", "bs.edges")]
    for argv in (["shadow", "quadtree", "--points", pfile, "--gamma", "7/8", "--bad", bad,
                  "-o", outs[0]],
                 ["shadow", "balls", "--points", pfile, "--alpha", "1/2", "--bad", bad,
                  "-o", outs[1]],
                 ["shadow", "cones", "--points", pfile, "--alpha", "1/2", "--bad", bad,
                  "-o", outs[2]],
                 ["build", "hd", "--points", pfile, "--eps", "0.5", "--theta", "0.5",
                  "-o", outs[3]],
                 ["build", "bounded-spread", "--points", pfile, "--eps", "0.5",
                  "--theta", "0.25", "-o", outs[4]],
                 ["lso", "check", "--points", pfile, "--sigma", "0.25", "--pairs", "2"]):
        capsys.readouterr()
        assert run(argv) == 2, argv[:2]
        assert capsys.readouterr() == ("", f"error: {message}\n"), argv[:2]
    assert not any(out.exists() for out in outs)


def test_certify_rejects_a_foreign_norm_margin(tmp_path, capsys):
    pfile = tmp_path / "pts.txt"
    save_points(jittered_grid(4, 4, seed=3), pfile)
    out = tmp_path / "bs.edges"
    assert run(["build", "bounded-spread", "--points", pfile, "--eps", "0.5",
                "--theta", "0.25", "-o", out]) == 0
    sidecar_path = tmp_path / "bs.edges.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["meta"]["norm_margin"] = 0.25
    sidecar_path.write_text(json.dumps(sidecar))
    bad = tmp_path / "bad.txt"
    bad.write_text("5\n")
    capsys.readouterr()
    assert run(["certify", "--graph", out, "--bad", bad]) == 2
    assert capsys.readouterr().err == ("error: graph records norm_margin 0.25; certification "
                                       "needs the contract's 0.125\n")


def test_certify_rejects_a_nan_position(tmp_path, capsys):
    pfile = tmp_path / "pts.txt"
    save_points(jittered_grid(4, 4, seed=3), pfile)
    out = tmp_path / "bs.edges"
    assert run(["build", "bounded-spread", "--points", pfile, "--eps", "0.5",
                "--theta", "0.25", "--seed", "1", "-o", out]) == 0
    sidecar_path = tmp_path / "bs.edges.json"
    sidecar = json.loads(sidecar_path.read_text())
    sidecar["positions"][6][0] = float("nan")
    sidecar_path.write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert run(["certify", "--graph", out]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite edge weight")


def test_cli_and_bounded_spread_build_leave_scipy_spatial_unimported(tmp_path):
    # The name predates the test's scope: it now checks that no scipy module
    # at all loads, and keeps the name its earlier, narrower check gave it.
    # A 1D build -> attack -> certify through the CLI, and a bounded-spread
    # build and certify of a complete graph, where every audited pair is an
    # edge, load no scipy module.  Only the Dijkstra audit of the graph
    # missing one edge loads it, and reports as in this process.
    code = ("import json, sys\n"
            "import numpy as np\n"
            "from relspan.cli import dispatch\n"
            "from relspan.graph_core import WeightedGraph\n"
            "from relspan.harness import certify\n"
            "from relspan.spanner_euclidean import build_bounded_spread_spanner\n"
            "g, bad, out = sys.argv[1:]\n"
            "assert dispatch(['build', '1d-theta', '--n', '64', '--theta', '1/2', '--mode',\n"
            "                 'experimental', '--override-c', '1', '--seed', '3', '-o', g]) == 0\n"
            "assert dispatch(['attack', '--graph', g, '--kind', 'random', '--k', '4',\n"
            "                 '--seed', '4', '-o', bad]) == 0\n"
            "assert dispatch(['certify', '--graph', g, '--bad', bad, '-o', out]) == 0\n"
            "points = np.random.default_rng(0).random((30, 2))\n"
            "bs = build_bounded_spread_spanner(points, 0.5, '1/4')\n"
            "assert bs.edge_count == 30 * 29 // 2 and certify(bs, [3, 7]).passed\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
            "cut = WeightedGraph.from_pairs(bs.n, bs.u[1:], bs.v[1:], positions=bs.positions,\n"
            "                               meta=bs.meta)\n"
            "report = certify(cut, [3, 7]).as_dict()\n"
            "del report['runtime_s']\n"
            "print('scipy.sparse.csgraph' in sys.modules)\n"
            "print(json.dumps(report))\n")
    paths = [tmp_path / name for name in ("line.edges", "bad.txt", "line.json")]
    res = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    unloaded, loaded, report = res.stdout.splitlines()[-3:]
    assert unloaded == "[]"
    assert loaded == "True"
    assert json.loads(paths[2].read_text())["construction"]["kind"] == "g_theta"
    bs = build_bounded_spread_spanner(np.random.default_rng(0).random((30, 2)), 0.5, "1/4")
    cut = WeightedGraph.from_pairs(bs.n, bs.u[1:], bs.v[1:], positions=bs.positions,
                                   meta=bs.meta)
    expect = certify(cut, [3, 7]).as_dict()
    del expect["runtime_s"]
    assert json.loads(report) == json.loads(json.dumps(expect))


def test_full_pipeline_build_attack_certify(tmp_path):
    out = tmp_path / "h.edges"
    assert run(["build", "1d-const", "--n", "128", "--seed", "5", "-o", out]) == 0
    bad = tmp_path / "bad.txt"
    assert run(["attack", "--graph", out, "--kind", "interval", "--k", "2",
                "--seed", "6", "-o", bad]) == 0
    report = tmp_path / "report.json"
    code = run(["certify", "--graph", out, "--bad", bad, "-o", report])
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["report_version"] == 1


def test_certify_failure_exits_one(tmp_path):
    # a bare path graph labeled as the block-tree construction fails once a
    # middle vertex dies: survivors outside the shadow lose their 1-paths
    out = tmp_path / "weak.edges"
    lines = "\n".join(f"{i} {i + 1} 1.0" for i in range(127))
    out.write_text(lines + "\n")
    sidecar = {
        "n": 128,
        "meta": {"kind": "h1d", "line": True, "cert_alpha": "1/2",
                 "bplus_factor": 6, "n": 128},
        "positions": None,
        "manifest": {},
    }
    (tmp_path / "weak.edges.json").write_text(json.dumps(sidecar))
    bad = tmp_path / "bad.txt"
    bad.write_text("64\n")
    assert run(["certify", "--graph", out, "--bad", bad]) == 1


def _dirty_reliable_graph(tmp_path, before="", after=""):
    """A saved reliable-connectivity graph with raw lines added around it."""
    out = tmp_path / "r.edges"
    assert run(["expander", "reliable", "--n", "20", "--theta", "0.4",
                "--seed", "1", "-o", out]) == 0
    clean = load_graph(str(out))
    out.write_text(before + out.read_text() + after)
    return out, clean


def test_load_graph_canonicalizes_expander_file(tmp_path):
    out, clean = _dirty_reliable_graph(tmp_path, before="5 2 1.0\n5 2 1.0\n3 3 1.0\n")
    g = load_graph(str(out))
    g.validate()
    assert g.edge_count == clean.edge_count == 190
    assert edge_set(g) == edge_set(clean)


def test_load_graph_rejects_out_of_range_id(tmp_path, capsys):
    out, _ = _dirty_reliable_graph(tmp_path, after="0 99 1.0\n")
    with pytest.raises(ValueError, match="out of range"):
        load_graph(str(out))
    capsys.readouterr()
    assert run(["certify", "--graph", out]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_attack_negative_k_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "h.edges"
    assert run(["build", "1d-const", "--n", "16", "--seed", "3", "-o", out]) == 0
    capsys.readouterr()
    assert run(["attack", "--graph", out, "--kind", "prefix", "--k", "-3",
                "-o", tmp_path / "bad.txt"]) == 2
    assert capsys.readouterr().err.startswith("error: k must be in [0, 16], got -3")
    assert not (tmp_path / "bad.txt").exists()


def _contract_inputs(tmp_path) -> dict:
    """A points file, the bounded-spread graph built on it, a failure set,
    a directory and an output path, for the argv templates below."""
    paths = {name: tmp_path / name for name in ("pts.txt", "bs.edges", "bad.txt", "dir", "out")}
    save_points(jittered_grid(4, 4, seed=5), paths["pts.txt"])
    assert run(["build", "bounded-spread", "--points", paths["pts.txt"], "--eps", "0.5",
                "--theta", "0.25", "-o", paths["bs.edges"]]) == 0
    paths["bad.txt"].write_text("5\n")
    paths["dir"].mkdir()
    return paths


@pytest.mark.parametrize("argv, error", [
    (["build", "1d-const", "--n", "64", "--xi", "1/2", "--override-c", "0", "-o", "out"],
     "degree_constant_override must be at least 1, got 0"),
    (["build", "1d-const", "--n", "64", "--xi", "1/2", "--override-c", "-1", "-o", "out"],
     "degree_constant_override must be at least 1, got -1"),
    (["expander", "bipartite", "--left", "6", "--right", "6", "--xi", "1/2",
      "--override-c", "0", "-o", "out"], "degree_constant_override must be at least 1, got 0"),
    (["expander", "strong", "--n", "10", "--alpha", "2", "--beta", "1/2",
      "--override-c", "0", "-o", "out"], "degree_constant_override must be at least 1, got 0"),
    (["build", "1d-theta", "--n", "64", "--theta", "1/2", "--c", "0", "--mode", "experimental",
      "-o", "out"], "c must be at least 1, got 0"),
    (["build", "1d-theta", "--n", "64", "--theta", "1/2", "--c", "-3", "--mode", "experimental",
      "-o", "out"], "c must be at least 1, got -3"),
    (["build", "hd", "--points", "pts.txt", "--eps", "0.5", "--theta", "0.5", "--sub-c", "8",
      "-o", "out"], "sub_c must be at least 512, got 8"),
    (["build", "1d-theta", "--n", "64", "--theta", "1/0", "-o", "out"],
     "theta must be in (0, 1)"),
    (["build", "bounded-spread", "--points", "pts.txt", "--eps", "nan", "--theta", "0.25",
      "-o", "out"], "epsilon must be in (0, 1)"),
    (["certify", "--graph", "bs.edges", "--pairs", "0", "-o", "out"],
     "pair_budget must be at least 1, got 0"),
    (["loss-curve", "--graph", "bs.edges", "--kind", "random", "--k-list", "1", "--trials", "0",
      "-o", "out"], "trials must be at least 1, got 0"),
    (["lso", "check", "--points", "pts.txt", "--sigma", "0.25", "--pairs", "0"],
     "pairs must be at least 1, got 0"),
    (["lso", "check", "--points", "pts.txt", "--sigma", "0.25", "--pairs", "2",
      "--samples", "-1"], "sample_count must be at least 0, got -1"),
])
def test_out_of_range_parameter_exits_two(tmp_path, capsys, argv, error):
    paths = _contract_inputs(tmp_path)
    capsys.readouterr()
    assert run([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert not paths["out"].exists() and not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("argv", [
    ["build", "1d-const", "--n", "16", "-o", "dir"],
    ["attack", "--graph", "bs.edges", "--kind", "random", "--k", "3", "-o", "dir"],
    ["certify", "--graph", "bs.edges", "--bad", "bad.txt", "-o", "dir"],
    ["shadow", "1d", "--n", "16", "--alpha", "1/2", "--bad", "dir", "-o", "out"],
    ["loss-curve", "--graph", "bs.edges", "--kind", "random", "--k-list", "2", "--trials", "1",
     "-o", "dir"],
])
def test_os_error_is_a_usage_error(tmp_path, capsys, argv):
    # exit 1 means a certification failure, so a path that cannot be read or
    # written exits 2 like every other usage error
    paths = _contract_inputs(tmp_path)
    capsys.readouterr()
    assert run([paths.get(a, a) for a in argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: [Errno ") and "Is a directory" in err
    assert not paths["out"].exists()


def test_experimental_regime_note_uses_the_given_c(tmp_path, capsys):
    assert run(["build", "1d-theta", "--n", "64", "--theta", "1/2", "--c", "8",
                "--mode", "experimental", "-o", tmp_path / "g.edges"]) == 0
    assert capsys.readouterr().err == ("note: regime=g0_clique; layered construction needs "
                                       "n >= 98 at these parameters\n")


def test_loss_curve_cli(tmp_path):
    out = tmp_path / "h.edges"
    run(["build", "1d-const", "--n", "64", "--seed", "8", "-o", out])
    curve = tmp_path / "curve.csv"
    assert run(["loss-curve", "--graph", out, "--kind", "random", "--k-list",
                "0,2", "--trials", "2", "-o", curve]) == 0
    assert curve.read_text().count("aggregate") == 2


def test_build_1d_theta_and_certify(tmp_path):
    out = tmp_path / "gt.edges"
    assert run(["build", "1d-theta", "--n", "128", "--theta", "0.5", "--c", "8",
                "--mode", "experimental", "--seed", "9", "-o", out]) == 0
    bad = tmp_path / "bad.txt"
    bad.write_text("10\n11\n")
    assert run(["certify", "--graph", out, "--bad", bad]) == 0


def test_build_euclidean_targets(tmp_path):
    pts = jittered_grid(6, 6, seed=3)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    assert run(["build", "bounded-spread", "--points", pfile, "--eps", "0.5",
                "--theta", "0.25", "--seed", "1", "-o", tmp_path / "bs.edges"]) == 0
    assert run(["build", "hd", "--points", pfile, "--eps", "0.5", "--theta", "0.5",
                "--sub-c", "8", "--sub-mode", "experimental", "--seed", "2",
                "-o", tmp_path / "hd.edges"]) == 0
    g = load_graph(str(tmp_path / "hd.edges"))
    assert g.positions is not None
    bad = tmp_path / "bad.txt"
    bad.write_text("4\n")
    assert run(["certify", "--graph", tmp_path / "bs.edges", "--bad", bad]) == 0
    assert run(["certify", "--graph", tmp_path / "hd.edges", "--bad", bad]) == 0


def test_build_hd_sigma_limit(tmp_path, capsys):
    pfile = tmp_path / "pts.txt"
    save_points(jittered_grid(4, 4, seed=5), pfile)
    c2 = largest_c2(2, 0.5)
    argv = ["build", "hd", "--points", pfile, "--eps", "0.5", "--theta", "0.5"]
    assert run(argv + ["--c2", str(c2), "-o", tmp_path / "ok.edges"]) == 0
    capsys.readouterr()
    assert run(argv + ["--c2", str(c2 + 1), "-o", tmp_path / "bad.edges"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: sigma = ") and "smallest supported sigma" in err
    assert not (tmp_path / "bad.edges").exists()


def test_build_rejects_ragged_points(tmp_path, capsys):
    pfile = tmp_path / "pts.txt"
    pfile.write_text("0.0 0.0\n1.0 0.5\n0.5\n", encoding="utf-8")
    assert run(["build", "hd", "--points", pfile, "--eps", "0.5", "--theta", "0.5",
                "-o", tmp_path / "hd.edges"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: {pfile}: line 3 has 1 coordinates, line 1 has 2")


def test_lso_cli(tmp_path, capsys):
    assert run(["lso", "inspect", "--d", "2", "--sigma", "0.25"]) == 0
    out = capsys.readouterr().out
    assert "M =" in out
    pts = jittered_grid(5, 5, seed=4)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    assert run(["lso", "check", "--points", pfile, "--sigma", "0.25",
                "--pairs", "20"]) == 0


def test_lso_check_tests_the_normalized_points(tmp_path, monkeypatch):
    # the orderings are defined on [0,1)^d and key coordinates mod 1, so the
    # raw grid (coordinates -0.17..4.13) would give (0.1, 0.1) and (1.1, 0.1)
    # one key
    pts = jittered_grid(5, 5, seed=4)
    pfile = tmp_path / "pts.txt"
    save_points(pts, pfile)
    normed = PointSet(pts).normed
    calls = []
    real = relspan.cli.check_lso_property

    def recording(family, p, q, **kwargs):
        calls.append((p, q, kwargs["points"]))
        return real(family, p, q, **kwargs)

    monkeypatch.setattr(relspan.cli, "check_lso_property", recording)
    assert run(["lso", "check", "--points", pfile, "--sigma", "0.25", "--pairs", "5"]) == 0
    assert len(calls) == 5
    rows = {tuple(r) for r in normed.tolist()}
    for p, q, points in calls:
        assert tuple(p) in rows and tuple(q) in rows and tuple(p) != tuple(q)
        assert np.array_equal(points, normed)


def test_console_entrypoint_subprocess(tmp_path):
    res = subprocess.run([sys.executable, "-m", "relspan.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "spanner" in res.stdout
