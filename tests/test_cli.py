import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from relspan.cli import dispatch, load_graph

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
    for argv in (["shadow", "quadtree", "--points", pfile, "--gamma", "7/8", "--bad", bad,
                  "-o", tmp_path / "q.json"],
                 ["build", "hd", "--points", pfile, "--eps", "0.5", "--theta", "0.5",
                  "-o", tmp_path / "hd.edges"]):
        capsys.readouterr()
        assert run(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "q.json").exists() and not (tmp_path / "hd.edges").exists()


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


def test_cli_and_bounded_spread_build_leave_scipy_spatial_unimported():
    code = ("import sys\n"
            "import numpy as np\n"
            "import relspan.cli\n"
            "from relspan.spanner_euclidean import build_bounded_spread_spanner\n"
            "build_bounded_spread_spanner(np.random.default_rng(0).random((30, 2)), 0.5, '1/4')\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy.spatial')))\n")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"


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


def test_console_entrypoint_subprocess(tmp_path):
    res = subprocess.run([sys.executable, "-m", "relspan.cli", "--help"],
                         capture_output=True, text=True)
    assert res.returncode == 0
    assert "spanner" in res.stdout
