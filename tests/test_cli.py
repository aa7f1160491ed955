import json
import os
import sys

import numpy as np
import pytest

from venttsel import assembly, meshing, verify
from venttsel.cli import load_config, main, validate_config
from venttsel.errors import ConfigError
from venttsel.geometry import build_polygon
from venttsel.verify import convergence_study, make_manufactured

SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]


def _write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "polygon": SQUARE,
        "s": 0.5,
        "b": 1.0,
        "sigma": "auto",
        "problem": "constant",
        "mesh": {"h": 0.25, "grading_q": 1.0, "levels": 3},
        "solver": {"tol": 1e-12},
        "output": {"directory": str(tmp_path / "out"), "dump_fields": True},
        "seed": 7,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def test_solve_constant_preset(tmp_path, capsys):
    path = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    summary = json.loads((tmp_path / "out" / "solve.json").read_text())
    assert summary["max_error"] <= 1e-10
    assert (tmp_path / "out" / "norms.csv").exists()
    assert (tmp_path / "out" / "mesh.txt").exists()
    assert (tmp_path / "out" / "solution.txt").exists()


def test_solve_deterministic_output(tmp_path):
    path = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "norms.csv").read_bytes()
    assert main(["solve", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "norms.csv").read_bytes() == first


def test_converge_cubic(tmp_path):
    path = _write_config(
        tmp_path,
        problem="cubic",
        s=0.25,
        mesh={"h": 0.25, "grading_q": 1.0, "levels": 3},
    )
    assert main(["converge", "--config", str(path)]) == 0
    csv_text = (tmp_path / "out" / "convergence.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("level,h,unknowns,err_l2_bulk")
    assert len(lines) == 4  # header + 3 levels
    rates = json.loads((tmp_path / "out" / "rates.json").read_text())
    for r in rates["err_h1_bulk"]:
        assert 0.85 <= r <= 1.15


def test_decompose_lshape(tmp_path):
    path = _write_config(
        tmp_path,
        polygon=LSHAPE,
        problem="lshape_benchmark",
        sigma="auto",
        mesh={"h": 1.0 / 16.0, "grading_q": 1.0, "levels": 1},
    )
    assert main(["decompose", "--config", str(path)]) == 0
    dec = json.loads((tmp_path / "out" / "decomposition.json").read_text())
    assert len(dec["corners"]) == 1
    assert dec["corners"][0]["lambda"] == pytest.approx(2.0 / 3.0)
    assert set(dec["corners"][0]) == {"j", "alpha", "lambda", "c"}
    assert (tmp_path / "out" / "regular_part.txt").exists()


def test_check_command(tmp_path):
    path = _write_config(tmp_path, mesh={"h": 0.5, "grading_q": 1.0, "levels": 1})
    assert main(["check", "--config", str(path)]) == 0
    rep = json.loads((tmp_path / "out" / "check.json").read_text())
    assert rep["all_passed"]
    names = {c["name"] for c in rep["checks"]}
    assert "theta_scaling_law" in names and "theta_oracle_equivalence" in names


def test_one_boundary_extraction_per_mesh(tmp_path, monkeypatch):
    seen = []  # holds the meshes, so their ids stay distinct
    original = meshing.extract_boundary

    def counting(mesh):
        seen.append(mesh)
        return original(mesh)

    for name, module in list(sys.modules.items()):
        if name.startswith("venttsel") and getattr(module, "extract_boundary", None) is original:
            monkeypatch.setattr(module, "extract_boundary", counting)
    path = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    problem = make_manufactured("constant", build_polygon(SQUARE), 0.5, 1.0)
    convergence_study(problem, 3, h0=0.5)
    assert len(seen) == len({id(m) for m in seen}) == 4  # one solve mesh + three levels


def test_one_ladder_per_boundary_mesh(tmp_path, monkeypatch):
    # the pair ladder is built from the segment-pair distances, once per mesh
    # and shared by Theta and the form-based load
    built = []
    original = assembly._segment_pair_dist
    monkeypatch.setattr(assembly, "_segment_pair_dist", lambda *args: built.append(1) or original(*args))
    path = _write_config(tmp_path, problem="cubic", s=0.7)
    assert main(["converge", "--config", str(path)]) == 0
    assert len(built) == 3  # three levels, each with Theta and the load table


def test_check_threads_reach_both_theta_builds(tmp_path, monkeypatch):
    threads = []
    original = assembly.nonlocal_matrix

    def recording(bm, s, n_threads=1):
        threads.append(n_threads)
        return original(bm, s, n_threads)

    for name, module in list(sys.modules.items()):
        if name.startswith("venttsel") and getattr(module, "nonlocal_matrix", None) is original:
            monkeypatch.setattr(module, "nonlocal_matrix", recording)
    # h = 1/32: the far pairs span more than one chunk, so two threads do run
    mesh = {"h": 1.0 / 32.0, "grading_q": 1.0, "levels": 1}
    reports = []
    for n in ("1", "2"):
        path = _write_config(tmp_path, mesh=mesh, output={"directory": str(tmp_path / n)})
        threads.clear()
        assert main(["check", "--config", str(path), "--threads", n]) == 0
        assert threads == [int(n)] * 2  # the system's Theta and the scaled polygon's
        reports.append((tmp_path / n / "check.json").read_bytes())
    assert reports[0] == reports[1]


def test_converge_threads_reach_load_table(tmp_path, monkeypatch):
    threads = []
    original = verify.energy_load_table

    def recording(problem, bm, n_threads=1):
        threads.append(n_threads)
        return original(problem, bm, n_threads)

    for name, module in list(sys.modules.items()):
        if name.startswith("venttsel") and getattr(module, "energy_load_table", None) is original:
            monkeypatch.setattr(module, "energy_load_table", recording)
    mesh = {"h": 0.25, "grading_q": 1.0, "levels": 3}
    outputs = []
    for n in ("1", "2"):
        out = tmp_path / n
        path = _write_config(tmp_path, problem="cubic", s=0.7, mesh=mesh, output={"directory": str(out)})
        threads.clear()
        assert main(["converge", "--config", str(path), "--threads", n]) == 0
        assert threads == [int(n)] * 3  # the load-table route on every level
        outputs.append(((out / "convergence.csv").read_bytes(), (out / "rates.json").read_bytes()))
    assert outputs[0] == outputs[1]


def test_converge_threads_reach_pointwise_oracle(tmp_path, monkeypatch):
    groups, tables = [], []
    original_values = verify.ManufacturedProblem.boundary_g_values
    original_build = verify.PointwiseBoundarySource.build

    def values(self, pts, side_ids, tol=None):
        groups.append(len(pts))
        return original_values(self, pts, side_ids, tol)

    def build(self, bm, n_threads=1):
        groups.clear()
        table = original_build(self, bm, n_threads)
        assert len(groups) == n_threads  # one oracle call per group of points
        tables.append((table.values, table.nodes, table.weights, table.point_masses))
        return table

    monkeypatch.setattr(verify.ManufacturedProblem, "boundary_g_values", values)
    monkeypatch.setattr(verify.PointwiseBoundarySource, "build", build)
    mesh = {"h": 0.25, "grading_q": 1.0, "levels": 3}
    outputs = []
    for n in ("1", "2"):
        out = tmp_path / n
        path = _write_config(tmp_path, problem="cubic", s=0.25, mesh=mesh, output={"directory": str(out)})
        assert main(["converge", "--config", str(path), "--threads", n]) == 0
        outputs.append((out / "convergence.csv").read_bytes())
    assert outputs[0] == outputs[1]
    one, two = tables[:3], tables[3:]
    assert len(one) == len(two) == 3  # the pointwise route on every level
    for t1, t2 in zip(one, two):
        assert all(np.array_equal(x, y) for x, y in zip(t1[:3], t2[:3])) and t1[3] == t2[3]


@pytest.mark.parametrize(
    "override, rule",
    [
        ({"s": "half"}, "s_range"),
        ({"b": "one"}, "b_type"),
        ({"b": [1.0, "x", 1.0, 1.0]}, "b_type"),
        ({"sigma": "low"}, "sigma_window"),
        ({"mesh": {"h": "x"}}, "mesh_h"),
        ({"mesh": {"grading_q": "steep"}}, "mesh_grading"),
        ({"mesh": {"levels": "four"}}, "mesh_levels"),
        ({"mesh": {"levels": 2.5}}, "mesh_levels"),
        ({"mesh": {"h": float("nan")}}, "mesh_h"),
        ({"solver": {"tol": "tight"}}, "solver_tol"),
        ({"solver": {"maxit": "many"}}, "solver_maxit"),
        ({"solver": {"maxit": 0}}, "solver_maxit"),
        ({"seed": "random"}, "seed"),
        ({"seed": -1}, "seed"),
        ({"seed": 10**400}, "seed"),
        ({"mesh": {"levels": float("inf")}}, "mesh_levels"),
        ({"s": [0.5]}, "s_range"),
    ],
)
def test_bad_config_values_rejected_by_name(tmp_path, capsys, override, rule):
    path = _write_config(tmp_path, **override)
    assert main(["solve", "--config", str(path)]) == 2
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == rule
    assert not (tmp_path / "out" / "solve.json").exists()


def test_large_whole_config_values_accepted():
    base = {"polygon": SQUARE, "s": 0.5, "b": 1.0, "problem": "constant"}
    assert validate_config({**base, "seed": 1e20}).seed == 10**20
    assert validate_config({**base, "solver": {"maxit": 1e20}}).maxit == 10**20


def test_sigma_window_rejected(tmp_path, capsys):
    path = _write_config(tmp_path, polygon=LSHAPE, sigma=0.0)
    code = main(["solve", "--config", str(path)])
    assert code != 0
    err = capsys.readouterr().err
    diag = json.loads(err.strip().splitlines()[-1])
    assert diag["error"] == "sigma_window"
    assert "1 - pi/alpha < sigma < 1/2" in diag["message"]
    # no partial outputs
    out = tmp_path / "out"
    assert not (out / "solve.json").exists()


def test_b_coercivity_rule(tmp_path, capsys):
    path = _write_config(tmp_path, b=0.0)
    assert main(["solve", "--config", str(path)]) != 0
    diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert diag["error"] == "b_coercivity"
    assert "b >= 0 and b != 0" in diag["message"]


def test_validation_rules(tmp_path):
    with pytest.raises(ConfigError) as exc:
        validate_config({"polygon": SQUARE, "s": 1.5, "b": 1.0, "problem": "constant"})
    assert exc.value.rule == "s_range"
    with pytest.raises(ConfigError):
        validate_config({"polygon": [[0, 0], [1, 0]], "s": 0.5, "b": 1.0, "problem": "constant"})
    with pytest.raises(ConfigError) as exc:
        validate_config({"polygon": SQUARE, "s": 0.5, "b": 1.0, "problem": "mystery"})
    assert exc.value.rule == "problem_unknown"
    with pytest.raises(ConfigError) as exc:
        validate_config(
            {"polygon": SQUARE, "s": 0.5, "b": 1.0, "problem": "constant", "mesh": {"h": 9.0}}
        )
    assert exc.value.rule == "mesh_h"
    with pytest.raises(ConfigError) as exc:
        load_config(str(tmp_path / "missing.json"))
    assert exc.value.rule == "config_missing"


def test_auto_sigma_resolves_inside_window(tmp_path):
    cfg = validate_config(
        {"polygon": LSHAPE, "s": 0.5, "b": 1.0, "sigma": "auto", "problem": "constant"}
    )
    from venttsel.geometry import sigma_window

    assert sigma_window(cfg.polygon).contains(cfg.sigma_value)
