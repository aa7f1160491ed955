import json
import math
import sys

import pytest

from venttsel import assembly, meshing
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
    # every output gets the mode of a file that open() creates
    mode = path.stat().st_mode & 0o777
    assert {f.name: f.stat().st_mode & 0o777 for f in (tmp_path / "out").iterdir()} == dict.fromkeys(
        ["mesh.txt", "norms.csv", "solution.txt", "solve.json"], mode
    )


def test_solve_norms_all_finite(tmp_path):
    path = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    header, row = (tmp_path / "out" / "norms.csv").read_text().splitlines()
    values = row.split(",")
    assert len(values) == len(header.split(",")) == 9
    assert all(math.isfinite(float(v)) for v in values)


def test_solve_deterministic_output(tmp_path):
    path = _write_config(tmp_path)
    assert main(["solve", "--config", str(path)]) == 0
    first = (tmp_path / "out" / "norms.csv").read_bytes()
    assert main(["solve", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "norms.csv").read_bytes() == first


def test_clockwise_polygon_keeps_per_side_b(tmp_path):
    # b[k] belongs to the config's side from vertex k to vertex k + 1, also
    # when the list runs clockwise and the stored polygon is its reverse
    cw = [[0, 2], [1, 2], [1, 1], [2, 1], [2, 0], [0, 0]]
    runs = {"cw": (cw, [1, 2, 3, 4, 5, 6]), "ccw": (LSHAPE, [5, 4, 3, 2, 1, 6])}
    outputs = {}
    for name, (polygon, b) in runs.items():
        path = _write_config(
            tmp_path, f"{name}.json", polygon=polygon, b=b, problem="lshape_benchmark", mesh={"h": 0.25}
        )
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / name)]) == 0
        summary = json.loads((tmp_path / name / "solve.json").read_text())
        summary.pop("solve_seconds")
        outputs[name] = (summary, (tmp_path / name / "norms.csv").read_bytes())
    assert outputs["cw"] == outputs["ccw"]
    assert validate_config({"polygon": cw, "s": 0.5, "b": [1, 2, 3, 4, 5, 6], "problem": "constant"}).b == [
        5.0, 4.0, 3.0, 2.0, 1.0, 6.0
    ]


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
    # the square, and a graded L-shape, whose mesh re-triangulated at a
    # scaled size would not be the scaled copy the scaling law compares against
    inputs = {
        "square": (SQUARE, 1.0),
        "graded_lshape": (LSHAPE, 1.0 / (1.0 - 0.42)),
    }
    for name, (polygon, q) in inputs.items():
        out = tmp_path / name
        path = _write_config(
            tmp_path, f"{name}.json", polygon=polygon, mesh={"h": 0.5, "grading_q": q, "levels": 1}
        )
        assert main(["check", "--config", str(path), "--out", str(out)]) == 0
        rep = json.loads((out / "check.json").read_text())
        assert rep["all_passed"]
        checks = {c["name"]: c for c in rep["checks"]}
        assert all({"name", "value", "bound", "passed"} <= set(c) for c in rep["checks"])
        laws = [c for name, c in checks.items() if name.startswith("theta_")]
        assert all(c["passed"] == (c["value"] <= c["bound"]) for c in laws)
        assert checks["theta_scaling_law"]["value"] <= 1e-8
        assert name != "square" or "theta_oracle_equivalence" in checks
        orders = checks["theta_orders"]
        assert orders["passed"] and 0.0 < orders["value"] <= 1e-8


def test_check_records_theta_order_failure(tmp_path, monkeypatch):
    # one-point rules on every separated pair miss the 1e-8 order check
    monkeypatch.setattr(assembly, "_ORDERS", (1, 1, 1))
    path = _write_config(tmp_path, mesh={"h": 0.25, "grading_q": 1.0, "levels": 1})
    assert main(["check", "--config", str(path)]) == 1
    rep = json.loads((tmp_path / "out" / "check.json").read_text())
    orders = next(c for c in rep["checks"] if c["name"] == "theta_orders")
    assert not orders["passed"] and orders["value"] > 1e-8
    assert not rep["all_passed"]


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


def test_threads_flag_accepts_only_one(tmp_path, capsys):
    # the benchmark's argv (--out DIR --threads 1) gives the outputs of a run
    # without the flag; any other count is refused by name, never ignored
    path = _write_config(tmp_path, problem="cubic", s=0.7, mesh={"h": 0.25, "grading_q": 1.0, "levels": 3})
    outputs = []
    for flag in ([], ["--threads", "1"]):
        out = tmp_path / f"out{len(outputs)}"
        assert main(["converge", "--config", str(path), "--out", str(out), *flag]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1] and set(outputs[0]) == {"convergence.csv", "rates.json"}
    for n in ("2", "0"):
        assert main(["converge", "--config", str(path), "--out", str(tmp_path / n), "--threads", n]) == 2
        diag = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert diag["error"] == "threads"
        # the error JSON also goes to the config's output directory
        assert json.loads((tmp_path / n / "error.json").read_text()) == diag


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
        # numbers must be numbers: no numeric strings, no booleans
        ({"s": "0.5"}, "s_range"),
        ({"mesh": {"h": "0.25"}}, "mesh_h"),
        ({"mesh": {"levels": "3"}}, "mesh_levels"),
        ({"solver": {"tol": "1e-10"}}, "solver_tol"),
        ({"seed": "2"}, "seed"),
        ({"mesh": {"levels": True}}, "mesh_levels"),
        ({"seed": True}, "seed"),
        ({"b": [1.0, "2", True, 1]}, "b_type"),
        ({"b": [1.0, True, 1.0, 1.0]}, "b_type"),
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
