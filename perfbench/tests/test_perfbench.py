"""Tests of the benchmark itself, on tiny configs: `python3 -m pytest perfbench/tests`."""
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

LSHAPE = [[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2]]
SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]
TINY = {
    "solve": {
        "command": "solve",
        "config": {"polygon": LSHAPE, "s": 0.5, "sigma": "auto", "problem": "lshape_benchmark",
                   "mesh": {"h": 0.25, "grading_q": 1.0}, "solver": {"tol": 1e-10}},
    },
    "pointwise": {
        "command": "converge",
        "config": {"polygon": SQUARE, "s": 0.25, "sigma": "auto", "problem": "cubic",
                   "mesh": {"h": 1.0, "grading_q": 1.0, "levels": 3}, "solver": {"tol": 1e-10}},
    },
    "graded": {
        "command": "converge",
        "config": {"polygon": LSHAPE, "s": 0.5, "sigma": "auto", "problem": "lshape_benchmark",
                   "mesh": {"h": 1.0, "grading_q": 1.7241379310344827, "levels": 3}, "solver": {"tol": 1e-10}},
    },
}
SETTINGS = run.load_workloads()["checks"]
REPEATED_COUNTS = (
    "verify.theta_pointwise_oracle.calls",
    "meshing.delaunay.calls",
    "meshing.extract_boundary.calls_per_mesh",
    "solver.iterations",
)


def _names(section):
    return [m["name"] for m in run.benchmark_metrics(section)]


@pytest.fixture(scope="module")
def solve_outputs():
    spec = TINY["solve"]
    job = run.run_job(spec["command"], run.make_config(spec, 0))
    assert not job["error"]
    return job["outputs"]


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_benchmark_metric_is_printed(capsys, trace, section):
    result = run.measure(TINY["solve"], 1, 0.1, trace, None, SETTINGS)
    assert result["failed"] == 0, result["problems"]
    metrics = run.report("tiny", result, section)
    printed = capsys.readouterr().out
    assert list(metrics) == _names(section)
    for name in _names(section) + ["failed_frac"]:
        assert f" {name} " in printed
    json.dumps(metrics, allow_nan=False)


def test_reference_check_accepts_the_recorded_outputs(solve_outputs):
    config = run.make_config(TINY["solve"], 0)
    reference = checks.solution_values(solve_outputs)
    assert checks.check_outputs(TINY["solve"], config, solve_outputs, reference, SETTINGS) == []


def _scaled(outputs, factor):
    data = json.loads(outputs["solve.json"])
    data["v1_norm"] *= factor
    return dict(outputs, **{"solve.json": json.dumps(data)})


def test_scaled_solution_fails_the_seed0_check(solve_outputs):
    config = run.make_config(TINY["solve"], 0)
    reference = checks.solution_values(solve_outputs)
    problems = checks.check_outputs(TINY["solve"], config, _scaled(solve_outputs, 1.001), reference, SETTINGS)
    assert any("v1_norm" in p for p in problems)


def test_residual_above_tol_fails_for_any_seed(solve_outputs):
    config = run.make_config(TINY["solve"], 7)
    data = json.loads(solve_outputs["solve.json"])
    data["relative_residual"] = 2 * config["solver"]["tol"]
    bad = dict(solve_outputs, **{"solve.json": json.dumps(data)})
    assert checks.check_outputs(TINY["solve"], config, bad, None, SETTINGS)


def test_perturbed_output_counts_as_failed(monkeypatch, solve_outputs):
    reference = checks.solution_values(solve_outputs)
    read = run.read_outputs
    monkeypatch.setattr(run, "read_outputs", lambda out: _scaled(read(out), 1.01) if read(out) else {})
    result = run.measure(TINY["solve"], 0, 0.1, False, reference, SETTINGS)
    assert result["failed"] >= 1
    assert result["failed"] == sum(1 for p in result["problems"] if "v1_norm" in p)


def test_rates_far_from_theory_fail():
    spec = dict(TINY["pointwise"], rates={"err_h1_bulk": 1.0}, rates_from_step=0)
    config = run.make_config(spec, 3)
    outputs = {"convergence.csv": "level,h\n0,1.0\n1,0.5\n2,0.25\n", "rates.json": json.dumps({"err_h1_bulk": [1.0, 1.4]})}
    problems = checks.check_outputs(spec, config, outputs, None, SETTINGS)
    assert problems == ["err_h1_bulk rate 1.4 not within 0.15 of 1.0"]


@pytest.mark.parametrize("kind", ["pointwise", "graded"])
def test_counts_repeat_across_traced_runs(kind):
    spec = TINY[kind]
    config = run.make_config(spec, 2)
    first, second = (run.run_job(spec["command"], config, trace=True) for _ in range(2))
    assert not first["error"] and not second["error"]
    for name in REPEATED_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    assert first["layers"]["meshing.extract_boundary.calls_per_mesh"] == 2.0
    assert first["layers"]["meshing.delaunay.calls"] >= 1
    assert first["layers"]["solver.iterations"] > 0
    if kind == "pointwise":
        assert first["layers"]["verify.theta_pointwise_oracle.calls"] > 0
    assert run.comparable(first["outputs"]) == run.comparable(second["outputs"])


def _write_runs(path, workload, rows):
    with open(path, "w", encoding="utf-8") as fh:
        for seed, values in enumerate(rows):
            metrics = {name: {"value": value, "unit": "s"} for name, value in values.items()}
            fh.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, "metrics": metrics}) + "\n")


def test_compare_shows_a_gain_and_flags_regressions(tmp_path, capsys):
    import compare

    noise = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.02]
    parent = [{"wall_s": 4 * n, "setup_s": 0.8 * n, "peak_rss_mb": 100.0} for n in noise]
    change = [{"wall_s": 3 * n, "setup_s": 1.2 * n, "peak_rss_mb": 100.0} for n in noise]
    _write_runs(tmp_path / "parent.jsonl", "w", parent)
    _write_runs(tmp_path / "change.jsonl", "w", change)
    argv = [str(tmp_path / "parent.jsonl"), str(tmp_path / "change.jsonl"), "--claim", "wall_s", "--workload", "w"]
    assert compare.main(argv) == 1
    out = capsys.readouterr().out
    assert "gain shown" in out and "won 10/10" in out
    assert "setup_s: REGRESSION" in out and "peak_rss_mb: ok" in out

    wide = [{"wall_s": 4 * n, "setup_s": 0.8 * (1 + 3 * (n - 1) * 10), "peak_rss_mb": 100.0} for n in noise]
    _write_runs(tmp_path / "wide.jsonl", "w", wide)
    assert compare.main([str(tmp_path / "wide.jsonl"), str(tmp_path / "wide.jsonl")]) == 0
    assert "setup_s: unresolved" in capsys.readouterr().out
