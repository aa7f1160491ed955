"""Output checks for benchmark jobs; none of them call venttsel.

Every seed: the expected files exist and parse, every number is finite, mesh
sizes match the reference (they do not depend on `b`), the CG residual is
within the configured tolerance, and convergence rates are near their
theoretical values (workloads.json, `rates`). Seed 0 also compares every
solution-derived number with `reference.json`, recorded at the commit that
defined the benchmark, to `reference_rtol`.
"""
from __future__ import annotations

import csv
import io
import json
import math

EXPECTED = {"solve": ("norms.csv", "solve.json"), "converge": ("convergence.csv", "rates.json")}
# values that do not depend on b, so they are compared for every seed
SEED_FREE_FIELDS = {"problem", "s", "unknowns", "boundary_nodes", "level", "h"}
# solver diagnostics: checked as invariants, never against the reference, so
# that a different solver reaching the same tolerance still passes
SOLVER_FIELDS = {"solve_seconds", "iterations", "relative_residual"}


def solution_values(outputs: dict) -> dict:
    """The numbers a check compares, keyed `file:row:field`."""
    values = {}
    if "solve.json" in outputs:
        for key, value in json.loads(outputs["solve.json"]).items():
            if key not in SOLVER_FIELDS:
                values[f"solve.json:0:{key}"] = value
    for name in ("norms.csv", "convergence.csv"):
        if name in outputs:
            for i, row in enumerate(csv.DictReader(io.StringIO(outputs[name]))):
                for key, text in row.items():
                    values[f"{name}:{i}:{key}"] = float(text) if text else None
    return values


def _close(a, b, rtol: float) -> bool:
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0)
    return a == b


def check_outputs(spec: dict, config: dict, outputs: dict, reference: dict | None, settings: dict) -> list[str]:
    """Problems found in one job's outputs; an empty list means it passed."""
    missing = [name for name in EXPECTED[spec["command"]] if name not in outputs]
    if missing:
        return [f"missing output {', '.join(missing)}"]
    try:
        values = solution_values(outputs)
        rates = json.loads(outputs["rates.json"]) if "rates.json" in outputs else {}
        solve = json.loads(outputs["solve.json"]) if "solve.json" in outputs else {}
    except (ValueError, KeyError) as exc:
        return [f"unreadable output: {exc}"]

    problems = [
        f"{key} = {value!r} is not finite"
        for key, value in values.items()
        if isinstance(value, float) and not math.isfinite(value)
    ]
    if solve:
        tol = config["solver"]["tol"]
        if not solve["relative_residual"] <= tol:
            problems.append(f"CG relative_residual {solve['relative_residual']!r} > tol {tol!r}")
    if spec["command"] == "converge":
        levels = config["mesh"]["levels"]
        rows = {key.split(":")[1] for key in values if key.startswith("convergence.csv:")}
        if len(rows) != levels:
            problems.append(f"convergence.csv has {len(rows)} rows, expected {levels}")
    rate_tol = settings["rate_tol"]
    for column, target in spec.get("rates", {}).items():
        if column not in rates:
            problems.append(f"rates.json has no {column}")
        for rate in rates.get(column, [])[spec.get("rates_from_step", 0):]:
            if not isinstance(rate, float) or abs(rate - target) > rate_tol:
                problems.append(f"{column} rate {rate!r} not within {rate_tol} of {target}")

    if reference is not None:
        rtol = settings["reference_rtol"]
        for key, expected in reference.items():
            field = key.split(":")[2]
            if config["seed"] != 0 and field not in SEED_FREE_FIELDS:
                continue
            if key not in values:
                problems.append(f"{key} missing")
            elif not _close(values[key], expected, rtol):
                problems.append(f"{key} = {values[key]!r}, reference {expected!r}")
    return problems
