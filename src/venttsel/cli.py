"""Batch front-end: JSON config in, CSV tables / JSON summaries / field dumps out.

Commands: solve, converge, decompose, check. Every output file is written via a
temporary name and an atomic rename, so failed runs leave no partial files; an
invalid configuration produces a machine-readable error JSON on stderr and a
nonzero exit code.
"""
from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import analysis, singular, solver, verify
from .assembly import NodalField, assemble_system, check_theta_orders, nonlocal_matrix
from .errors import ConfigError, QuadraturePairError, VenttselError
from .geometry import Polygon, build_polygon, sigma_window
from .meshing import Mesh, triangulate, write_field, write_mesh

log = logging.getLogger("venttsel")

_PRESETS = ("constant", "cubic", "harmonic")
_BENCHMARKS = ("lshape_benchmark",)


@dataclass(eq=False)
class RunConfig:
    """Validated run configuration (see README for the JSON schema)."""

    polygon: Polygon
    s: float
    b: object
    sigma: float | str
    problem: str
    h: float
    grading_q: float
    levels: int
    tol: float
    maxit: int | None
    out_dir: str
    dump_fields: bool
    seed: int

    @property
    def sigma_value(self) -> float:
        if self.sigma == "auto":
            return sigma_window(self.polygon).midpoint
        return float(self.sigma)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError("config_missing", f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config_parse", f"invalid JSON in {path}: {exc}") from exc
    return validate_config(raw)


def _number(value, rule: str, name: str, kind=float):
    """kind(value) for a finite number (a whole one for kind=int, an array of
    them for kind=np.atleast_1d), else a ConfigError under `rule` naming `name`."""
    try:
        number = np.asarray(value, dtype=float)
        ok = (number.ndim == 0 or kind is np.atleast_1d) and bool(np.all(np.isfinite(number)))
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok or (kind is int and number != np.round(number)):
        whole = "whole " if kind is int else ""
        raise ConfigError(rule, f"{name} must be a finite {whole}number, got {value!r}")
    return kind(number)


def validate_config(raw: dict) -> RunConfig:
    def need(key, default=None):
        if key in raw:
            return raw[key]
        if default is not None:
            return default
        raise ConfigError("config_missing_key", f"config key {key!r} is required")

    try:
        polygon = build_polygon(need("polygon"))
    except VenttselError as exc:
        raise ConfigError("polygon_invalid", str(exc)) from exc

    s = _number(need("s"), "s_range", "s")
    if not 0.0 < s < 1.0:
        raise ConfigError("s_range", f"fractional order s={s} must lie in (0, 1)")

    b = need("b")
    bvals = _number(b, "b_type", "b", np.atleast_1d)
    if np.any(bvals < 0):
        raise ConfigError("b_sign", "boundary coefficient must satisfy b >= 0 and b != 0")
    if not np.any(bvals > 0):
        raise ConfigError(
            "b_coercivity", "boundary coefficient must satisfy b >= 0 and b != 0"
        )
    if bvals.size not in (1, polygon.n_sides):
        raise ConfigError("b_shape", f"b must be scalar or one value per side ({polygon.n_sides})")

    sigma = need("sigma", "auto")
    window = sigma_window(polygon)
    if sigma != "auto":
        sigma = _number(sigma, "sigma_window", "sigma")
        if not window.contains(sigma):
            lo = f"{window.lower:.6g}"
            raise ConfigError(
                "sigma_window",
                f"sigma={sigma} violates the weight window 1 - pi/alpha < sigma < 1/2 "
                f"(admissible: {'[' if window.lower_closed else '('}{lo}, 0.5) for this polygon)",
            )
    elif window.is_empty:
        raise ConfigError("sigma_window", "weight window is empty for this polygon")

    problem = need("problem")
    if problem not in _PRESETS + _BENCHMARKS:
        raise ConfigError(
            "problem_unknown", f"problem must be one of {_PRESETS + _BENCHMARKS}, got {problem!r}"
        )

    mesh_cfg = need("mesh", {})
    h = _number(mesh_cfg.get("h", 0.25), "mesh_h", "mesh.h")
    if h <= 0:
        raise ConfigError("mesh_h", "mesh.h must be positive")
    if h > polygon.side_lengths.min() + 1e-12:
        raise ConfigError("mesh_h", "mesh.h is larger than the shortest polygon side")
    q = _number(mesh_cfg.get("grading_q", 1.0), "mesh_grading", "mesh.grading_q")
    if q < 1.0:
        raise ConfigError("mesh_grading", "mesh.grading_q must be >= 1")
    levels = _number(mesh_cfg.get("levels", 4), "mesh_levels", "mesh.levels", int)
    if levels < 1:
        raise ConfigError("mesh_levels", "mesh.levels must be >= 1")

    solver_cfg = raw.get("solver", {})
    tol = _number(solver_cfg.get("tol", 1e-10), "solver_tol", "solver.tol")
    if tol <= 0:
        raise ConfigError("solver_tol", "solver.tol must be positive")
    maxit = solver_cfg.get("maxit")
    if maxit is not None:
        maxit = _number(maxit, "solver_maxit", "solver.maxit", int)
        if maxit < 1:
            raise ConfigError("solver_maxit", "solver.maxit must be >= 1")
    seed = _number(raw.get("seed", 0), "seed", "seed", int)
    if seed < 0:
        raise ConfigError("seed", "seed must be >= 0")

    out_cfg = raw.get("output", {})
    return RunConfig(
        polygon=polygon,
        s=s,
        b=b,
        sigma=sigma,
        problem=problem,
        h=h,
        grading_q=q,
        levels=levels,
        tol=tol,
        maxit=maxit,
        out_dir=out_cfg.get("directory", "venttsel_out"),
        dump_fields=bool(out_cfg.get("dump_fields", False)),
        seed=seed,
    )


# --- atomic writers ---------------------------------------------------------


def _atomic_write(path: str, text: str):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: str, obj):
    _atomic_write(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _problem_for(config: RunConfig):
    if config.problem in _PRESETS:
        return verify.make_manufactured(config.problem, config.polygon, config.s, config.b)
    bench = verify.lshape_benchmark()
    if bench.polygon.vertices.shape != config.polygon.vertices.shape or not np.allclose(
        bench.polygon.vertices, config.polygon.vertices
    ):
        raise ConfigError(
            "benchmark_polygon", "lshape_benchmark requires the canonical L-shape polygon"
        )
    bench.s = config.s
    bench.b = config.b
    return bench


# --- commands ---------------------------------------------------------------


def _discretise(config: RunConfig):
    """The config's problem and its system assembled on the config's mesh."""
    problem = _problem_for(config)
    mesh = triangulate(config.polygon, config.h, config.grading_q)
    return problem, assemble_system(mesh, problem.spec())


def _cmd_solve(config: RunConfig) -> dict:
    problem, system = _discretise(config)
    mesh = system.mesh
    u, report = solver.solve(system, tol=config.tol, maxit=config.maxit)
    rep = analysis.norm_report(u, theta=system.Theta, sigma=config.sigma_value)
    out = config.out_dir
    _atomic_write(
        os.path.join(out, "norms.csv"), analysis.NORM_CSV_HEADER + "\n" + rep.csv_row() + "\n"
    )
    summary = {
        "problem": config.problem,
        "s": config.s,
        "unknowns": mesh.n_nodes,
        "boundary_nodes": mesh.boundary.n_nodes,
        "iterations": report.iterations,
        "relative_residual": report.relative_residual,
        "solve_seconds": report.solve_seconds,
        "v1_norm": rep.v1,
    }
    if isinstance(problem, verify.ManufacturedProblem):
        summary["max_error"] = float(
            np.abs(u.values - problem.u(mesh.nodes)).max()
        )
    _write_json(os.path.join(out, "solve.json"), summary)
    if config.dump_fields:
        write_mesh(os.path.join(out, "mesh.txt"), mesh)
        write_field(os.path.join(out, "solution.txt"), u.values)
    return summary


def _cmd_converge(config: RunConfig) -> dict:
    problem = _problem_for(config)
    table = verify.convergence_study(
        problem,
        config.levels,
        h0=config.h,
        q=config.grading_q,
        solver_tol=config.tol,
    )
    out = config.out_dir
    _atomic_write(os.path.join(out, "convergence.csv"), table.to_csv())
    rates = {
        col: verify.rate_estimate(table, col)
        for col in ("err_l2_bulk", "err_h1_bulk", "err_l2_bdry", "err_h1_bdry")
    }
    _write_json(os.path.join(out, "rates.json"), rates)
    return {"rows": len(table.rows), "rates": rates}


def _cmd_decompose(config: RunConfig) -> dict:
    _, system = _discretise(config)
    u, _ = solver.solve(system, tol=config.tol, maxit=config.maxit)
    dec = singular.decompose(u)
    out = config.out_dir
    _write_json(os.path.join(out, "decomposition.json"), {"corners": dec.summary()})
    if config.dump_fields:
        write_mesh(os.path.join(out, "mesh.txt"), system.mesh)
        write_field(os.path.join(out, "regular_part.txt"), dec.regular_part.values)
    return {"corners": dec.summary()}


def _cmd_check(config: RunConfig) -> dict:
    """Config-sized invariant suite: operator laws, coercivity, oracle
    equivalence (small boundaries only), Friedrichs sampling, scaling law,
    and the separated-pair quadrature order check."""
    checks = []
    _, system = _discretise(config)
    mesh, bm, theta = system.mesh, system.mesh.boundary, system.Theta
    sym = float(np.abs(theta - theta.T).max())
    checks.append({"name": "theta_symmetric", "passed": bool(sym <= 1e-12 * max(1.0, np.abs(theta).max())), "value": sym})
    ann = float(np.abs(theta @ np.ones(bm.n_nodes)).max())
    checks.append({"name": "theta_annihilates_constants", "passed": bool(ann <= 1e-10), "value": ann})
    ev = np.linalg.eigvalsh(theta)
    checks.append({"name": "theta_psd", "passed": bool(ev[0] >= -1e-10 * max(ev[-1], 1e-30)), "value": float(ev[0])})

    # the same mesh scaled by 2 (exact in floating point), so the law measures
    # the operator alone, on graded meshes too
    mesh2 = Mesh(
        nodes=2.0 * mesh.nodes,
        triangles=mesh.triangles,
        boundary_node_flags=mesh.boundary_node_flags,
        polygon=build_polygon(2.0 * mesh.polygon.vertices),
    )
    theta2 = nonlocal_matrix(mesh2.boundary, config.s)
    law = float(np.abs(theta2 - 2.0 ** (1.0 - 2.0 * config.s) * theta).max() / np.abs(theta).max())
    checks.append({"name": "theta_scaling_law", "passed": bool(law <= 1e-8), "value": law})

    try:
        orders = {"passed": True, "value": check_theta_orders(bm, config.s, theta, 1e-8)}
    except QuadraturePairError as exc:
        orders = {"passed": False, "value": exc.discrepancy}
    checks.append({"name": "theta_orders", **orders})

    if bm.n_nodes <= 512 and mesh.n_nodes <= 4000:
        lam, _ = solver.min_eigenpair(system)
        checks.append({"name": "coercive_lambda_min", "passed": bool(lam > 0), "value": lam})

    if bm.n_segments <= 8:
        worst = 0.0
        for i in range(bm.n_nodes):
            for j in range(i, bm.n_nodes):
                o = verify.theta_entry_oracle(bm, i, j, config.s, tol=1e-9)
                worst = max(worst, abs(theta[i, j] - o) / max(abs(o), 1e-10))
        checks.append({"name": "theta_oracle_equivalence", "passed": bool(worst <= 1e-6), "value": worst})

    ratios = [
        analysis.friedrichs_ratio(f)
        for f in verify.random_smooth_fields(mesh, 200, config.seed)
    ]
    const_ratio = analysis.friedrichs_ratio(NodalField(np.ones(mesh.n_nodes), mesh))
    checks.append(
        {
            "name": "friedrichs_envelope",
            "passed": bool(max(ratios) <= 10.0 * const_ratio),
            "value": float(max(ratios) / const_ratio),
        }
    )

    report = {"checks": checks, "all_passed": bool(all(c["passed"] for c in checks))}
    _write_json(os.path.join(config.out_dir, "check.json"), report)
    return report


_COMMANDS = {
    "solve": _cmd_solve,
    "converge": _cmd_converge,
    "decompose": _cmd_decompose,
    "check": _cmd_check,
}


def run(command: str, config: RunConfig) -> int:
    """Run one command; returns the process exit status."""
    if command not in _COMMANDS:
        raise ConfigError("command_unknown", f"unknown command {command!r}")
    result = _COMMANDS[command](config)
    if command == "check" and not result.get("all_passed", True):
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="venttsel",
        description="Finite-element solver and verification harness for the "
        "nonlocal Venttsel problem on polygons",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--threads", type=int, default=1, help="accepted for existing scripts; must be 1")
    parser.add_argument("--out", default=None, help="override the output directory")
    args = parser.parse_args(argv)

    level = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}.get(
        os.environ.get("VENTTSEL_LOG", "quiet"), logging.WARNING
    )
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")

    config = None
    try:
        config = load_config(args.config)
        if args.out is not None:
            config.out_dir = args.out
        if args.threads != 1:
            raise ConfigError("threads", f"--threads must be 1 (assembly runs in one thread), got {args.threads}")
        return run(args.command, config)
    except ConfigError as exc:
        diag = {"error": exc.rule, "message": str(exc)}
        sys.stderr.write(json.dumps(diag) + "\n")
        try:
            if config is not None:
                _write_json(os.path.join(config.out_dir, "error.json"), diag)
        except Exception:  # noqa: BLE001 - error reporting must not mask the exit
            pass
        return 2
    except VenttselError as exc:
        sys.stderr.write(json.dumps({"error": "runtime", "message": str(exc)}) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
