"""Span recorder that wraps venttsel's public functions from outside the library.

Each wrapped function records one span: its name, the index of the span that
was open when it was called (its parent), start and end `perf_counter` times,
and an optional count taken from its arguments or result. Spans stay in memory
until the job ends; `layer_metrics` turns them into the per-layer metrics.

A function is wrapped at every import site: every `venttsel` module attribute
that is the original object is replaced, so `cli.triangulate`,
`verify.triangulate` and `meshing.triangulate` all record the same span name.
The spans assume one thread, which the benchmark ensures with `--threads 1`.
"""
from __future__ import annotations

import inspect
import sys
from time import perf_counter

# span name -> (module, attribute, count taken from (args, result) or None)
_TARGETS = {
    "cli.run": ("venttsel.cli", "run", None),
    "meshing.triangulate": ("venttsel.meshing", "triangulate", lambda a, r: _mesh_sizes(r)),
    "meshing.refine": ("venttsel.meshing", "refine", lambda a, r: _mesh_sizes(r)),
    "meshing.delaunay": ("venttsel.meshing", "Delaunay", None),
    "meshing.extract_boundary": ("venttsel.meshing", "extract_boundary", lambda a, r: id(a[0])),
    "assembly.assemble_system": ("venttsel.assembly", "assemble_system", None),
    "assembly.nonlocal_matrix": ("venttsel.assembly", "nonlocal_matrix", lambda a, r: r.shape[0]),
    "assembly.load_vector": ("venttsel.assembly", "load_vector", None),
    "verify.theta_pointwise_oracle": ("venttsel.verify", "theta_pointwise_oracle", None),
    "verify.energy_load_table": ("venttsel.verify", "energy_load_table", None),
    "verify.manufactured_g_l2": ("venttsel.verify", "manufactured_g_l2", None),
    "verify.errors_vs_exact": ("venttsel.verify", "errors_vs_exact", None),
    "verify.errors_vs_reference": ("venttsel.verify", "errors_vs_reference", None),
    "transfer.locate_points": ("venttsel.transfer", "locate_points", lambda a, r: len(a[1])),
    "solver.solve": ("venttsel.solver", "solve", lambda a, r: r[1].iterations),
}

# metrics the traced run reports; BENCHMARK.json lists the same names
SELF_TIME_SPANS = (
    "meshing.triangulate",
    "meshing.refine",
    "meshing.delaunay",
    "meshing.extract_boundary",
    "assembly.assemble_system",
    "assembly.nonlocal_matrix",
    "assembly.load_vector",
    "verify.theta_pointwise_oracle",
    "verify.energy_load_table",
    "verify.errors_vs_exact",
    "verify.errors_vs_reference",
    "transfer.locate_points",
    "solver.solve",
    "analysis.norm_report",
    "analysis.weighted_l2",
    "analysis.weighted_hessian_diagnostic",
)


def _mesh_sizes(mesh):
    return (mesh.n_nodes, int(mesh.boundary_node_flags.sum()), mesh.n_triangles)


class Recorder:
    """Keeps spans as [name, parent, start, end, count] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = [name, self._open[-1] if self._open else -1, perf_counter(), None, None]
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[3] = perf_counter()
            if count is not None:
                span[4] = count(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _public_functions(module):
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    }


def install(recorder: Recorder) -> None:
    """Wrap every target at every `venttsel` module that refers to it."""
    import venttsel.analysis  # noqa: F401 - the targets below must be loaded
    import venttsel.cli  # noqa: F401

    targets = [(name, getattr(sys.modules[mod], attr), count) for name, (mod, attr, count) in _TARGETS.items()]
    analysis = sys.modules["venttsel.analysis"]
    targets += [(f"analysis.{name}", fn, None) for name, fn in _public_functions(analysis).items()]
    modules = [m for name, m in sys.modules.items() if name == "venttsel" or name.startswith("venttsel.")]
    for name, original, count in targets:
        wrapped = recorder.wrap(name, original, count)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def layer_metrics(spans: list[list]) -> dict:
    """Per-layer metrics of one traced job from its spans.

    `*.self_s` is a span's duration minus the durations of its direct children
    (they run inside it, one at a time). `trace.uncovered_s` is the self time of
    the `cli.run` root: the part of the job no wrapped function covers.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    for i, (name, _, start, end, count) in enumerate(spans):
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[i])
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts.setdefault(name, []).append(count)

    meshes = counts.get("meshing.triangulate", []) + counts.get("meshing.refine", [])
    iterations = sum(counts.get("solver.solve", []))
    metrics = {f"{name}.self_s": self_s.get(name, 0.0) for name in SELF_TIME_SPANS}
    metrics.update(
        {
            "meshing.delaunay.calls": calls.get("meshing.delaunay", 0),
            "meshing.extract_boundary.calls_per_mesh": calls.get("meshing.extract_boundary", 0)
            / max(len(set(counts.get("meshing.extract_boundary", []))), 1),
            "meshing.nodes": sum(m[0] for m in meshes),
            "meshing.boundary_nodes": sum(m[1] for m in meshes),
            "meshing.triangles": sum(m[2] for m in meshes),
            "assembly.theta_mb": max((8.0 * S * S / 1e6 for S in counts.get("assembly.nonlocal_matrix", [])), default=0.0),
            "verify.theta_pointwise_oracle.calls": calls.get("verify.theta_pointwise_oracle", 0),
            "transfer.locate_points.points": sum(counts.get("transfer.locate_points", [])),
            "solver.iterations": iterations,
            "solver.s_per_iteration": self_s.get("solver.solve", 0.0) / max(iterations, 1),
            "trace.uncovered_s": self_s.get("cli.run", 0.0),
        }
    )
    return metrics
