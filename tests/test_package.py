import importlib
import importlib.util
import math
import pkgutil
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import venttsel
from venttsel.assembly import DiscreteSystem
from venttsel.geometry import Polygon, WeightWindow, build_polygon
from venttsel.meshing import BoundaryMesh
from venttsel.singular import SingularTerm, make_singular_term

MODULES = sorted(info.name for info in pkgutil.iter_modules(venttsel.__path__, "venttsel."))
SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.mark.parametrize("name", ["venttsel", *MODULES])
def test_all_names_exist(name):
    # a stale __all__ entry would otherwise fail only on `import *`
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", []) if not hasattr(module, entry)] == []


def test_benchmark_span_targets_exist(monkeypatch):
    # the benchmark's span recorder wraps these names by getattr, so a deleted
    # one breaks every traced run; the analysis spans it reports must be public
    # functions there, or their metrics silently read 0. The file is only
    # read: no bytecode is written next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(mod, attr) for mod, attr, _ in spans._TARGETS.values()]
    assert [t for t in targets if not hasattr(importlib.import_module(t[0]), t[1])] == []
    public = spans._public_functions(importlib.import_module("venttsel.analysis"))
    reported = [name.split(".", 1)[1] for name in spans.SELF_TIME_SPANS if name.startswith("analysis.")]
    assert reported and [name for name in reported if name not in public] == []


def test_types_store_only_defining_fields(lshape, lshape_mesh):
    # each type stores the data that defines it and derives the rest, so no
    # object can contradict itself; the derived values are pinned to the bit
    stored = {
        Polygon: ["vertices", "reoriented"],
        BoundaryMesh: ["mesh", "boundary_nodes", "side_ids", "corner_nodes", "_cache"],
        SingularTerm: ["polygon", "corner_index", "coefficient"],
        DiscreteSystem: ["local", "Theta", "load", "mesh", "spec"],
        WeightWindow: ["lower", "lower_closed"],
    }
    assert {cls: [f.name for f in fields(cls)] for cls in stored} == stored
    v = lshape.vertices
    with pytest.raises(TypeError):
        Polygon(vertices=v, angles=lshape.angles)
    with pytest.raises(TypeError):
        SingularTerm(polygon=lshape, corner_index=3, exponent=2.0 / 3.0)
    with pytest.raises(TypeError):
        WeightWindow(lower=0.0, upper=0.4)
    assert WeightWindow.upper == 0.5

    right = repr(math.pi / 2)
    slanted = build_polygon([(0, 0), (3, 0.4), (2.5, 2.2), (0.3, 1.7)])
    for p, angles, alpha_max, convex in (
        (lshape, f"[{right}, {right}, {right}, 4.71238898038469, {right}, {right}]", "4.71238898038469", False),
        (slanted, "[1.2635725954899828, 1.43240100875315, 1.618266575992684, 1.9689451269437692]", "1.9689451269437692", True),
    ):
        assert repr(p.angles.tolist()) == angles
        assert type(p.alpha_max) is float and repr(p.alpha_max) == alpha_max
        assert p.is_convex is convex

    bm = lshape_mesh.boundary
    assert repr(bm.lengths.tolist()) == repr([0.25] * 32)
    assert repr(bm.arclength_coords.tolist()) == repr([0.25 * k for k in range(32)])
    assert bm.node_pairs.tolist() == [[k, (k + 1) % 32] for k in range(32)]
    assert np.array_equal(bm.node_pairs[:, 0], bm.boundary_nodes)

    term = make_singular_term(lshape, 3)
    assert repr(term.exponent) == "0.6666666666666666"
    assert repr(term.edge_dir.tolist()) == "[1.0, 0.0]"
    assert type(term.cutoff_radius) is float and repr(term.cutoff_radius) == "0.3333333333333333"
