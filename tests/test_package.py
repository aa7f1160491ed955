import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import venttsel

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
