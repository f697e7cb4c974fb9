"""Every name the benchmark's per-layer tracer wraps still resolves in geomix.

``perfbench/tracing.py`` finds functions by name and reports a name it cannot
find as a metric that reads 0, so a rename would silently empty that metric.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from geomix import models

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# traced names geomix no longer has: their metrics read 0 by design
GONE = {"cli.heads_from_model", "heads.init_shared", "features.vectorize", "dialect.score_vocabulary"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracing):
    names = [(mod, fn) for table in (tracing.FUNCTIONS, tracing.COUNTED)
             for mod, fns in table.items() for fn in fns]
    missing = {f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"geomix.{mod}"), fn, None))}
    assert missing <= GONE, sorted(missing - GONE)


def test_traced_model_methods_resolve(tracing):
    classes = [v for v in vars(models).values() if isinstance(v, type)]
    for meth in tracing.METHODS:
        assert any(meth in vars(cls) for cls in classes), meth
