"""Every name the benchmark's per-layer tracer wraps still resolves in geomix.

``perfbench/tracing.py`` finds functions by name and reports a name it cannot
find as a metric that reads 0, so a rename would silently empty that metric.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
# traced names geomix no longer has: their metrics read 0 by design
GONE = {"cli.heads_from_model", "heads.init_shared", "features.vectorize", "dialect.score_vocabulary",
        "models.word_log_probs"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(name):
    """Whether the traced ``module.name`` is a geomix function or a method of
    a class in geomix.models."""
    mod, attr = name.split(".")
    module = importlib.import_module(f"geomix.{mod}")
    return callable(getattr(module, attr, None)) or mod == "models" and any(
        attr in vars(cls) for cls in vars(module).values() if isinstance(cls, type))


def test_traced_functions_resolve(tracing):
    names = [f"{mod}.{fn}" for table in (tracing.FUNCTIONS, tracing.COUNTED)
             for mod, fns in table.items() for fn in fns]
    missing = {name for name in names if not resolves(name)}
    assert missing <= GONE, sorted(missing - GONE)


def test_traced_model_methods_resolve(tracing):
    missing = {f"models.{meth}" for meth in tracing.METHODS if not resolves(f"models.{meth}")}
    assert missing <= GONE, sorted(missing - GONE)


def test_gone_names_are_absent():
    """GONE lists only names geomix really lacks, so it cannot go stale."""
    assert not [name for name in GONE if resolves(name)]
