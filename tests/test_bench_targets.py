"""Every function the benchmark traces exists in the package.

bench/tracing.py names its targets as strings, so deleting or renaming a
traced function breaks the benchmark without failing any import here.
The file is loaded by path and only read: no bytecode is written next
to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import ramcirc

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    ## dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    assert len(tracing.TARGETS) > 10
    package = Path(ramcirc.__file__).parent
    missing = []
    for target in tracing.TARGETS:
        owner = importlib.import_module(target.module)
        assert Path(owner.__file__).parent == package, target.module
        for part in target.attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{target.module}.{target.attr}")
    assert missing == []
