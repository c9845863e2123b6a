"""The traced benchmark (bench/tracing.py) wraps evenk functions by
their names from outside the package; a renamed or deleted function
would break `bench/run.py --trace 1` without any evenk test noticing."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_layer_resolves_in_evenk(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave bench/ as it is
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in tracing.LAYERS.values() for t in group]
    assert targets
    for target in targets:
        module_name, attr = target.split(":")
        owner = importlib.import_module(f"evenk.{module_name}")
        if "." in attr:  # wrapped as a classmethod
            cls_name, method = attr.split(".")
            assert isinstance(vars(getattr(owner, cls_name)).get(method), classmethod), target
        else:
            assert callable(getattr(owner, attr, None)), target
