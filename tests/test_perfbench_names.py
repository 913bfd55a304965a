"""The benchmark reaches the package by name: every layer it spans or counts,
and every name its workloads import, must exist in the package, so that
removing one fails here and not only when the benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load("spans")
    targets = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    assert targets
    for owner, attr, layer in targets:
        module, _, cls = owner.partition(":")
        obj = importlib.import_module(module)
        if cls:
            obj = getattr(obj, cls)
        assert hasattr(obj, attr), f"{layer}: {owner} has no {attr}"


def test_workloads_import():
    # workloads.py imports count_p_torsion_mod, transform and the curve
    # types from tamagawa.curves by name
    workloads = _load("workloads")
    assert {"verify-corpus", "good-places", "batch-cli"} <= set(workloads.WORKLOADS)
