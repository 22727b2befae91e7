"""Every per-layer metric of the benchmark keeps at least one live source.

A traced benchmark run drops a metric, and reports it as missing, once none
of the `module.attr` names it patches exists any more.  This pins the names
that perfbench reads against the package as it stands.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_layers():
    sys.path.insert(0, str(PERFBENCH))     # layers.py imports its sibling tracer.py
    try:
        spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                      PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


METRICS = _load_layers().METRICS


def _resolves(source: str) -> bool:
    module, attr = source.split(".", 1)
    return hasattr(importlib.import_module(f"eitgate.{module}"), attr)


@pytest.mark.parametrize("metric", sorted(METRICS))
def test_metric_has_a_live_source(metric):
    _, sources = METRICS[metric]
    assert any(_resolves(src) for src in sources), (
        f"{metric}: none of {sources} exists in eitgate")
