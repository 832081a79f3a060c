"""The benchmark tracer's entry points all resolve.

``perfbench/tracing.py`` wraps each layer's entry points by name: a module
attribute, or a method looked up in its class's own ``__dict__`` (an
inherited method cannot be patched there).  A refactor that removes,
renames or hoists one breaks every traced benchmark run; this pins the
names in the fast suite, without importing the benchmark's runner.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[2] / "perfbench" / "tracing.py"


def _entry_points() -> list[str]:
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return sorted({t for ts in module.ENTRY_POINTS.values() for t in ts})


@pytest.mark.parametrize("target", _entry_points())
def test_entry_point_resolves(target):
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert meth in vars(cls), f"{target} is not defined on {cls_name}"
    else:
        assert callable(getattr(module, attr, None)), f"{target} is missing"
