"""The benchmark's tracer (perfbench/tracing.py) patches presup functions
and methods by name. A name that no longer resolves would crash every traced
benchmark run, so it fails here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracer_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for table in (module.SPANNED, module.COUNTED):
        for layer, attrs in table.items():
            for attr in attrs:
                yield layer, attr


@pytest.mark.parametrize("layer, attr", list(_tracer_names()))
def test_traced_name_resolves(layer, attr):
    module = importlib.import_module(f"presup.{layer}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name, None)
        assert isinstance(cls, type), f"presup.{layer}.{cls_name} is not a class"
        # the tracer looks the method up in the class's own __dict__
        assert callable(cls.__dict__.get(meth)), \
            f"{meth!r} is not defined on presup.{layer}.{cls_name} itself"
    else:
        assert callable(getattr(module, attr, None)), f"presup.{layer}.{attr} is missing"
