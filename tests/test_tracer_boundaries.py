"""Every name the benchmark's tracer wraps still resolves in dendron.

`perfbench/tracer.py` wraps library functions and constructors by name
when a run asks for layer timings.  A deleted or renamed name would break
that run only when it starts; this test fails first.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / \
    "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("module, attr, kind", tracer.BOUNDARIES,
                         ids=[f"{m}.{a}" for m, a, _ in tracer.BOUNDARIES])
def test_boundary_resolves(module, attr, kind):
    assert module in tracer.MODULES
    target = importlib.import_module(f"dendron.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    if kind == "class":
        assert isinstance(target, type)
    else:
        assert callable(target)


@pytest.mark.parametrize("suite", tracer.SUITES)
def test_suite_resolves(suite):
    assert callable(getattr(importlib.import_module("dendron.cli"), suite))
