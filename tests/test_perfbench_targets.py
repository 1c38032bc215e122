"""Every function and method the benchmark tracer wraps still exists.

``perfbench/tracing.py`` wraps ``repro`` functions and methods by name,
and its ``install`` raises on the first missing one, so a rename or a
move would break every traced benchmark run.  The tracer module is
loaded by path and only read.
"""

import importlib
import importlib.util
import os

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tracing():
    path = os.path.join(REPO_ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACING = _load_tracing()


@pytest.mark.parametrize(
    "mod,attr", [(f[0], f[1]) for f in TRACING.FUNCTIONS],
    ids=[f"{f[0]}.{f[1]}" for f in TRACING.FUNCTIONS],
)
def test_function_target_exists(mod, attr):
    assert hasattr(importlib.import_module(mod), attr)


@pytest.mark.parametrize(
    "mod,cls,attr", [m[:3] for m in TRACING.METHODS],
    ids=[f"{m[0]}.{m[1]}.{m[2]}" for m in TRACING.METHODS],
)
def test_method_target_exists(mod, cls, attr):
    klass = getattr(importlib.import_module(mod), cls)
    assert attr in klass.__dict__


def test_targets_listed():
    assert TRACING.FUNCTIONS and TRACING.METHODS
