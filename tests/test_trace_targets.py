"""The benchmark's traced run wraps program functions by name
(``perfbench/layers.py``).  A renamed or deleted target would only show up
there as a missing layer, so check here that every one still resolves,
through the benchmark's own lookup."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module("layers"), importlib.import_module("tracer")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_target_resolves(bench):
    layers, tracer = bench
    missing, unwrappable = [], []
    for target, _, _ in layers.SPANS:
        found = tracer.resolve(target)
        if found is None:
            missing.append(target)
        elif isinstance(inspect.getattr_static(*found),
                        (staticmethod, classmethod)):
            unwrappable.append(target)
    assert len(layers.SPANS) > 20
    assert missing == [] and unwrappable == []
