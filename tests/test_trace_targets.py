"""The benchmark's traced run wraps program functions by name
(``perfbench/layers.py``).  A renamed or deleted target would only show up
there as a missing layer, so check here that every one still resolves,
through the benchmark's own lookup."""

import inspect


def test_every_traced_target_resolves(bench_module):
    layers, tracer = bench_module("layers"), bench_module("tracer")
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


def test_benchmark_install_finds_every_target(bench_module):
    """Beyond ``SPANS`` the traced run wraps the field methods, the source
    classes' ``src_*`` methods, ``_composite_midpoint`` and
    ``DelayBuffer.__init__``: installing it on a fresh tracer finds them all."""
    layers, tracer_module = bench_module("layers"), bench_module("tracer")
    tracer = tracer_module.Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
    finally:
        tracer.unpatch()
