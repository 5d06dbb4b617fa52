"""Which of the program's functions the traced run wraps, and the per-layer
metrics computed from the trace.

Every wrapped function is named by the module attribute its callers look up,
so ``run_m1`` is wrapped both where the CLI imported it and in ``model1``.
"""

from __future__ import annotations

import inspect
import math

from tracer import Tracer, resolve


def _scn_n(scn, *args, **kw):
    return scn.grid.n


# (target, layer, grid-size getter or None)
SPANS = (
    ("eoscatter.cli.main", "cli.main", None),
    ("eoscatter.cli.parse_config", "config.resolve", None),
    ("eoscatter.cli.mms_run", "mms.run", None),
    ("eoscatter.cli.run_m1", "model1.loop", _scn_n),
    ("eoscatter.model1.run_m1", "model1.loop", _scn_n),
    ("eoscatter.cli.run_m2", "model2.loop", _scn_n),
    ("eoscatter.model2.run_m2", "model2.loop", _scn_n),
    ("eoscatter.model1.interior_step_m1", "model1.interior_step", None),
    ("eoscatter.model1.boundary_a0_m1", "model1.boundary_a0", None),
    ("eoscatter.model1.boundary_a1_m1", "model1.boundary_a1", None),
    ("eoscatter.model2.interior_step_m2", "model2.interior_step", None),
    ("eoscatter.model2.boundary_update_m2", "model2.boundary_update", None),
    ("eoscatter.history.DelayBuffer.query_each", "history.query_each", None),
    ("eoscatter.history.DelayBuffer.query", "history.query", None),
    ("eoscatter.history.DelayBuffer.append", "history.append", None),
    ("eoscatter.sources.characteristic_integral", "sources.quad", None),
    ("eoscatter.grid.SpatialOps.d1_closed", "grid.stencil", None),
    ("eoscatter.grid.SpatialOps.d2_closed", "grid.stencil", None),
    ("eoscatter.grid.SpatialOps.d1_confined", "grid.stencil", None),
    ("eoscatter.cli.scan_stability", "stability.scan", None),
    ("eoscatter.stability.stability_bounds", "stability.bounds", None),
    ("eoscatter.stability.stability_radius", "stability.radius", None),
    ("eoscatter.stability.spectral_radius", "stability.eigensolve", None),
)
SOURCE_CLASSES = ("eoscatter.mms.ResidualSources1", "eoscatter.mms.ResidualSources2")
FIELD_CLASSES = ("eoscatter.mms.ArctanGaussianPulse", "eoscatter.mms.GaussianBump")
FIELD_METHODS = ("value", "dx", "dt", "dxx", "dxt", "dtt")
LOOPS = ("model1.loop", "model2.loop")
KEEP = LOOPS + ("cli.main", "stability.scan", "stability.bounds")

# Grid sizes that per-call timings are also reported at.
SIZES = (400, 1600)


def install(tracer: Tracer) -> None:
    """Wrap every target; missing ones land in ``tracer.missing``."""
    for target, layer, grid_n in SPANS:
        tracer.patch(target, lambda fn, l=layer, g=grid_n: tracer.span(l, fn, g))
    for cls in SOURCE_CLASSES:
        found = resolve(cls)
        if found is None:
            tracer.missing.append(cls)
            continue
        for name in sorted(vars(getattr(*found))):
            if name.startswith("src_"):
                tracer.patch(f"{cls}.{name}",
                             lambda fn: tracer.span("mms.src", fn))
    for cls in FIELD_CLASSES:
        for name in FIELD_METHODS:
            tracer.patch(f"{cls}.{name}",
                         lambda fn: tracer.counter("mms.field_calls", fn))

    def panels(out, f, lo, hi, n, *args, **kw):
        tracer.count("sources.integrand_points", n)
        frame = tracer.top()
        if frame is not None and frame.layer == "sources.quad":
            # Only the last refinement of a quadrature call is kept.
            tracer.count("sources.final_panels", n - int(frame.extra))
            frame.extra = n

    tracer.patch("eoscatter.sources._composite_midpoint",
                 lambda fn: tracer.counter("sources.panel_calls", fn, panels))

    def retained(init):
        sig = inspect.signature(init)

        def hook(out, *args, **kw):
            bound = sig.bind(*args, **kw)
            bound.apply_defaults()
            a = bound.arguments
            samples = math.ceil(a["window"] / a["dt"])
            width = math.prod(a["shape"])
            for frame in reversed(tracer.stack()):
                if frame.layer in LOOPS:
                    frame.extra += samples * width * 8 / 1e6
                    break

        return tracer.counter("history.buffers", init, hook)

    tracer.patch("eoscatter.history.DelayBuffer.__init__", retained)


def _per_call(tracer, layer, n=..., scale=1e6, self_time=False):
    calls, total, self_s = tracer.layer(layer, n)
    return (self_s if self_time else total) / calls * scale if calls else 0.0


def _pool_shares(spans) -> tuple[float, float]:
    """``stability_bounds`` span time, and its threads' CPU time, over (scan
    span time x the number of threads that ran ``stability_bounds`` inside
    that scan).  The gap between the two is time spent waiting, mostly for
    the interpreter lock."""
    busy = cpu = capacity = 0.0
    scans = [s for s in spans if s[0] == "stability.scan"]
    for scan in scans:
        start, end = scan[2], scan[3]
        inside = [s for s in spans
                  if s[0] == "stability.bounds" and start <= s[2] <= end]
        busy += sum(s[3] - s[2] for s in inside)
        cpu += sum(s[6] for s in inside)
        capacity += (end - start) * len({s[1] for s in inside})
    return (busy / capacity, cpu / capacity) if capacity else (0.0, 0.0)


# Per-call timings in us, also reported per grid size as ``<name>.n<N>``:
# name -> (layer, whether to take the layer's self time).
PER_CALL_US = {
    "history.query_each_us": ("history.query_each", False),
    "history.query_us": ("history.query", False),
    "history.append_us": ("history.append", False),
    "sources.quad_us": ("sources.quad", False),
    "mms.src_us": ("mms.src", False),
    "model1.interior_step_us": ("model1.interior_step", False),
    "model2.interior_step_us": ("model2.interior_step", False),
    "grid.stencil_us": ("grid.stencil", False),
    "model1.boundary_a0_us": ("model1.boundary_a0", False),
    "model1.boundary_a1_us": ("model1.boundary_a1", False),
    "model2.boundary_update_us": ("model2.boundary_update", False),
    "model2.boundary_self_us": ("model2.boundary_update", True),
}


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric the trace gives: ``name -> (value, unit)``."""
    out = {}
    for name, (layer, self_time) in PER_CALL_US.items():
        out[name] = (_per_call(tracer, layer, self_time=self_time), "us")
        for n in SIZES:
            out[f"{name}.n{n}"] = (
                _per_call(tracer, layer, n, self_time=self_time), "us")

    def calls(layer):
        return tracer.layer(layer)[0]

    def self_s(layer):
        return tracer.layer(layer)[2]

    points = tracer.counts.get("sources.integrand_points", 0)
    final = tracer.counts.get("sources.final_panels", 0)
    loops = [s for s in tracer.spans if s[0] in LOOPS]
    pool = _pool_shares(tracer.spans)
    out.update({
        "history.query_each_calls": (calls("history.query_each"), "count"),
        "history.retained_mb": (max((s[5] for s in loops), default=0.0), "MB"),
        "sources.quad_calls": (calls("sources.quad"), "count"),
        "sources.integrand_points": (points, "count"),
        "sources.useful_ratio": (final / points if points else 0.0, "ratio"),
        "mms.src_calls": (calls("mms.src"), "count"),
        "mms.field_calls": (tracer.counts.get("mms.field_calls", 0), "count"),
        "grid.stencil_calls": (calls("grid.stencil"), "count"),
        "model1.loop_self_s": (self_s("model1.loop"), "s"),
        "model2.loop_self_s": (self_s("model2.loop"), "s"),
        "model1.steps": (calls("model1.interior_step"), "count"),
        "model2.steps": (calls("model2.interior_step"), "count"),
        "stability.eigensolve_ms": (_per_call(tracer, "stability.eigensolve", scale=1e3), "ms"),
        "stability.eigensolves": (calls("stability.eigensolve"), "count"),
        "stability.assembly_ms": (
            _per_call(tracer, "stability.radius", scale=1e3, self_time=True), "ms"),
        "stability.pool_busy_share": (pool[0], "ratio"),
        "stability.pool_cpu_share": (pool[1], "ratio"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "config.resolve_ms": (_per_call(tracer, "config.resolve", scale=1e3), "ms"),
    })
    return out
