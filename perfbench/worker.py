"""One benchmark iteration in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json

``SPEC.json`` holds ``mode`` ("setup" or "jobs"), ``src`` (the directory
that holds the ``eoscatter`` package), ``jobs`` (``name``, ``command``,
``config`` file, ``out`` directory), ``trace`` and ``result``, the file the
worker writes its JSON result to.

"setup" times what a fresh interpreter does before the first step: import
``eoscatter``, resolve every job's configuration and build its scenarios or
grids.  "jobs" runs every job through ``eoscatter.cli.main`` exactly as an
``eos`` call would, timing each one, optionally under the tracer.

Untraced jobs also measure the host's speed with ``HostSpeed``, so that
``run.py`` can turn wall times into reference-host seconds.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

# Calibration slices: one about every SLICE_PERIOD_S of wall time while a job
# runs.  REF_SLICE_S fixes the scale: it is a slice's time on the reference
# host, and a wall time times the mean of REF_SLICE_S / slice time is the
# time the job would take there.  On the 2-vCPU Xeon VM this benchmark was
# written on, a slice takes about 0.42 ms between marching steps and 0.55 ms
# beside the stability scan's thread pool.
REF_SLICE_S = 500e-6
SLICE_PERIOD_S = 0.025
# A job too short for this many slices keeps its wall time: speed 1.
MIN_SLICES = 20
# 400 elements: numpy keeps the interpreter lock on arrays this short, so a
# slice times the host even while a thread pool waits for that lock.
_X = np.linspace(0.0, 1.0, 400)


def _slice_work() -> float:
    """A fixed mix of interpreter and small-vector work, like the program's
    per-step work."""
    acc = 0.0
    for i in range(24):
        acc += float((0.5 * _X + np.sin(_X * (1.0 + i))).sum())
        for k in range(30):
            acc += k * 0.5
    return acc


class HostSpeed:
    """Times a fixed calibration slice while a job runs.

    The host's throughput drifts with its other tenants' load; the job and
    the slices interleaved with it see the same drift, so the job's wall
    time scaled by the slices' speed does not.  A SIGALRM handler runs the
    slices in the main thread between the program's bytecodes.
    """

    def __init__(self):
        self.slices: list[float] = []
        self._busy = False
        _slice_work()   # first call pays numpy's lazy set-up

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        tic = time.perf_counter()
        _slice_work()
        self.slices.append(time.perf_counter() - tic)
        self._busy = False

    def start(self) -> None:
        self.slices = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SLICE_PERIOD_S, SLICE_PERIOD_S)

    def stop(self) -> dict:
        """Stop the slices; the job's calibration record.  ``speed`` is the
        host's speed relative to the reference host, the mean over slices
        spread evenly in wall time, so that a wall time times it counts each
        stretch of the job at the speed it ran at."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        n = len(self.slices)
        speed = sum(REF_SLICE_S / t for t in self.slices) / n if n >= MIN_SLICES else 1.0
        return {"speed": speed, "slices": n, "slices_s": sum(self.slices)}


def _import_eoscatter(src: str):
    sys.path.insert(0, src)
    import eoscatter

    where = Path(eoscatter.__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise ImportError(f"eoscatter imported from {where}, not from {src}")
    return eoscatter


def _steps(t_end: float, dt: float) -> int:
    # Same level count as the program's Scenario*.steps.
    return max(1, math.ceil(t_end / dt - 1e-9))


def _node_steps(cfg, out: Path) -> int:
    """Sum of N * steps over the marching runs of a resolved config.  A
    stability scan marches nothing; there each spectral radius written to
    samples.csv counts as one step of the N-node propagator."""
    from eoscatter.grid import GridSpec

    if cfg.mode == "run":
        return cfg.grid.n * _steps(cfg.t_end, cfg.dt)
    if cfg.mode == "mms":
        total = 0
        for n in cfg.n_ladder:
            g = GridSpec(a0=cfg.grid.a0, a1=cfg.grid.a1, n=n,
                         epsilon=cfg.grid.epsilon)
            total += n * _steps(cfg.t_end, cfg.dt_cfl * g.dx / cfg.mat.c1)
        return total
    samples = out / "samples.csv"
    rows = len(samples.read_text().splitlines()) - 2 if samples.exists() else 0
    return cfg.stability.n * max(rows, 0)


def setup(spec: dict) -> dict:
    eos = _import_eoscatter(spec["src"])
    for job in spec["jobs"]:
        cfg = eos.parse_config(job["config"], default_mode=job["command"])
        if cfg.mode == "run":
            scenario = eos.Scenario1 if cfg.model == 1 else eos.Scenario2
            scenario(grid=cfg.grid, mat=cfg.mat, dt=cfg.dt, t_end=cfg.t_end,
                     source=cfg.source)
        elif cfg.mode == "mms":
            for n in cfg.n_ladder:
                eos.GridSpec(a0=cfg.grid.a0, a1=cfg.grid.a1, n=n,
                             epsilon=cfg.grid.epsilon)
        else:
            for eps in cfg.stability.epsilons:
                eos.GridSpec(a0=0.0, a1=1.0, n=cfg.stability.n, epsilon=eps)
    return {"setup_s": time.perf_counter() - T_START}


def run_jobs(spec: dict) -> dict:
    _import_eoscatter(spec["src"])
    import eoscatter.cli as cli
    from eoscatter.config import parse_config

    tracer = None
    if spec["trace"]:
        import layers
        from tracer import Tracer

        tracer = Tracer(keep=layers.KEEP)
        layers.install(tracer)

    host = None if tracer else HostSpeed()
    results = []
    for job in spec["jobs"]:
        argv = [job["command"], job["config"], "--out", job["out"]]
        error = None
        if host:
            host.start()
        tic = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is one failed job, not a dead iteration
            rc, error = -1, traceback.format_exc()
        wall = time.perf_counter() - tic
        calib = host.stop() if host else None
        out = Path(job["out"])
        csv_bytes = sum(p.stat().st_size for p in out.glob("*.csv"))
        cfg = parse_config(job["config"], default_mode=job["command"])
        results.append({"name": job["name"], "rc": rc, "error": error,
                        "wall_s": wall - (calib["slices_s"] if calib else 0.0),
                        "calib": calib, "csv_bytes": csv_bytes,
                        "node_steps": _node_steps(cfg, out)})

    result = {"jobs": results,
              "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.unpatch()
        result["layers"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in layers.layer_metrics(tracer).items()}
        result["missing"] = tracer.missing
        result["spans"] = tracer.spans
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = setup(spec) if spec["mode"] == "setup" else run_jobs(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
