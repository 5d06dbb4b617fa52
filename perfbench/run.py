"""Benchmark of the eoscatter command line, one workload per subcommand.

    python3 perfbench/run.py --workload run --seed 0 --seconds 36 --trace 0

Run it from anywhere; it benchmarks the ``eoscatter`` sources in ``src/``
next to this directory and keeps its scratch files in ``.perfbench/`` there.

Workloads (see ``workloads.py``): ``run`` runs the fig2 and fig4 presets,
``mms`` the fig1 and fig3 error studies, ``stability`` the two window scans.
Every iteration runs the workload's model-1 job and then its model-2 job
through ``eoscatter.cli.main`` in a fresh interpreter, so each iteration
pays the cold caches a user's ``eos`` call pays.  Iterations repeat while
the next one is expected to end within ``--seconds``; at least one runs,
and a second one if it is expected to end within 1.5 x ``--seconds``.
Set-up is timed ``SETUP_REPEATS`` times (three with ``--quick``) in fresh
interpreters.  Every job's outputs are checked (``checks.py``) and a failed
check counts as a failed job.

``--trace 0`` prints the end-to-end metrics (medians over the iterations).
Their job times are in reference-host seconds: each untraced job
interleaves calibration slices with the program (``worker.HostSpeed``) and
its wall time, slices excluded, is scaled by the host speed they measured,
because this shared host's throughput drifts by more than the metrics'
bounds.  ``setup_s`` stays wall-clock.
The plain wall-clock figures are printed as ``raw`` lines and kept in the
record.  ``--trace 1`` runs one untraced and one traced iteration and
prints the per-layer metrics of the traced one (``layers.py``), the raw
wall times and host speed of the untraced one, and the tracing overhead.
``--quick`` shrinks every job to N <= 400 and a short t_end.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
environment included, goes to ``.perfbench/result-*.json``.  The exit code
is 0 when every check passed, 1 when one failed, 2 when the benchmark
could not run at all (then no result line is printed).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from checks import check_job, load_reference  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402

SETUP_REPEATS = 15
TIME_LIMIT = 170.0   # seconds for one benchmark run, all workers included
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The benchmark cannot run here."""


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        **PINNED_ENV,
        "EOS_THREADS": f"unset (program default min(4, nproc) = {min(4, nproc)})",
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("EOS_THREADS", None)
    env.pop("PYTHONPATH", None)
    env.update(PINNED_ENV)
    return env


class Bench:
    """One benchmark run: the seeded jobs, their worker processes and the
    failures their checks found."""

    def __init__(self, workload: str, seed: int, quick: bool):
        if not (SRC / "eoscatter" / "__init__.py").is_file():
            raise BenchError(f"no eoscatter package under {SRC}")
        self.workload = workload
        self.seed = seed
        self.size = "quick" if quick else "full"
        self.started = time.monotonic()
        shutil.rmtree(WORK / "work", ignore_errors=True)
        (WORK / "work").mkdir(parents=True)
        self.jobs = jobs(workload, seed, quick)
        for job in self.jobs:
            path = WORK / "work" / f"{job['name']}.json"
            path.write_text(json.dumps(job["config"]))
            job["path"] = str(path)
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _worker(self, spec: dict):
        """Run one worker process: ``(result, spec)``, with None as the
        result if the worker failed."""
        self.calls += 1
        spec_path = WORK / "work" / f"spec{self.calls}.json"
        result_path = WORK / "work" / f"result{self.calls}.json"
        spec = {**spec, "src": str(SRC), "result": str(result_path),
                "jobs": [{"name": j["name"], "command": j["config"]["mode"],
                          "config": j["path"],
                          "out": str(WORK / "work" / f"out{self.calls}" / j["name"])}
                         for j in self.jobs]}
        spec_path.write_text(json.dumps(spec))
        budget = TIME_LIMIT - self.elapsed()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path)],
                env=worker_env(), capture_output=True, text=True,
                timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker timed out ({spec['mode']})", file=sys.stderr)
            return None, spec
        if proc.returncode != 0:
            print(proc.stderr[-2000:], file=sys.stderr)
            return None, spec
        return json.loads(result_path.read_text()), spec

    def setup_s(self) -> float:
        """Median wall time of a fresh interpreter's set-up."""
        times = []
        for _ in range(SETUP_REPEATS if self.size == "full" else 3):
            result, _ = self._worker({"mode": "setup", "trace": False})
            if result is None:
                raise BenchError("set-up worker failed")
            times.append(result["setup_s"])
        return statistics.median(times)

    def iteration(self, trace: bool):
        """Run and check one iteration; its result with failed jobs marked."""
        self.attempted += len(self.jobs)
        result, spec = self._worker({"mode": "jobs", "trace": trace})
        if result is None:
            self.failed += len(self.jobs)
            self.failures += [f"{j['name']}: worker failed" for j in self.jobs]
            return None
        for job, done, run in zip(self.jobs, result["jobs"], spec["jobs"]):
            ref = None
            fails = []
            if self.seed == 0:
                ref = load_reference(self.size, self.workload, job["name"])
                if ref is None:
                    fails.append("no stored reference")
            if done["error"]:
                print(done["error"], file=sys.stderr)
            fails += check_job(job["config"], Path(run["out"]), done["rc"], ref)
            self.failed += bool(fails)
            self.failures += [f"{job['name']}: {f}" for f in fails]
        shutil.rmtree(WORK / "work" / f"out{self.calls}", ignore_errors=True)
        return result

    def elapsed(self) -> float:
        return time.monotonic() - self.started


def _job_walls(it, ref: bool) -> dict:
    """Wall time of each job of an iteration, calibration slices excluded;
    with ``ref``, in reference-host seconds."""
    return {j["name"]: j["wall_s"] * (j["calib"]["speed"] if ref else 1.0)
            for j in it["jobs"]}


def _times(iters, ref: bool) -> dict:
    """Median iteration, model-1 and model-2 times and node-steps rate."""
    med = statistics.median
    walls = [_job_walls(it, ref) for it in iters]
    total = [sum(w.values()) for w in walls]
    return {
        "wall_s": (med(total), "s"),
        "m1_wall_s": (med(w["m1"] for w in walls), "s"),
        "m2_wall_s": (med(w["m2"] for w in walls), "s"),
        "node_steps_per_s": (med(sum(j["node_steps"] for j in it["jobs"]) / t
                                 for it, t in zip(iters, total)), "1/s"),
    }


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, list, dict]:
    setup = bench.setup_s()
    iters = []
    start = time.monotonic()
    while True:
        it = bench.iteration(trace=False)
        if it is not None:
            iters.append(it)
        done = time.monotonic() - start
        per = done / len(iters) if iters else 0.0
        # A second sample is worth a longer run: allow it up to 1.5 x seconds.
        allowed = seconds * (1.5 if len(iters) == 1 else 1.0)
        if it is None or done + per > min(allowed, TIME_LIMIT - bench.elapsed()):
            break
    if not iters:
        raise BenchError("no iteration completed")
    metrics = {
        **_times(iters, ref=True),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mib"] for it in iters), "MiB"),
        "ok_share": (1.0 - bench.failed / bench.attempted, "ratio"),
    }
    raw = _times(iters, ref=False)
    return metrics, iters, raw


def per_layer(bench: Bench) -> tuple[dict, list, dict]:
    plain = bench.iteration(trace=False)
    traced = bench.iteration(trace=True)
    if plain is None or traced is None:
        raise BenchError("traced or untraced iteration did not complete")
    metrics = {k: (v["value"], v["unit"]) for k, v in traced["layers"].items()}
    metrics["cli.csv_bytes"] = (sum(j["csv_bytes"] for j in traced["jobs"]), "bytes")
    wall = [sum(j["wall_s"] for j in it["jobs"]) for it in (plain, traced)]
    metrics["trace.overhead_share"] = (wall[1] / wall[0] - 1.0, "ratio")
    raw = _times([plain], ref=False)
    for name in ("wall_s", "m1_wall_s", "m2_wall_s"):
        metrics[f"raw.{name}"] = raw[name]
    metrics["host.speed"] = (statistics.median(j["calib"]["speed"] for j in plain["jobs"]),
                             "ratio")
    if traced["missing"]:
        print("missing layers (reported as 0): " + ", ".join(traced["missing"]))
    return metrics, [plain, traced], {}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="N <= 400 and a short t_end, for smoke tests")
    args = ap.parse_args(argv)
    try:
        bench = Bench(args.workload, args.seed, args.quick)
        env = environment()
        if args.trace:
            metrics, iters, raw = per_layer(bench)
        else:
            metrics, iters, raw = end_to_end(bench, args.seconds)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    for failure in bench.failures:
        print(f"FAILED {failure}")
    for key, value in env.items():
        print(f"env {key} = {value}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in raw.items():
        print(f"raw {name} = {value:.6g} {unit} (wall clock, not host-normalised)")
    line = {"correct": not bench.failures, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {"workload": args.workload, "seed": args.seed, "size": bench.size,
              "trace": args.trace, "environment": env, "failures": bench.failures,
              "raw": {k: v for k, (v, _) in raw.items()},
              "iterations": iters, **line}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (WORK / name).write_text(json.dumps(record, indent=1))
    shutil.rmtree(WORK / "work", ignore_errors=True)
    print(json.dumps(line))
    return 0 if not bench.failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
