"""The stability scan's forked workers: the same windows and samples as the
serial scan, solver failures that keep their type, and no child left behind.

Each test runs its scan in a fresh interpreter with OPENBLAS_NUM_THREADS=1,
so that the process runs a single OS thread and the scan forks, and each has
its own time budget."""

import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import eoscatter

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
pytestmark = pytest.mark.skipif(CPUS < 2, reason="forked workers need 2 usable CPUs")

# Shared by every script: the test materials, a scan at N = 40 whose windows
# and samples print as float.hex (exact, and NaN compares equal), a count of
# the forks this process makes, and whether it has a child left to reap.
PRELUDE = """
import json, os, threading
import numpy as np
from eoscatter import cli, stability
from eoscatter.grid import Material1, Material2

MATS = {1: Material1(c1=2.0, c0=1.0, alpha=-1.0, beta=0.3, gamma=8.0),
        2: Material2(mu1=2.0, nu1=2.0, mu0=1.0, nu0=1.0, alpha=-1.0, beta=0.3,
                     gamma=8.0)}
PARENT = os.getpid()
FORKS = []
_fork = os.fork

def counting_fork():
    pid = _fork()
    if pid:
        FORKS.append(pid)
    return pid

os.fork = counting_fork

def scan(model):
    return [[float(x).hex() for x in (d.tau1, d.tau2, *np.ravel(d.samples))]
            for d in stability.scan_stability(model, MATS[model], 40, [0.0, 0.5, 1.0])]

def child_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True
"""


def run_script(body: str, budget: float) -> dict:
    """Run PRELUDE + ``body`` in a fresh interpreter with single-threaded
    BLAS, within ``budget`` seconds; the JSON object it prints last."""
    src = str(Path(eoscatter.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    tic = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", PRELUDE + textwrap.dedent(body)],
                          env=env, capture_output=True, text=True, timeout=budget)
    assert time.perf_counter() - tic < budget
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_forked_scan_equals_the_serial_scan():
    out = run_script("""
        forked = {m: scan(m) for m in (1, 2)}
        forks, left = len(FORKS), child_left()
        # a second OS thread keeps the scan serial
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        serial = {m: scan(m) for m in (1, 2)}
        stop.set()
        thread.join()
        print(json.dumps({"forks": forks, "left": left, "serial_forks": len(FORKS) - forks,
                          "same": forked == serial, "rows": len(forked[1])}))
    """, budget=30.0)
    assert out["forks"] > 0        # the fork path was taken
    assert out["serial_forks"] == 0
    assert not out["left"]         # every child was reaped
    assert out["rows"] == 3
    assert out["same"]             # tau1, tau2 and every sample, bit for bit


def test_a_solver_failure_in_a_worker_is_an_eigen_solver_error(tmp_path):
    # LAPACK failing in a child reaches the caller as EigenSolverError, and
    # the CLI as exit code 4
    cfg = tmp_path / "stab.json"
    cfg.write_text(json.dumps({"model": 1, "mode": "stability", "material": {
        "c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3, "gamma": 8.0},
        "stability": {"N": 40, "epsilons": [0.0, 1.0]}}))
    out = run_script(f"""
        eigvals = np.linalg.eigvals

        def failing(m):
            if os.getpid() != PARENT:
                raise np.linalg.LinAlgError("stub failure in a worker")
            return eigvals(m)

        np.linalg.eigvals = failing
        try:
            scan(1)
            raised = None
        except stability.EigenSolverError as exc:
            raised = str(exc)
        left = child_left()
        code = cli.main(["stability", {str(cfg)!r}, "--out", {str(tmp_path / "out")!r}])
        print(json.dumps({{"raised": raised, "left": left or child_left(),
                          "forks": len(FORKS), "code": code}}))
    """, budget=30.0)
    assert out["forks"] > 0
    assert out["raised"] == "eigenvalue solve failed: stub failure in a worker"
    assert out["code"] == 4
    assert not out["left"]


def test_an_interrupted_scan_leaves_no_child():
    # the parent is interrupted while its child sits in a long solve: the
    # child is stopped and reaped, not waited for
    out = run_script("""
        import time
        radius = stability._branch_radius
        calls = []

        def slow(probe, c, dt):
            if os.getpid() != PARENT:
                time.sleep(60.0)
            calls.append(dt)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return radius(probe, c, dt)

        stability._branch_radius = slow
        try:
            scan(2)
            interrupted = False
        except KeyboardInterrupt:
            interrupted = True
        print(json.dumps({"interrupted": interrupted, "forks": len(FORKS),
                          "left": child_left()}))
    """, budget=20.0)
    assert out["interrupted"] and out["forks"] > 0
    assert not out["left"]
