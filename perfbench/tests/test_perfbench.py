"""Tests of the benchmark itself: output checks, tracer arithmetic, host-speed
calibration, seeded inputs, and exact repeats of the traced counts.

    python3 -m pytest perfbench/tests -q

The smoke runs use ``--quick`` (N <= 400, short t_end).
"""

import copy
import json
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=170)


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Seed-0 quick outputs of every job: ``{(workload, job): (cfg, dir)}``."""
    from eoscatter.cli import main

    base = tmp_path_factory.mktemp("outputs")
    done = {}
    for workload in workloads.WORKLOADS:
        for job in workloads.jobs(workload, 0, quick=True):
            cfg = job["config"]
            where = base / workload / job["name"]
            where.mkdir(parents=True)
            (where / "cfg.json").write_text(json.dumps(cfg))
            assert main([cfg["mode"], str(where / "cfg.json"),
                         "--out", str(where / "out")]) == 0
            done[(workload, job["name"])] = (cfg, where / "out")
    return done


def _copy(outputs, tmp_path, key):
    cfg, out = outputs[key]
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return copy.deepcopy(cfg), dst


def _ref(key):
    return checks.load_reference("quick", *key)


def _edit(path: Path, row: int, col: int, value: str) -> None:
    """Set one cell of a data row (0 = first row after the header)."""
    lines = path.read_text().splitlines()
    cells = lines[row + 2].split(",")
    cells[col] = value
    lines[row + 2] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_checks_pass_on_the_program_outputs(outputs):
    for key, (cfg, out) in outputs.items():
        assert checks.check_job(cfg, out, 0, _ref(key)) == [], key


def test_a_nonzero_exit_fails(outputs):
    cfg, out = outputs[("run", "m1")]
    assert checks.check_job(cfg, out, 3, None) == ["exit code 3"]


@pytest.mark.parametrize("key,file,row,col,value", [
    (("run", "m1"), "boundary.csv", 100, 1, "nan"),    # non-finite trace
    (("run", "m2"), "boundary.csv", 0, 2, "1e-3"),     # right trace before arrival
    (("run", "m1"), "boundary.csv", 5, 1, "1e-3"),     # left trace before crossing
    (("mms", "m1"), "errors.csv", 3, 5, "2.5"),        # order out of band
    (("stability", "m1"), "stability.csv", 0, 2, "0.39"),  # misses 0.4
])
def test_a_corrupted_output_fails(outputs, tmp_path, key, file, row, col, value):
    cfg, out = _copy(outputs, tmp_path, key)
    _edit(out / file, row, col, value)
    assert checks.check_job(cfg, out, 0, None) != []


@pytest.mark.parametrize("key,file,row,col,factor", [
    # a trace on a kept row, 1e-6 away
    (("run", "m2"), "boundary.csv", checks.TRACE_STRIDE * 20, 4, 1.0 + 1e-6),
    # finest-rung (N = 400) phi error, 2% away
    (("mms", "m2"), "errors.csv", 8, 3, 1.02),
    # a window edge, two bisect_tol away
    (("stability", "m2"), "stability.csv", 1, 1, 1.0 + 2e-4),
])
def test_a_departure_from_the_reference_fails(outputs, tmp_path, key, file,
                                              row, col, factor):
    cfg, out = _copy(outputs, tmp_path, key)
    _, rows = checks.read_csv(out / file)
    _edit(out / file, row, col, repr(float(rows[row][col]) * factor))
    assert checks.check_job(cfg, out, 0, None) == []
    assert checks.check_job(cfg, out, 0, _ref(key)) != []


def test_a_missing_output_fails(outputs, tmp_path):
    cfg, out = _copy(outputs, tmp_path, ("run", "m1"))
    (out / "snapshot_2.0.csv").unlink()
    assert checks.check_job(cfg, out, 0, None) == ["snapshot_2.0.csv: missing"]
    (out / "boundary.csv").unlink()
    assert checks.check_job(cfg, out, 0, None)[0].startswith("unreadable output")


# ---------------------------------------------------------------------------
# tracer arithmetic
# ---------------------------------------------------------------------------

class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_on_a_synthetic_span_tree():
    clock = FakeClock()
    tr = Tracer(clock=clock, keep=("outer",), cpu_clock=lambda: 2 * clock.t)

    def tick(d):
        clock.t += d

    leaf = tr.span("leaf", tick)

    def mid_body():
        tick(1.0)
        leaf(2.0)
        tick(1.0)
        leaf(3.0)

    mid = tr.span("mid", mid_body)

    def outer_body(n):
        tick(0.5)
        mid()
        tick(0.5)

    outer = tr.span("outer", outer_body, grid_n=lambda n: n)
    outer(400)
    assert tr.layer("outer") == (1, 8.0, 1.0)
    assert tr.layer("mid") == (1, 7.0, 2.0)
    assert tr.layer("leaf") == (2, 5.0, 5.0)
    # children inherit the grid size of the span that names one
    assert tr.layer("leaf", 400) == (2, 5.0, 5.0)
    assert tr.layer("leaf", 1600) == (0, 0, 0)
    assert tr.spans == [("outer", threading.get_ident(), 0.0, 8.0, 400, 0.0, 16.0)]


def test_spans_of_other_threads_are_not_children():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    work = tr.span("work", lambda d: setattr(clock, "t", clock.t + d))

    def wait_body():
        t = threading.Thread(target=work, args=(3.0,))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        work(1.0)

    tr.span("wait", wait_body)()
    # The pool thread's span is its own root: the waiting span keeps the
    # 3 s it spent waiting as self time; only its own call is a child.
    assert tr.layer("wait") == (1, 4.0, 3.0)
    assert tr.layer("work") == (2, 4.0, 4.0)


def test_pool_shares():
    spans = [("stability.scan", 1, 0.0, 10.0, None, 0.0, 0.1),
             ("stability.bounds", 2, 0.0, 10.0, None, 0.0, 6.0),
             ("stability.bounds", 3, 1.0, 6.0, None, 0.0, 3.0),
             ("stability.bounds", 3, 20.0, 30.0, None, 0.0, 9.0)]  # other scan
    busy, cpu = layers._pool_shares(spans)
    assert busy == pytest.approx(15.0 / 20.0)
    assert cpu == pytest.approx(9.0 / 20.0)


def test_missing_targets_are_reported_not_fatal():
    import json as target_module

    tr = Tracer()
    original = target_module.dumps
    assert tr.patch("json.dumps", lambda fn: tr.span("json", fn))
    assert not tr.patch("json.no_such_function", lambda fn: fn)
    assert not tr.patch("no_such_module.f", lambda fn: fn)
    target_module.dumps([1])
    tr.unpatch()
    assert target_module.dumps is original
    assert tr.layer("json")[0] == 1
    assert tr.missing == ["json.no_such_function", "no_such_module.f"]


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------

def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        sum(range(100))


def test_calibration_slices_interleave_with_a_single_thread():
    host = worker.HostSpeed()
    host.start()
    _spin(1.0)
    calib = host.stop()
    assert calib["slices"] >= worker.MIN_SLICES
    assert 0.0 < calib["slices_s"] < 0.2
    assert 0.1 < calib["speed"] < 10.0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_calibration_slices_run_while_a_pool_thread_works():
    other = threading.Thread(target=_spin, args=(1.0,))
    host = worker.HostSpeed()
    host.start()
    other.start()
    other.join()
    calib = host.stop()
    assert calib["slices"] >= worker.MIN_SLICES
    assert 0.1 < calib["speed"] < 10.0


def test_a_job_too_short_for_calibration_keeps_its_wall_time():
    host = worker.HostSpeed()
    host.start()
    _spin(0.1)
    calib = host.stop()
    assert calib["slices"] < worker.MIN_SLICES and calib["speed"] == 1.0


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

def _work_inputs(cfg):
    return (cfg.get("grid"), cfg.get("dt_cfl"), cfg.get("t_end"),
            (cfg.get("mms") or {}).get("n_ladder"),
            (cfg.get("stability") or {}).get("N"),
            (cfg.get("stability") or {}).get("epsilons"))


def test_seed_zero_is_the_preset():
    from eoscatter.config import PRESETS

    for name, cfg in workloads.PRESETS.items():
        want = copy.deepcopy(PRESETS[name])
        if cfg["mode"] == "stability":
            want["stability"]["epsilons"] = [0.0, 1.0]
        assert cfg == want, name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_jitter_inputs_but_not_the_work(workload):
    from eoscatter.config import resolve_config

    base = workloads.jobs(workload, 0)
    for seed in (1, 2, 3):
        jobs = workloads.jobs(workload, seed)
        assert jobs == workloads.jobs(workload, seed)
        for job, ref in zip(jobs, base):
            assert job["config"] != ref["config"]
            assert _work_inputs(job["config"]) == _work_inputs(ref["config"])
            resolve_config(job["config"])  # the program accepts it


# ---------------------------------------------------------------------------
# the benchmark command
# ---------------------------------------------------------------------------

def _spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_end_to_end_line_has_every_metric():
    line = _result(_bench("--workload", "stability", "--seed", "5",
                          "--seconds", "0", "--quick", "--trace", "0"))
    assert line["correct"] and line["failed"] == 0 and line["attempted"] == 2
    got = {k: v["unit"] for k, v in line["metrics"].items()}
    assert got == _spec_units("end_to_end")
    assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "0", "--seconds", "0",
            "--quick", "--trace", "1")
    first, second = (_bench(*args) for _ in range(2))
    assert "missing layers" not in first.stdout
    a, b = _result(first)["metrics"], _result(second)["metrics"]
    assert {k: v["unit"] for k, v in a.items()} == _spec_units("per_layer")
    counts = {k: v["value"] for k, v in a.items() if v["unit"] == "count"}
    assert counts == {k: b[k]["value"] for k in counts}
    marching = a["model1.steps"]["value"] + a["model2.steps"]["value"]
    if workload == "run":
        assert a["sources.quad_calls"]["value"] > 0
        assert a["mms.src_calls"]["value"] == 0
    elif workload == "mms":
        assert a["sources.quad_calls"]["value"] == 0
        assert a["mms.src_calls"]["value"] > 0
    else:
        assert marching == 0 and a["history.query_each_calls"]["value"] == 0
        assert a["stability.eigensolves"]["value"] > 0
        assert 0.0 < a["stability.pool_cpu_share"]["value"] <= 1.0
    if workload != "stability":
        assert marching > 0 and a["history.retained_mb"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "run", "--seed",
         "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
