"""Command-line driver: exit codes, file layout, and byte-level determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from eoscatter.cli import _fmt, main
from eoscatter.grid import MAX_FLOATS
from eoscatter.march import Scenario
from eoscatter.mms import Field

MAT1 = {"c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3, "gamma": 8.0}
MAT2 = {"mu1": 2.0, "nu1": 2.0, "mu0": 1.0, "nu0": 1.0,
        "alpha": -1.0, "beta": 0.3, "gamma": 8.0}
SRC = {"kind": "gaussian", "amplitude": 5.0, "x_center": 4.0,
       "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0}


def write_config(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_rows(path):
    """Provenance dict plus data rows of one output file."""
    lines = path.read_text().splitlines()
    prov = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return prov, header, rows


def test_scenarios_lists_the_six_presets(capsys):
    assert main(["scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("fig1-mms-m1", "fig2-run-m1", "fig3-mms-m2", "fig4-run-m2",
                 "stability-m1", "stability-m2"):
        assert name in out


def test_zero_source_run_is_exactly_zero(tmp_path):
    cfg = write_config(tmp_path, {
        "model": 1,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
        "material": MAT1,
        "t_end": 0.5,
        "output": {"dir": str(tmp_path / "out"), "snapshots": [0.25, 0.5]},
    })
    assert main(["run", cfg]) == 0
    for name in ("boundary.csv", "snapshot_0.25.csv", "snapshot_0.5.csv"):
        _, _, rows = read_rows(tmp_path / "out" / name)
        values = np.array(rows, dtype=float)
        assert np.all(values[:, 1:] == 0.0)


def test_run_outputs_have_the_documented_shape(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 2,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
        "material": MAT2,
        "t_end": 1.0,
        "source": {**SRC, "amplitude": 1.0, "t_center": 1.0},
        "output": {"dir": str(out), "snapshots": [1.0]},
    })
    assert main(["run", cfg]) == 0

    prov, header, rows = read_rows(out / "boundary.csv")
    assert header == ["t", "phi_a0", "phi_a1", "psi_a0", "psi_a1"]
    assert prov["model"] == 2 and prov["dt_cfl"] == 0.4
    assert "dir" not in prov["output"]
    times = np.array([r[0] for r in rows], dtype=float)
    # stepping covers t_end, overshooting by at most one step
    assert times[0] == 0.0
    assert 1.0 - 1e-12 <= times[-1] < 1.0 + (times[1] - times[0])

    _, header, rows = read_rows(out / "snapshot_1.0.csv")
    assert header == ["x", "phi", "psi", "rho", "j"]
    assert len(rows) == 42  # N internal nodes plus the two boundary rows
    xs = np.array([r[0] for r in rows], dtype=float)
    assert xs[0] == 0.0 and xs[-1] == 3.0
    assert np.all(np.diff(xs) > 0.0)
    # boundary rows carry no charge or current
    assert rows[0][3] == "0.0" and rows[0][4] == "0.0"
    assert rows[-1][3] == "0.0" and rows[-1][4] == "0.0"
    body = np.array(rows, dtype=float)
    assert np.all(np.isfinite(body))


def test_every_requested_snapshot_time_is_written(tmp_path):
    # 1.0 and 1.001 fall on one level (dt = 0.006): each gets its file of
    # that level, and a time requested twice gets one
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 100},
        "material": MAT1,
        "t_end": 1.5,
        "source": SRC,
        "output": {"dir": str(out), "snapshots": [1.0, 1.001, 1.5, 1.0]},
    })
    assert main(["run", cfg]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "boundary.csv", "snapshot_1.0.csv", "snapshot_1.001.csv", "snapshot_1.5.csv"]
    rows = [read_rows(out / f"snapshot_{t}.csv")[2] for t in (1.0, 1.001, 1.5)]
    assert rows[0] == rows[1] != rows[2]


def test_csv_cells_are_pinned():
    # every cell type a row may carry; floats, numpy's included, as the
    # shortest round-trip decimal
    row = (np.float64(0.1), 1e-20, -0.0, 3, np.int64(-7), "phi", np.float64(2.5e300),
           1.0 / 3.0, True)
    assert ",".join(map(_fmt, row)) == (
        "0.1,1e-20,-0.0,3,-7,phi,2.5e+300,0.3333333333333333,1.0")


def test_repeat_runs_are_byte_identical(tmp_path):
    data = {
        "model": 1,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 48},
        "material": MAT1,
        "t_end": 1.0,
        "source": SRC,
        "output": {"snapshots": [1.0]},
    }
    cfg = write_config(tmp_path, data)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", cfg, "--out", str(a)]) == 0
    assert main(["run", cfg, "--out", str(b)]) == 0
    for name in ("boundary.csv", "snapshot_1.0.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_mms_mode_writes_error_tables(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 50},
        "material": MAT1,
        "t_end": 0.8,
        "mms": {"n_ladder": [50, 100]},
        "output": {"dir": str(out)},
    })
    assert main(["mms", cfg]) == 0

    _, header, rows = read_rows(out / "errors.csv")
    assert header == ["field", "N", "dt", "linf", "l2", "order"]
    assert [r[0] for r in rows] == ["phi", "rho", "j"] * 2
    first, second = rows[:3], rows[3:]
    assert all(r[1] == "50" and r[5] == "" for r in first)
    assert all(r[1] == "100" for r in second)
    orders = [float(r[5]) for r in second]
    assert all(1.5 < p < 2.6 for p in orders)

    _, header, rows = read_rows(out / "trace_errors.csv")
    assert header == ["field", "N", "dt", "linf"]
    assert {r[0] for r in rows} == {"phi_a0", "phi_a1"}
    assert all(float(r[3]) < 1e-3 for r in rows)


@pytest.mark.parametrize("model", [1, 2])
def test_mms_reruns_are_byte_identical(tmp_path, model):
    cfg = write_config(tmp_path, {
        "model": model,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 50},
        "material": MAT1 if model == 1 else MAT2,
        "t_end": 0.6,
        "mms": {"n_ladder": [50, 100]},
    })
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["mms", cfg, "--out", str(a)]) == 0
    assert main(["mms", cfg, "--out", str(b)]) == 0
    for name in ("errors.csv", "trace_errors.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("model", [1, 2])
def test_mms_mode_builds_one_scenario_per_rung(tmp_path, monkeypatch, model):
    # the config builds each rung's scenario, quiet-start check included,
    # and the mms mode runs that scenario instead of building its own
    builds, quiet = [], []
    post_init, value = Scenario.__post_init__, Field.value

    def counted_post_init(self):
        builds.append(self.grid.n)
        post_init(self)

    def counted_value(self, x, t):
        if np.size(x) in (52, 102):  # the nodes and both ends: quiet start
            quiet.append(np.size(x) - 2)
        return value(self, x, t)

    monkeypatch.setattr(Scenario, "__post_init__", counted_post_init)
    monkeypatch.setattr(Field, "value", counted_value)
    cfg = write_config(tmp_path, {
        "model": model,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 50},
        "material": MAT1 if model == 1 else MAT2,
        "t_end": 0.2,
        "mms": {"n_ladder": [50, 100]},
    })
    assert main(["mms", cfg, "--out", str(tmp_path / "out")]) == 0
    assert builds == [50, 100]
    assert quiet == [50] * model + [100] * model  # once per potential


def test_mms_order_column_blank_when_ladder_jumps(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 50},
        "material": MAT1,
        "t_end": 0.6,
        "mms": {"n_ladder": [50, 200]},
        "output": {"dir": str(out)},
    })
    assert main(["mms", cfg]) == 0
    _, _, rows = read_rows(out / "errors.csv")
    assert all(r[5] == "" for r in rows)


def test_stability_mode_writes_window_and_samples(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1,
        "mode": "stability",
        "material": MAT1,
        "stability": {"N": 40, "epsilons": [0.5, 1.0], "scan_points": 16},
        "output": {"dir": str(out)},
    })
    assert main(["stability", cfg]) == 0

    _, header, rows = read_rows(out / "stability.csv")
    assert header == ["epsilon", "tau1", "tau2", "N", "model"]
    assert [r[0] for r in rows] == ["0.5", "1.0"]
    assert all(r[3] == "40" and r[4] == "1" for r in rows)
    for r in rows:
        tau1, tau2 = float(r[1]), float(r[2])
        assert 0.0 < tau1 < tau2 < 1.25

    _, header, rows = read_rows(out / "samples.csv")
    assert header == ["epsilon", "dt_over_cfl", "rho"]
    assert len(rows) == 32  # scan_points per epsilon


def test_stability_samples_file_is_optional(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1,
        "mode": "stability",
        "material": MAT1,
        "stability": {"N": 40, "epsilons": [1.0], "scan_points": 16,
                      "samples": False},
        "output": {"dir": str(out)},
    })
    assert main(["stability", cfg]) == 0
    assert (out / "stability.csv").exists()
    assert not (out / "samples.csv").exists()


@pytest.mark.parametrize("control", [{"bisect_tol": 0}, {"dt_max_factor": -1}])
def test_stability_rejects_scan_controls_that_cannot_finish(tmp_path, capsys,
                                                            control):
    cfg = write_config(tmp_path, {
        "model": 1,
        "mode": "stability",
        "material": MAT1,
        "stability": {"N": 24, "epsilons": [1.0], "scan_points": 16, **control},
        "output": {"dir": str(tmp_path / "out")},
    })
    assert main(["stability", cfg]) == 2
    ((key, value),) = control.items()
    assert capsys.readouterr().err == (f"config error: stability: {key} must be a "
                                       f"positive finite number, got {value!r}\n")


def test_cli_import_starts_no_thread_pool_module():
    import eoscatter

    src = str(Path(eoscatter.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, eoscatter.cli; "
            "print('concurrent.futures' in sys.modules, 'multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False False"


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {"model": 1, "bogus": 1})
    assert main(["run", bad]) == 2
    assert "bogus" in capsys.readouterr().err
    # an explicit mode key must agree with the subcommand
    ok = write_config(tmp_path, {
        "model": 1, "mode": "run", "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
        "material": MAT1, "t_end": 0.5}, name="run.json")
    assert main(["mms", ok]) == 2
    assert "does not match" in capsys.readouterr().err
    # a config file and a preset together are ambiguous
    assert main(["run", ok, "--preset", "fig2-run-m1"]) == 2
    # neither is an error too
    assert main(["run"]) == 2


# 10**400, as a message abbreviates it
HUGE = "100000000000000000...0000000000000000000"


@pytest.mark.parametrize("key, message", [
    ("t_end", f"'t_end' in config must be a positive finite number, got {HUGE}"),
    ("N", f"grid: N must be a finite integer >= 4, got {HUGE}"),
])
def test_a_huge_integer_is_a_config_error(tmp_path, capsys, key, message):
    # a 401-digit t_end or N raised OverflowError (float(v) in the parser,
    # GridSpec.dx) and exited 1 with a traceback
    data = {"model": 1, "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
            "material": MAT1, "t_end": 0.5, "output": {"dir": str(tmp_path / "out")}}
    (data["grid"] if key == "N" else data)[key] = 10**400
    assert main(["run", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_a_grid_whose_length_overflows_is_a_config_error(tmp_path, capsys):
    # a0 and a1 are finite but a1 - a0 is not: this marched a grid of inf nodes
    data = {"model": 1, "grid": {"a0": -1e308, "a1": 1e308, "N": 40},
            "material": MAT1, "t_end": 0.5, "output": {"dir": str(tmp_path / "out")}}
    assert main(["run", write_config(tmp_path, data)]) == 2
    assert capsys.readouterr().err == "config error: grid: a1 - a0 must be finite, got inf\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode, data, message", [
    ("run", {"grid": {"a0": 0.0, "a1": 3.0, "N": 100}, "t_end": 1e15},
     "at N = 100: t0, t_end and dt would need "),
    ("stability", {"stability": {"N": 1000000, "epsilons": [1.0]}},
     "stability: N = 1000000 would need 1000000000000 "),
])
def test_a_size_past_memory_is_a_config_error(tmp_path, capsys, mode, data, message):
    # the run's level series (1.16 EiB of times) and the scan's dense N x N
    # matrices (7.28 TiB) failed to allocate and exited 1 with a traceback
    data = {"model": 1, "mode": mode, "material": MAT1, **data,
            "output": {"dir": str(tmp_path / "out")}}
    assert main([mode, write_config(tmp_path, data)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message}") and err.count("\n") == 1
    assert err.endswith(" float64 numbers in one array, more than the "
                        f"{MAX_FLOATS} allowed\n")
    assert not (tmp_path / "out").exists()


def test_an_integer_too_long_to_read_is_a_config_error(tmp_path, capsys):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer of more digits than Python converts, which escaped as a traceback
    path = tmp_path / "long.json"
    path.write_text('{"model": 1, "t_end": ' + "9" * 5000 + "}")
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: config is not valid JSON: ")
    assert err.count("\n") == 1


def test_unusable_output_directory_is_a_config_error(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    for out in (blocker, blocker / "below"):
        code = main(["stability", "--preset", "stability-m1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot create output directory")
        assert "Traceback" not in err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("mode, name, block", [
    ("run", "boundary.csv", {"grid": {"a0": 0.0, "a1": 3.0, "N": 40}, "t_end": 0.5}),
    ("mms", "errors.csv", {"grid": {"a0": 0.0, "a1": 3.0, "N": 20}, "t_end": 0.5,
                           "mms": {"n_ladder": [20, 40]}}),
    ("stability", "samples.csv", {"stability": {"N": 16, "epsilons": [1.0],
                                                "scan_points": 16}}),
])
def test_an_output_file_that_cannot_be_written_is_a_config_error(
        tmp_path, capsys, mode, name, block):
    # a directory in the place of one output file: the run ended in an
    # IsADirectoryError traceback with exit 1
    out = tmp_path / "out"
    (out / name).mkdir(parents=True)
    cfg = write_config(tmp_path, {"model": 1, "mode": mode, "material": MAT1,
                                  **block})
    assert main([mode, cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output file: ")
    assert str(out / name) in err and err.count("\n") == 1


def test_run_mode_runs_the_configs_own_scenario(tmp_path, monkeypatch):
    from eoscatter import cli
    from eoscatter.config import resolve_config
    cfg = resolve_config({"model": 1, "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
                          "material": MAT1, "t_end": 0.5, "source": SRC})
    seen, real = [], cli.run_m1

    def runner(scn, snapshot_times=()):
        seen.append(scn)
        return real(scn, snapshot_times=snapshot_times)

    monkeypatch.setattr(cli, "run_m1", runner)
    assert cli._run_mode(cfg, tmp_path) == 0
    assert len(seen) == 1 and seen[0] is cfg.scenarios[0]


@pytest.mark.parametrize("block, key, value", [("current", "x_width", 0),
                                               ("pulse", "rate", -1)])
def test_degenerate_manufactured_fields_exit_2(tmp_path, capsys, block, key, value):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 1, "mode": "mms", "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
        "material": MAT1, "t_end": 0.5, "mms": {block: {key: value}},
        "output": {"dir": str(out)},
    })
    assert main(["mms", cfg]) == 2
    assert capsys.readouterr().err == (f"config error: mms.{block}: {key} must be "
                                       f"a positive finite number, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["run", "mms"])
def test_model2_step_past_the_transit_is_a_config_error(tmp_path, capsys, mode):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": 2,
        "mode": mode,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 100},
        "material": MAT2,
        "dt_cfl": 200.0,
        "t_end": 1.0,
        **({"mms": {"n_ladder": [8, 16]}} if mode == "mms" else {}),
        "output": {"dir": str(out)},
    })
    assert main([mode, cfg]) == 2
    n = 8 if mode == "mms" else 100
    assert f"at N = {n}: time step exceeds the boundary transit" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("model", [1, 2])
def test_divergent_run_exits_3_and_flushes_partials(tmp_path, capsys, model):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, {
        "model": model,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
        "material": MAT1 if model == 1 else MAT2,
        "dt_cfl": 2.0,  # far beyond the stable window
        "t_end": 4.0,
        "source": SRC,
        "output": {"dir": str(out), "snapshots": [0.2]},
    })
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["run", cfg])
    assert code == 3
    err = capsys.readouterr().err
    assert "step" in err
    # the boundary series written so far is finite and non-trivial
    _, header, rows = read_rows(out / "boundary.csv")
    pots = ["phi"] if model == 1 else ["phi", "psi"]
    assert header == ["t"] + [f"{p}_{side}" for p in pots for side in ("a0", "a1")]
    assert len(rows) > 2
    values = np.array(rows, dtype=float)
    assert np.all(np.isfinite(values))
    _, header, _ = read_rows(out / "snapshot_0.2.csv")
    assert header == ["x"] + pots + ["rho", "j"]


def test_a_ladder_that_diverges_on_its_second_rung_exits_3(tmp_path, capsys):
    # dt_cfl = 1.3 lies above the stretched grid's window: N = 20 reaches
    # t_end = 3 before the growth overflows, N = 40 does not
    mms = {"model": 1, "mode": "mms", "grid": {"a0": 0.0, "a1": 3.0, "N": 20},
           "material": MAT1, "t_end": 3.0, "dt_cfl": 1.3}
    one, two = tmp_path / "one", tmp_path / "two"
    cfg = write_config(tmp_path, {**mms, "mms": {"n_ladder": [20]}}, "one.json")
    assert main(["mms", cfg, "--out", str(one)]) == 0
    cfg = write_config(tmp_path, {**mms, "mms": {"n_ladder": [20, 40]}}, "two.json")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["mms", cfg, "--out", str(two)])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite fields at step ")
    assert err.endswith("(N = 40)\n")
    # the finished rung's rows are kept, as a ladder of that rung alone has them
    _, _, rows = read_rows(two / "errors.csv")
    assert [r[:2] for r in rows] == [["phi", "20"], ["rho", "20"], ["j", "20"]]
    assert rows == read_rows(one / "errors.csv")[2]


def test_numerical_failures_exit_4(tmp_path, monkeypatch, capsys):
    from eoscatter import cli
    from eoscatter.sources import QuadratureError
    from eoscatter.stability import EigenSolverError

    def fail(exc):
        def raiser(*args, **kw):
            raise exc
        return raiser

    monkeypatch.setattr(cli, "scan_stability",
                        fail(EigenSolverError("eigenvalue solve failed: stub")))
    cfg = write_config(tmp_path, {"model": 1, "mode": "stability",
                                  "material": MAT1}, "stab.json")
    assert main(["stability", cfg, "--out", str(tmp_path / "stab")]) == 4
    assert capsys.readouterr().err == "error: eigenvalue solve failed: stub\n"

    monkeypatch.setattr(cli, "run_m1", fail(QuadratureError("panel cap hit")))
    cfg = write_config(tmp_path, {"model": 1, "grid": {"a0": 0.0, "a1": 3.0, "N": 40},
                                  "material": MAT1, "t_end": 0.5, "source": SRC})
    assert main(["run", cfg, "--out", str(tmp_path / "run")]) == 4
    assert capsys.readouterr().err == "error: panel cap hit\n"


def test_preset_plumbing_with_out_override(tmp_path, monkeypatch):
    # the bundled presets run at figure scale; exercise the preset path with
    # a registry entry sized for a unit test
    from eoscatter import config as config_mod

    monkeypatch.setitem(config_mod.PRESETS, "tiny-stab", {
        "model": 1, "mode": "stability", "material": dict(MAT1),
        "stability": {"N": 24, "epsilons": [1.0], "scan_points": 16},
    })
    out = tmp_path / "stab"
    assert main(["stability", "--preset", "tiny-stab", "--out", str(out)]) == 0
    assert (out / "stability.csv").exists()
    with pytest.raises(SystemExit):
        main(["bogus-command"])


def test_missing_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_model2_preset_reruns_are_byte_identical(tmp_path, monkeypatch):
    from eoscatter import config as config_mod

    preset = json.loads(json.dumps(config_mod.PRESETS["fig4-run-m2"]))
    preset["grid"]["N"] = 400
    monkeypatch.setitem(config_mod.PRESETS, "fig4-run-m2", preset)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "fig4-run-m2", "--out", str(a)]) == 0
    assert main(["run", "--preset", "fig4-run-m2", "--out", str(b)]) == 0
    names = sorted(p.name for p in a.iterdir())
    assert names == ["boundary.csv"] + [f"snapshot_{t}.csv"
                                        for t in ("1.0", "2.0", "3.0", "4.0")]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
