"""Output checks for one job's CSV files.

Checks that hold for any seed: the job exited 0, every number is finite,
the boundary traces are zero before the incident wavefront can have arrived,
MMS orders on clean N-doublings lie in (1.8, 2.2), and every stability window
holds the working step.  For seed 0 the outputs are also compared with the
reference stored beside this file (see ``make_reference.py``): boundary
traces within 1e-9 of max|trace|, finest-rung MMS errors within 1%, and
stability windows within ``bisect_tol``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from workloads import WORKING_STEP

REFERENCE = Path(__file__).resolve().parent / "reference.json"
TRACE_STRIDE = 32         # reference keeps every 32nd boundary row
TRACE_REL_TOL = 1e-9      # of max|trace|
LINF_REL_TOL = 0.01
ORDER_BAND = (1.8, 2.2)
# Left-trace precursor allowed before the signal can cross the slab: the
# interior stencil leaks numerical dust ahead of it (the acceptance test pins
# 1e-15 at N = 1600; at N = 400 it reaches 9e-15).
PRECURSOR_REL = 1e-12


def read_csv(path: Path):
    """``(header, rows)`` of an output file; the provenance line is skipped."""
    lines = path.read_text().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path.name}: missing provenance line")
    header = lines[1].split(",")
    return header, [line.split(",") for line in lines[2:]]


def _floats(rows, cols=None):
    return [[float(v) for i, v in enumerate(r) if cols is None or i in cols]
            for r in rows]


def _finite(values) -> bool:
    return all(math.isfinite(v) for row in values for v in row)


# ---------------------------------------------------------------------------
# summaries: what a reference keeps of one job's outputs
# ---------------------------------------------------------------------------

def summarize(cfg: dict, out: Path) -> dict:
    mode = cfg["mode"]
    if mode == "run":
        header, rows = read_csv(out / "boundary.csv")
        data = _floats(rows)
        kept = data[::TRACE_STRIDE]
        if (len(data) - 1) % TRACE_STRIDE:
            kept.append(data[-1])
        return {"columns": header, "levels": len(data), "rows": kept}
    if mode == "mms":
        _, rows = read_csv(out / "errors.csv")
        finest = max(int(r[1]) for r in rows)
        return {"finest_n": finest,
                "linf": {r[0]: float(r[3]) for r in rows if int(r[1]) == finest}}
    _, rows = read_csv(out / "stability.csv")
    return {"windows": [[float(r[0]), float(r[1]), float(r[2])] for r in rows]}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _speeds(cfg: dict):
    """``(c1, c0)`` of the config's material."""
    m = cfg["material"]
    if cfg["model"] == 1:
        return m["c1"], m["c0"]
    return math.sqrt(m["mu1"] * m["nu1"]), math.sqrt(m["mu0"] * m["nu0"])


def _check_run(cfg: dict, out: Path, ref) -> list[str]:
    fails = []
    header, rows = read_csv(out / "boundary.csv")
    data = _floats(rows)
    if not data or not _finite(data):
        return ["boundary.csv: empty or non-finite"]
    col = {name: [r[i] for r in data] for i, name in enumerate(header)}
    t = col["t"]
    if t[0] != 0.0 or t[-1] < cfg["t_end"] - 1e-9:
        fails.append(f"boundary.csv: times run {t[0]}..{t[-1]}, "
                     f"not 0..{cfg['t_end']}")
    dt = t[1] - t[0]

    # Causality: the support starts at x_center - 6/sqrt(space_rate).
    g, src = cfg["grid"], cfg["source"]
    c1, c0 = _speeds(cfg)
    lo = src["x_center"] - 6.0 / math.sqrt(src["space_rate"])
    arrival = (lo - g["a1"]) / c0
    crossed = arrival + (g["a1"] - g["a0"]) / c1 - dt
    for name in header[1:]:
        series = col[name]
        peak = max(abs(v) for v in series)
        if peak == 0.0:
            fails.append(f"{name}: identically zero")
        elif name.endswith("_a1"):
            early = [v for tk, v in zip(t, series) if tk <= arrival and v != 0.0]
            if early:
                fails.append(f"{name}: nonzero before the incident arrival")
        elif t[-1] > crossed:
            early = max((abs(v) for tk, v in zip(t, series) if tk < crossed),
                        default=0.0)
            if early > PRECURSOR_REL * peak:
                fails.append(f"{name}: {early / peak:.2e} of max before the "
                             "incident signal can cross the slab")

    for t_snap in cfg["output"]["snapshots"]:
        path = out / f"snapshot_{float(t_snap)!r}.csv"
        if not path.exists():
            fails.append(f"{path.name}: missing")
            continue
        _, srows = read_csv(path)
        if len(srows) != g["N"] + 2 or not _finite(_floats(srows)):
            fails.append(f"{path.name}: wrong row count or non-finite")

    if ref is not None:
        if ref["columns"] != header or ref["levels"] != len(data):
            fails.append("boundary.csv: layout differs from the reference")
        else:
            kept = summarize(cfg, out)["rows"]
            for i, name in enumerate(header[1:], start=1):
                scale = max(abs(r[i]) for r in ref["rows"])
                worst = max(abs(a[i] - b[i]) for a, b in zip(kept, ref["rows"]))
                if worst > TRACE_REL_TOL * scale:
                    fails.append(f"{name}: {worst / scale:.2e} of max|trace| "
                                 "from the reference")
    return fails


def _check_mms(cfg: dict, out: Path, ref) -> list[str]:
    fails = []
    _, rows = read_csv(out / "errors.csv")
    ladder = cfg["mms"]["n_ladder"]
    by_field: dict = {}
    for r in rows:
        by_field.setdefault(r[0], []).append(r)
    expected = 3 if cfg["model"] == 1 else 4
    if len(by_field) != expected:
        fails.append(f"errors.csv: {len(by_field)} fields, not {expected}")
    for name, frows in by_field.items():
        if [int(r[1]) for r in frows] != ladder:
            fails.append(f"{name}: rungs differ from the N ladder")
            continue
        if not _finite(_floats(frows, cols=(2, 3, 4))):
            fails.append(f"{name}: non-finite errors")
        for prev, r in zip(frows, frows[1:]):
            if int(r[1]) != 2 * int(prev[1]):
                continue
            order = float(r[5]) if r[5] else math.nan
            if not ORDER_BAND[0] < order < ORDER_BAND[1]:
                fails.append(f"{name}: order {order} at N={r[1]} outside "
                             f"{ORDER_BAND}")
    _, trows = read_csv(out / "trace_errors.csv")
    if not trows or not _finite(_floats(trows, cols=(2, 3))):
        fails.append("trace_errors.csv: empty or non-finite")
    if ref is not None:
        got = summarize(cfg, out)
        for name, want in ref["linf"].items():
            have = got["linf"].get(name, math.nan)
            if not abs(have - want) <= LINF_REL_TOL * want:
                fails.append(f"{name}: Linf {have} at N={ref['finest_n']}, "
                             f"reference {want}")
    return fails


def _check_stability(cfg: dict, out: Path, ref) -> list[str]:
    fails = []
    _, rows = read_csv(out / "stability.csv")
    windows = _floats(rows, cols=(0, 1, 2))
    if [w[0] for w in windows] != cfg["stability"]["epsilons"]:
        fails.append("stability.csv: epsilons differ from the config")
    for eps, tau1, tau2 in windows:
        if not tau1 < WORKING_STEP < tau2:
            fails.append(f"eps={eps}: window ({tau1}, {tau2}) misses "
                         f"{WORKING_STEP}")
    if ref is not None:
        tol = cfg["stability"].get("bisect_tol", 1e-4)
        if len(ref["windows"]) != len(windows):
            fails.append("stability.csv: window count differs from the reference")
        for got, want in zip(windows, ref["windows"]):
            for a, b in zip(got[1:], want[1:]):
                if not abs(a - b) <= tol * b:
                    fails.append(f"eps={got[0]}: tau {a}, reference {b}")
    return fails


def check_job(cfg: dict, out: Path, rc: int, ref=None) -> list[str]:
    """Failure messages for one job's outputs; empty when it passed.

    ``ref`` is the job's reference summary, or None to skip that comparison.
    """
    if rc != 0:
        return [f"exit code {rc}"]
    check = {"run": _check_run, "mms": _check_mms,
             "stability": _check_stability}[cfg["mode"]]
    try:
        return check(cfg, Path(out), ref)
    except (OSError, ValueError, IndexError, KeyError) as exc:
        return [f"unreadable output: {exc!r}"]


def load_reference(size: str, workload: str, job: str):
    """Stored seed-0 summary of one job, or None if there is none."""
    if not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text()).get(size, {}).get(workload, {}).get(job)
