"""Workload definitions: the jobs each workload runs and their seeded inputs.

Every workload runs one model-1 job and one model-2 job of the same CLI
subcommand.  Seed 0 is the built-in preset verbatim (copied here, so a later
edit of the program's presets does not change the benchmark's inputs).  Other
seeds jitter only inputs that leave the amount of work unchanged: N, dt_cfl,
t_end, the MMS N ladder and the epsilon endpoints stay fixed.
"""

from __future__ import annotations

import copy
import random

_MAT1 = {"c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3, "gamma": 8.0}
_MAT2 = {"mu1": 2.0, "nu1": 2.0, "mu0": 1.0, "nu0": 1.0,
         "alpha": -1.0, "beta": 0.3, "gamma": 8.0}

# The six CLI presets as of the commit that defined this benchmark.  The
# stability scans keep only the epsilon endpoints: one iteration with all five
# epsilons takes about 40 s on a 2-vCPU Xeon, too long for a benchmark run.
PRESETS = {
    "fig1-mms-m1": {
        "model": 1, "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT1), "t_end": 2.0,
        "mms": {"n_ladder": [100, 200, 400, 1600]},
    },
    "fig2-run-m1": {
        "model": 1, "mode": "run",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT1), "t_end": 4.0,
        "source": {"kind": "gaussian", "amplitude": 5.0, "x_center": 4.0,
                   "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0},
        "output": {"snapshots": [1.0, 2.0, 3.0, 4.0]},
    },
    "fig3-mms-m2": {
        "model": 2, "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT2), "t_end": 2.0,
        "mms": {"n_ladder": [100, 200, 400, 1600]},
    },
    "fig4-run-m2": {
        "model": 2, "mode": "run",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT2), "t_end": 4.0,
        "source": {"kind": "gaussian", "amplitude": 1.0, "x_center": 4.0,
                   "space_rate": 36.0, "t_center": 1.0, "time_rate": 4.0},
        "output": {"snapshots": [1.0, 2.0, 3.0, 4.0]},
    },
    "stability-m1": {
        "model": 1, "mode": "stability", "material": dict(_MAT1),
        "stability": {"N": 200, "epsilons": [0.0, 1.0]},
    },
    "stability-m2": {
        "model": 2, "mode": "stability", "material": dict(_MAT2),
        "stability": {"N": 200, "epsilons": [0.0, 1.0]},
    },
}

WORKLOADS = {
    "run": ("fig2-run-m1", "fig4-run-m2"),
    "mms": ("fig1-mms-m1", "fig3-mms-m2"),
    "stability": ("stability-m1", "stability-m2"),
}

# Working step (dt in units of dx/c1) that every stability window must hold.
WORKING_STEP = 0.4


def _quick(cfg: dict) -> dict:
    """Shrink a job to N <= 400 and a short t_end, for the smoke mode.  The
    MMS jobs keep t_end = 2: at t_end = 1 the N = 100 rung is not yet in the
    asymptotic range and the model-2 phi order reads 2.4."""
    if cfg["mode"] == "run":
        cfg["grid"]["N"] = 400
        cfg["t_end"] = 2.0   # past the 1.5 s slab crossing, for the causality check
        cfg["output"]["snapshots"] = [1.0, 2.0]
    elif cfg["mode"] == "mms":
        cfg["grid"]["N"] = 400
        cfg["mms"]["n_ladder"] = [100, 200, 400]
    else:
        cfg["stability"]["N"] = 50
    return cfg


def _jitter(cfg: dict, rng: random.Random) -> dict:
    mode = cfg["mode"]
    if mode == "run":
        src = cfg["source"]
        src["amplitude"] *= rng.uniform(0.8, 1.25)
        # The support starts exactly at a1 for the preset, and the validator
        # rejects a source reaching inside the slab: move it right only.
        src["x_center"] += rng.uniform(0.0, 0.05)
        src["t_center"] += rng.uniform(-0.05, 0.05)
    elif mode == "mms":
        block = cfg["mms"]
        # Model 2's psi pulse follows this one, as in the preset: with psi's
        # amplitude 0.87 and phi's 1.18 the model-2 orders drop to 1.4-1.5.
        block["pulse"] = {"amplitude": rng.uniform(0.8, 1.25),
                          "center": 6.0 + rng.uniform(-0.05, 0.05)}
        block["current"] = {"amplitude": rng.uniform(0.8, 1.25)}
        block["charge"] = {"amplitude": rng.uniform(0.8, 1.25)}
    else:
        # Windows are measured in units of dx/c1, so the speeds change the
        # matrices' entries but neither the windows nor the work.
        mat = cfg["material"]
        for key in ("c1", "mu1", "nu1"):
            if key in mat:
                mat[key] *= rng.uniform(0.8, 1.25)
        cfg["stability"]["dt_max_factor"] = rng.uniform(1.2, 1.3)
    return cfg


def jobs(workload: str, seed: int, quick: bool = False) -> list[dict]:
    """The workload's jobs for ``seed``: ``[{"name", "preset", "config"}]``.

    The same seed always gives the same configurations.
    """
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for preset in WORKLOADS[workload]:
        cfg = copy.deepcopy(PRESETS[preset])
        if quick:
            cfg = _quick(cfg)
        if seed != 0:
            cfg = _jitter(cfg, rng)
        out.append({"name": f"m{cfg['model']}", "preset": preset,
                    "config": cfg})
    return out
