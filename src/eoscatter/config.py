"""Scenario configuration: JSON schema, defaults, and the preset registry.

A configuration resolves to plain dataclasses from the other modules plus a
fully-expanded dictionary (every applied default made explicit) that the CSV
writers embed as a provenance header, so an output file always records the
exact inputs that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .grid import GridSpec, Material1, Material2
from .mms import ArctanGaussianPulse, GaussianBump, ManufacturedFields1, ManufacturedFields2
from .model2 import check_step
from .sources import GaussianSource, TabulatedSource
from .stability import DEFAULT_BISECT_TOL, DEFAULT_DT_MAX_FACTOR, DEFAULT_SCAN_POINTS

DEFAULT_DT_CFL = 0.4
DEFAULT_EPSILON = 1.0
DEFAULT_STABILITY_N = 200
DEFAULT_EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)

MODES = ("run", "mms", "stability")


class ConfigError(ValueError):
    """A configuration could not be parsed or validated."""


def _require_mapping(obj, where: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object")
    return obj

def _reject_unknown(block: dict, allowed, where: str) -> None:
    extra = sorted(set(block) - set(allowed))
    if extra:
        raise ConfigError(f"unknown key '{extra[0]}' in {where}")


def _number(block, key, where, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"'{key}' in {where} must be a number")
    v = float(v)
    if not math.isfinite(v):
        raise ConfigError(f"'{key}' in {where} must be finite")
    return v


def _integer(block, key, where, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    v = block[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"'{key}' in {where} must be an integer")
    return v


@dataclass(frozen=True)
class StabilityControls:
    """Scan controls for the stability mode."""

    n: int = DEFAULT_STABILITY_N
    epsilons: tuple = DEFAULT_EPSILONS
    dt_max_factor: float = DEFAULT_DT_MAX_FACTOR
    scan_points: int = DEFAULT_SCAN_POINTS
    bisect_tol: float = DEFAULT_BISECT_TOL
    write_samples: bool = True


@dataclass(frozen=True)
class RunConfig:
    """A validated scenario: objects ready to run plus the resolved dict."""

    model: int
    mode: str
    grid: GridSpec | None
    mat: object
    dt_cfl: float
    t_end: float | None
    source: object | None
    mms: object | None
    n_ladder: tuple | None
    stability: StabilityControls | None
    snapshot_times: tuple
    out_dir: str
    resolved: dict = field(repr=False, default_factory=dict)

    def step(self, grid: GridSpec) -> float:
        """The time step ``dt_cfl * dx / c1`` on ``grid``."""
        return self.dt_cfl * grid.dx / self.mat.c1

    @property
    def dt(self) -> float:
        return self.step(self.grid)

    def provenance(self) -> dict:
        """Resolved config minus anything that cannot affect the numbers
        (currently just the output directory)."""
        out = dict(self.resolved)
        out["output"] = {"snapshots": list(self.snapshot_times)}
        return out


def _parse_grid(block, where="grid") -> GridSpec:
    block = _require_mapping(block, where)
    _reject_unknown(block, ("a0", "a1", "N", "epsilon"), where)
    a0 = _number(block, "a0", where, required=True)
    a1 = _number(block, "a1", where, required=True)
    n = _integer(block, "N", where, required=True)
    eps = _number(block, "epsilon", where, default=DEFAULT_EPSILON)
    try:
        return GridSpec(a0=a0, a1=a1, n=n, epsilon=eps)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_material(block, model: int, where="material"):
    block = _require_mapping(block, where)
    if model == 1:
        keys = ("c1", "c0", "alpha", "beta", "gamma")
        _reject_unknown(block, keys, where)
        vals = {k: _number(block, k, where, required=True) for k in keys}
        cls = Material1
    else:
        keys = ("mu1", "nu1", "mu0", "nu0", "alpha", "beta", "gamma")
        _reject_unknown(block, keys, where)
        vals = {k: _number(block, k, where, required=True) for k in keys}
        cls = Material2
    try:
        return cls(**vals)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_source(block, where="source"):
    if block is None:
        return None
    block = _require_mapping(block, where)
    kind = block.get("kind", "gaussian")
    if kind == "gaussian":
        keys = ("kind", "amplitude", "x_center", "space_rate", "t_center",
                "time_rate", "support")
        _reject_unknown(block, keys, where)
        support = block.get("support")
        if support is not None:
            if (not isinstance(support, (list, tuple)) or len(support) != 2
                    or not all(isinstance(v, (int, float)) for v in support)):
                raise ConfigError(f"'support' in {where} must be [lo, hi]")
            support = (float(support[0]), float(support[1]))
        try:
            return GaussianSource(
                amplitude=_number(block, "amplitude", where, required=True),
                x_center=_number(block, "x_center", where, required=True),
                space_rate=_number(block, "space_rate", where, required=True),
                t_center=_number(block, "t_center", where, required=True),
                time_rate=_number(block, "time_rate", where, required=True),
                support=support,
            )
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    if kind == "tabulated":
        _reject_unknown(block, ("kind", "path"), where)
        path = block.get("path")
        if not isinstance(path, str):
            raise ConfigError(f"missing key 'path' in {where}")
        try:
            return TabulatedSource.from_csv(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"'kind' in {where} must be 'gaussian' or 'tabulated'")


_PULSE_KEYS = ("amplitude", "ramp_rate", "rate", "drift", "center", "t_shift")
_BUMP_KEYS = ("amplitude", "x_center", "x_width", "t_center", "t_width")


def _parse_pulse(block, where, defaults: ArctanGaussianPulse) -> ArctanGaussianPulse:
    block = _require_mapping(block, where)
    _reject_unknown(block, _PULSE_KEYS, where)
    vals = {k: _number(block, k, where, default=getattr(defaults, k))
            for k in _PULSE_KEYS}
    try:
        return ArctanGaussianPulse(**vals)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_bump(block, where, defaults: GaussianBump) -> GaussianBump:
    block = _require_mapping(block, where)
    _reject_unknown(block, _BUMP_KEYS, where)
    vals = {k: _number(block, k, where, default=getattr(defaults, k))
            for k in _BUMP_KEYS}
    try:
        return GaussianBump(**vals)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _parse_mms(block, model: int, grid: GridSpec, where="mms"):
    block = _require_mapping(block if block is not None else {}, where)
    allowed = ["pulse", "current", "charge", "n_ladder"]
    if model == 2:
        allowed.append("pulse_psi")
    _reject_unknown(block, allowed, where)
    demo = ManufacturedFields1.demo() if model == 1 else ManufacturedFields2.demo()
    pulse = _parse_pulse(block.get("pulse", {}), f"{where}.pulse", demo.phi)
    current = _parse_bump(block.get("current", {}), f"{where}.current", demo.j)
    charge = _parse_bump(block.get("charge", {}), f"{where}.charge", demo.rho)
    if model == 1:
        exact = ManufacturedFields1(phi=pulse, j=current, rho=charge)
    else:
        psi = _parse_pulse(block.get("pulse_psi", block.get("pulse", {})),
                           f"{where}.pulse_psi", demo.psi)
        exact = ManufacturedFields2(phi=pulse, psi=psi, j=current, rho=charge)
    ladder = block.get("n_ladder")
    if ladder is None:
        ladder = [grid.n]
    if (not isinstance(ladder, list) or not ladder
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in ladder)):
        raise ConfigError(f"'n_ladder' in {where} must be a list of integers")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"'n_ladder' in {where} must increase")
    if min(ladder) < 4:
        raise ConfigError(f"{where}: N must be >= 4")
    return exact, tuple(ladder)


def _parse_stability(block, where="stability") -> StabilityControls:
    block = _require_mapping(block if block is not None else {}, where)
    _reject_unknown(block, ("N", "epsilons", "dt_max_factor", "scan_points",
                            "bisect_tol", "samples"), where)
    eps = block.get("epsilons", list(DEFAULT_EPSILONS))
    if (not isinstance(eps, list) or not eps
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in eps)):
        raise ConfigError(f"'epsilons' in {where} must be a list of numbers")
    eps = tuple(float(v) for v in eps)
    if any(not 0.0 <= v <= 1.0 for v in eps):
        raise ConfigError(f"'epsilons' in {where} must lie in [0, 1]")
    n = _integer(block, "N", where, default=DEFAULT_STABILITY_N)
    if n < 4:
        raise ConfigError(f"{where}: N must be >= 4")
    scan_points = _integer(block, "scan_points", where,
                           default=DEFAULT_SCAN_POINTS)
    if scan_points < 16:
        raise ConfigError(f"'scan_points' in {where} must be >= 16")
    factor = _number(block, "dt_max_factor", where, default=DEFAULT_DT_MAX_FACTOR)
    tol = _number(block, "bisect_tol", where, default=DEFAULT_BISECT_TOL)
    for key, v in (("dt_max_factor", factor), ("bisect_tol", tol)):
        if not v > 0.0:
            raise ConfigError(f"'{key}' in {where} must be positive")
    samples = block.get("samples", True)
    if not isinstance(samples, bool):
        raise ConfigError(f"'samples' in {where} must be true or false")
    return StabilityControls(
        n=n,
        epsilons=eps,
        dt_max_factor=factor,
        scan_points=scan_points,
        bisect_tol=tol,
        write_samples=samples,
    )


def _parse_output(block, where="output"):
    block = _require_mapping(block if block is not None else {}, where)
    _reject_unknown(block, ("dir", "snapshots"), where)
    out_dir = block.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"'dir' in {where} must be a string")
    snaps = block.get("snapshots", [])
    if (not isinstance(snaps, list)
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                       for v in snaps)):
        raise ConfigError(f"'snapshots' in {where} must be a list of times")
    return out_dir, tuple(float(v) for v in snaps)


def _source_dict(source, block) -> dict | None:
    """The resolved source; a tabulated one keeps the CSV path ``block`` gave."""
    if source is None:
        return None
    if isinstance(source, GaussianSource):
        return {
            "kind": "gaussian",
            "amplitude": source.amplitude,
            "x_center": source.x_center,
            "space_rate": source.space_rate,
            "t_center": source.t_center,
            "time_rate": source.time_rate,
            "support": list(source.support),
        }
    return {"kind": "tabulated", "path": block["path"]}


def _mms_dict(exact, ladder) -> dict:
    def pulse(p):
        return {k: getattr(p, k) for k in _PULSE_KEYS}

    def bump(b):
        return {k: getattr(b, k) for k in _BUMP_KEYS}

    out = {"pulse": pulse(exact.phi), "current": bump(exact.j),
           "charge": bump(exact.rho), "n_ladder": list(ladder)}
    if hasattr(exact, "psi"):
        out["pulse_psi"] = pulse(exact.psi)
    return out


def resolve_config(data: dict, default_mode: str = "run") -> RunConfig:
    """Validate a configuration mapping and apply all defaults."""
    data = _require_mapping(data, "config")
    _reject_unknown(data, ("model", "mode", "grid", "material", "dt_cfl",
                           "t_end", "source", "mms", "stability", "output"),
                    "config")
    model = _integer(data, "model", "config", required=True)
    if model not in (1, 2):
        raise ConfigError("'model' in config must be 1 or 2")
    mode = data.get("mode", default_mode)
    if mode not in MODES:
        raise ConfigError("'mode' in config must be one of run, mms, stability")

    mat = _parse_material(data.get("material"), model) if "material" in data \
        else _missing("material")

    grid = None
    if mode == "stability":
        # A stability run's provenance records no grid or t_end as null.
        data = {k: v for k, v in data.items()
                if not (k in ("grid", "t_end") and v is None)}
        if "grid" in data:
            grid = _parse_grid(data["grid"])
    else:
        if "grid" not in data:
            _missing("grid")
        grid = _parse_grid(data["grid"])

    dt_cfl = _number(data, "dt_cfl", "config", default=DEFAULT_DT_CFL)
    if not dt_cfl > 0.0:
        raise ConfigError("'dt_cfl' in config must be positive")

    t_end = _number(data, "t_end", "config")
    if mode in ("run", "mms"):
        if t_end is None:
            raise ConfigError("missing key 't_end' in config")
        if not t_end > 0.0:
            raise ConfigError("'t_end' in config must be positive")

    source = None
    if data.get("source") is not None:
        if mode != "run":
            raise ConfigError("'source' in config is only meaningful in run mode")
        source = _parse_source(data["source"])
        lo = source.support[0]
        if lo < grid.a1 - 1e-12:
            raise ConfigError(
                "source: support must lie beyond the right boundary "
                f"(support starts at {lo!r}, boundary at {grid.a1!r})")

    exact = ladder = None
    if mode == "mms":
        exact, ladder = _parse_mms(data.get("mms"), model, grid)
    elif "mms" in data and data["mms"] is not None:
        raise ConfigError("'mms' in config is only meaningful in mms mode")

    stability = None
    if mode == "stability":
        stability = _parse_stability(data.get("stability"))
    elif "stability" in data and data["stability"] is not None:
        raise ConfigError("'stability' in config is only meaningful in stability mode")

    out_dir, snapshots = _parse_output(data.get("output"))
    if grid is not None and t_end is not None:
        for t in snapshots:
            if not 0.0 <= t <= t_end + 1e-12:
                raise ConfigError(f"snapshot time {t!r} outside [0, t_end]")

    resolved = {
        "model": model,
        "mode": mode,
        "grid": None if grid is None else {"a0": grid.a0, "a1": grid.a1,
                                           "N": grid.n, "epsilon": grid.epsilon},
        "material": {k: getattr(mat, k) for k in
                     (("c1", "c0", "alpha", "beta", "gamma") if model == 1 else
                      ("mu1", "nu1", "mu0", "nu0", "alpha", "beta", "gamma"))},
        "dt_cfl": dt_cfl,
        "t_end": t_end,
        "source": _source_dict(source, data.get("source")),
        "mms": None if exact is None else _mms_dict(exact, ladder),
        "stability": None if stability is None else {
            "N": stability.n,
            "epsilons": list(stability.epsilons),
            "dt_max_factor": stability.dt_max_factor,
            "scan_points": stability.scan_points,
            "bisect_tol": stability.bisect_tol,
            "samples": stability.write_samples,
        },
        "output": {"dir": out_dir, "snapshots": list(snapshots)},
    }
    cfg = RunConfig(model=model, mode=mode, grid=grid, mat=mat,
                    dt_cfl=dt_cfl, t_end=t_end, source=source, mms=exact,
                    n_ladder=ladder, stability=stability,
                    snapshot_times=snapshots, out_dir=out_dir,
                    resolved=resolved)
    if model == 2 and mode != "stability":
        # on every grid the mode marches
        for n in ladder if mode == "mms" else (grid.n,):
            g = replace(grid, n=n)
            try:
                check_step(cfg.step(g), g, mat)
            except ValueError as exc:
                raise ConfigError(
                    f"'dt_cfl' in config, at N = {n}: {exc}") from None
    return cfg


def _missing(key):
    raise ConfigError(f"missing key '{key}' in config")


def parse_config(path, default_mode: str = "run") -> RunConfig:
    """Load and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return resolve_config(data, default_mode=default_mode)


# ---------------------------------------------------------------------------
# built-in scenarios
# ---------------------------------------------------------------------------

_MAT1_DEMO = {"c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3, "gamma": 8.0}
_MAT2_DEMO = {"mu1": 2.0, "nu1": 2.0, "mu0": 1.0, "nu0": 1.0,
              "alpha": -1.0, "beta": 0.3, "gamma": 8.0}

PRESETS: dict[str, dict] = {
    "fig1-mms-m1": {
        "model": 1,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT1_DEMO),
        "t_end": 2.0,
        "mms": {"n_ladder": [100, 200, 400, 1600]},
    },
    "fig2-run-m1": {
        "model": 1,
        "mode": "run",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT1_DEMO),
        "t_end": 4.0,
        "source": {"kind": "gaussian", "amplitude": 5.0, "x_center": 4.0,
                   "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0},
        "output": {"snapshots": [1.0, 2.0, 3.0, 4.0]},
    },
    "fig3-mms-m2": {
        "model": 2,
        "mode": "mms",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT2_DEMO),
        "t_end": 2.0,
        "mms": {"n_ladder": [100, 200, 400, 1600]},
    },
    "fig4-run-m2": {
        "model": 2,
        "mode": "run",
        "grid": {"a0": 0.0, "a1": 3.0, "N": 1600},
        "material": dict(_MAT2_DEMO),
        "t_end": 4.0,
        "source": {"kind": "gaussian", "amplitude": 1.0, "x_center": 4.0,
                   "space_rate": 36.0, "t_center": 1.0, "time_rate": 4.0},
        "output": {"snapshots": [1.0, 2.0, 3.0, 4.0]},
    },
    "stability-m1": {
        "model": 1,
        "mode": "stability",
        "material": dict(_MAT1_DEMO),
        "stability": {"N": 200, "epsilons": [0.0, 0.25, 0.5, 0.75, 1.0]},
    },
    "stability-m2": {
        "model": 2,
        "mode": "stability",
        "material": dict(_MAT2_DEMO),
        "stability": {"N": 200, "epsilons": [0.0, 0.25, 0.5, 0.75, 1.0]},
    },
}


def load_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        known = ", ".join(PRESETS)
        raise ConfigError(f"unknown preset '{name}' (expected one of: {known})")
    data = json.loads(json.dumps(PRESETS[name]))  # deep copy
    return resolve_config(data, default_mode=data.get("mode", "run"))
