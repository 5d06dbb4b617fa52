"""Scenario configuration: JSON schema, defaults, and the preset registry.

A configuration resolves to plain dataclasses from the other modules plus a
fully-expanded dictionary (every applied default made explicit) that the CSV
writers embed as a provenance header, so an output file always records the
exact inputs that produced it.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .grid import GridSpec
from .mms import ErrorReport, mms_report
from .sources import GaussianSource, TabulatedSource
# SCENARIOS, the map from model number to scenario class, and its check of
# the model number are the stability lab's: the lowest module that imports
# both models
from .stability import (DEFAULT_BISECT_TOL, DEFAULT_DT_MAX_FACTOR,
                        DEFAULT_SCAN_POINTS, SCENARIOS, _model_scenario)

DEFAULT_DT_CFL = 0.4
DEFAULT_EPSILON = 1.0
DEFAULT_STABILITY_N = 200
DEFAULT_EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)

MODES = ("run", "mms", "stability")


def mms_run(model: int, exact, grid, mat, dt: float, t_end: float) -> ErrorReport:
    """:func:`mms_report` of the model's scenario built from these inputs."""
    return mms_report(_model_scenario(model)(grid=grid, mat=mat, dt=dt, t_end=t_end,
                                             mms=exact))


# The mms blocks and the manufactured fields they set, in parse order;
# ``pulse_psi`` is read only by a model with a ``psi`` potential.
_MMS_BLOCKS = {"pulse": "phi", "current": "j", "charge": "rho", "pulse_psi": "psi"}


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


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(block, key, where, default=None, required=False):
    if key not in block:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    v = block[key]
    if not _is_number(v):
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


def _build(cls, block, where: str, defaults=None, **given):
    """A ``cls`` from ``block``, whose keys are the fields of ``cls``.

    Each field not in ``given`` is read as a number: required when
    ``defaults`` is None, otherwise defaulting to that instance's value.
    """
    block = _require_mapping(block, where)
    names = [f.name for f in fields(cls)]
    _reject_unknown(block, names, where)
    vals = {k: _number(block, k, where, default=getattr(defaults, k, None),
                       required=defaults is None)
            for k in names if k not in given}
    try:
        return cls(**vals, **given)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


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
    """A validated scenario: objects ready to run plus the resolved dict.
    ``scenarios`` has the model's scenario per grid the mode marches."""

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
    scenarios: tuple = field(repr=False, compare=False, default=())

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


def _parse_source(block, where="source"):
    if block is None:
        return None
    block = _require_mapping(block, where)
    kind = block.get("kind", "gaussian")
    if kind == "gaussian":
        support = block.get("support")
        if support is not None:
            if (not isinstance(support, (list, tuple)) or len(support) != 2
                    or not all(map(_is_number, support))):
                raise ConfigError(f"'support' in {where} must be [lo, hi]")
            support = (float(support[0]), float(support[1]))
        params = {k: v for k, v in block.items() if k != "kind"}
        return _build(GaussianSource, params, where, support=support)
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


def _parse_mms(block, scn_cls, grid: GridSpec, where="mms"):
    block = _require_mapping(block if block is not None else {}, where)
    names = scn_cls.potentials + ("rho", "j")
    blocks = {key: name for key, name in _MMS_BLOCKS.items() if name in names}
    _reject_unknown(block, [*blocks, "n_ladder"], where)
    demo, parts = scn_cls.manufactured.demo(), {}
    for key, name in blocks.items():
        default = getattr(demo, name)
        # psi's pulse follows phi's unless given
        given = block.get(key, block.get("pulse", {}) if key == "pulse_psi" else {})
        parts[name] = _build(type(default), given, f"{where}.{key}", default)
    exact = scn_cls.manufactured(**parts)
    ladder = block.get("n_ladder")
    if ladder is None:
        ladder = [grid.n]
    if (not isinstance(ladder, list) or not ladder
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in ladder)):
        raise ConfigError(f"'n_ladder' in {where} must be a list of integers")
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"'n_ladder' in {where} must increase")
    return exact, tuple(ladder)


def _parse_stability(block, where="stability") -> StabilityControls:
    block = _require_mapping(block if block is not None else {}, where)
    _reject_unknown(block, ("N", "epsilons", "dt_max_factor", "scan_points",
                            "bisect_tol", "samples"), where)
    eps = block.get("epsilons", list(DEFAULT_EPSILONS))
    if not isinstance(eps, list) or not eps or not all(map(_is_number, eps)):
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
    if not isinstance(snaps, list) or not all(map(_is_number, snaps)):
        raise ConfigError(f"'snapshots' in {where} must be a list of times")
    return out_dir, tuple(float(v) for v in snaps)


def _source_dict(source, block) -> dict | None:
    """The resolved source; a tabulated one keeps the CSV path ``block`` gave."""
    if source is None:
        return None
    if isinstance(source, GaussianSource):
        return {"kind": "gaussian", **asdict(source), "support": list(source.support)}
    return {"kind": "tabulated", "path": block["path"]}


def resolve_config(data: dict, default_mode: str = "run") -> RunConfig:
    """Validate a configuration mapping and apply all defaults."""
    data = _require_mapping(data, "config")
    _reject_unknown(data, ("model", "mode", "grid", "material", "dt_cfl",
                           "t_end", "source", "mms", "stability", "output"),
                    "config")
    model = _integer(data, "model", "config", required=True)
    if model not in SCENARIOS:
        raise ConfigError("'model' in config must be 1 or 2")
    scn_cls = SCENARIOS[model]
    mode = data.get("mode", default_mode)
    if mode not in MODES:
        raise ConfigError("'mode' in config must be one of run, mms, stability")

    mat = _build(scn_cls.material, data.get("material"), "material") \
        if "material" in data else _missing("material")

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

    for key, only in (("source", "run"), ("mms", "mms"), ("stability", "stability")):
        if data.get(key) is not None and mode != only:
            raise ConfigError(f"'{key}' in config is only meaningful in {only} mode")
    source = _parse_source(data.get("source"))
    exact = ladder = stability = None
    if mode == "mms":
        exact, ladder = _parse_mms(data.get("mms"), scn_cls, grid)
    if mode == "stability":
        stability = _parse_stability(data.get("stability"))
    out_dir, snapshots = _parse_output(data.get("output"))

    resolved = {
        "model": model,
        "mode": mode,
        "grid": None if grid is None else {"a0": grid.a0, "a1": grid.a1,
                                           "N": grid.n, "epsilon": grid.epsilon},
        "material": asdict(mat),
        "dt_cfl": dt_cfl,
        "t_end": t_end,
        "source": _source_dict(source, data.get("source")),
        "mms": None if exact is None else {
            **{key: asdict(getattr(exact, name))
               for key, name in _MMS_BLOCKS.items() if hasattr(exact, name)},
            "n_ladder": list(ladder)},
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
    if mode == "stability":
        return cfg
    scenarios = []
    for n in ladder or (grid.n,):
        try:  # the scenario checks every run rule, and the snapshot times
            g = replace(grid, n=n)
            scenarios.append(scn_cls(grid=g, mat=mat, dt=cfg.step(g), t_end=t_end,
                                     source=source, mms=exact))
            scenarios[-1].snapshot_levels(snapshots)
        except ValueError as exc:
            raise ConfigError(f"at N = {n}: {exc}") from exc
    return replace(cfg, scenarios=tuple(scenarios))


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
