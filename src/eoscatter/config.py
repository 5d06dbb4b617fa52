"""Scenario configuration: JSON schema, defaults, and the preset registry.

A configuration resolves to plain dataclasses from the other modules plus a
fully-expanded dictionary (every applied default made explicit) that the CSV
writers embed as a provenance header, so an output file always records the
exact inputs that produced it.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

from .grid import GridSpec, check_real
from .mms import ErrorReport, mms_report
from .sources import GaussianSource, TabulatedSource
# The map from model number to scenario class, with its check of the model
# number, is the stability lab's (the lowest module that imports both
# models), and so is the check of the scan controls
from .stability import (DEFAULT_BISECT_TOL, DEFAULT_DT_MAX_FACTOR,
                        DEFAULT_SCAN_POINTS, check_controls, model_scenario)

DEFAULT_DT_CFL = 0.4
DEFAULT_EPSILON = 1.0
DEFAULT_STABILITY_N = 200
DEFAULT_EPSILONS = (0.0, 0.25, 0.5, 0.75, 1.0)

MODES = ("run", "mms", "stability")
#: The top-level keys that only some modes read, and those modes; a
#: provenance line records each as null in the other modes.
_READ_IN = {"grid": ("run", "mms"), "t_end": ("run", "mms"), "source": ("run",),
            "mms": ("mms",), "stability": ("stability",)}


def mms_run(model: int, exact, grid, mat, dt: float, t_end: float) -> ErrorReport:
    """:func:`mms_report` of the model's scenario built from these inputs."""
    return mms_report(model_scenario(model)(grid=grid, mat=mat, dt=dt, t_end=t_end,
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


@contextmanager
def _located(prefix: str):
    """Raise a ValueError of the library again as a ConfigError that
    starts with ``prefix``, the place in the config."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


def _number(block, key, where, default=None, required=False, positive=False):
    """``block[key]`` by :func:`check_real`, named by its place."""
    if key not in block:
        if required:
            raise ConfigError(f"missing key '{key}' in {where}")
        return default
    with _located(""):
        return check_real(f"'{key}' in {where}", block[key], positive=positive)


def _build(cls, block, where: str, defaults=None, **given):
    """A ``cls`` from ``block``, whose keys are the fields of ``cls``, which
    checks them.

    Each field not in ``given`` is required when ``defaults`` is None,
    otherwise it defaults to that instance's value.
    """
    block = _require_mapping(block, where)
    names = [f.name for f in fields(cls) if f.name not in given]
    _reject_unknown(block, [*names, *given], where)
    if defaults is None:
        for k in names:
            if k not in block:
                raise ConfigError(f"missing key '{k}' in {where}")
    with _located(f"{where}: "):
        return cls(**{k: block.get(k, getattr(defaults, k, None)) for k in names},
                   **given)


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
    def dt(self) -> float | None:
        """The time step on ``grid``; None in stability mode, which has none."""
        return None if self.grid is None else self.step(self.grid)

    def provenance(self) -> dict:
        """Resolved config minus anything that cannot affect the numbers
        (currently just the output directory)."""
        out = dict(self.resolved)
        out["output"] = {"snapshots": list(self.snapshot_times)}
        return out


def _parse_grid(block, where="grid") -> GridSpec:
    block = _require_mapping(block, where)
    _reject_unknown(block, ("a0", "a1", "N", "epsilon"), where)
    for key in ("a0", "a1", "N"):
        if key not in block:
            raise ConfigError(f"missing key '{key}' in {where}")
    with _located(f"{where}: "):
        return GridSpec(a0=block["a0"], a1=block["a1"], n=block["N"],
                        epsilon=block.get("epsilon", DEFAULT_EPSILON))


def _parse_source(block, where="source"):
    if block is None:
        return None
    block = _require_mapping(block, where)
    kind = block.get("kind", "gaussian")
    if kind == "gaussian":
        params = {k: v for k, v in block.items() if k != "kind"}
        return _build(GaussianSource, params, where, support=block.get("support"))
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
    ladder = block.get("n_ladder", [grid.n])
    if not isinstance(ladder, list) or not ladder:
        raise ConfigError(f"'n_ladder' in {where} must be a list of integers")
    return exact, tuple(ladder)


def _parse_stability(block, where="stability") -> StabilityControls:
    block = _require_mapping(block if block is not None else {}, where)
    _reject_unknown(block, ("N", "epsilons", "dt_max_factor", "scan_points",
                            "bisect_tol", "samples"), where)
    eps = block.get("epsilons", list(DEFAULT_EPSILONS))
    if not isinstance(eps, list) or not eps:
        raise ConfigError(f"'epsilons' in {where} must be a list of numbers")
    samples = block.get("samples", True)
    if not isinstance(samples, bool):
        raise ConfigError(f"'samples' in {where} must be true or false")
    with _located(f"{where}: "):  # the scan's grids and the lab's controls
        grids = [GridSpec(0.0, 1.0, block.get("N", DEFAULT_STABILITY_N), e)
                 for e in eps]
        factor, points, tol = check_controls(
            grids, block.get("dt_max_factor", DEFAULT_DT_MAX_FACTOR),
            block.get("scan_points", DEFAULT_SCAN_POINTS),
            block.get("bisect_tol", DEFAULT_BISECT_TOL))
    return StabilityControls(
        n=grids[0].n,
        epsilons=tuple(g.epsilon for g in grids),
        dt_max_factor=factor,
        scan_points=points,
        bisect_tol=tol,
        write_samples=samples,
    )


def _parse_output(block, mode, where="output"):
    block = _require_mapping(block if block is not None else {}, where)
    _reject_unknown(block, ("dir", "snapshots"), where)
    out_dir = block.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError(f"'dir' in {where} must be a string")
    snaps = block.get("snapshots", [])
    if not isinstance(snaps, list):
        raise ConfigError(f"'snapshots' in {where} must be a list of times")
    if snaps and mode != "run":
        raise ConfigError(f"'snapshots' in {where} is only meaningful in run mode")
    with _located(f"{where}: "):
        return out_dir, tuple(check_real("snapshot time", v) for v in snaps)


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
    model = data["model"] if "model" in data else _missing("model")
    try:
        scn_cls = model_scenario(model)
    except ValueError:
        raise ConfigError("'model' in config must be 1 or 2") from None
    mode = data.get("mode", default_mode)
    if mode not in MODES:
        raise ConfigError("'mode' in config must be one of run, mms, stability")

    mat = _build(scn_cls.material, data.get("material"), "material") \
        if "material" in data else _missing("material")

    for key, modes in _READ_IN.items():
        if data.get(key) is not None and mode not in modes:
            raise ConfigError(f"'{key}' in config is only meaningful in "
                              f"{' and '.join(modes)} mode")
    grid = t_end = None
    if mode != "stability":
        grid = _parse_grid(data["grid"]) if "grid" in data else _missing("grid")
        t_end = _number(data, "t_end", "config", required=True, positive=True)
    dt_cfl = _number(data, "dt_cfl", "config", default=DEFAULT_DT_CFL, positive=True)
    source = _parse_source(data.get("source"))
    exact = ladder = stability = None
    if mode == "mms":
        exact, ladder = _parse_mms(data.get("mms"), scn_cls, grid)
    if mode == "stability":
        stability = _parse_stability(data.get("stability"))
    out_dir, snapshots = _parse_output(data.get("output"), mode)

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
        with _located(f"at N = {n}: "):  # the scenario checks every run rule
            g = replace(grid, n=n)
            scenarios.append(scn_cls(grid=g, mat=mat, dt=cfg.step(g), t_end=t_end,
                                     source=source, mms=exact))
            scenarios[-1].snapshot_levels(snapshots)
    if any(b.grid.n <= a.grid.n for a, b in zip(scenarios, scenarios[1:])):
        raise ConfigError("'n_ladder' in mms must increase")
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
    except ValueError as exc:  # a JSONDecodeError, or an int of too many digits
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
