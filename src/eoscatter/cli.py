"""Command-line driver: deterministic CSV emission for runs, error studies,
and stability scans.

Every output file starts with a ``#``-prefixed provenance line holding the
fully resolved configuration (defaults included) as compact sorted-key JSON,
so a CSV can always be traced back to the exact inputs that produced it.
Floats are written with ``repr`` — the shortest decimal that round-trips —
and files use LF endings regardless of platform, which makes repeated runs
byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, PRESETS, RunConfig, load_preset, parse_config
# mms_run stays importable here: perfbench's tracer wraps eoscatter.cli.mms_run
from .mms import convergence_order, mms_report, mms_run  # noqa: F401
from .model1 import DivergenceError, run_m1
from .model2 import run_m2
from .sources import QuadratureError
from .stability import EigenSolverError, scan_stability

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_NUMERICS = 4


def _fmt(v) -> str:
    """One CSV cell: strings pass through, ints stay ints, floats use the
    shortest round-trip decimal."""
    if type(v) is float:  # the common cell, rows built by ``.tolist()``
        return repr(v)
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return str(int(v))
    return repr(float(v))


def _write_csv(path: Path, provenance: dict, header: str, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("# " + json.dumps(provenance, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in rows)


# ---------------------------------------------------------------------------
# run mode
# ---------------------------------------------------------------------------

def _snapshot_rows(state, scn):
    """The grid including both boundary points; ``rho``/``j`` read 0.0 on
    the boundary rows."""
    g, pots = scn.grid, scn.potentials
    nodes = np.column_stack(
        [g.x] + [getattr(state, name) for name in scn.field_names]).tolist()
    return [(g.a0, *(getattr(state, f"{p}_a0") for p in pots), 0.0, 0.0),
            *nodes,
            (g.a1, *(getattr(state, f"{p}_a1") for p in pots), 0.0, 0.0)]


def _flush_run(res, out: Path, prov: dict) -> None:
    scn = res.scenario
    columns = [f"{p}_{side}" for p in scn.potentials for side in ("a0", "a1")]
    rows = np.column_stack(
        [res.times] + [getattr(res, name) for name in columns]).tolist()
    _write_csv(out / "boundary.csv", prov, ",".join(["t"] + columns), rows)
    snap_header = ",".join(("x",) + scn.field_names)
    for t_req, state in res.snapshots:
        _write_csv(out / f"snapshot_{_fmt(t_req)}.csv", prov, snap_header,
                   _snapshot_rows(state, scn))


def _run_mode(cfg: RunConfig, out: Path) -> int:
    runner = run_m1 if cfg.model == 1 else run_m2
    prov = cfg.provenance()
    try:
        res = runner(cfg.scenarios[0], snapshot_times=cfg.snapshot_times)
    except DivergenceError as exc:
        if exc.partial is not None:
            _flush_run(exc.partial, out, prov)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    _flush_run(res, out, prov)
    return EXIT_OK


# ---------------------------------------------------------------------------
# mms mode
# ---------------------------------------------------------------------------

def _order_cell(prev, rep, field: str) -> str:
    """Observed order against the previous rung, blank when the rung pair is
    not an N-doubling at fixed dt*N."""
    if prev is None:
        return ""
    try:
        orders = convergence_order([prev, rep])
    except ValueError:
        return ""
    return _fmt(orders[field][0])


def _flush_mms(reports, out: Path, prov: dict) -> None:
    rows = []
    trace_rows = []
    prev = None
    for rep in reports:
        for f in rep.linf:
            rows.append((f, rep.n, rep.dt, rep.linf[f], rep.l2[f],
                         _order_cell(prev, rep, f)))
        for name in sorted(rep.trace_linf):
            trace_rows.append((name, rep.n, rep.dt, rep.trace_linf[name]))
        prev = rep
    _write_csv(out / "errors.csv", prov, "field,N,dt,linf,l2,order", rows)
    _write_csv(out / "trace_errors.csv", prov, "field,N,dt,linf", trace_rows)


def _mms_mode(cfg: RunConfig, out: Path) -> int:
    prov = cfg.provenance()
    reports = []
    failure = None
    for scn in cfg.scenarios:
        try:
            reports.append(mms_report(cfg.model, scn))
        except DivergenceError as exc:
            failure = exc
            break
    _flush_mms(reports, out, prov)
    if failure is not None:
        print(f"error: {failure} (N = {scn.grid.n})", file=sys.stderr)
        return EXIT_DIVERGED
    return EXIT_OK


# ---------------------------------------------------------------------------
# stability mode
# ---------------------------------------------------------------------------

def _stability_mode(cfg: RunConfig, out: Path) -> int:
    ctl = cfg.stability
    prov = cfg.provenance()
    domains = scan_stability(cfg.model, cfg.mat, ctl.n, ctl.epsilons,
                             dt_max_factor=ctl.dt_max_factor,
                             scan_points=ctl.scan_points,
                             bisect_tol=ctl.bisect_tol)
    rows = [(d.epsilon, d.tau1, d.tau2, d.n, d.model) for d in domains]
    _write_csv(out / "stability.csv", prov, "epsilon,tau1,tau2,N,model", rows)
    if ctl.write_samples:
        srows = [(d.epsilon, tau, rho)
                 for d in domains for tau, rho in d.samples]
        _write_csv(out / "samples.csv", prov, "epsilon,dt_over_cfl,rho", srows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eos",
        description="Hybrid interior-stepper / boundary-integral solver for "
                    "two transient scattering models: production runs, "
                    "manufactured-solution error studies, and time-step "
                    "stability scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in (
        ("run", "advance a scenario and write boundary traces and snapshots"),
        ("mms", "measure errors against a manufactured solution"),
        ("stability", "map the stable time-step window over grid stretching"),
    ):
        sp = sub.add_parser(name, help=text)
        sp.add_argument("config", nargs="?", metavar="CONFIG",
                        help="path to a JSON configuration file")
        sp.add_argument("--preset", metavar="NAME",
                        help="use a built-in scenario instead of a file")
        sp.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config)")
    sub.add_parser("scenarios", help="list the built-in scenarios")
    return parser


def _load(args) -> RunConfig:
    if args.preset and args.config:
        raise ConfigError("give either a config file or --preset, not both")
    if args.preset:
        cfg = load_preset(args.preset)
    elif args.config:
        cfg = parse_config(args.config, default_mode=args.command)
    else:
        raise ConfigError("a config file or --preset is required")
    if cfg.mode != args.command:
        raise ConfigError(
            f"config mode '{cfg.mode}' does not match the "
            f"'{args.command}' subcommand")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "scenarios":
        for name, data in PRESETS.items():
            print(f"{name}  (model {data['model']}, {data['mode']})")
        return EXIT_OK
    try:
        cfg = _load(args)
        out = Path(args.out or cfg.out_dir)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if cfg.mode == "run":
            return _run_mode(cfg, out)
        if cfg.mode == "mms":
            return _mms_mode(cfg, out)
        return _stability_mode(cfg, out)
    except (QuadratureError, EigenSolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    raise SystemExit(main())
