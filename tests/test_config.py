"""Configuration parsing: schema validation, defaults, and the preset registry."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eoscatter.config import (
    MODES,
    ConfigError,
    PRESETS,
    load_preset,
    parse_config,
    resolve_config,
)
from eoscatter.grid import GridSpec, Material1, Material2
from eoscatter.mms import ManufacturedFields1, ManufacturedFields2, ResidualSources
from eoscatter.model1 import Scenario1, run_m1
from eoscatter.model2 import Scenario2
from eoscatter.sources import GaussianSource, TabulatedSource


def minimal_run(**overrides):
    data = {
        "model": 1,
        "grid": {"a0": 0.0, "a1": 3.0, "N": 80},
        "material": {"c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3,
                     "gamma": 8.0},
        "t_end": 1.0,
    }
    data.update(overrides)
    return data


def test_minimal_config_applies_defaults():
    cfg = resolve_config(minimal_run())
    assert cfg.mode == "run"
    assert cfg.dt_cfl == 0.4
    assert cfg.grid.epsilon == 1.0
    assert cfg.source is None
    assert cfg.snapshot_times == ()
    assert cfg.out_dir == "."
    # dt follows the grid: dt = dt_cfl * dx / c1
    assert cfg.dt == pytest.approx(0.4 * cfg.grid.dx / 2.0)


def test_defaults_recorded_in_resolved_dict():
    cfg = resolve_config(minimal_run())
    assert cfg.resolved["dt_cfl"] == 0.4
    assert cfg.resolved["grid"]["epsilon"] == 1.0
    assert cfg.resolved["output"]["dir"] == "."
    # provenance drops only the output directory (it cannot change numbers)
    prov = cfg.provenance()
    assert "dir" not in prov["output"]
    assert prov["dt_cfl"] == 0.4


def test_too_coarse_grid_is_a_schema_error():
    with pytest.raises(ConfigError,
                       match=r"^grid: N must be a finite integer >= 4, got 3$"):
        resolve_config(minimal_run(grid={"a0": 0.0, "a1": 3.0, "N": 3}))


def test_stretched_grid_accepted_in_run_mode():
    cfg = resolve_config(
        minimal_run(grid={"a0": 0.0, "a1": 3.0, "N": 80, "epsilon": 0.5}))
    g = cfg.grid
    assert g.epsilon == 0.5
    # the family parameter moves the left edge gap, not the interior spacing
    assert g.x[0] == pytest.approx(g.a0 + 0.75 * g.dx)
    assert g.gap_a0 + (g.n - 1) * g.dx + g.gap_a1 == pytest.approx(g.length)
    assert g.a0 < g.x[0] and g.x[-1] < g.a1


def test_unknown_keys_rejected_by_name():
    with pytest.raises(ConfigError, match="'bogus' in config"):
        resolve_config(minimal_run(bogus=1))
    with pytest.raises(ConfigError, match="'dx' in grid"):
        resolve_config(minimal_run(grid={"a0": 0.0, "a1": 3.0, "N": 8, "dx": 0.1}))
    with pytest.raises(ConfigError, match="'mu1' in material"):
        resolve_config(minimal_run(material={
            "c1": 2.0, "c0": 1.0, "alpha": -1.0, "beta": 0.3, "gamma": 8.0,
            "mu1": 2.0}))


def test_missing_required_keys_named():
    data = minimal_run()
    del data["material"]
    with pytest.raises(ConfigError, match="'material'"):
        resolve_config(data)
    data = minimal_run()
    del data["t_end"]
    with pytest.raises(ConfigError, match="'t_end'"):
        resolve_config(data)
    with pytest.raises(ConfigError, match="'c0' in material"):
        resolve_config(minimal_run(material={"c1": 2.0, "alpha": -1.0,
                                             "beta": 0.3, "gamma": 8.0}))


def test_wrong_types_rejected():
    with pytest.raises(ConfigError, match=r"^'t_end' in config must be a positive "
                       r"finite number, got 'soon'$"):
        resolve_config(minimal_run(t_end="soon"))
    with pytest.raises(ConfigError,
                       match=r"^grid: N must be a finite integer >= 4, got 80\.5$"):
        resolve_config(minimal_run(grid={"a0": 0.0, "a1": 3.0, "N": 80.5}))
    with pytest.raises(ConfigError, match="'model' in config must be 1 or 2"):
        resolve_config(minimal_run(model=3))


def test_mode_gating_of_blocks():
    with pytest.raises(ConfigError, match="'mode' in config"):
        resolve_config(minimal_run(mode="solve"))
    with pytest.raises(ConfigError, match="only meaningful in mms mode"):
        resolve_config(minimal_run(mms={"n_ladder": [80]}))
    with pytest.raises(ConfigError, match="only meaningful in stability mode"):
        resolve_config(minimal_run(stability={"N": 40}))
    with pytest.raises(ConfigError, match="only meaningful in run mode"):
        resolve_config(minimal_run(
            mode="mms",
            source={"kind": "gaussian", "amplitude": 1.0, "x_center": 4.0,
                    "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0}))
    # a stability scan reads no grid or t_end, and only a run writes
    # snapshots; the null and the empty list a provenance line records pass
    for key, value in (("grid", minimal_run()["grid"]), ("t_end", 1.0)):
        with pytest.raises(ConfigError, match=f"^'{key}' in config is only "
                           "meaningful in run and mms mode$"):
            resolve_config({**_STABILITY, key: value})
        assert resolve_config({**_STABILITY, key: None}).resolved[key] is None
    for data in (minimal_run(mode="mms"), _STABILITY):
        with pytest.raises(ConfigError, match="^'snapshots' in output is only "
                           "meaningful in run mode$"):
            resolve_config({**data, "output": {"snapshots": [0.5]}})
        assert resolve_config({**data, "output": {"snapshots": []}}).snapshot_times == ()


def test_source_must_sit_beyond_the_right_boundary():
    with pytest.raises(ConfigError, match="support"):
        resolve_config(minimal_run(source={
            "kind": "gaussian", "amplitude": 1.0, "x_center": 2.0,
            "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0}))


GAUSSIAN = {"kind": "gaussian", "amplitude": 1.0, "x_center": 4.0,
            "space_rate": 36.0, "t_center": 0.5, "time_rate": 4.0}


def test_source_errors_carry_one_prefix():
    with pytest.raises(ConfigError,
                       match=r"^source: t_center must be a finite number, got 'soon'$"):
        resolve_config(minimal_run(source={**GAUSSIAN, "t_center": "soon"}))
    with pytest.raises(ConfigError,
                       match=r"^source: t_center must be a finite number, got True$"):
        resolve_config(minimal_run(source={**GAUSSIAN, "t_center": True}))
    partial = {k: v for k, v in GAUSSIAN.items() if k != "t_center"}
    with pytest.raises(ConfigError, match=r"^missing key 't_center' in source$"):
        resolve_config(minimal_run(source=partial))
    # the class's own checks are prefixed once too
    with pytest.raises(ConfigError, match=r"^source: time_rate must be a positive "
                       r"finite number, got -1\.0$"):
        resolve_config(minimal_run(source={**GAUSSIAN, "time_rate": -1.0}))


@pytest.mark.parametrize("support, message", [
    pytest.param([True, 5], "support lo must be a finite number, got True",
                 id="support0"),
    pytest.param([3.0, False], "support hi must be a finite number, got False",
                 id="support1"),
    pytest.param([3.0], "support must be two numbers (lo, hi), got [3.0]", id="support2"),
    pytest.param([3.0, "5"], "support hi must be a finite number, got '5'",
                 id="support3"),
    pytest.param("3-5", "support must be two numbers (lo, hi), got '3-5'", id="3-5"),
    pytest.param(3.0, "support must be two numbers (lo, hi), got 3.0", id="3.0"),
])
def test_source_support_must_be_a_pair_of_numbers(support, message):
    with pytest.raises(ConfigError, match=f"^source: {re.escape(message)}$"):
        resolve_config(minimal_run(source={**GAUSSIAN, "support": support}))


def test_source_support_is_read_as_floats():
    cfg = resolve_config(minimal_run(source={**GAUSSIAN, "support": [3, 5.5]}))
    assert cfg.source.support == (3.0, 5.5)
    assert cfg.provenance()["source"]["support"] == [3.0, 5.5]


def test_snapshots_validated_against_t_end():
    with pytest.raises(ConfigError, match="snapshot time"):
        resolve_config(minimal_run(output={"snapshots": [2.5]}))
    cfg = resolve_config(minimal_run(output={"snapshots": [0.5, 1.0]}))
    assert cfg.snapshot_times == (0.5, 1.0)


def test_tabulated_source_round_trip(tmp_path):
    xs = [3.0, 3.5, 4.0, 4.5, 5.0]
    path = tmp_path / "incident.csv"
    with open(path, "w") as fh:
        fh.write("x,t,value\n")
        for t in (0.0, 0.5, 1.0):
            for x in xs:
                fh.write(f"{x},{t},{0.1 * x * (1 + t)}\n")
    cfg = resolve_config(minimal_run(source={"kind": "tabulated",
                                             "path": str(path)}))
    assert isinstance(cfg.source, TabulatedSource)
    assert cfg.source.support[0] >= 3.0
    with pytest.raises(ConfigError, match="'path'"):
        resolve_config(minimal_run(source={"kind": "tabulated"}))


def test_tabulated_source_non_finite_value_is_a_source_error(tmp_path):
    path = tmp_path / "incident.csv"
    path.write_text("x,t,value\n3.0,0.0,0.0\n4.0,0.0,nan\n"
                    "3.0,1.0,0.5\n4.0,1.0,0.25\n")
    with pytest.raises(ConfigError, match=r"^source: sample values must be "
                       r"finite, got nan at \(x, t\) = \(4\.0, 0\.0\)$"):
        resolve_config(minimal_run(source={"kind": "tabulated",
                                           "path": str(path)}))


def test_tabulated_source_provenance_re_resolves(tmp_path):
    path = tmp_path / "incident.csv"
    path.write_text("x,t,value\n3.0,0.0,0.0\n4.0,0.0,1.0\n"
                    "3.0,1.0,0.5\n4.0,1.0,0.25\n")
    cfg = resolve_config(minimal_run(source={"kind": "tabulated",
                                             "path": str(path)}))
    prov = cfg.provenance()
    assert prov["source"] == {"kind": "tabulated", "path": str(path)}
    again = resolve_config(prov)
    assert again.provenance() == prov
    assert np.array_equal(again.source.values, cfg.source.values)


def test_mms_ladder_validation():
    base = minimal_run(mode="mms")
    with pytest.raises(ConfigError, match="n_ladder"):
        resolve_config({**base, "mms": {"n_ladder": [200, 100]}})
    with pytest.raises(ConfigError,
                       match=r"^at N = 2: N must be a finite integer >= 4, got 2$"):
        resolve_config({**base, "mms": {"n_ladder": [2, 4]}})
    cfg = resolve_config({**base, "mms": {}})
    assert cfg.n_ladder == (80,)  # defaults to the grid resolution


def test_a_step_longer_than_the_transit_is_rejected():
    # both models read the trace history one transit back before a level is
    # stored, so dt <= transit: at a1 - a0 = 3 that is dt_cfl * dx <= 3
    base = minimal_run(model=2, grid={"a0": 0.0, "a1": 3.0, "N": 100},
                       material={"mu1": 2.0, "nu1": 2.0, "mu0": 1.0,
                                 "nu0": 1.0, "alpha": -1.0, "beta": 0.3,
                                 "gamma": 8.0})
    with pytest.raises(ConfigError, match="at N = 100: time step exceeds the boundary transit"):
        resolve_config({**base, "dt_cfl": 200.0})
    resolve_config({**base, "dt_cfl": 50.0})
    # mms mode checks every rung it runs, not the grid's N
    mms = {**base, "mode": "mms"}
    with pytest.raises(ConfigError, match="at N = 8: time step exceeds the boundary transit"):
        resolve_config({**mms, "dt_cfl": 200.0, "mms": {"n_ladder": [8, 16]}})
    with pytest.raises(ConfigError, match="at N = 8: time step exceeds the boundary transit"):
        resolve_config({**mms, "dt_cfl": 12.0, "mms": {"n_ladder": [8, 16]}})
    resolve_config({**mms, "dt_cfl": 12.0, "mms": {"n_ladder": [16, 32]}})
    resolve_config({**mms, "grid": {"a0": 0.0, "a1": 3.0, "N": 8},
                    "dt_cfl": 12.0, "mms": {"n_ladder": [16, 32]}})
    # model 1 keeps the same rule: at dt_cfl 200 it ran two steps of
    # meaningless traces
    with pytest.raises(ConfigError, match="at N = 80: time step exceeds the boundary transit"):
        resolve_config(minimal_run(dt_cfl=200.0))
    resolve_config(minimal_run(dt_cfl=50.0))


def test_mms_family_overrides_merge_with_demo():
    base = minimal_run(mode="mms")
    cfg = resolve_config({**base, "mms": {"pulse": {"amplitude": 2.5}}})
    assert cfg.mms.phi.amplitude == 2.5
    # untouched parameters keep the bundled family's values
    assert cfg.mms.phi.drift == 4.0
    assert cfg.mms.j.x_width == 0.3


MAT2 = PRESETS["fig3-mms-m2"]["material"]


def _mms_run(model):
    data = minimal_run(mode="mms", mms={})
    if model == 2:
        data.update(model=2, material=dict(MAT2))
    return data


def test_model2_psi_pulse_follows_the_phi_pulse_unless_given():
    base = _mms_run(2)
    cfg = resolve_config({**base, "mms": {"pulse": {"amplitude": 2.5}}})
    assert cfg.mms.psi == cfg.mms.phi
    assert cfg.provenance()["mms"]["pulse_psi"]["amplitude"] == 2.5
    cfg = resolve_config({**base, "mms": {"pulse": {"amplitude": 2.5},
                                          "pulse_psi": {"drift": 3.0}}})
    assert cfg.mms.psi.amplitude == 1.0 and cfg.mms.psi.drift == 3.0


PULSE_KEYS = ("amplitude", "ramp_rate", "rate", "drift", "center", "t_shift")
BUMP_KEYS = ("amplitude", "x_center", "x_width", "t_center", "t_width")
# block -> (a config holding it, its keys, the manufactured field it sets
# or None for a block whose keys are all required)
SCHEMAS = {
    "material-m1": (minimal_run(), ("c1", "c0", "alpha", "beta", "gamma"), None),
    "material-m2": (minimal_run(model=2, material=dict(MAT2)),
                    ("mu1", "nu1", "mu0", "nu0", "alpha", "beta", "gamma"), None),
    "source": (minimal_run(source=GAUSSIAN),
               ("amplitude", "x_center", "space_rate", "t_center", "time_rate"), None),
    "mms.pulse": (_mms_run(1), PULSE_KEYS, "phi"),
    "mms.pulse_psi": (_mms_run(2), PULSE_KEYS, "psi"),
    "mms.current": (_mms_run(2), BUMP_KEYS, "j"),
    "mms.charge": (_mms_run(1), BUMP_KEYS, "rho"),
}


def _with_block(data, where, block):
    """A copy of ``data`` with ``block`` at the dotted path ``where``."""
    data = json.loads(json.dumps(data))
    *outer, last = where.split(".")
    node = data
    for key in outer:
        node = node[key]
    node[last] = block
    return data


def _at(tree, where):
    for key in where.split("."):
        tree = tree[key]
    return tree


@pytest.mark.parametrize("name", sorted(SCHEMAS))
def test_every_block_reads_exactly_its_class_fields(name):
    """Each block's keys are the fields of its class: an unknown key is
    named, a missing key of a required block is named, and a key left out of
    a defaulted block takes the demo family's value, provenance included."""
    data, keys, field_name = SCHEMAS[name]
    where = name.split("-")[0]
    kind = {"kind": "gaussian"} if where == "source" else {}
    resolved = _at(resolve_config(data).resolved, where)
    assert set(resolved) - {"kind", "support"} == set(keys)
    # a complete block, off the demo values where there are defaults
    full = {k: resolved[k] + (0.5 if field_name else 0.0) for k in keys}
    with pytest.raises(ConfigError,
                       match=f"^unknown key 'bogus' in {re.escape(where)}$"):
        resolve_config(_with_block(data, where, {**kind, **full, "bogus": 1.0}))
    demo = (ManufacturedFields1 if data["model"] == 1 else ManufacturedFields2).demo()
    for key in keys:
        partial = {**kind, **{k: v for k, v in full.items() if k != key}}
        if field_name is None:
            with pytest.raises(ConfigError,
                               match=f"^missing key '{key}' in {re.escape(where)}$"):
                resolve_config(_with_block(data, where, partial))
            continue
        cfg = resolve_config(_with_block(data, where, partial))
        want = {**full, key: getattr(getattr(demo, field_name), key)}
        assert _at(cfg.provenance(), where) == want
        assert all(getattr(getattr(cfg.mms, field_name), k) == v
                   for k, v in want.items())


def test_model1_has_no_psi_pulse():
    with pytest.raises(ConfigError, match=r"^unknown key 'pulse_psi' in mms$"):
        resolve_config(_mms_run(1) | {"mms": {"pulse_psi": {}}})


def test_stability_controls_validation():
    base = {"model": 1, "mode": "stability",
            "material": minimal_run()["material"]}
    cfg = resolve_config(base)
    assert cfg.stability.n == 200
    assert cfg.stability.epsilons == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert cfg.stability.write_samples
    assert cfg.t_end is None and cfg.grid is None
    with pytest.raises(ConfigError, match=r"^stability: epsilon must lie in \[0, 1\]$"):
        resolve_config({**base, "stability": {"epsilons": [1.5]}})
    with pytest.raises(ConfigError, match=r"^stability: scan_points must be a finite "
                       r"integer >= 16, got 8$"):
        resolve_config({**base, "stability": {"scan_points": 8}})


@pytest.mark.parametrize("key", ["dt_max_factor", "bisect_tol"])
@pytest.mark.parametrize("value", [0, -1, -1e-4])
def test_stability_scan_controls_must_be_positive(key, value):
    base = {"model": 1, "mode": "stability",
            "material": minimal_run()["material"]}
    with pytest.raises(ConfigError, match=f"^stability: {key} must be a positive "
                       f"finite number, got {re.escape(repr(value))}$"):
        resolve_config({**base, "stability": {key: value}})


def _without(data, key):
    return {k: v for k, v in data.items() if k != key}


_STABILITY = {"model": 1, "mode": "stability",
              "material": minimal_run()["material"]}

# (config, the whole message) for each check that no other test reaches
REJECTED = {
    "block-not-an-object": (minimal_run(grid=[0.0, 3.0, 80]),
                            "grid must be an object"),
    "non-finite-number": (minimal_run(t_end=float("inf")),
                          "'t_end' in config must be a positive finite number, got inf"),
    "missing-integer": (_without(minimal_run(), "model"),
                        "missing key 'model' in config"),
    "unknown-source-kind": (minimal_run(source={"kind": "plane"}),
                            "'kind' in source must be 'gaussian' or 'tabulated'"),
    "ladder-of-floats": (minimal_run(mode="mms", mms={"n_ladder": [80, 160.0]}),
                         "at N = 160.0: N must be a finite integer >= 4, got 160.0"),
    "no-epsilons": ({**_STABILITY, "stability": {"epsilons": []}},
                    "'epsilons' in stability must be a list of numbers"),
    "stability-n": ({**_STABILITY, "stability": {"N": 3}},
                    "stability: N must be a finite integer >= 4, got 3"),
    "samples-not-a-bool": ({**_STABILITY, "stability": {"samples": 1}},
                           "'samples' in stability must be true or false"),
    "dir-not-a-string": (minimal_run(output={"dir": 3}),
                         "'dir' in output must be a string"),
    "snapshots-not-a-list": (minimal_run(output={"snapshots": 0.5}),
                             "'snapshots' in output must be a list of times"),
    "missing-grid": (_without(minimal_run(), "grid"),
                     "missing key 'grid' in config"),
    "zero-dt-cfl": (minimal_run(dt_cfl=0.0),
                    "'dt_cfl' in config must be a positive finite number, got 0.0"),
    "negative-t-end": (minimal_run(t_end=-1.0),
                       "'t_end' in config must be a positive finite number, got -1.0"),
}


@pytest.mark.parametrize("name", REJECTED)
def test_each_schema_check_names_its_rule(name):
    data, message = REJECTED[name]
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        resolve_config(data)


def test_preset_registry_has_six_scenarios():
    assert sorted(PRESETS) == [
        "fig1-mms-m1", "fig2-run-m1", "fig3-mms-m2", "fig4-run-m2",
        "stability-m1", "stability-m2",
    ]
    for name in PRESETS:
        cfg = load_preset(name)
        assert cfg.mode in ("run", "mms", "stability")


def test_run_preset_values_field_for_field():
    cfg = load_preset("fig2-run-m1")
    assert cfg.model == 1 and cfg.mode == "run"
    assert (cfg.grid.a0, cfg.grid.a1, cfg.grid.n) == (0.0, 3.0, 1600)
    assert cfg.mat.c1 == 2.0 and cfg.mat.c0 == 1.0
    assert (cfg.mat.alpha, cfg.mat.beta, cfg.mat.gamma) == (-1.0, 0.3, 8.0)
    assert cfg.dt_cfl == 0.4 and cfg.t_end == 4.0
    assert cfg.source == GaussianSource(5.0, 4.0, 36.0, 0.5, 4.0)
    assert cfg.snapshot_times == (1.0, 2.0, 3.0, 4.0)


def test_two_field_presets_carry_the_paired_coefficients():
    for name in ("fig3-mms-m2", "fig4-run-m2"):
        cfg = load_preset(name)
        assert cfg.model == 2
        assert cfg.mat.mu1 == 2.0 and cfg.mat.nu1 == 2.0
        assert cfg.mat.mu0 == 1.0 and cfg.mat.nu0 == 1.0


def test_unknown_preset_lists_the_known_names():
    with pytest.raises(ConfigError, match="fig1-mms-m1"):
        load_preset("fig9")


def test_parse_config_reads_json_files(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(minimal_run()))
    cfg = parse_config(path)
    assert cfg.model == 1 and cfg.t_end == 1.0
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config(bad)
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config(tmp_path / "missing.json")


@pytest.mark.parametrize("block, key, value", [
    ("current", "x_width", 0), ("current", "t_width", -0.5),
    ("charge", "x_width", -1), ("charge", "t_width", 0),
    ("pulse", "rate", -1), ("pulse", "rate", 0), ("pulse_psi", "rate", -2),
])
def test_degenerate_manufactured_fields_are_config_errors(block, key, value):
    base = minimal_run(mode="mms")
    if block == "pulse_psi":
        base = {**base, "model": 2, "material": dict(PRESETS["fig3-mms-m2"]["material"])}
    with pytest.raises(ConfigError, match=f"^mms\\.{block}: {key} must be a positive "
                       f"finite number, got {re.escape(repr(value))}$"):
        resolve_config({**base, "mms": {block: {key: value}}})


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_provenance_re_resolves(name):
    cfg = load_preset(name)
    assert resolve_config(cfg.resolved).resolved == cfg.resolved
    prov = cfg.provenance()
    assert resolve_config(prov).provenance() == prov


_MATERIAL_KEYS = {1: ("c1", "c0"), 2: ("mu1", "nu1", "mu0", "nu0")}


def _some(draw, pairs: dict) -> dict:
    """A random subset of ``key -> strategy``, drawn."""
    keys = draw(st.sets(st.sampled_from(sorted(pairs))))
    return {k: draw(pairs[k]) for k in sorted(keys)}


@st.composite
def valid_configs(draw):
    """Any valid configuration of any mode and model, optional keys left out
    at random so that the defaults are exercised too."""
    num = st.floats(-5.0, 5.0)
    pos = st.floats(0.1, 5.0)
    model, mode = draw(st.sampled_from((1, 2))), draw(st.sampled_from(MODES))
    data = {"model": model, "mode": mode,
            "material": {**{k: draw(pos) for k in _MATERIAL_KEYS[model]},
                         **{k: draw(num) for k in ("alpha", "beta", "gamma")}}}
    if mode != "stability":  # a stability scan reads no grid or t_end
        a0 = draw(num)
        a1 = a0 + draw(st.floats(0.5, 5.0))
        data["grid"] = {"a0": a0, "a1": a1, "N": draw(st.integers(4, 400)),
                        **_some(draw, {"epsilon": st.floats(0.0, 1.0)})}
        data["t_end"] = draw(pos)
    data.update(_some(draw, {"dt_cfl": st.floats(0.05, 2.0)}))
    if mode == "run" and draw(st.booleans()):
        rate = draw(st.floats(1.0, 50.0))
        data["source"] = {
            "kind": "gaussian", "amplitude": draw(num), "space_rate": rate,
            "x_center": a1 + 6.0 / rate**0.5 + draw(st.floats(0.0, 2.0)),
            "t_center": draw(num), "time_rate": draw(pos)}
    if mode == "mms":
        pulse = {"amplitude": num, "ramp_rate": num, "rate": pos,
                 "drift": num, "center": num, "t_shift": num}
        bump = {"amplitude": num, "x_center": num, "x_width": pos,
                "t_center": num, "t_width": pos}
        families = [("pulse", pulse), ("current", bump), ("charge", bump)]
        if model == 2:
            families.append(("pulse_psi", pulse))
        data["mms"] = {name: _some(draw, keys) for name, keys in families
                       if draw(st.booleans())}
        if draw(st.booleans()):
            data["mms"]["n_ladder"] = sorted(draw(st.lists(
                st.integers(4, 400), min_size=1, max_size=4, unique=True)))
    if mode == "stability":
        data["stability"] = _some(draw, {
            "N": st.integers(4, 300),
            "epsilons": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
            "dt_max_factor": pos, "scan_points": st.integers(16, 200),
            "bisect_tol": st.floats(1e-8, 1e-2), "samples": st.booleans()})
    output = {"dir": st.text(max_size=8)}
    if mode == "run":  # only a run writes snapshots
        output["snapshots"] = st.lists(st.floats(0.0, data["t_end"]), max_size=3)
    data["output"] = _some(draw, output)
    return data


@settings(max_examples=150, deadline=None)
@given(data=valid_configs())
def test_resolved_configs_round_trip(data):
    cfg = resolve_config(data)
    assert resolve_config(cfg.resolved).resolved == cfg.resolved


def _library_message(make) -> str:
    with pytest.raises(ValueError) as info:
        make()
    assert not isinstance(info.value, ConfigError)
    return str(info.value)


def _library_scenario(model, grid, dt_cfl=0.4, **kw):
    """The scenario a ``minimal_run`` of ``model`` describes, built directly."""
    scenario, mat = ((Scenario1, Material1(**minimal_run()["material"])) if model == 1
                     else (Scenario2, Material2(**MAT2)))
    return scenario(grid=grid, mat=mat, dt=dt_cfl * grid.dx / mat.c1,
                    t_end=1.0, **kw)


INSIDE = {**GAUSSIAN, "x_center": 2.0}  # its support reaches into the slab


@pytest.mark.parametrize("data, n, library", [
    (minimal_run(source=INSIDE), 80,
     lambda: _library_scenario(1, GridSpec(0.0, 3.0, 80), source=GaussianSource(
         **{k: v for k, v in INSIDE.items() if k != "kind"}))),
    (minimal_run(output={"snapshots": [2.5]}), 80,
     lambda: run_m1(_library_scenario(1, GridSpec(0.0, 3.0, 80)), snapshot_times=[2.5])),
    (minimal_run(mode="mms", mms={"n_ladder": [2, 4]}), 2,
     lambda: GridSpec(0.0, 3.0, 2)),
    (minimal_run(model=2, material=MAT2, mode="mms", dt_cfl=12.0,
                 mms={"n_ladder": [8, 16]}), 8,
     lambda: _library_scenario(2, GridSpec(0.0, 3.0, 8), dt_cfl=12.0,
                               mms=ManufacturedFields2.demo())),
    (minimal_run(dt_cfl=200.0), 80,
     lambda: _library_scenario(1, GridSpec(0.0, 3.0, 80), dt_cfl=200.0)),
], ids=["source-inside", "snapshot-after-t_end", "rung-below-4", "step-past-transit",
        "step-past-transit-m1"])
def test_config_states_each_run_rule_in_the_librarys_words(data, n, library):
    with pytest.raises(ConfigError) as info:
        resolve_config(data)
    text = str(info.value)
    assert text.endswith(_library_message(library))
    assert text.startswith(f"at N = {n}: ")


def test_run_config_holds_the_scenario_of_every_marched_grid():
    cfg = resolve_config(minimal_run(source=GAUSSIAN, output={"snapshots": [0.5]}))
    (scn,) = cfg.scenarios
    assert isinstance(scn, Scenario1)
    assert (scn.grid, scn.mat, scn.dt, scn.t_end) == (cfg.grid, cfg.mat, cfg.dt, cfg.t_end)
    assert scn.source is cfg.source and scn.mms is None
    cfg = resolve_config(minimal_run(model=2, material=MAT2, mode="mms",
                                     mms={"n_ladder": [20, 40, 80]}))
    assert [s.grid.n for s in cfg.scenarios] == [20, 40, 80]
    for scn in cfg.scenarios:
        assert isinstance(scn, Scenario2)
        assert scn.grid == replace(cfg.grid, n=scn.grid.n)
        assert scn.dt == cfg.step(scn.grid)
        assert scn.mms is cfg.mms and scn.source is None
    assert load_preset("stability-m1").scenarios == ()


@pytest.mark.parametrize("name", ["stability-m1", "stability-m2"])
def test_a_stability_config_has_no_step(name):
    """Stability mode has no grid of its own, so no step: ``dt`` is None."""
    cfg = load_preset(name)
    assert cfg.grid is None and cfg.dt is None
    mms = load_preset("fig1-mms-m1" if name.endswith("1") else "fig3-mms-m2")
    assert mms.dt == mms.step(mms.grid) > 0.0


@pytest.mark.parametrize("name", ["fig1-mms-m1", "fig3-mms-m2"])
def test_building_a_verification_config_evaluates_no_residual(monkeypatch, name):
    """Resolving an MMS preset and building its scenarios makes no call of
    the residual evaluator: every residual is evaluated inside the run."""
    calls = []
    at = ResidualSources.at

    def spied_at(self, *args):
        calls.append(args)
        return at(self, *args)

    monkeypatch.setattr(ResidualSources, "at", spied_at)
    cfg = load_preset(name)
    assert len(cfg.scenarios) == 4 and calls == []
    cfg.scenarios[0].run()
    assert len(calls) == 1  # the spy sees the run's one evaluator
