"""Run-configuration parsing: wiring, defaults, and exhaustive validation.

parse_config reports every violation in one shot (ConfigError.violations),
so a bad document can be fixed in a single edit round.  Field specs support
a numeric shorthand, gaussian bumps, and whitelisted x/y expressions; the
expression compiler refuses anything outside names x, y, pi, five math
calls, and plain arithmetic, which keeps config files data, not code.
"""

import json
import math
import os
import re
import warnings
from dataclasses import fields, replace
from operator import attrgetter

import numpy as np
import pytest

from dpnpsim.config import (
    _TIME_KEYS,
    ConfigError,
    ExpressionError,
    compile_expression,
    load_config,
    parse_config,
)
from dpnpsim.darcy import IncompatibleFlowData, imbalance, solve_darcy
from dpnpsim.gummel import SweepSettings
from dpnpsim.mesh import BoundaryField, Grid
from dpnpsim.schedule import Ramp


def base_doc():
    return {
        "grid": {"nx": 8, "ny": 4, "lx": 2.0, "ly": 1.0},
        "physics": {
            "theta": 0.8,
            "D": [1.0, 0.5],
            "K": [2.0, 2.0],
            "kappa": 0.05,
            "z1": 2,
            "z2": -1,
            "reaction": {"kind": "exchange", "rate": 0.1},
        },
        "initial": {
            "c1": {"kind": "gaussian", "center": [1.0, 0.5], "width": 0.2, "amplitude": 0.5},
            "c2": {"kind": "expression", "expr": "0.2 + 0.1*sin(pi*x/2)"},
        },
        "background_charge": 0.05,
        "boundary": {
            "sigma": {"left": 0.02, "right": -0.02},
            "f": {"left": -0.1, "right": 0.1, "ramp": {"kind": "linear", "t0": 0.0, "t1": 0.05}},
            "g1": {"left": 0.03},
            "g2": {"right": 0.02},
        },
        "time": {"t_end": 0.1, "dt": 0.005},
        "output": {"directory": "out/demo", "snapshot_stride": 5},
    }


def test_valid_document_wires_everything():
    cfg = parse_config(json.dumps(base_doc()))
    g = cfg.grid
    assert g.n == (8, 4)
    assert g.length == (2.0, 1.0)

    p = cfg.params
    assert p.theta == 0.8
    assert p.D == (1.0, 0.5)
    assert p.K == (2.0, 2.0)
    assert (p.z1, p.z2) == (2, -1)
    assert p.exchange_rate == 0.1
    assert (p.T_end, p.dt) == (0.1, 0.005)

    # gaussian peaks at its center, expression matches numpy evaluation
    X, Y = g.cell_centers()
    c1 = cfg.initial.c1.values
    assert c1.max() <= 0.5 + 1e-12
    peak = np.unravel_index(np.argmax(c1), c1.shape)
    assert abs(X[peak] - 1.0) <= g.h[0] and abs(Y[peak] - 0.5) <= g.h[1]
    np.testing.assert_allclose(cfg.initial.c2.values, 0.2 + 0.1 * np.sin(np.pi * X / 2))

    # boundary wiring including the ramp on f
    sched = cfg.schedule
    (g1_left, _), _ = sched.g[0].base.sides
    (_, g2_right), _ = sched.g[1].base.sides
    np.testing.assert_allclose(g1_left, 0.03)
    np.testing.assert_allclose(g2_right, 0.02)
    assert sched.f.ramp.kind == "linear" and sched.f.ramp.t1 == 0.05
    data = sched.at(0.025)  # halfway up the ramp
    assert data.f.sides[0][0][0] == pytest.approx(-0.05)  # sides[0][0] is left: the low end of x
    assert data.sigma.sides[0][0][0] == pytest.approx(0.02)
    np.testing.assert_allclose(sched.rho_b.values, 0.05)

    assert cfg.out_dir == "out/demo"
    assert cfg.snapshot_stride == 5


def test_defaults_fill_in():
    doc = {
        "grid": {"nx": 4, "ny": 4},
        "physics": {},
        "initial": {"c1": 1.0, "c2": 0.5},
        "time": {"t_end": 0.1, "dt": 0.05},
    }
    cfg = parse_config(doc)  # dicts are accepted directly
    assert cfg.settings == SweepSettings()  # the sweep defaults live in SweepSettings alone
    assert cfg.settings.tol == 1e-10
    assert cfg.settings.max_sweeps == 50
    assert cfg.out_dir == "out"
    assert cfg.snapshot_stride == 1
    assert cfg.params.theta == 1.0 and cfg.params.kappa == 1.0
    assert cfg.params.exchange_rate == 0.0  # no reaction
    np.testing.assert_allclose(cfg.initial.c1.values, 1.0)
    np.testing.assert_allclose(cfg.schedule.rho_b.values, 0.0)
    # boundary omitted entirely: all data defaults to zero
    assert cfg.schedule.sigma.max_abs(1.0) == 0.0


def test_sweep_settings_are_exactly_the_sweep_keys_of_the_time_block():
    # every SweepSettings field is set by a config key, so the sweep has no code-only option
    names = tuple(f.name for f in fields(SweepSettings))
    assert names == ("tol", "max_sweeps")
    assert set(names) == set(_TIME_KEYS) - {"t_end", "dt"}
    chosen = {"tol": 1e-8, "max_sweeps": 7}
    for name, value in chosen.items():
        assert value != getattr(SweepSettings(), name)
        doc = base_doc()
        doc["time"][name] = value
        assert parse_config(doc).settings == replace(SweepSettings(), **{name: value})


def test_all_violations_reported_at_once():
    doc = base_doc()
    doc["grid"]["nx"] = 0
    doc["physics"]["theta"] = 1.5
    doc["physics"]["z2"] = 3
    doc["physics"]["bogus"] = 1
    doc["boundary"]["g1"]["left"] = -0.5
    doc["time"]["dt"] = 0.5  # exceeds t_end
    doc["time"]["damping"] = 0.9  # not a setting: omega starts at 1 on every attempt
    doc["time"]["init_iterate"] = "zero"  # not a setting: the sweep starts from the previous state
    doc["time"]["lin_tol"] = 1e-12  # the exact Gauss and Darcy solves have no tolerance setting
    doc["extra_block"] = {}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    v = "\n".join(exc.value.violations)
    assert "grid.nx must be >= 1" in v
    assert "theta must lie in (0, 1]" in v
    assert "z1 > 0 > z2" in v
    assert "unknown key 'bogus'" in v
    assert "inflow and must be nonnegative" in v
    assert "time.dt must not exceed t_end, got dt=0.5, t_end=0.1" in v
    assert "unknown key 'damping' in block 'time' (allowed: t_end, dt, tol, max_sweeps)" in v
    assert "unknown key 'init_iterate' in block 'time'" in v
    assert "unknown key 'lin_tol' in block 'time'" in v
    assert "unknown top-level block 'extra_block'" in v
    assert len(exc.value.violations) >= 7
    # the exception message lists each violation on its own line
    assert str(exc.value).count("  - ") == len(exc.value.violations)


def test_grid_dependent_checks_fire_when_grid_is_valid():
    doc = base_doc()
    doc["boundary"]["f"] = {"left": 0.1, "right": 0.1}  # both outflows: unbalanced
    doc["initial"]["c1"] = {"kind": "expression", "expr": "0-1 + 0*x"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    v = "\n".join(exc.value.violations)
    assert "zero total flux" in v
    assert "initial.c1 must be nonnegative on the grid" in v


def test_missing_required_blocks():
    with pytest.raises(ConfigError) as exc:
        parse_config("{}")
    v = "\n".join(exc.value.violations)
    for name in ("grid", "physics", "initial", "time"):
        assert "missing required block %r" % name in v


def test_not_json_and_wrong_top_level():
    with pytest.raises(ConfigError, match="not valid JSON"):
        parse_config("{nope")
    with pytest.raises(ConfigError, match="top level must be a JSON object"):
        parse_config("[1, 2]")


def test_ramp_validation():
    # schedule.Ramp makes the checks; each bad ramp is one violation that names it
    needs = "boundary.f.ramp: linear ramp needs t1 > t0 >= 0"
    for ramp, fragment in (
        ({"kind": "linear", "t0": 0.1, "t1": 0.1}, needs),
        ({"kind": "linear", "t0": -0.1, "t1": 0.05}, needs),
        ({"kind": "linear", "t0": 0.0}, needs + ", got t0=0.0 t1=None"),
        ({"kind": "linear", "t0": "soon", "t1": 0.05}, "boundary.f.ramp.t0 must be a finite number"),
        ({"kind": "linear", "t1": [1]}, "boundary.f.ramp.t1 must be a finite number"),
        ({"kind": "smooth"}, "boundary.f.ramp: ramp kind must be 'const' or 'linear', got 'smooth'"),
        ({"kind": ["linear"]}, "boundary.f.ramp: ramp kind must be"),
        ({"t0": 0.0, "t1": 0.05}, "boundary.f.ramp: const ramp takes no times (kind 'linear' does), got t0=0.0 t1=0.05"),
        ({"kind": "const", "t1": 0.5}, "boundary.f.ramp: const ramp takes no times"),
        ({"kind": "const", "t0": 0.1}, "boundary.f.ramp: const ramp takes no times"),
    ):
        doc = base_doc()
        doc["boundary"]["f"]["ramp"] = ramp
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert len(exc.value.violations) == 1, ramp
        assert exc.value.violations[0].startswith(fragment), exc.value.violations
    # a constant ramp's t0 may be its default 0, and a linear one without t0 starts at 0
    doc = base_doc()
    doc["boundary"]["f"]["ramp"] = {"kind": "const", "t0": 0}
    assert parse_config(json.dumps(doc)).schedule.f.ramp == Ramp()
    doc["boundary"]["f"]["ramp"] = {"kind": "linear", "t1": 0.5}
    assert parse_config(json.dumps(doc)).schedule.f.ramp == Ramp("linear", 0.0, 0.5)


def test_field_spec_validation():
    doc = base_doc()
    doc["initial"]["c1"] = {"kind": "gaussian", "center": [0.5], "width": -1, "amplitude": 1}
    doc["initial"]["c2"] = {"kind": "wavelet"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    v = "\n".join(exc.value.violations)
    assert "center must be [x, y]" in v
    assert "width must be > 0" in v
    assert "kind must be one of" in v
    # a kind that is not a string is flagged, not looked up (a list cannot be hashed)
    for kind in (["gaussian"], {"kind": "constant"}):
        doc = base_doc()
        doc["initial"]["c1"] = {"kind": kind}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
        assert exc.value.violations == ["initial.c1.kind must be one of constant, gaussian, expression, got %r" % kind]


def test_reaction_kind_and_rate_become_one_exchange_rate():
    # kind "none" is the exchange at rate 0, whatever rate is given; any other kind is flagged
    doc = base_doc()
    doc["physics"]["reaction"] = {"kind": "implode"}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.violations == ["physics.reaction.kind must be 'none' or 'exchange', got 'implode'"]
    doc["physics"]["reaction"] = {"kind": "none", "rate": 0.7}
    assert parse_config(json.dumps(doc)).params.exchange_rate == 0.0
    doc["physics"]["reaction"] = {"kind": "exchange", "rate": 0.7}
    assert parse_config(json.dumps(doc)).params.exchange_rate == 0.7
    doc["physics"]["reaction"] = {"kind": "exchange", "rate": -0.5}
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.violations == ["physics.reaction.rate must be >= 0, got -0.5"]


def _set(doc, path, value):
    *parents, last = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        ("output", [], "block 'output' must be an object"),
        ("physics.reaction", "exchange", "physics.reaction must be an object"),
        ("boundary.g1", 0.03, "boundary.g1 must be an object"),
        ("boundary.f.ramp", "linear", "boundary.f.ramp must be an object"),
        ("physics.reaction.k", 1, "unknown key 'k' in physics.reaction (allowed: kind, rate)"),
        ("boundary.sigma.k", 1, "unknown key 'k' in boundary.sigma (allowed: left, right, bottom, top, ramp)"),
        ("boundary.f.ramp.k", 1, "unknown key 'k' in boundary.f.ramp (allowed: kind, t0, t1)"),
        ("initial.c1.k", 1, "unknown key 'k' in initial.c1 (allowed"),
        ("initial.c1", "high", "initial.c1 must be a number or a field spec object, got 'high'"),
    ],
)
def test_each_object_flags_a_non_object_and_unknown_keys(path, value, fragment):
    doc = base_doc()
    _set(doc, path, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert len(exc.value.violations) == 1
    assert exc.value.violations[0].startswith(fragment)


_HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "path, value, violation",
    [
        ("grid.nx", 0, "grid.nx must be >= 1, got 0"),
        ("grid.nx", 8.0, "grid.nx must be a finite integer, got 8.0"),
        ("grid.ny", True, "grid.ny must be a finite integer, got True"),
        ("grid.ny", _HUGE, "grid.ny must be a finite integer, got %r" % _HUGE),
        ("grid.lx", 0, "grid.lx must be > 0, got 0"),
        ("grid.ly", "1", "grid.ly must be a finite number, got '1'"),
        ("physics.theta", 0, "physics.theta must lie in (0, 1], got 0"),
        ("physics.theta", 1.5, "physics.theta must lie in (0, 1], got 1.5"),
        ("physics.theta", None, "physics.theta must be a finite number, got None"),
        ("physics.mu", 0.0, "physics.mu must be > 0, got 0"),
        ("physics.mu", False, "physics.mu must be a finite number, got False"),
        ("physics.eps_s", -1e-300, "physics.eps_s must be > 0, got -1e-300"),
        ("physics.kappa", -0.5, "physics.kappa must be >= 0, got -0.5"),
        ("physics.kappa", [1], "physics.kappa must be a finite number, got [1]"),
        ("physics.D", [1.0, 0.0], "physics.D must be a pair of positive numbers, got [1.0, 0.0]"),
        ("physics.D", [1.0, 2.0, 3.0], "physics.D must be a pair of positive numbers, got [1.0, 2.0, 3.0]"),
        ("physics.K", 1.0, "physics.K must be a pair of positive numbers, got 1.0"),
        ("physics.z1", 1.0, "physics.z1 must be a finite integer, got 1.0"),
        ("physics.z1", 0, "physics valencies must satisfy z1 > 0 > z2, got z1=0, z2=-1"),
        ("physics.z2", _HUGE, "physics.z2 must be a finite integer, got %r" % _HUGE),
        ("physics.z2", 1, "physics valencies must satisfy z1 > 0 > z2, got z1=2, z2=1"),
        ("physics.reaction.rate", -0.5, "physics.reaction.rate must be >= 0, got -0.5"),
        ("physics.reaction.rate", "fast", "physics.reaction.rate must be a finite number, got 'fast'"),
        ("time.t_end", 0, "time.t_end must be > 0, got 0"),
        ("time.t_end", _HUGE, "time.t_end must be a finite number, got %r" % _HUGE),
        ("time.dt", -0.005, "time.dt must be > 0, got -0.005"),
        ("time.tol", 0, "time.tol must be > 0, got 0"),
        ("time.tol", True, "time.tol must be a finite number, got True"),
        ("time.max_sweeps", 0, "time.max_sweeps must be >= 1, got 0"),
        ("time.max_sweeps", -10**7, "time.max_sweeps must be >= 1, got -10000000"),
        ("time.max_sweeps", 5.0, "time.max_sweeps must be a finite integer, got 5.0"),
        ("output.snapshot_stride", 0, "output.snapshot_stride must be >= 1, got 0"),
        ("output.snapshot_stride", 2.5, "output.snapshot_stride must be a finite integer, got 2.5"),
        ("initial.c1.width", 0, "initial.c1.width must be > 0, got 0"),
        ("initial.c1.width", None, "initial.c1.width must be a finite number, got None"),
        ("initial.c1.width", 1e308, "initial.c1.width must have a finite square, got 1e+308"),
        ("initial.c1", {"kind": "constant"}, "initial.c1.value is required"),
        ("initial.c2.expr", 5, "initial.c2.expr must be a string, got 5"),
        ("output.directory", "", "output.directory must be a nonempty string, got ''"),
    ],
)
def test_each_bounded_key_flags_exactly_its_violation(path, value, violation):
    # integers print with %d and other numbers with %g; a bad value is one violation and leads to no other
    doc = base_doc()
    _set(doc, path, value)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.violations == [violation]


@pytest.mark.parametrize(
    "path, value, record, expected",
    [
        ("physics.theta", 1, "params.theta", 1.0),
        ("physics.kappa", 0, "params.kappa", 0.0),
        ("physics.reaction.rate", 0, "params.exchange_rate", 0.0),
        ("time.dt", 0.1, "params.dt", 0.1),  # equal to time.t_end
        ("physics.mu", 1e-300, "params.mu", 1e-300),
        ("physics.mu", 1e300, "params.mu", 1e300),
        ("physics.eps_s", 1e-300, "params.eps_s", 1e-300),
        ("physics.eps_s", 1e300, "params.eps_s", 1e300),
        ("physics.D", [1e-300, 1e300], "params.D", (1e-300, 1e300)),
        ("physics.K", [1e-300, 1e300], "params.K", (1e-300, 1e300)),
        pytest.param("physics.z1", 10**300, "params.z", (10**300, -1), id="physics.z1-10**300"),
        ("time.tol", 1e-300, "settings.tol", 1e-300),
        ("time.max_sweeps", 1, "settings.max_sweeps", 1),
        ("output.snapshot_stride", 1, "snapshot_stride", 1),
        ("grid.lx", 1e-300, "grid.length", (1e-300, 1.0)),
        ("grid.ly", 1e300, "grid.length", (2.0, 1e300)),
    ],
)
def test_every_edge_value_the_reader_accepts_builds_its_record(path, value, record, expected):
    # the records are built after the verdict, unguarded: a record rule stricter
    # than the reader's would escape parse_config as a bare ValueError here
    doc = base_doc()
    _set(doc, path, value)
    assert attrgetter(record)(parse_config(json.dumps(doc))) == expected


def test_gaussian_width_is_refused_exactly_where_its_square_overflows():
    # width**2 used to raise OverflowError out of parse_config; the widest
    # accepted bump is flat at its amplitude, and the bump keeps width**2
    widest = math.sqrt(1.7976931348623157e308)
    doc = base_doc()
    doc["initial"]["c1"]["width"] = widest
    cfg = parse_config(json.dumps(doc))
    assert np.array_equal(cfg.initial.c1.values, np.full(cfg.grid.shape, 0.5))
    doc["initial"]["c1"]["width"] = math.nextafter(widest, math.inf)
    with pytest.raises(ConfigError) as exc:
        parse_config(json.dumps(doc))
    assert exc.value.violations == ["initial.c1.width must have a finite square, got 1.34078e+154"]

    doc["initial"]["c1"]["width"] = 0.3
    x, y = Grid(8, 4, 2.0, 1.0).cell_centers()
    bump = 0.5 * np.exp(-((x - 1.0) ** 2 + (y - 0.5) ** 2) / (2.0 * 0.3**2))
    assert np.array_equal(parse_config(json.dumps(doc)).initial.c1.values, bump)


def test_readme_configuration_example_parses():
    # the documented schema is the one parse_config reads
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(here, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    example = re.search(r"```jsonc\n(.*?)```", text, re.DOTALL).group(1)
    cfg = parse_config(re.sub(r"//.*", "", example))
    assert (cfg.grid.n[0], cfg.params.z2) == (32, -2)
    assert cfg.schedule.f.ramp.kind == "linear"


def test_expression_whitelist():
    fn = compile_expression("1 + 0.5*sin(pi*x)*cos(pi*y) - exp(-x**2)/2")
    x = np.array([0.25, 0.5])
    y = np.array([0.5, 0.25])
    expected = 1 + 0.5 * np.sin(np.pi * x) * np.cos(np.pi * y) - np.exp(-(x**2)) / 2
    np.testing.assert_allclose(fn(x, y), expected)

    rejected = [
        ("z + 1", "unknown name"),
        ("__import__('os')", "calls something other than"),
        ("sin(x, y)", "exactly one argument"),
        ("x % 2", "forbidden operator"),
        ("not x", "forbidden unary operator"),
        ("~x", "forbidden unary operator"),
        ("x if y else 0", "forbidden syntax"),
        ("x.real", "forbidden syntax"),
        ("x < y", "forbidden syntax"),
        ("'a'", "non-numeric constant"),
        ("True + x", "non-numeric constant"),
        ("sin(", "does not parse"),
        ("[1, 2]", "forbidden syntax"),
    ]
    for expr, fragment in rejected:
        with pytest.raises(ExpressionError, match=fragment):
            compile_expression(expr)


def test_expression_evaluates_bit_equal_to_numpy():
    fn = compile_expression("-x**2 + 3*y/(1 + x) - sqrt(abs(sin(pi*x) - cos(-y))) * exp(-(x - y))")
    x = np.linspace(-0.9, 2.0, 13)
    y = np.linspace(3.0, -1.0, 13)
    expected = -(x**2.0) + 3.0 * y / (1.0 + x)
    expected -= np.sqrt(np.abs(np.sin(np.pi * x) - np.cos(-y))) * np.exp(-(x - y))
    assert np.array_equal(fn(x, y), expected)


def test_flux_balance_rule_is_shared_with_the_darcy_solve():
    # one rule: parse_config flags the f data exactly when solve_darcy refuses it
    grid = Grid(8, 4, 2.0, 1.0)
    for net, ok in ((1e-10, True), (1e-9, False)):  # net flux against a tolerance of 1e-10 * 2
        doc = base_doc()
        doc["boundary"]["f"] = {"left": -1.0, "right": 1.0 + net}
        assert (imbalance(BoundaryField(grid, left=-1.0, right=1.0 + net)) == 0.0) is ok
        if ok:
            parse_config(json.dumps(doc))
            continue
        with pytest.raises(ConfigError, match="zero total flux"):
            parse_config(json.dumps(doc))
        with pytest.raises(IncompatibleFlowData):
            solve_darcy(grid, None, None, None, BoundaryField(grid, left=-1.0, right=1.0 + net))


def test_flux_balance_of_huge_data_does_not_overflow():
    # the rule is applied to f / max |f|, so sums near the float limit neither warn nor read as nan
    with open(os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "configs", "demo.json")) as fh:
        doc = json.load(fh)
    doc["boundary"]["f"] = {"left": -1e308, "right": 1e308}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parse_config(json.dumps(doc))
        doc["boundary"]["f"] = {"left": 1e308, "right": 1e308}  # both outflows
        with pytest.raises(ConfigError, match="zero total flux .*; net integral is inf"):
            parse_config(json.dumps(doc))
        doc["boundary"]["f"] = {"left": -1e308, "right": 0.999e308}
        with pytest.raises(ConfigError, match=r"net integral is -1e\+305"):
            parse_config(json.dumps(doc))


def test_expression_violations_flow_into_config_error():
    doc = base_doc()
    doc["initial"]["c2"] = {"kind": "expression", "expr": "open('x')"}
    with pytest.raises(ConfigError, match="calls something other than"):
        parse_config(json.dumps(doc))
    # constant parts that Python floats cannot hold: division by zero, overflow,
    # a complex power; each is a violation, not a traceback or a dropped imaginary part
    for expr, constant in (
        ("1/0 + x", "1 / 0"),
        ("0**-1 + x", "0 ** (-1)"),
        ("10**400 + x", "10 ** 400"),
        ("(-8)**0.5 + x", "(-8) ** 0.5"),
    ):
        doc["initial"]["c2"] = {"kind": "expression", "expr": expr}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=re.escape("constant %s is not a finite real number" % constant)):
                parse_config(json.dumps(doc))
    # a value that is not finite on the grid is one violation, with no numpy warning before it
    doc["initial"]["c2"] = {"kind": "expression", "expr": "sqrt(x-2)"}  # nan on the cells with x < 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(doc))
    assert exc.value.violations == ["initial.c2 evaluates to non-finite values on the grid"]


def test_load_config_reads_files(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(base_doc()))
    cfg = load_config(str(path))
    assert cfg.grid.n[0] == 8
    assert cfg.params.dt == 0.005


def test_shipped_demo_configs_parse():
    import glob

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = sorted(glob.glob(os.path.join(here, "configs", "*.json")))
    assert len(paths) >= 3
    for p in paths:
        cfg = load_config(p)
        assert cfg.grid.n[0] >= 1
        assert math.isfinite(cfg.params.T_end)
