"""Physical parameter validation and time-dependent data schedules.

The linear ramp has closed-form maximum and squared time integral; both are
frozen here against hand integrals (rise contributes width * s^3 / 3 in the
scaled variable, the plateau contributes its own length).
"""

import json
import math
import os

import numpy as np
import pytest

from dpnpsim.config import ConfigError, parse_config
from dpnpsim.mesh import BoundaryField, CellField, Grid
from dpnpsim.params import PhysParams
from dpnpsim.schedule import BoundarySpec, Ramp, Schedule, StepData

from schedule_helpers import constant_schedule


def test_params_defaults_and_derived_quantities():
    p = PhysParams(theta=0.5, D=(2.0, 4.0), K=(1.0, 0.25), mu=2.0, eps_s=3.0)
    assert p.max_z == 1
    assert p.alpha_D == 2.0
    assert p.alpha_K == pytest.approx(1.0)  # 1 / max(K)
    assert p.C_K == pytest.approx(4.0)  # 1 / min(K)
    assert p.epsilon == (6.0, 12.0)


def test_params_validation_messages():
    with pytest.raises(ValueError, match="z1 > 0 > z2"):
        PhysParams(z1=-1, z2=1)
    with pytest.raises(ValueError):
        PhysParams(theta=0.0)
    with pytest.raises(ValueError):
        PhysParams(theta=1.1)
    with pytest.raises(ValueError):
        PhysParams(D=(0.0, 1.0))
    with pytest.raises(ValueError):
        PhysParams(mu=-1.0)
    with pytest.raises(ValueError, match="eps_s must be > 0, got 0"):
        PhysParams(eps_s=0.0)
    with pytest.raises(ValueError, match="kappa must be >= 0, got -1"):
        PhysParams(kappa=-1.0)
    with pytest.raises(ValueError):
        PhysParams(T_end=0.1, dt=0.2)


def test_exchange_rate_defaults_to_no_reaction_and_must_be_nonnegative():
    # the reaction kinds ('none' is the exchange at rate 0) are a config rule, tested in test_config
    assert PhysParams().exchange_rate == 0.0
    assert PhysParams(exchange_rate=2.5).exchange_rate == 2.5
    with pytest.raises(ValueError, match="exchange_rate must be >= 0, got -1"):
        PhysParams(exchange_rate=-1.0)


@pytest.mark.parametrize(
    "key, value",
    [
        ("theta", 0),
        ("theta", 1.5),
        ("mu", 0.0),
        ("eps_s", -1e-300),
        ("kappa", -0.5),
        ("reaction.rate", -0.5),
        # the record accepted these six, which the config refused
        ("mu", math.inf),
        ("eps_s", math.inf),
        ("kappa", math.inf),
        ("reaction.rate", math.inf),
        ("D", [1.0, math.inf]),
        ("z1", True),
        ("K", [1.0, 0.0]),
    ],
)
def test_params_reject_what_the_config_rejects(key, value):
    # one rule, one message: the config reports the record's under the key's
    # name, physics.reaction.rate for the field exchange_rate
    field = "exchange_rate" if key == "reaction.rate" else key
    with pytest.raises(ValueError) as exc:
        PhysParams(**{field: value})
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    block = doc["physics"]["reaction"] if key == "reaction.rate" else doc["physics"]
    block[key.rpartition(".")[2]] = value
    with pytest.raises(ConfigError) as cfg_exc:
        parse_config(doc)
    after_name = str(exc.value).removeprefix(field)
    assert after_name.startswith(" must ")
    assert cfg_exc.value.violations == ["physics." + key + after_name]


def test_params_reject_the_horizon_the_config_rejects():
    # one rule, one message: the config reports the record's after "time."
    with pytest.raises(ValueError) as exc:
        PhysParams(T_end=0.1, dt=0.2)
    assert str(exc.value) == "dt must not exceed t_end, got dt=0.2, t_end=0.1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["time"].update(t_end=0.1, dt=0.2)
    with pytest.raises(ConfigError) as cfg_exc:
        parse_config(doc)
    assert cfg_exc.value.violations == ["time." + str(exc.value)]


def test_const_ramp_is_identity():
    r = Ramp("const")
    assert r.factor(0.0) == 1.0
    assert r.factor(123.0) == 1.0
    assert r.max_factor(5.0) == 1.0
    assert r.int_sq(3.0) == pytest.approx(3.0)


def test_linear_ramp_factor_and_exact_square_integral():
    r = Ramp("linear", t0=1.0, t1=3.0)
    assert r.factor(0.5) == 0.0
    assert r.factor(2.0) == pytest.approx(0.5)
    assert r.factor(10.0) == 1.0
    # int_0^T factor^2: zero until t0, then width * s^3/3 in s = (t-t0)/width
    assert r.int_sq(1.0) == 0.0
    assert r.int_sq(2.0) == pytest.approx(2.0 * (0.5**3) / 3.0)
    assert r.int_sq(3.0) == pytest.approx(2.0 / 3.0)
    assert r.int_sq(5.0) == pytest.approx(2.0 / 3.0 + 2.0)
    with pytest.raises(ValueError):
        Ramp("linear", t0=2.0, t1=2.0)
    with pytest.raises(ValueError):
        Ramp("sigmoid")


def test_boundary_spec_at_and_norms():
    g = Grid(2, 2, 1.0, 1.0)
    spec = BoundarySpec(g, left=2.0, ramp=Ramp("linear", t0=0.0, t1=2.0))
    assert np.allclose(spec.at(1.0).sides[0][0], 1.0)  # sides[0][0] is left: the low end of x
    assert np.allclose(spec.at(4.0).sides[0][0], 2.0)
    assert spec.max_abs(1.0) == pytest.approx(1.0)
    # L2 over [0, T] x boundary: values^2 * face length summed, times int_sq
    # left side: 2 faces of length 0.5, value 2 -> space_sq = 4.0 * 1.0
    assert spec.l2_time_boundary(2.0) == pytest.approx(np.sqrt(4.0 * (2.0 / 3.0)))
    # a left face spans hy: on a 2x2 grid of 1 x 3 the side has length 3, space_sq = 4.0 * 3.0
    assert BoundarySpec(Grid(2, 2, 1.0, 3.0), left=2.0).l2_time_boundary(2.0) == pytest.approx(np.sqrt(12.0 * 2.0))
    with pytest.raises(TypeError):  # the sides are BoundaryField's keywords, so an unknown one is refused
        BoundarySpec(g, front=1.0)


def test_constant_schedule_wiring_and_sources():
    g = Grid(2, 2, 1.0, 1.0)
    sched = constant_schedule(
        g,
        sigma={"left": 1.0},
        f={"left": -0.5, "right": 0.5},
        g1={"bottom": 0.25},
        rho_b=CellField.full(g, 0.125),
    )
    data = sched.at(2.0)
    assert isinstance(data, StepData)
    # sides[axis][0 low, 1 high]: left is [0][0], right [0][1], bottom [1][0], top [1][1]
    assert np.allclose(data.sigma.sides[0][0], 1.0)
    assert np.allclose(data.f.sides[0][1], 0.5)
    assert np.allclose(data.g[0].sides[1][0], 0.25)
    assert np.allclose(data.g[1].sides[1][1], 0.0)
    assert np.allclose(data.rho_b.values, 0.125)
    assert data.sources is None


def test_schedule_evaluates_ramps_per_field():
    g = Grid(2, 1, 1.0, 1.0)
    sched = Schedule(
        sigma=BoundarySpec(g, left=1.0),
        f=BoundarySpec(g, left=-1.0, right=1.0, ramp=Ramp("linear", t0=0.0, t1=1.0)),
        g=(BoundarySpec(g), BoundarySpec(g)),
        rho_b=CellField.zeros(g),
    )
    half = sched.at(0.5)
    assert np.allclose(half.sigma.sides[0][0], 1.0)  # left: the low end of x
    assert np.allclose(half.f.sides[0][0], -0.5)
    # ramped flow data stays balanced at every time
    assert half.f.boundary_integral() == pytest.approx(0.0, abs=1e-15)
