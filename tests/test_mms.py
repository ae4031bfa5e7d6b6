"""Manufactured solutions: exactness cases and mesh-refinement orders.

Two kinds of verification, matching how each scheme behaves on the
manufactured data:

  * Exactness. The field case with a quadratic potential and the pure-drift
    case with an exponential steady profile are reproduced to rounding on
    any grid, so their errors are asserted tiny rather than fitted for an
    order (log-ratios of rounding noise are meaningless).

  * Orders. The flow case converges at second order in the potential
    (its velocity happens to be exact on square grids), and the parabolic
    cases converge at second order or better at cell centers.

The gauge fields are compared after the weighted zero-mean projection, whose
frozen oracle is values (0, 1, 2) with weights (1, 1, 2): it subtracts the
weighted mean 1.25.
"""

import math

import numpy as np
import pytest

from dpnpsim.mms import CASES, ConvergenceTable, project_zero_mean, run_mms


def test_project_zero_mean_frozen_example():
    out = project_zero_mean(np.array([0.0, 1.0, 2.0]), np.array([1.0, 1.0, 2.0]))
    assert np.allclose(out, [-1.25, -0.25, 0.75])
    # the projection really has zero weighted mean and is idempotent
    assert abs((out * [1.0, 1.0, 2.0]).sum()) < 1e-14
    assert np.allclose(project_zero_mean(out, np.array([1.0, 1.0, 2.0])), out)


def test_case_list_is_stable():
    assert CASES == ("poisson", "darcy", "diffusion", "driftdiffusion", "coupled")


def test_unknown_case_rejected():
    with pytest.raises(ValueError, match="unknown manufactured case"):
        run_mms("advection", (8, 16))


def test_poisson_quadratic_is_exact():
    table = run_mms("poisson", (8, 16))
    assert table.case == "poisson"
    assert set(table.fields()) == {"phi", "e"}
    for f in table.fields():
        assert max(table.errors[f]) <= 1e-10


def test_driftdiffusion_exponential_profile_is_exact():
    table = run_mms("driftdiffusion", (8, 16))
    for f in table.fields():
        assert max(table.errors[f]) <= 1e-10
        # the solve starts away from the profile, so the errors are rounding, not an untouched start
        assert min(table.errors[f]) > 0.0


def test_darcy_pressure_second_order_velocity_exact():
    table = run_mms("darcy", (8, 16, 32))
    assert min(table.orders["p"]) >= 1.9
    # the manufactured stream-function velocity is divergence free in the
    # discrete sense on square grids, so the flux is exact to rounding
    assert max(table.errors["q"]) <= 1e-9


def test_error_grown_from_zero_has_order_minus_inf():
    # on one cell the manufactured pressure error is exactly 0, on 2x2 it is
    # not: log(0 / e1) / log(h0 / h1) is -inf, not +inf
    assert run_mms("darcy", (1, 2)).orders["p"] == [-math.inf]


def test_diffusion_converges_at_second_order():
    table = run_mms("diffusion", (8, 16, 32))
    assert set(table.fields()) == {"c1", "c2"}
    assert min(table.orders["c1"]) >= 1.9
    assert min(table.orders["c2"]) >= 1.9


def test_coupled_all_fields_converge():
    table = run_mms("coupled", (8, 16))
    assert set(table.fields()) == {"c1", "c2", "phi", "p"}
    for f in table.fields():
        assert min(table.orders[f]) >= 0.9


def test_grid_specs_accept_ints_and_pairs():
    t1 = run_mms("poisson", (8, 16))
    t2 = run_mms("poisson", ((8, 8), (16, 16)))
    assert t1.grids == t2.grids == [(8, 8), (16, 16)]
    assert t1.hs == t2.hs
    rect = run_mms("poisson", ((8, 4),))
    assert rect.grids == [(8, 4)]
    assert rect.hs[0] == pytest.approx(0.25)  # h is the coarser spacing


def test_grid_list_is_checked_before_any_solve():
    # equal consecutive spacings would divide by log(h0 / h1) = 0 in the order loop
    for grids in ((8, 8), ((8, 16), (16, 8))):
        with pytest.raises(ValueError, match="8x.* have the same spacing h"):
            run_mms("poisson", grids)
    # Grid's own rule and message: one rule, one message
    with pytest.raises(ValueError, match=r"grid needs integers nx >= 1 and ny >= 1, got \(0, 4\)"):
        run_mms("poisson", ((0, 4),))
    with pytest.raises(ValueError, match="need at least one grid"):
        run_mms("poisson", [])


def test_table_text_and_csv_shape():
    table = run_mms("diffusion", (8, 16))
    text = table.text()
    assert "diffusion" in text
    assert "order" in text
    lines = [ln for ln in text.splitlines() if ln.strip()]
    assert len(lines) >= 4  # title, header, two grid rows

    rows = table.csv_rows()
    assert rows[0] == ["case", "nx", "ny", "h", "field", "error", "order"]
    body = rows[1:]
    assert len(body) == 2 * len(table.fields())
    # first refinement level has no order entry
    first = [r for r in body if r[1] == "8"]
    assert all(r[6] == "" for r in first)
    second = [r for r in body if r[1] == "16"]
    assert all(r[6] != "" for r in second)
    for r in body:
        float(r[3]), float(r[5])  # h and error parse as plain floats
        assert "np." not in r[3] and "np." not in r[5]


def test_orders_match_error_ratios():
    table = run_mms("diffusion", (8, 16, 32))
    e = table.errors["c1"]
    h = table.hs
    expected = math.log(e[0] / e[1]) / math.log(h[0] / h[1])
    # one order per refinement: two entries for three grids
    assert len(table.orders["c1"]) == 2
    assert table.orders["c1"][0] == pytest.approx(expected)
    assert isinstance(table, ConvergenceTable)
