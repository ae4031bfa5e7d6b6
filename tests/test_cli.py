"""Command-line entry points: exit codes, files written, and determinism.

Runs exercise main(argv) directly -- no subprocesses -- and use tiny grids
so each invocation finishes in well under a second.  The repeated-run test
pins the reproducibility contract: identical configurations must produce
byte-identical CSV and bounds files (summary.json is excluded because it
records the wall time).
"""

import gc
import glob
import json
import os
import re
import tracemalloc
import warnings
from dataclasses import fields

import pytest

from dpnpsim import gummel, monitors, runner, transport
from dpnpsim.bounds import BoundsEvaluator, BoundsLedger, DataNorms
from dpnpsim.cli import main
from dpnpsim.config import load_config, parse_config
from dpnpsim.mesh import Grid
from dpnpsim.mms import CASES
from dpnpsim.monitors import MonitorReport
from dpnpsim.transport import free_charge

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SHIPPED = sorted(glob.glob(os.path.join(ROOT, "configs", "*.json")))


def write_cfg(tmp_path, name="run.json", **overrides):
    doc = {
        "grid": {"nx": 8, "ny": 8},
        "physics": {
            "theta": 0.8,
            "kappa": 0.1,
            "z1": 1,
            "z2": -1,
            "reaction": {"kind": "exchange", "rate": 0.1},
        },
        "initial": {
            "c1": {"kind": "expression", "expr": "0.5 + 0.2*cos(pi*x)"},
            "c2": 0.4,
        },
        "boundary": {"g1": {"left": 0.05}, "f": {"left": -0.1, "right": 0.1}},
        "time": {"t_end": 0.03, "dt": 0.01},
        "output": {"snapshot_stride": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in doc:
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_run_writes_all_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = str(tmp_path / "out")
    assert main(["run", cfg, "--out", out]) == 0
    stdout = capsys.readouterr().out
    assert "wrote" in stdout and "monitors: ok" in stdout

    # 3 steps, stride 2: snapshots at steps 0, 2, and the final step 3
    names = sorted(os.listdir(out))
    assert names == [
        "bounds.txt",
        "monitors.csv",
        "snapshot_000000.csv",
        "snapshot_000002.csv",
        "snapshot_000003.csv",
        "summary.json",
    ]

    mon = read(os.path.join(out, "monitors.csv")).decode().splitlines()
    assert mon[0] + "\n" == runner.csv_line(f.name for f in fields(MonitorReport))
    assert len(mon) == 1 + 3  # header + one row per accepted step
    assert "np." not in mon[1]

    snap = read(os.path.join(out, "snapshot_000000.csv")).decode().splitlines()
    assert snap[0] == "i,j,x,y,c1,c2,p,phi,rho_f"
    assert len(snap) == 1 + 64

    summary = json.loads(read(os.path.join(out, "summary.json")))
    for key in (
        "grid",
        "domain",
        "t_end",
        "steps",
        "total_sweeps",
        "max_sweeps_in_step",
        "total_halvings",
        "total_wasted_sweeps",
        "monitor_rows",
        "monitor_failures",
        "all_monitors_ok",
        "wall_time_s",
    ):
        assert key in summary, key
    assert summary["steps"] == 3
    assert summary["all_monitors_ok"] is True
    assert summary["grid"] == [8, 8]

    text = read(os.path.join(out, "bounds.txt")).decode()
    for label in ("B0", "C0_hat", "CM", "data norms", "c0_inf"):
        assert label in text


def test_snapshot_rows_list_every_cell_j_major_with_exact_values(tmp_path):
    cfg = load_config(write_cfg(tmp_path, grid={"nx": 4, "ny": 3}))
    out = runner.run(cfg, out_dir=str(tmp_path / "out"))
    grid, state = cfg.grid, out.result.states[-1]
    pieces = list(runner.snapshot_text(runner.row_templates(grid), cfg.params, state))
    assert len(pieces) == 1 + grid.n[1]  # the header, then one piece per grid row j
    text = "".join(pieces)
    assert text.endswith("\n")
    rows = [line.split(",") for line in text[:-1].split("\n")]
    assert rows[0] == ["i", "j", "x", "y", "c1", "c2", "p", "phi", "rho_f"]
    assert len(rows) == 1 + 12
    planes = (
        state.conc.c1.values,
        state.conc.c2.values,
        state.flow.p.values,
        state.electro.phi.values,
        free_charge(cfg.params, state.conc).values,
    )
    for k, row in enumerate(rows[1:]):
        j, i = divmod(k, grid.n[0])
        assert row[:2] == [str(i), str(j)]
        assert [float(v) for v in row[2:]] == [grid.centers[0][i], grid.centers[1][j]] + [a[j, i] for a in planes]
    # the final snapshot on disk is exactly this text
    assert read(os.path.join(out.out_dir, "snapshot_%06d.csv" % len(out.result.reports))).decode() == text


def _state_nbytes(state):
    """The bytes of the arrays one State holds."""
    planes = (*state.conc, state.electro.phi, state.flow.p)
    faces = (state.electro.e_faces, state.flow.q_faces)
    return sum(a.nbytes for a in (*(f.values for f in planes), *(a for f in faces for a in f.planes), *state.applied))


def _traced_run(tmp_path, n_steps, stride):
    """Run 32x32 demo physics for n_steps at a snapshot stride under tracemalloc.

    Returns (bytes its output holds, peak bytes of the run, the States its result holds, a state's bytes).
    """
    with open(os.path.join(ROOT, "configs", "demo.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["time"]["t_end"] = n_steps * doc["time"]["dt"]
    doc["output"]["snapshot_stride"] = stride
    cfg = parse_config(doc)
    tracemalloc.start()
    try:
        out = runner.run(cfg, out_dir=str(tmp_path / ("%d-%d" % (n_steps, stride))))
        held, peak = tracemalloc.get_traced_memory()
        states, state_bytes = len(out.result.states), _state_nbytes(out.result.states[-1])
        del out
        gc.collect()
        return held - tracemalloc.get_traced_memory()[0], peak, states, state_bytes
    finally:
        tracemalloc.stop()


def test_a_runs_memory_grows_with_its_snapshots_not_its_steps(tmp_path):
    held10, _, states10, state_bytes = _traced_run(tmp_path, 10, stride=10)
    held40, _, states40, _ = _traced_run(tmp_path, 40, stride=40)
    assert (states10, states40) == (1, 1)  # a run's result holds only its final state
    # a step may add its report and monitor row (a few kB), not a state (about 80 kB here)
    assert (held40 - held10) / 30 < state_bytes / 10


def test_a_runs_peak_memory_is_flat_in_its_snapshots(tmp_path):
    _, peak10, _, state_bytes = _traced_run(tmp_path, 10, stride=1)
    _, peak40, _, _ = _traced_run(tmp_path, 40, stride=1)
    # 30 more snapshots may add 30 reports and monitor rows, not a held state each
    written = sorted(n for n in os.listdir(tmp_path / "40-1") if n.startswith("snapshot_"))
    assert written == ["snapshot_%06d.csv" % k for k in range(41)]
    assert peak40 - peak10 < 3 * state_bytes


@pytest.mark.parametrize("n_steps, kept", [(7, [0, 5, 7]), (20, [0, 5, 10, 15, 20])])
def test_a_snapshot_stride_writes_step_zero_every_stride_th_step_and_the_last(tmp_path, n_steps, kept):
    runs = {}
    for stride in (1, 5):
        cfg = write_cfg(tmp_path, time={"t_end": n_steps * 0.01, "dt": 0.01}, output={"snapshot_stride": stride})
        runs[stride] = runner.run(load_config(cfg), out_dir=str(tmp_path / str(stride)))
    others = ["bounds.txt", "monitors.csv", "summary.json"]
    for stride, steps in ((1, range(n_steps + 1)), (5, kept)):
        assert sorted(os.listdir(tmp_path / str(stride))) == sorted(others + ["snapshot_%06d.csv" % k for k in steps])
    # the written states are those of their steps, bit for bit, and the monitor rows are one per accepted step
    for name in os.listdir(tmp_path / "5"):
        if name != "summary.json":
            assert read(tmp_path / "5" / name) == read(tmp_path / "1" / name), name
    assert len(read(tmp_path / "5" / "monitors.csv").splitlines()) == 1 + n_steps
    counts = [{k: v for k, v in runs[stride].summary.items() if k != "wall_time_s"} for stride in (1, 5)]
    assert counts[0] == counts[1] and counts[1]["steps"] == n_steps
    assert runs[5].result.reports == runs[1].result.reports


def test_repeated_runs_are_byte_identical(tmp_path):
    cfg = write_cfg(tmp_path)
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["run", cfg, "--out", out1]) == 0
    assert main(["run", cfg, "--out", out2]) == 0
    for name in os.listdir(out1):
        if name == "summary.json":
            continue  # contains the wall time
        assert read(os.path.join(out1, name)) == read(os.path.join(out2, name)), name


def test_check_passes_on_sound_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["check", cfg]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == len(MonitorReport.FLAGS)
    assert "FAIL" not in out
    assert "steps: 3" in out


def test_run_and_check_print_the_same_counts_footer(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 0
    run_out = capsys.readouterr().out
    assert main(["check", cfg]) == 0
    check_out = capsys.readouterr().out
    summary = json.loads(read(str(out / "summary.json")))
    footer = "steps: 3   sweeps: %d   halvings: 0   wasted: 0" % summary["total_sweeps"]
    pattern = r"steps: \d+ +sweeps: \d+ +halvings: \d+ +wasted: \d+"
    assert re.findall(pattern, run_out) == re.findall(pattern, check_out) == [footer]


# steps, sweeps, halvings and wasted sweeps of each shipped config: a change to a default path shows up here
SHIPPED_COUNTS = {"demo.json": (20, 80, 0, 0), "ramped_inflow.json": (20, 78, 0, 0), "symmetric.json": (20, 40, 0, 0)}


def no_trailing_blanks(out):
    """out, after asserting that none of its lines ends in whitespace."""
    assert [line for line in out.splitlines() if line != line.rstrip()] == []
    return out


@pytest.mark.parametrize("path", SHIPPED, ids=os.path.basename)
def test_every_shipped_config_passes_check(path, tmp_path, capsys):
    assert main(["check", path]) == 0
    *verdicts, footer = no_trailing_blanks(capsys.readouterr().out).splitlines()
    assert verdicts == ["PASS  " + flag.removesuffix("_ok") for flag in MonitorReport.FLAGS]
    assert len(verdicts) == 7
    counts = SHIPPED_COUNTS[os.path.basename(path)]
    assert footer == "steps: %d   sweeps: %d   halvings: %d   wasted: %d" % counts
    # run writes step 0, every snapshot_stride-th step and the last, each as a stride-1 run writes it
    doc = json.loads(read(path))
    stride, doc["output"]["snapshot_stride"] = doc["output"]["snapshot_stride"], 1
    (tmp_path / "every.json").write_text(json.dumps(doc))
    assert main(["run", path, "--out", str(tmp_path / "kept")]) == 0
    assert main(["run", str(tmp_path / "every.json"), "--out", str(tmp_path / "every")]) == 0
    assert no_trailing_blanks(capsys.readouterr().out).count(footer + "   monitors: ok") == 2
    steps = counts[0]
    others = ["bounds.txt", "monitors.csv", "summary.json"]
    snapshots = ["snapshot_%06d.csv" % k for k in sorted({*range(0, steps + 1, stride), steps})]
    assert sorted(os.listdir(tmp_path / "kept")) == sorted(others + snapshots)
    assert len(os.listdir(tmp_path / "every")) == len(others) + steps + 1
    for name in others[:2] + snapshots:
        assert read(tmp_path / "kept" / name) == read(tmp_path / "every" / name), name
    # bounds prints the constants the run wrote, then the CSV table
    assert main(["bounds", path, "--csv"]) == 0
    out = no_trailing_blanks(capsys.readouterr().out)
    assert out.startswith(read(tmp_path / "kept" / "bounds.txt").decode() + "\nquantity,value\nT,")


def test_check_fails_when_a_monitor_trips(tmp_path, capsys, monkeypatch):
    # a sloppy transport solve leaves a visible mass defect
    monkeypatch.setattr(transport, "SOLVE_TOL", 1e-5)
    cfg = write_cfg(tmp_path, time={"t_end": 0.02, "dt": 0.01})
    assert main(["check", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL  mass" in out
    assert "first at t=" in out


def test_check_fails_on_a_sign_breakdown_of_an_admissible_state(tmp_path, capsys, monkeypatch):
    # a negative summand on states whose concentrations all stay admissible is
    # a FAIL line of check, not an exception that aborts the march
    def forced(params, conc):
        s = sign_summands(params, conc)
        s[0, 0] = -1.0
        return s

    sign_summands = monitors._sign_summands
    monkeypatch.setattr(monitors, "_sign_summands", forced)
    cfg = write_cfg(tmp_path, time={"t_end": 0.02, "dt": 0.01})
    assert main(["check", cfg]) == 1
    out = no_trailing_blanks(capsys.readouterr().out)
    assert "PASS  nonneg" in out
    assert "FAIL  sign          (2 of 2 steps, first at t=0.01)" in out
    assert out.count("FAIL") == 1


def test_config_violations_exit_2(tmp_path, capsys):
    # the solver tolerances are constants and the sweep always starts from the previous state
    unknown = {"lin_tol": 1e-12, "lin_tol_transport": 1e-14, "init_iterate": "previous"}
    cfg = write_cfg(tmp_path, grid={"nx": 0}, physics={"theta": 7.0}, time=unknown)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "grid.nx" in err
    assert "theta" in err
    for key in unknown:
        assert "unknown key '%s' in block 'time'" % key in err
    for command in ("check", "bounds"):
        assert main([command, cfg]) == 2
        assert capsys.readouterr().err == err
    # a single violation is a single whole line
    for time, line in (
        ({"tol": 0}, "time.tol must be > 0, got 0"),
        ({"t_end": 0.1, "dt": 0.2}, "time.dt must not exceed t_end, got dt=0.2, t_end=0.1"),
        ({"damping": 0.9}, "unknown key 'damping' in block 'time' (allowed: t_end, dt, tol, max_sweeps)"),
    ):
        for command in ("run", "check"):
            assert main([command, write_cfg(tmp_path, time=time)]) == 2
            assert capsys.readouterr().err.splitlines() == [line]


HUGE = 10**400  # a JSON integer too large for a float


@pytest.mark.parametrize(
    "overrides, key",
    [
        ({"physics": {"kappa": HUGE}}, "physics.kappa"),
        ({"grid": {"lx": HUGE}}, "grid.lx"),
        ({"physics": {"D": [1.0, HUGE]}}, "physics.D"),
        ({"initial": {"c2": HUGE}}, "initial.c2"),
        (
            {"initial": {"c1": {"kind": "gaussian", "center": [HUGE, 0.5], "width": 0.2, "amplitude": 0.5}}},
            "initial.c1.center",
        ),
        ({"physics": {"z1": HUGE}}, "physics.z1"),
        ({"physics": {"z2": -HUGE}}, "physics.z2"),
        ({"time": {"max_sweeps": HUGE}}, "time.max_sweeps"),
    ],
)
def test_integer_too_large_for_a_float_is_one_violation(tmp_path, capsys, overrides, key):
    # float() and math.isfinite raise OverflowError on such an integer; the value must be flagged instead
    assert main(["check", write_cfg(tmp_path, **overrides)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(key + " must be")


def test_missing_config_file_exits_2(tmp_path, capsys):
    path = str(tmp_path / "nope.json")
    for command in ("run", "check"):
        assert main([command, path]) == 2
        assert re.fullmatch(r"cannot read %s: .+\n" % re.escape(path), capsys.readouterr().err)


def test_unconverged_run_exits_1(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        physics={"theta": 0.6, "kappa": 3.0, "z1": 2, "z2": -1, "reaction": {"kind": "none"}},
        initial={"c1": {"kind": "expression", "expr": "0.8 + 0.5*sin(pi*x)*sin(pi*y)"}, "c2": 0.3},
        boundary={"sigma": {"left": 0.05, "right": -0.05}, "f": {}, "g1": {}},
        time={"t_end": 0.1, "dt": 0.1, "tol": 1e-30, "max_sweeps": 1},
    )
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("run failed: ")
    assert not (out / "monitors.csv").exists() and not (out / "summary.json").exists()


def test_a_run_that_breaks_down_keeps_the_snapshots_handed_over_and_writes_no_summary(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, output={"snapshot_stride": 1}, time={"t_end": 0.05, "dt": 0.01})
    step, accepted, failed = gummel.gummel_step, [], []

    def fail_from_step_3(*args):
        if len(accepted) == 2:
            failed.append(args[4])
            raise gummel.GummelError("scripted breakdown", gummel.GummelReport(0, ()))
        accepted.append(step(*args))
        return accepted[-1]

    monkeypatch.setattr(gummel, "gummel_step", fail_from_step_3)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == "run failed: scripted breakdown\n"
    assert len(failed) == gummel.MAX_HALVINGS + 1  # step 3 halved down to the floor, then re-raised
    # state k is handed over once step k + 1 is accepted: states 0 and 1 were, state 2 never was
    assert sorted(os.listdir(out)) == ["snapshot_000000.csv", "snapshot_000001.csv"]


def test_unwritable_output_paths_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory")
    assert main(["run", cfg, "--out", str(taken)]) == 1
    assert re.match(r"run failed: .*taken", capsys.readouterr().err)
    csv_path = str(tmp_path / "missing" / "table.csv")
    assert main(["mms", "poisson", "--grids", "4,8", "--csv", csv_path]) == 1
    assert re.match(r"mms failed: .*table\.csv", capsys.readouterr().err)


def test_mms_prints_table_and_writes_csv(tmp_path, capsys):
    for case in CASES:
        csv_path = str(tmp_path / (case + ".csv"))
        assert main(["mms", case, "--grids", "8,16", "--csv", csv_path]) == 0
        out = no_trailing_blanks(capsys.readouterr().out)
        assert case in out and "order" in out
        lines = read(csv_path).decode().splitlines()
        assert lines[0] == "case,nx,ny,h,field,error,order"
        assert len(lines) == 1 + 2 * (4 if case == "coupled" else 2)  # two grids x two fields, four when coupled


def test_an_mms_study_builds_each_grid_once(monkeypatch, capsys):
    # the grid list is judged once, on the Grids the study then runs on
    built = []
    init = Grid.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Grid, "__init__", counting_init)
    assert main(["mms", "poisson", "--grids", "8,16"]) == 0
    assert "poisson" in capsys.readouterr().out
    assert len(built) == 2


def test_mms_accepts_rectangular_grid_list(capsys):
    assert main(["mms", "diffusion", "--grids", "8x4,16x8"]) == 0
    assert "8x4" in capsys.readouterr().out


def test_mms_rejects_bad_grid_list(capsys):
    for grids in ("eight", "0", "-4", "8,8", "8x16,16x8", ","):
        assert main(["mms", "poisson", "--grids", grids]) == 2
        assert "bad grid list" in capsys.readouterr().err


def test_mms_rejects_unknown_case(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mms", "advection"])
    assert exc.value.code == 2  # argparse's error exit
    assert "choose from poisson, darcy, diffusion, driftdiffusion, coupled" in capsys.readouterr().err


def test_bounds_prints_ledger_and_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    assert main(["bounds", cfg]) == 0
    out = capsys.readouterr().out
    assert "a-priori constants" in out
    assert "CM" in out

    assert main(["bounds", cfg, "--csv"]) == 0
    out = capsys.readouterr().out
    assert "quantity,value" in out
    assert "g_inf_1" in out


ZERO_DATA = {"initial": {"c1": 0.0, "c2": 0.0}, "boundary": {"g1": {"left": 0.0}}}
HUGE_F = {"f": {"left": -1e160, "right": 1e160}}


@pytest.mark.parametrize(
    "overrides, cm",
    [
        ({"physics": {"kappa": 1e100}}, "inf"),
        ({"physics": {"kappa": 1e160}}, "inf"),  # with sigma = rho_b = 0, so inf * 0 must stay 0
        ({"physics": {"z1": 10**40}}, "inf"),
        ({"boundary": HUGE_F}, "inf"),
        ({"physics": {"kappa": 0.0}, "boundary": HUGE_F}, "inf"),
        (dict(ZERO_DATA, physics={"kappa": 1e160}), "0.0"),
        (dict(ZERO_DATA, boundary=dict(ZERO_DATA["boundary"], **HUGE_F)), "0.0"),
    ],
    ids=["kappa**4", "kappa**2", "max_z**8", "f_inf**2", "kappa=0", "zero-data", "zero-data-f_inf**2"],
)
def test_extreme_data_saturates_the_bounds(tmp_path, capsys, overrides, cm):
    # a float power that overflows raises OverflowError and inf * 0 is nan;
    # the constants saturate to inf instead, and a term without data stays 0
    assert main(["bounds", write_cfg(tmp_path, **overrides)]) == 0
    assert re.search(r"^  CM += %s$" % cm, capsys.readouterr().out, re.M)


def test_check_at_extreme_coupling_fails_through_its_message(tmp_path, capsys):
    # the bounds are inf, so the march itself breaks down, and says so
    assert main(["check", write_cfg(tmp_path, physics={"kappa": 1e100})]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("check failed: linear solve failed")
    assert "PASS" not in captured.out


def _demo_cfg(tmp_path, n=32, t_end=0.1, **physics):
    """configs/demo.json on an n x n grid up to t_end, with physics overrides."""
    with open(os.path.join(ROOT, "configs", "demo.json")) as f:
        doc = json.load(f)
    doc["grid"].update(nx=n, ny=n)
    doc["time"]["t_end"] = t_end
    doc["physics"].update(physics)
    path = tmp_path / "demo.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize(
    "case, message",
    [
        ("kappa 1e100, demo 32x32", "check failed: linear solve failed"),
        ("kappa 1e160, 8x8", "check failed: linear solve failed"),
        ("sigma +-1e200, 8x8", "check failed: eigenbasis solve missed"),
        ("kappa 1.7e308, demo 8x8", "check failed: linear solve failed"),
        ("eps_s 1e300, D 1e10, demo 8x8", "check failed: two-point matrix values must be finite"),
        ("K 1e300, mu 1e-10, demo 8x8", "check failed: two-point matrix values must be finite"),
    ],
)
def test_check_on_overflowing_data_fails_through_its_message_without_a_warning(tmp_path, capsys, case, message):
    # the sums of squares in the solvers' norms and inner products overflow
    # to inf, or the coefficients do (kappa z, eps_s D, K / mu) and with
    # them the matrix; the solves then fail and say so, and no numpy warning
    # is raised
    cfg = {
        "kappa 1e100, demo 32x32": lambda: _demo_cfg(tmp_path, kappa=1e100),
        "kappa 1e160, 8x8": lambda: write_cfg(tmp_path, physics={"kappa": 1e160}),
        "sigma +-1e200, 8x8": lambda: write_cfg(tmp_path, boundary={"sigma": {"left": 1e200, "right": -1e200}}),
        "kappa 1.7e308, demo 8x8": lambda: _demo_cfg(tmp_path, 8, 0.01, kappa=1.7e308),
        "eps_s 1e300, D 1e10, demo 8x8": lambda: _demo_cfg(tmp_path, 8, 0.01, eps_s=1e300, D=[1e10, 1e10]),
        "K 1e300, mu 1e-10, demo 8x8": lambda: _demo_cfg(tmp_path, 8, 0.01, K=[1e300, 1e300], mu=1e-10),
    }[case]()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["check", cfg]) == 1
    assert capsys.readouterr().err.startswith(message)


def test_bounds_csv_lists_every_ledger_and_norm_field_in_order(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    ledger = BoundsEvaluator(cfg.grid, cfg.params, cfg.schedule, cfg.initial).ledger()
    names = [row[0] for row in runner.bounds_csv_rows(ledger)]
    assert names == (
        ["quantity", "T", "B0", "B0_energy", "B0_moser", "C0_hat", "C0_hat_energy", "C0", "CM", "log10_CM"]
        + ["Ce", "Cf", "sigma_inf", "f_inf", "rhob_inf", "g_inf_1", "g_inf_2", "g_l2_1", "g_l2_2"]
        + ["c0_l2_1", "c0_l2_2", "c0_inf_1", "c0_inf_2"]
    )
    # and that is every field of the ledger, then of its data norms, in field order
    expected = ["quantity", "T"]
    for f in fields(BoundsLedger):
        if f.name not in ("T", "norms"):
            expected.append("log10_CM" if f.name == "cm_log10" else f.name)
    for f in fields(DataNorms):
        per_species = isinstance(getattr(ledger.norms, f.name), tuple)
        expected += [f.name + "_1", f.name + "_2"] if per_species else [f.name]
    assert names == expected
