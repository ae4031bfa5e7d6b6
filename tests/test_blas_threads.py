"""Importing dpnpsim runs OpenBLAS on one thread unless the caller chose a thread count, and loads no mms.

Each case starts a fresh interpreter, since the setting can act only before
numpy is first imported, with the three thread variables OpenBLAS reads
removed from its environment and the given ones put back.  run and check
never call the manufactured-solution module, so a bare `import dpnpsim`
followed by a check, or the console's `dpnpsim check`, leaves it unloaded
(and uncompiled).  Only a fresh interpreter also shows a warning raised at
import and the `python -m dpnpsim.cli` path, so one check of the demo runs
that way under PYTHONWARNINGS=error.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def openblas_threads_after(code, **preset):
    """OPENBLAS_NUM_THREADS (or None) after running code in a fresh interpreter with only the preset variables."""
    env = {k: v for k, v in os.environ.items() if k not in VARIABLES}
    env.update(preset, PYTHONPATH=SRC)
    code += "; import os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    value = out.stdout.strip()
    return None if value == "None" else value


@pytest.mark.parametrize(
    "code, preset, expected",
    [
        ("import dpnpsim", {}, "1"),
        ("import dpnpsim", {"OPENBLAS_NUM_THREADS": "3"}, "3"),
        ("import dpnpsim", {"OMP_NUM_THREADS": "2"}, None),
        ("import numpy; import dpnpsim", {}, None),  # too late to act: the environment is left alone
    ],
    ids=["default", "openblas-preset", "omp-preset", "numpy-first"],
)
def test_import_sets_one_openblas_thread_only_when_no_count_was_chosen(code, preset, expected):
    assert openblas_threads_after(code, **preset) == expected


CONFIG = {
    "grid": {"nx": 6, "ny": 6},
    "physics": {"kappa": 0.1, "z1": 1, "z2": -2},
    "initial": {"c1": {"kind": "expression", "expr": "0.5 + 0.2*cos(pi*x)"}, "c2": 0.3},
    "boundary": {"g1": {"left": 0.05}},
    "time": {"t_end": 0.02, "dt": 0.01},
}


def ok_and_mms_loaded(code, arg):
    """The printed (ok, 'dpnpsim.mms' in sys.modules) of code run with arg in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, arg], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()[-2:]


def test_import_and_check_load_no_mms():
    code = (
        "import sys; import dpnpsim; ok, _ = dpnpsim.runner.check(dpnpsim.config.parse_config(sys.argv[1])); "
        "print(ok, 'dpnpsim.mms' in sys.modules)"
    )
    assert ok_and_mms_loaded(code, json.dumps(CONFIG)) == ["True", "False"]


def test_the_console_check_loads_no_mms(tmp_path):
    # the console's `dpnpsim check` goes through cli.main, which imports mms only for `dpnpsim mms`
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    code = (
        "import sys; from dpnpsim import cli; ok = cli.main(['check', sys.argv[1]]) == 0; "
        "print(ok, 'dpnpsim.mms' in sys.modules)"
    )
    assert ok_and_mms_loaded(code, str(path)) == ["True", "False"]


def test_the_module_entry_point_checks_the_demo_with_warnings_as_errors():
    demo = os.path.join(os.path.dirname(SRC), "configs", "demo.json")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="error")
    done = subprocess.run([sys.executable, "-m", "dpnpsim.cli", "check", demo], env=env, capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.count("PASS") == 7 and done.stdout.endswith("wasted: 0\n")
