"""Importing dpnpsim runs OpenBLAS on one thread unless the caller chose a thread count.

Each case starts a fresh interpreter, since the setting can act only before
numpy is first imported, with the three thread variables OpenBLAS reads
removed from its environment and the given ones put back.
"""

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
