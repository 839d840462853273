"""Importing pscore loads numpy with one OpenBLAS thread and leaves the environment as found.

Each case runs in a fresh interpreter, since numpy reads the thread count
only when it is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pscore

SRC = str(Path(pscore.__file__).resolve().parent.parent)
PROBE = """
import os
import pscore
import numpy as np
a = np.ones((600, 600))
a @ a
print(repr(os.environ.get("OPENBLAS_NUM_THREADS")))
try:
    with open("/proc/self/maps") as maps:
        openblas = "openblas" in maps.read().lower()
    print(len(os.listdir("/proc/self/task")) if openblas else -1)
except OSError:
    print(-1)
"""


def probe(**env) -> tuple[str, int]:
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, clean.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", PROBE], env={**clean, **env},
                         capture_output=True, text=True, check=True).stdout.split()
    return out[0], int(out[1])


def test_unset_thread_count_pins_one_thread_and_stays_unset():
    setting, threads = probe()
    assert setting == "None"
    if threads < 0:
        pytest.skip("threads are counted only where /proc shows numpy's BLAS is OpenBLAS")
    assert threads == 1


def test_preset_thread_count_is_left_alone():
    setting, _ = probe(OPENBLAS_NUM_THREADS="2")
    assert setting == "'2'"
