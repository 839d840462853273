"""numpy loads when pscore first uses it, with one OpenBLAS thread, and
the environment is left as found.

Each case runs in a fresh interpreter, since numpy reads the thread count
only when it is first imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import pscore
from pscore.cli import main

from conftest import DATA_DIR

SRC = str(Path(pscore.__file__).resolve().parent.parent)
VENUES = ["venues", "--input", str(DATA_DIR / "golden_records.jsonl"),
          "--groups-file", str(DATA_DIR / "golden_groups.txt"), "-o", os.devnull]
THREADS = """
def threads():
    import numpy as np
    a = np.ones((600, 600))
    a @ a
    try:
        with open("/proc/self/maps") as maps:
            openblas = "openblas" in maps.read().lower()
        return len(os.listdir("/proc/self/task")) if openblas else -1
    except OSError:
        return -1
"""
# pscore loads numpy itself here, in the venues run
PROBE = f"""
import os
{THREADS}
from pscore.cli import main
main({VENUES!r})
print(repr(os.environ.get("OPENBLAS_NUM_THREADS")))
print(threads())
"""
# the caller loads numpy with two threads before pscore first uses it
CALLER_FIRST = f"""
import os
{THREADS}
os.environ["OPENBLAS_NUM_THREADS"] = "2"
import numpy
del os.environ["OPENBLAS_NUM_THREADS"]
before = threads()
from pscore.cli import main
main({VENUES!r})
print(repr(os.environ.get("OPENBLAS_NUM_THREADS")))
print(before, threads())
"""
MODULES = """
import os
import sys

def numpy_loaded():
    return any(name == "numpy" or name.startswith("numpy.") for name in sys.modules)

from pscore.cli import main
print(numpy_loaded())
import unittest, warnings
with unittest.TestCase().assertWarns(UserWarning):  # reads __warningregistry__ on every module
    warnings.warn("probe")
print(numpy_loaded())
for report in ("tsv", "json"):
    print(main(["authors", "--venue-scores", sys.argv[1], "--author-pubs", sys.argv[2],
                "--format", report, "-o", os.devnull]))
print(numpy_loaded())
# the author file again, cut in two ranges on two CPUs, the second read by a forked worker
from pscore import records
forked, fork = [], os.fork

def counted_fork():
    pid = fork()
    if pid:
        forked.append(pid)
    return pid

records.MIN_RANGE, os.sched_getaffinity, os.fork = 1, lambda pid: {{0, 1}}, counted_fork
print(main(["authors", "--venue-scores", sys.argv[1], "--author-pubs", sys.argv[2], "-o", os.devnull]))
print(len(forked))
print(numpy_loaded())
print(main({venues!r}))
print(numpy_loaded())
""".format(venues=VENUES)

# more threads than cores race to the first read, with a short switch interval
THREADED = f"""
import os
import sys
import threading
{THREADS}
from pscore import _np
names = ["ndarray", "zeros", "add", "float64"] * 2
barrier = threading.Barrier(len(names))
seen = {{}}

def first_use(name):
    barrier.wait()
    seen[name] = getattr(_np, name)

interval = sys.getswitchinterval()
sys.setswitchinterval(1e-6)
try:
    workers = [threading.Thread(target=first_use, args=(name,)) for name in names]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join(timeout=60)
finally:
    sys.setswitchinterval(interval)
import numpy
print(not any(worker.is_alive() for worker in workers))
print(all(seen.get(name) is getattr(numpy, name) for name in names))
print(repr(os.environ.get("OPENBLAS_NUM_THREADS")))
print(threads())
"""


def run(code: str, *args: str, **env) -> list[str]:
    clean = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, clean.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env={**clean, **env},
                          capture_output=True, text=True, check=True).stdout.split()


def test_unset_thread_count_pins_one_thread_and_stays_unset():
    setting, threads = run(PROBE)
    assert setting == "None"
    if int(threads) < 0:
        pytest.skip("threads are counted only where /proc shows numpy's BLAS is OpenBLAS")
    assert int(threads) == 1


def test_preset_thread_count_is_left_alone():
    setting, _ = run(PROBE, OPENBLAS_NUM_THREADS="2")
    assert setting == "'2'"


def test_caller_that_loaded_numpy_first_keeps_its_thread_count():
    setting, before, after = run(CALLER_FIRST)
    assert setting == "None"
    if int(before) < 0:
        pytest.skip("threads are counted only where /proc shows numpy's BLAS is OpenBLAS")
    assert after == before


def test_numpy_loads_only_for_a_solve(tmp_path):
    scores = tmp_path / "scores.tsv"
    assert main([*VENUES[:-1], str(scores)]) == 0
    out = run(MODULES, str(scores), str(DATA_DIR / "golden_author_pubs.jsonl"))
    # loaded after the import, after a module scan, the two authors runs (exit codes), the authors run that forked
    # one worker, and the venues run
    assert out == ["False", "False", "0", "0", "False", "0", "1", "False", "0", "True"]


def test_first_use_from_many_threads_loads_numpy_once_with_one_thread():
    out = run(THREADED)
    assert out[:3] == ["True", "True", "None"]
    if int(out[3]) >= 0:
        assert int(out[3]) == 1
