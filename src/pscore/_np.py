"""numpy, imported on the first attribute read.

Layer modules bind ``from . import _np as np`` and use ``np`` as numpy.
``pscore authors`` and ``import pscore`` touch no numpy attribute, so
they run without numpy's start-up time and memory. The first read
imports numpy (PEP 562 module ``__getattr__``) and caches the attribute
in this module's globals, so later reads are plain global lookups.

No product here is large enough for BLAS threads to pay off, while
OpenBLAS starts one spinning worker per core when numpy loads. So the
import runs with ``OPENBLAS_NUM_THREADS=1`` unless the caller chose a
count, and the environment is left as found, so child processes inherit
nothing. A numpy the caller loaded first keeps its own thread count.
"""

import os as _os
import threading as _threading

_lock = _threading.Lock()  # one thread imports; the others wait and see the pin undone


def _numpy():
    with _lock:
        pin = "OPENBLAS_NUM_THREADS" not in _os.environ
        if pin:
            _os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy
        finally:
            if pin:
                del _os.environ["OPENBLAS_NUM_THREADS"]
    return numpy


def __getattr__(name: str):
    if name.startswith("__"):  # unittest's assertWarns, for one, reads __warningregistry__ of every module
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_numpy(), name)
    return value
