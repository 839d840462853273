"""Shared fixtures and frozen expected values.

The golden fixture is a 2-group / 3-venue dataset with count matrix
[[3, 2, 1], [2, 4, 2]] and per-venue distinct-author counts [10, 60, 20],
mixed at d = 1/3. All expected values below were derived independently by
exact rational arithmetic on those counts, before the library code was
written, and are frozen here as the test oracle:

    alpha rows:    [3/5, 2/5], [2/6, 4/6], [1/3, 2/3]
    beta rows:     [13/54, 5/9, 11/54], [17/108, 11/18, 25/108]
    reduced chain: [[161, 244], [152, 253]] / 405
    gamma:         [38/99, 61/99]   (two-state closed form p21/(p12+p21))
    nu:            [25/132, 1051/1782, 787/3564]
    nu / max(nu):  [675/2102, 1, 787/2102]
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import strategies as st

from pscore import CountsTable, records
# numpy as the library loads it, with one BLAS thread: a test process with a second OS thread never splits a read
from pscore import _np as np

DATA_DIR = Path(__file__).parent / "data"


@contextmanager
def split_reads(cpus: int = 4):
    """Read every JSONL file in up to ``cpus`` ranges however small; yields the pids of the workers forked.

    A read splits only in a process with one OS thread, which the numpy
    import above keeps this one.
    """
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records, "MIN_RANGE", 1)
        patch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        patch.setattr(os, "fork", counted_fork)
        yield forked


@contextmanager
def binary_file(data: bytes):
    """An unnamed temporary file holding ``data``, open for binary reading at its start."""
    with tempfile.TemporaryFile() as fh:
        fh.write(data)
        fh.seek(0)
        yield fh


GOLDEN_MATRIX = [[3, 2, 1], [2, 4, 2]]
GOLDEN_AUTHOR_COUNTS = [10, 60, 20]
GOLDEN_D = 1.0 / 3.0
GOLDEN_GROUPS = ("Group 1", "Group 2")
GOLDEN_VENUES = ("v1", "v2", "v3")

GOLDEN_ALPHA = np.array([[3 / 5, 2 / 5], [2 / 6, 4 / 6], [1 / 3, 2 / 3]])
GOLDEN_BETA = np.array([[13 / 54, 5 / 9, 11 / 54], [17 / 108, 11 / 18, 25 / 108]])
GOLDEN_BREADTH = np.array([1 / 9, 6 / 9, 2 / 9])
GOLDEN_REDUCED = np.array([[161 / 405, 244 / 405], [152 / 405, 253 / 405]])
GOLDEN_GAMMA = np.array([38 / 99, 61 / 99])
GOLDEN_NU = np.array([25 / 132, 1051 / 1782, 787 / 3564])
GOLDEN_NU_MAX1 = np.array([675 / 2102, 1.0, 787 / 2102])

# the same vectors rounded to three decimals, for loose-tolerance checks
GOLDEN_NU_3DP = np.array([0.189, 0.590, 0.221])
GOLDEN_MAX1_3DP = np.array([0.320, 1.000, 0.375])


def table_from_matrix(matrix, d_venue, group_names=None, venue_names=None) -> CountsTable:
    """The counts table whose cells are the nonzero entries of a dense T x V matrix.

    Names default to ``g0, g1, ...`` and ``v0, v1, ...``.
    """
    matrix = np.asarray(matrix, dtype=np.int64)
    t, v = matrix.shape
    group, venue = np.nonzero(matrix)  # row-major, so group-major
    return CountsTable(
        group,
        venue,
        matrix[group, venue],
        d_venue,
        [f"g{w}" for w in range(t)] if group_names is None else group_names,
        [f"v{j}" for j in range(v)] if venue_names is None else venue_names,
    )


@pytest.fixture
def golden_counts() -> CountsTable:
    return table_from_matrix(GOLDEN_MATRIX, GOLDEN_AUTHOR_COUNTS, GOLDEN_GROUPS, GOLDEN_VENUES)


def random_counts_table(
    rng: np.random.Generator,
    max_groups: int = 20,
    max_venues: int = 200,
    max_count: int = 50,
) -> CountsTable:
    """A valid counts table with strictly positive counts everywhere."""
    t = int(rng.integers(1, max_groups + 1))
    v = int(rng.integers(1, max_venues + 1))
    matrix = rng.integers(1, max_count + 1, size=(t, v))
    return table_from_matrix(matrix, rng.integers(1, 1000, size=v))


def random_stochastic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive row-stochastic matrix (irreducible and aperiodic)."""
    m = rng.uniform(0.01, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)


@st.composite
def count_tables(draw):
    """Count tables with T, V in 1..40, sparse cells, and positive marginals."""
    t, v = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rng.integers(1, 10, size=(t, v)) * (rng.random((t, v)) < density)
    n[np.arange(t), np.arange(t) % v] += 1  # every group publishes somewhere
    n[np.arange(v) % t, np.arange(v)] += 1  # every venue has a paper
    return table_from_matrix(n, rng.integers(1, 1000, size=v))
