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

from pathlib import Path

import numpy as np
import pytest

from pscore import CountsTable

DATA_DIR = Path(__file__).parent / "data"

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


@pytest.fixture
def golden_counts() -> CountsTable:
    return CountsTable(
        GOLDEN_MATRIX, GOLDEN_AUTHOR_COUNTS, GOLDEN_GROUPS, GOLDEN_VENUES
    )


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
    d_venue = rng.integers(1, 1000, size=v)
    return CountsTable(
        matrix,
        d_venue,
        [f"g{w}" for w in range(t)],
        [f"v{j}" for j in range(v)],
    )


def random_stochastic_matrix(rng: np.random.Generator, n: int) -> np.ndarray:
    """Strictly positive row-stochastic matrix (irreducible and aperiodic)."""
    m = rng.uniform(0.01, 1.0, size=(n, n))
    return m / m.sum(axis=1, keepdims=True)
