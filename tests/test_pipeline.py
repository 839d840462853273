"""The library pipeline on a group-venue graph that d = 1 splits in two,
and the solve path, which never forms a dense block, GTH's input or any
other T x V or T x T array."""

import sys
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pscore import (CountsTable, DisconnectedChainError, InternalError, StationaryDistribution, aggregate,
                    ingest, pipeline, solve_pipeline)
from pscore.cli import main

from conftest import DATA_DIR, table_from_matrix

# G1 publishes twice at v1, G2 once at v2: two components at d = 1
DISJOINT = table_from_matrix([[2, 0], [0, 1]], [1, 1], ("G1", "G2"), ("v1", "v2"))


def test_disconnected_is_an_error_by_default():
    with pytest.raises(DisconnectedChainError, match=r"2 components: \{G1\}; \{G2\}") as exc:
        solve_pipeline(DISJOINT, 1.0)
    assert exc.value.components == (frozenset({0}), frozenset({1}))


def test_largest_component_indexes_the_solved_axes():
    result = solve_pipeline(DISJOINT, 1.0, allow_largest_component=True)
    assert_array_equal(result.groups, [0])
    assert_array_equal(result.venues, [0])
    assert (result.excluded_groups, result.excluded_venues) == (("G2",), ("v2",))
    assert (result.chain.counts.num_groups, result.chain.counts.num_venues) == (1, 1)
    assert_array_equal(result.group_scores, [1.0, 0.0])
    assert_array_equal(result.nu_raw.scores, [1.0, 0.0])


def test_nan_from_the_solver_is_an_internal_error(monkeypatch):
    """A NaN fails the fixed-point check as a bug; it never reaches ScoreVector, where it would read as bad input."""
    nan = StationaryDistribution(gamma=np.full(2, np.nan), residual=np.nan, method="cg")
    monkeypatch.setattr(pipeline, "steady_state", lambda chain: nan)
    with pytest.raises(InternalError, match=r"^group/venue fixed point violated: residual nan exceeds 1e-10$"):
        solve_pipeline(DISJOINT, 0.5)


def test_connected_solve_keeps_every_axis():
    result = solve_pipeline(DISJOINT, 0.5)
    assert_array_equal(result.groups, [0, 1])
    assert_array_equal(result.venues, [0, 1])
    assert result.excluded_groups == result.excluded_venues == ()
    assert np.all(result.group_scores > 0)


@pytest.fixture
def no_dense_solve(monkeypatch):
    """Make GTH and the dense reduced chain raise wherever pscore holds them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve reached GTH or a dense block")

    for name, module in list(sys.modules.items()):
        if name == "pscore" or name.startswith("pscore."):
            for attr in ("gth_steady_state", "build_reduced"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)


def dataset_table(prefix: str) -> CountsTable:
    groups = (DATA_DIR / f"{prefix}_groups.txt").read_text().splitlines()
    with open(DATA_DIR / f"{prefix}_records.jsonl", "rb") as fh:
        return aggregate(ingest(fh, "jsonl", groups))


@pytest.mark.parametrize("prefix", ["golden", "disjoint"])
@pytest.mark.parametrize("d", [0.0, 0.5, 1.0])
def test_solve_path_stays_off_gth(no_dense_solve, prefix, d, capsys):
    result = solve_pipeline(dataset_table(prefix), d, allow_largest_component=True)
    assert result.gamma.method == ("closed_form" if d == 1.0 else "cg")
    flags = ["--input", str(DATA_DIR / f"{prefix}_records.jsonl"),
             "--groups-file", str(DATA_DIR / f"{prefix}_groups.txt"),
             "--d", str(d), "--allow-largest-component"]
    for command in ("venues", "groups"):
        assert main([command, *flags]) == 0, capsys.readouterr().err


def sparse_table(t: int, v: int, cells: int, seed: int) -> CountsTable:
    """About ``cells`` random cells; group w publishes at venue w mod v, and venue j has group j mod t."""
    rng = np.random.default_rng(seed)
    diagonal = np.arange(max(t, v))
    keys = np.unique(np.concatenate([
        (diagonal % t) * v + diagonal % v,
        rng.integers(0, t, cells) * v + rng.integers(0, v, cells),
    ]))
    return CountsTable(keys // v, keys % v, rng.integers(1, 6, keys.size), rng.integers(1, 100, v),
                       [f"g{w}" for w in range(t)], [f"v{j}" for j in range(v)])


@pytest.mark.parametrize("d", [0.5, 1.0])
def test_solve_memory_grows_with_the_cells(d):
    # one float64 T x V array alone would take 3000 * 3000 * 8 B = 69 MiB
    table = sparse_table(3000, 3000, 27_000, seed=11)
    assert 29_000 <= len(table.n_group_venue) <= 31_000
    tracemalloc.start()
    try:
        result = solve_pipeline(table, d, allow_largest_component=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"solve_pipeline peaked at {peak / 2**20:.1f} MiB"
    assert result.consistency_residual <= 1e-10
