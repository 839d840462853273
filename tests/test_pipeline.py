"""The library pipeline on a group-venue graph that d = 1 splits in two,
and the solve path, which never needs GTH or the dense reduced matrix."""

import sys

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pscore import CountsTable, DisconnectedChainError, aggregate, ingest, solve_pipeline
from pscore.cli import main

from conftest import DATA_DIR

# G1 publishes twice at v1, G2 once at v2: two components at d = 1
DISJOINT = CountsTable([[2, 0], [0, 1]], [1, 1], ("G1", "G2"), ("v1", "v2"))


def test_disconnected_is_an_error_by_default():
    with pytest.raises(DisconnectedChainError, match=r"2 components: \{G1\}; \{G2\}") as exc:
        solve_pipeline(DISJOINT, 1.0)
    assert exc.value.components == (frozenset({0}), frozenset({1}))


def test_largest_component_indexes_the_solved_axes():
    result = solve_pipeline(DISJOINT, 1.0, allow_largest_component=True)
    assert_array_equal(result.groups, [0])
    assert_array_equal(result.venues, [0])
    assert (result.excluded_groups, result.excluded_venues) == (("G2",), ("v2",))
    assert result.chain.alpha.shape == (1, 1)
    assert_array_equal(result.group_scores, [1.0, 0.0])
    assert_array_equal(result.nu_raw.scores, [1.0, 0.0])


def test_connected_solve_keeps_every_axis():
    result = solve_pipeline(DISJOINT, 0.5)
    assert_array_equal(result.groups, [0, 1])
    assert_array_equal(result.venues, [0, 1])
    assert result.excluded_groups == result.excluded_venues == ()
    assert np.all(result.group_scores > 0)


@pytest.fixture
def no_dense_solve(monkeypatch):
    """Make GTH and the dense reduced matrix raise wherever pscore holds them."""
    def forbidden(*args, **kwargs):
        raise AssertionError("the solve reached GTH or the dense reduced matrix")

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
    assert result.gamma.method == ("closed_form" if d == 1.0 else "chebyshev")
    flags = ["--input", str(DATA_DIR / f"{prefix}_records.jsonl"),
             "--groups-file", str(DATA_DIR / f"{prefix}_groups.txt"),
             "--d", str(d), "--allow-largest-component"]
    for command in ("venues", "groups"):
        assert main([command, *flags]) == 0, capsys.readouterr().err
