"""The library pipeline on a group-venue graph that d = 1 splits in two."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from pscore import CountsTable, DisconnectedChainError, solve_pipeline

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
