"""Column plan: chasing only the FD-mentioned columns changes nothing.

In extended mode ``chase()`` plans its work by the FD set — one vector
state over the columns some FD mentions, the other columns spliced back
(``repro/chase/vector.py``).  The acceptance contract is that the planned
execution matches the unplanned engine, one vector state over every
column, field for field.  ``tests/chase/test_bypass.py`` holds the splice's
directed cases.
"""

from hypothesis import given, settings

from repro.chase.engine import chase
from repro.chase.vector import VectorChaseState

from ..strategies import CHASE_FD_POOL, assert_field_identical, fd_sets, instances


def unplanned_chase(relation, fds):
    """One vector state over every column, no bypass."""
    state = VectorChaseState(relation, fds)
    state.run_vectorized()
    return state.result("round_robin")


class TestSingletonPlanMatchesUnplannedEngine:
    """The planned ``chase()`` must match the all-columns vector state."""

    @given(instances(), fd_sets(pool=CHASE_FD_POOL, min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_single_component_instances(self, instance, fds):
        # CHASE_FD_POOL spans A..D densely; whichever columns the drawn FDs
        # leave unmentioned, the planned execution must match exactly
        assert_field_identical(
            chase(instance, fds), unplanned_chase(instance, fds)
        )
