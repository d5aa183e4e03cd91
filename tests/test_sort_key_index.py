"""The sort-key index of a container group prunes exactly as a full test does.

A scan whose predicate bounds a projection's leading sort column tests only
the containers the group's sort-key index finds by bisect
(``CatalogState.sort_key_index``, ``engine/pruning.py``); every other scan
tests the whole group.  Either way what it keeps, in order, and how many it
prunes must be ``prune_containers`` over the group sorted by location, in
every state a catalog retains, however the group got there: commits of adds
and drops (mergeout's many-drops-one-add records included), dropped
projections and tables, pins, replay, checkpoint restore, truncation, and
the ``Catalog.reshard`` calls that subscription, recovery and revive make.
"""

import random
from operator import attrgetter

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import invariant, precondition, rule

from repro.catalog.mvcc import (
    CatalogState,
    op_add_container,
    op_create_projection,
    op_create_table,
    op_drop_container,
)
from repro.catalog.objects import Projection, Segmentation, Table
from repro.common.oid import SidFactory
from repro.engine.expressions import extract_column_bounds
from repro.engine.pruning import prune_containers, prune_group
from repro.storage.container import ROSContainer
from tests.test_catalog_index import SCHEMA, GroupsEqualAWalk
from tests.test_sql import parse_expression

#: Bound values: ints and floats, close enough to repeat and overlap.
VALUES = st.one_of(st.integers(-2, 8), st.sampled_from([-0.5, 0.0, 2.5, 7.5, 8.0]))
#: A container's (low, high) on the sort column ``a``: ordered, equal-ended,
#: open at one end or both (``None``), or no entry for ``a`` at all.
BOUNDS = st.one_of(
    st.tuples(VALUES, VALUES).map(lambda pair: tuple(sorted(pair))),
    VALUES.map(lambda v: (v, v)),
    VALUES.map(lambda v: (None, v)),
    VALUES.map(lambda v: (v, None)),
    st.just((None, None)),
    st.just("missing"),
)

#: Every comparison the scan path prunes on, both ways round, with AND, OR,
#: BETWEEN and IN; on ``a`` (the sort column), ``b`` and both.
PREDICATES = [
    "a < 3", "a <= 3", "a > 3", "a >= 3", "a = 3", "a <> 3", "a = 2.5",
    "a >= 7.5", "a < -1", "a > 100", "3 < a", "2.5 >= a", "a = -0.5",
    "a between 1 and 4", "a between 2.5 and 2.5", "a between 5 and 1",
    "a in (0, 7)", "a in (2.5, -2)", "a in (null, 4)",
    "a >= 2 and a <= 6", "a > 6 and a < 1", "a >= 1 and a = 3",
    "a < 1 or a > 6", "a >= 3 and b = 'x'", "b = 'x'", "not a > 3", "a + 0 > 3",
]
#: The shards a scan asks for (the whole projection is not a scan's group).
SHARDS = (0, 1)
WHERE = st.one_of(
    st.sampled_from(PREDICATES),
    st.tuples(st.sampled_from(["<", "<=", ">", ">=", "=", "<>"]), VALUES).map(
        lambda t: f"a {t[0]} {t[1]}"
    ),
    st.tuples(VALUES, VALUES).map(lambda t: f"a between {t[0]} and {t[1]}"),
    st.lists(VALUES, min_size=1, max_size=3).map(
        lambda vs: f"a in ({', '.join(map(str, vs))})"
    ),
)


def bounded_container(sids: SidFactory, projection: str, shard: int, bounds) -> ROSContainer:
    if bounds == "missing":
        mins = maxs = (("b", "x"),)
    else:
        mins, maxs = (("a", bounds[0]), ("b", "x")), (("a", bounds[1]), ("b", "x"))
    return ROSContainer(
        sid=sids.next_sid(), projection=projection, shard_id=shard, row_count=10,
        size_bytes=100, min_values=mins, max_values=maxs,
    )


def full_test(state: CatalogState, projection: str, shard, predicate):
    """``prune_containers`` over the group, walked from the state's own map
    and sorted by location."""
    group = sorted(
        (c for c in state.containers.values()
         if c.projection == projection and c.shard_id == shard),
        key=attrgetter("location"),
    )
    return prune_containers(group, predicate)


class IndexPrunesAsAFullTest(GroupsEqualAWalk):
    """The groups' machine (``tests/test_catalog_index.py``), its containers
    given bounds on ``a``, plus mergeout-style records; after every step
    the current state and every pinned one scan as a full test."""

    def __init__(self):
        super().__init__()
        self.sids = SidFactory(random.Random(13))

    def new_containers(self, data, most: int) -> list:
        live = sorted(self.state.projections)
        if not live:
            return []
        places = st.tuples(st.sampled_from(live), st.sampled_from((0, 1)), BOUNDS)
        chosen = data.draw(st.lists(places, min_size=1, max_size=most))
        return [bounded_container(self.sids, p, shard, b) for p, shard, b in chosen]

    @precondition(lambda self: self.held("containers"))
    @rule(data=st.data(), bounds=BOUNDS)
    def mergeout_record(self, data, bounds):
        """A group's containers dropped and their merge added, in one record."""
        held = self.held("containers")
        first = self.pick(data, held)
        group = [c for c in held.values()
                 if (c.projection, c.shard_id) == (first.projection, first.shard_id)]
        merged = data.draw(st.lists(st.sampled_from(group), min_size=1, unique=True))
        self.commit(
            op_add_container(bounded_container(self.sids, first.projection, first.shard_id, bounds)),
            *(op_drop_container(c.location, c.shard_id) for c in merged),
        )

    @rule(where=WHERE)
    def scan_everywhere(self, where):
        self.check([where])

    @invariant()
    def every_state_prunes_as_a_full_test(self):
        self.check(PREDICATES)

    def check(self, predicates) -> None:
        states = [self.state, *self.catalog.pinned_states()]
        for where in predicates:
            predicate = parse_expression(where)
            bounds = extract_column_bounds(predicate)
            for state in states:
                for projection in sorted(state.projections):
                    for shard in SHARDS:
                        kept, pruned = prune_group(
                            state, projection, shard, predicate, bounds, {}
                        )
                        expected, expected_pruned = full_test(state, projection, shard, predicate)
                        assert [c.location for c in kept] == [c.location for c in expected], where
                        assert pruned == expected_pruned, where


IndexPrunesAsAFullTest.TestCase.settings = settings(
    max_examples=40, stateful_step_count=25, deadline=None
)
TestIndexPrunesAsAFullTest = IndexPrunesAsAFullTest.TestCase


class TestTheIndexNarrows:
    def test_a_bounded_scan_tests_only_the_overlapping_containers(self):
        sids = SidFactory(random.Random(3))
        state = CatalogState()
        state.apply_all([
            op_create_table(Table("t", SCHEMA)),
            op_create_projection(
                Projection("t_p", "t", ("a", "b"), ("a",), Segmentation.by_hash("a"))
            ),
        ])
        for i in range(100):
            state.apply_all([op_add_container(bounded_container(sids, "t_p", 0, (10 * i, 10 * i + 9)))])
        state.apply_all([op_add_container(bounded_container(sids, "t_p", 0, (None, None)))])
        later = state.copy([op_add_container(bounded_container(sids, "t_p", 0, (0, 0)))])
        predicate = parse_expression("a >= 975")
        bounds = extract_column_bounds(predicate)
        kept, pruned = prune_group(state, "t_p", 0, predicate, bounds, {})
        assert len(kept) + pruned == 101 and pruned == 97
        index = state.sort_key_index("t_p", 0, "a")
        # [970, 979], [980, 989], [990, 999] and the unbounded one.
        assert sorted(index.overlapping(975, None), key=attrgetter("location")) == kept
        # A commit after the index was built copies it with its group.
        later.apply_all([op_add_container(bounded_container(sids, "t_p", 0, (995, 2_000)))])
        copied = later.sort_key_index("t_p", 0, "a")
        assert copied is not index and copied.group is not index.group
        assert len(copied.overlapping(975, None)) == 5
        assert len(index.overlapping(975, None)) == 4
        # A bound that does not compare with the keys raises; the scan then
        # tests the whole group, which keeps everything (mixed types).
        with pytest.raises(TypeError):
            index.overlapping("x", None)
        mixed = parse_expression("a >= 'x'")
        assert prune_group(state, "t_p", 0, mixed, extract_column_bounds(mixed), {}) == (
            full_test(state, "t_p", 0, mixed)
        )
