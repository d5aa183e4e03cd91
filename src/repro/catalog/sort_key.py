"""The sort-key index of a catalog container group.

"Vertica accomplishes this by tracking minimum and maximum values of
columns in each storage and using expression analysis to determine if a
predicate could ever be true for the given minimum and maximum" (section
2.1).  A projection's containers are sorted by its sort order, so the
containers of one (projection, shard) group cover narrow ranges of the
leading sort column: kept sorted by those bounds, the group answers "which
containers could hold a value in [lo, hi]" by bisect instead of a test per
container.  :class:`~repro.catalog.mvcc.CatalogState` keeps one per group
(``sort_key_index``), and its op handlers keep it up to date.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import repeat
from operator import is_, itemgetter
from typing import Dict, List

from repro.storage.container import ROSContainer


class SortKeyIndex:
    """A group's containers by their [low, high] bounds on one column:
    ``(low, container)`` and ``(high, container)`` pairs as lists sorted by
    their bound, and by name the containers with no bound to sort (a
    ``None`` or NaN end, or one that does not compare with the others).

    :meth:`overlapping` answers "which containers could hold a value in
    [lo, hi]" with two bisections instead of a test per container.  The
    index only narrows what a scan tests; the scan's own test decides.
    """

    __slots__ = ("group", "column", "by_low", "by_high", "unbounded")

    def __init__(
        self, group: Dict[str, ROSContainer], column: str, by_low: list,
        by_high: list, unbounded: Dict[str, ROSContainer],
    ):
        #: The group object this index describes (see
        #: :meth:`CatalogState.sort_key_index`).
        self.group = group
        self.column = column
        self.by_low = by_low
        self.by_high = by_high
        self.unbounded = unbounded

    @classmethod
    def of(cls, group: Dict[str, ROSContainer], column: str) -> "SortKeyIndex":
        """The index of ``group`` on ``column``, built by sorting."""
        lows, highs = [], []
        unbounded: Dict[str, ROSContainer] = {}
        for name, container in group.items():
            lo, hi = container.bounds.get(column, _NO_BOUNDS)
            if lo is None or hi is None or lo != lo or hi != hi:
                unbounded[name] = container
            else:
                lows.append((lo, container))
                highs.append((hi, container))
        try:
            lows.sort(key=_KEY)
            highs.sort(key=_KEY)
        except TypeError:
            unbounded.update((c.location, c) for _, c in lows)
            lows, highs = [], []
        return cls(group, column, lows, highs, unbounded)

    def copy(self, group: Dict[str, ROSContainer]) -> "SortKeyIndex":
        """This index, for ``group`` (a copy of the group it describes)."""
        return SortKeyIndex(
            group, self.column, self.by_low.copy(), self.by_high.copy(), self.unbounded.copy()
        )

    def add(self, container: ROSContainer) -> None:
        lo, hi = container.bounds.get(self.column, _NO_BOUNDS)
        if lo is None or hi is None or lo != lo or hi != hi:
            self.unbounded[container.location] = container
            return
        try:
            i = bisect_right(self.by_low, lo, key=_KEY)
            j = bisect_right(self.by_high, hi, key=_KEY)
        except TypeError:
            self.unbounded[container.location] = container
            return
        self.by_low.insert(i, (lo, container))
        self.by_high.insert(j, (hi, container))

    def discard(self, container: ROSContainer) -> None:
        if self.unbounded.pop(container.location, None) is not None:
            return
        lo, hi = container.bounds[self.column]
        _unlist(self.by_low, lo, container)
        _unlist(self.by_high, hi, container)

    def overlapping(self, lo: object, hi: object) -> List[ROSContainer]:
        """The containers whose range meets [lo, hi] (``None``: that side
        unbounded), plus the unbounded ones; in no particular order.
        ``TypeError`` when a bound does not compare with the keys."""
        by_low, by_high = self.by_low, self.by_high
        start = 0 if lo is None else bisect_left(by_high, lo, key=_KEY)
        stop = len(by_low) if hi is None else bisect_right(by_low, hi, key=_KEY)
        if lo is None:
            found = list(map(_CONTAINER, by_low[:stop]))
        elif hi is None:
            found = list(map(_CONTAINER, by_high[start:]))
        elif stop < len(by_high) - start:
            column = self.column
            found = [c for _, c in by_low[:stop] if c.bounds[column][1] >= lo]
        else:
            column = self.column
            found = [c for _, c in by_high[start:] if c.bounds[column][0] <= hi]
        found += self.unbounded.values()
        return found


_NO_BOUNDS = (None, None)
_KEY = itemgetter(0)
_CONTAINER = itemgetter(1)


def _unlist(pairs: list, key: object, container: ROSContainer) -> None:
    """Remove ``container``'s pair, listed under ``key``, from ``pairs``
    (found by identity among the pairs of its key)."""
    try:
        start, stop = bisect_left(pairs, key, key=_KEY), bisect_right(pairs, key, key=_KEY)
    except TypeError:
        start, stop = 0, len(pairs)
    found = list(map(is_, map(_CONTAINER, pairs[start:stop]), repeat(container)))
    if True not in found:  # keys that stopped comparing in order
        start, found = 0, list(map(is_, map(_CONTAINER, pairs), repeat(container)))
    del pairs[start + found.index(True)]
