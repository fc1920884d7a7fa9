"""One bounded memo for every in-process cache.

Three kinds of derived data are worth keeping because the evaluation
asks for them again: BFS distance rows (``graphs.dist_rows``), shared path
tables (``routing.path_sets``) and, under fixed lifecycle traffic, epoch
metrics (``lifecycle.epochs``).  Each is kept in a :class:`Memo`, a
least-recently-used (LRU) map bounded by an entry cap, a cost budget in the
namespace's own unit (bytes, stored paths), or both.  Every bound shrinks
with the active :class:`~repro.resources.ExecutionProfile`'s
``memory_scale``, so a point re-run on a degraded rung holds less of every
cache.

Hit, miss and eviction counts are kept per namespace and summed over its
instances -- every lifecycle's incremental metrics carry their own
``lifecycle.epochs`` memo -- and evictions are also reported to telemetry
as ``memo.<namespace>.evictions``.
:func:`memo_stats` reads the counts; :func:`clear_memos` empties every live
memo and zeroes them.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable, Dict, Hashable, Optional

from repro.resources import active_profile
from repro.telemetry import count


#: Hit, miss and eviction counts per namespace, shared by its memos.
_COUNTS: Dict[str, Dict[str, int]] = {}
_LIVE: "weakref.WeakSet[Memo]" = weakref.WeakSet()


class Memo:
    """A bounded LRU map; values are never ``None``.

    ``max_entries`` caps the number of entries.  ``budget`` caps the summed
    ``cost(value)`` of the entries; a value's cost must not change while it
    is stored, so a caller that grows a value stores it again.  Storing past
    either bound evicts least-recently-used entries, but never the entry
    just stored: its caller holds it anyway, so an oversized entry lives
    alone.  A memo with neither bound grows until it is cleared.
    """

    __slots__ = (
        "namespace",
        "max_entries",
        "budget",
        "cost",
        "total_cost",
        "_entries",
        "_counts",
        "__weakref__",
    )

    def __init__(
        self,
        namespace: str,
        max_entries: Optional[int] = None,
        budget: Optional[int] = None,
        cost: Optional[Callable[[object], int]] = None,
    ) -> None:
        if budget is not None and cost is None:
            raise ValueError("a cost budget needs a cost function")
        self.namespace = namespace
        self.max_entries = max_entries
        self.budget = budget
        self.cost = cost
        self.total_cost = 0
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._counts = _COUNTS.setdefault(
            namespace, {"hits": 0, "misses": 0, "evictions": 0}
        )
        _LIVE.add(self)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable):
        """The value stored under ``key``, now most recently used, or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self._counts["misses"] += 1
            return None
        self._entries.move_to_end(key)
        self._counts["hits"] += 1
        return value

    def put(self, key: Hashable, value):
        """Store ``value`` under ``key``, evict past the bounds, return ``value``."""
        entries = self._entries
        cost = self.cost
        previous = entries.pop(key, None)
        entries[key] = value
        if cost is not None:
            if previous is not None:
                self.total_cost -= cost(previous)
            self.total_cost += cost(value)
        profile = active_profile()
        max_entries = self.max_entries
        if max_entries is not None:
            max_entries = profile.scaled(max_entries)
        budget = self.budget
        if budget is not None:
            budget = profile.scaled(budget)
        evicted = 0
        while len(entries) > 1 and (
            (max_entries is not None and len(entries) > max_entries)
            or (budget is not None and self.total_cost > budget)
        ):
            _, dropped = entries.popitem(last=False)
            if cost is not None:
                self.total_cost -= cost(dropped)
            evicted += 1
        if evicted:
            self._counts["evictions"] += evicted
            count(f"memo.{self.namespace}.evictions", evicted)
        return value

    def clear(self) -> None:
        """Drop every entry (the namespace's counts are kept)."""
        self._entries.clear()
        self.total_cost = 0


def memo_stats() -> Dict[str, Dict[str, int]]:
    """Per namespace: hits, misses and evictions since the last
    :func:`clear_memos`, and the entries and cost its live memos hold."""
    stats = {
        namespace: dict(counts, entries=0, cost=0)
        for namespace, counts in _COUNTS.items()
    }
    for memo in list(_LIVE):
        stats[memo.namespace]["entries"] += len(memo)
        stats[memo.namespace]["cost"] += memo.total_cost
    return stats


def clear_memos() -> None:
    """Empty every live memo and zero every namespace's counts."""
    for memo in list(_LIVE):
        memo.clear()
    for counts in _COUNTS.values():
        counts.update(hits=0, misses=0, evictions=0)
