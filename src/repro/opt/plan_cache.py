"""An epoch-keyed physical-plan cache (PR 9).

Each session owns one; its solo runs and the serve scheduler's batch
members plan through it, so a query is rewritten once per catalog epoch
(on sub-millisecond queries the ~0.4 ms rewrite dominates).  Logical
:class:`Query` objects are frozen dataclasses (hashable), so ``(query,
pushdown, predicate_order, optimizer, catalog epoch)`` — plus the run mode
for a sharded plan — is a complete plan fingerprint: everything the
rewriter reads that can change between calls is either in the key or
versioned by the epoch, which every successful compaction bumps.  Appends
do *not* bump the epoch — the base plan stays valid while delta rows are
in flight (the delta union runs outside the plan).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable


class PlanCache:
    """A small LRU over rewritten physical plans.

    Cached plan objects are returned by reference and must not be mutated
    by their callers.
    """

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize <= 0:
            raise ValueError("plan cache needs a positive maxsize")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._plans: OrderedDict = OrderedDict()

    def __len__(self) -> int:
        return len(self._plans)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, key, build: Callable[[], object]):
        """The cached plan for ``key``, building (and caching) on miss.

        Unhashable keys (exotic expression payloads) fall through to
        ``build`` uncached rather than failing.
        """
        try:
            plan = self._plans[key]
        except TypeError:  # unhashable key component
            self.misses += 1
            return build()
        except KeyError:
            self.misses += 1
            plan = build()
            self._plans[key] = plan
            if len(self._plans) > self.maxsize:
                self._plans.popitem(last=False)
            return plan
        self.hits += 1
        self._plans.move_to_end(key)
        return plan

    def clear(self) -> None:
        self._plans.clear()
