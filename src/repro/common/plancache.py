"""One bounded LRU for every build-once, replay-afterwards cache.

The active-library argument (paper Sections II-C and VI) is that whatever a
loop can derive from its access-execute description is derived on the first
call and replayed on every later one.  Three caches follow it: the op2 and
ops compiled-loop registries (:mod:`repro.op2.execplan`,
:mod:`repro.ops.execplan`) and the lazy chain-schedule cache
(:mod:`repro.ops.lazy`).  :class:`PlanCache` is their shared machinery:

* a thread-safe LRU keyed by tuples of stable tokens, with entries built
  *outside* the lock (compilation can be expensive, and simulated MPI ranks
  compile distinct per-rank keys concurrently);
* an optional per-entry ``still_valid()`` guard: a cached entry whose
  guard fails is dropped and rebuilt (an *invalidation*);
* process-lifetime ``{size, hits, misses, [invalidations,] evictions}``
  statistics;
* one ``PerfCounters`` recorder call and, on everything but a hit, one
  ``<kind>_<event>`` trace instant per event — evictions included, whether
  an insert or a resize caused them.

The capacity is a :class:`~repro.common.config.Config` field read at every
insert, so ``configure``/``swap`` resize a cache from the next miss on;
:func:`set_plan_cache_capacity` also trims both compiled-loop caches at once.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from typing import Callable, Hashable

from repro.common.config import configure, get_config
from repro.common.counters import PerfCounters
from repro.common.profiling import active_counters
from repro.telemetry import tracer as _trace

__all__ = ["PlanCache", "set_plan_cache_capacity"]

_STAT_KEYS = {
    "hit": "hits",
    "miss": "misses",
    "invalidation": "invalidations",
    "eviction": "evictions",
}

#: every live cache, so a capacity change can trim them all
_caches: "weakref.WeakSet[PlanCache]" = weakref.WeakSet()


class PlanCache:
    """Bounded, thread-safe LRU of built entries keyed by token tuples.

    ``kind`` names the ``PerfCounters`` recorders (``record_<kind>_hit`` …)
    and the trace instants (``<kind>_miss`` …, in trace category
    ``category``).  ``describe(entry)`` gives the instants' attributes; it
    runs only on a miss, an invalidation or an eviction, never on a hit.
    ``guarded`` caches call ``entry.still_valid()`` on every hit and count
    invalidations.
    """

    def __init__(
        self,
        kind: str,
        category: str,
        capacity_field: str,
        describe: Callable[[object], dict],
        guarded: bool = True,
    ):
        self.capacity_field = capacity_field
        self._category = category
        self._describe = describe
        self._guarded = guarded
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self._lock = threading.Lock()
        events = ["hit", "miss", "invalidation", "eviction"]
        if not guarded:
            events.remove("invalidation")
        self._stats = {_STAT_KEYS[e]: 0 for e in events}
        #: event -> (stats key, unbound PerfCounters recorder, instant name)
        self._events = {
            e: (_STAT_KEYS[e], getattr(PerfCounters, f"record_{kind}_{e}"), f"{kind}_{e}")
            for e in events
        }
        self._record_hit = self._events["hit"][1]
        _caches.add(self)

    def _event(self, event: str, counters: PerfCounters, entry) -> None:
        """Count one non-hit event (caller holds the lock)."""
        stat, record, instant = self._events[event]
        self._stats[stat] += 1
        record(counters)
        trc = _trace.ACTIVE
        if trc is not None:
            trc.instant(instant, self._category, **self._describe(entry))

    def get(self, key: Hashable, build: Callable, *build_args):
        """The entry for ``key``; on a miss, ``build(*build_args)`` makes it."""
        counters = active_counters()
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                if not self._guarded or entry.still_valid():
                    self._entries.move_to_end(key)
                    self._stats["hits"] += 1
                    self._record_hit(counters)
                    return entry
                del self._entries[key]
                self._event("invalidation", counters, entry)

        entry = build(*build_args)
        with self._lock:
            self._entries[key] = entry
            self._event("miss", counters, entry)
            self._trim(counters)
        return entry

    def _trim(self, counters: PerfCounters) -> None:
        """Evict least-recently-used entries down to capacity (lock held)."""
        limit = getattr(get_config(), self.capacity_field)
        while len(self._entries) > limit:
            _, evicted = self._entries.popitem(last=False)
            self._event("eviction", counters, evicted)

    def trim(self) -> None:
        """Evict down to the configured capacity now."""
        counters = active_counters()
        with self._lock:
            self._trim(counters)

    def clear(self) -> None:
        """Drop every entry; the statistics keep counting."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        """Process-lifetime statistics plus the current size."""
        with self._lock:
            return {"size": len(self._entries), **self._stats}


def set_plan_cache_capacity(limit: int) -> None:
    """Resize both compiled-loop caches (persistently; evicts down to fit).

    The op2 and ops registries share ``Config.execplan_cache_size`` (default
    512 plans each, ``REPRO_EXECPLAN_CACHE_SIZE`` at startup); the serving
    layer calls this so one process can hold every tenant's warm plans.
    """
    if limit < 1:
        raise ValueError("plan cache capacity must be >= 1")
    configure(execplan_cache_size=limit)
    for cache in _caches:
        if cache.capacity_field == "execplan_cache_size":
            cache.trim()
