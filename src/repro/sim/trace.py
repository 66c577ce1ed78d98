"""Optional event tracing for debugging simulations.

Tracing is off by default, and off means absent: a component built
without a tracer holds ``None`` and tests ``tracer is not None`` at each
call site.  Pass a :class:`Tracer` to capture a structured log of flit
movements, buffer operations and message lifecycles, which the tests use
to assert detailed pipeline behaviour.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Tuple


@dataclass(frozen=True)
class TraceRecord:
    """One traced event."""

    cycle: int
    source: str
    event: str
    details: Tuple[Tuple[str, Any], ...]

    def get(self, key: str, default: Any = None) -> Any:
        """Return a detail value by key."""
        for name, value in self.details:
            if name == key:
                return value
        return default


class Tracer:
    """Collects :class:`TraceRecord` entries.

    The tracer is a *ring buffer*: it retains at most ``limit`` records,
    and once full each new :meth:`emit` silently evicts the oldest
    retained record (drop-oldest, keep-newest — the most recent events
    are usually the ones a debugging session needs).  Evictions are
    counted in :attr:`dropped_count`, so a consumer can tell a complete
    trace from a truncated one.  For unbounded capture, stream to disk
    with :class:`repro.obs.sinks.JsonlTracer` instead.

    Parameters
    ----------
    limit:
        Maximum records to retain; older records are dropped first.
    """

    def __init__(self, limit: int = 1_000_000) -> None:
        self.limit = limit
        self._records: Deque[TraceRecord] = deque(maxlen=limit)
        #: records evicted so far to honour ``limit`` (see class docs)
        self.dropped_count = 0

    def emit(self, cycle: int, source: str, event: str, **details: Any) -> None:
        """Record one event."""
        records = self._records
        if len(records) == records.maxlen:
            self.dropped_count += 1  # the append below evicts the oldest
        records.append(
            TraceRecord(cycle, source, event, tuple(sorted(details.items())))
        )

    @property
    def records(self) -> List[TraceRecord]:
        """All retained records, oldest first (a fresh list per call)."""
        return list(self._records)

    def clear(self) -> None:
        """Drop all retained records and reset :attr:`dropped_count`."""
        self._records.clear()
        self.dropped_count = 0

    def select(
        self,
        event: Optional[str] = None,
        source: Optional[str] = None,
        where: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> Iterator[TraceRecord]:
        """Yield records matching the given filters."""
        for record in self._records:
            if event is not None and record.event != event:
                continue
            if source is not None and record.source != source:
                continue
            if where is not None and not where(record):
                continue
            yield record

    def counts(self) -> Dict[str, int]:
        """Histogram of event names across retained records."""
        result: Dict[str, int] = {}
        for record in self._records:
            result[record.event] = result.get(record.event, 0) + 1
        return result
