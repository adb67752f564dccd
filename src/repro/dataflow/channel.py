"""Bounded typed channels: the edges of the dataflow graph.

A :class:`Channel` is a bounded FIFO joining one producer port to one
consumer port.  It is deliberately *not* a thread-safe queue: the
tick-synchronous :class:`~repro.dataflow.graph.Graph` executor moves
items between nodes inside one scheduler thread today, and a future
threaded or process placement wraps the same interface around a real
queue.  What the channel *does* own is flow-control semantics and
observability:

* **Capacity** — at most ``capacity`` items are ever buffered
  (``capacity=None`` is unbounded, ``capacity=0`` is a degenerate
  always-full channel that accepts nothing — useful to assert a wire
  is never exercised).
* **Policy** — what happens to an item offered to a full channel:
  :attr:`ChannelPolicy.BLOCK` refuses it (the producer must hold it
  and retry — backpressure propagates upstream), while
  :attr:`ChannelPolicy.DROP` discards it and counts the drop (load
  shedding for lossy telemetry wires).
* **Typing** — every item is checked against the channel's ``dtype``
  on entry, so a mis-wired graph fails at the channel boundary with
  the channel's name, not deep inside a downstream node.
* **Counters** — puts, gets, drops, refusals, occupancy and its
  high-water mark, snapshot as an immutable :class:`ChannelStats`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Any, Iterable

__all__ = [
    "Channel",
    "ChannelFullError",
    "ChannelPolicy",
    "ChannelStats",
]


class ChannelPolicy(Enum):
    """What a full channel does with the next offered item."""

    BLOCK = "block"  # refuse the item; the producer stalls (backpressure)
    DROP = "drop"  # discard the item and count it (load shedding)


class ChannelFullError(RuntimeError):
    """A ``put`` on a full :attr:`ChannelPolicy.BLOCK` channel."""


@dataclass(frozen=True, slots=True)
class ChannelStats:
    """Immutable snapshot of one channel's flow counters."""

    name: str
    capacity: int | None
    policy: str
    occupancy: int
    high_water: int
    puts: int
    gets: int
    drops: int
    refusals: int

    @property
    def utilisation(self) -> float:
        """High-water occupancy as a fraction of capacity (0 when unbounded)."""
        if not self.capacity:
            return 0.0
        return self.high_water / self.capacity


class Channel:
    """A bounded, typed, observable FIFO between two ports.

    Parameters
    ----------
    name:
        Diagnostic name (conventionally ``"src.port->dst.port"``).
    capacity:
        Maximum buffered items; ``None`` for unbounded, ``0`` for an
        always-full channel.
    policy:
        Full-channel behaviour; see :class:`ChannelPolicy`.
    dtype:
        Every item must be an instance of this type (``object`` to
        disable checking).
    """

    def __init__(
        self,
        name: str,
        capacity: int | None = 16,
        policy: ChannelPolicy = ChannelPolicy.BLOCK,
        dtype: type = object,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be non-negative (or None for unbounded)")
        if not isinstance(policy, ChannelPolicy):
            raise TypeError(f"policy must be a ChannelPolicy, got {policy!r}")
        self.name = name
        self.capacity = capacity
        self.policy = policy
        self.dtype = dtype
        self._items: deque = deque()
        self._puts = 0
        self._gets = 0
        self._drops = 0
        self._refusals = 0
        self._high_water = 0

    # -- state -------------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    @property
    def occupancy(self) -> int:
        """Items currently buffered."""
        return len(self._items)

    @property
    def empty(self) -> bool:
        """``True`` when nothing is buffered."""
        return not self._items

    @property
    def full(self) -> bool:
        """``True`` when the channel is at capacity."""
        return self.capacity is not None and len(self._items) >= self.capacity

    # -- producer side -----------------------------------------------------------------

    def _check_type(self, item: Any) -> None:
        if self.dtype is not object and not isinstance(item, self.dtype):
            raise TypeError(
                f"channel {self.name!r} carries {self.dtype.__name__}, "
                f"got {type(item).__name__}"
            )

    def offer(self, item: Any) -> bool:
        """Try to enqueue *item*; never raises on a full channel.

        Returns ``True`` when the item was *consumed* — either buffered,
        or (full ``DROP`` channel) discarded and counted.  Returns
        ``False`` only on a full ``BLOCK`` channel: the item was not
        accepted and the producer must hold it and retry, which is the
        backpressure signal the graph executor propagates upstream.
        """
        self._check_type(item)
        if self.full:
            if self.policy is ChannelPolicy.DROP:
                self._drops += 1
                return True
            self._refusals += 1
            return False
        self._items.append(item)
        self._puts += 1
        self._high_water = max(self._high_water, len(self._items))
        return True

    def put(self, item: Any) -> None:
        """Enqueue *item*, raising :class:`ChannelFullError` when a
        ``BLOCK`` channel is full (a full ``DROP`` channel silently
        sheds the item, as with :meth:`offer`)."""
        if not self.offer(item):
            raise ChannelFullError(
                f"channel {self.name!r} full (capacity {self.capacity})"
            )

    # -- consumer side -----------------------------------------------------------------

    def get(self) -> Any:
        """Dequeue the oldest item (raises ``IndexError`` when empty)."""
        item = self._items.popleft()
        self._gets += 1
        return item

    def drain(self) -> list:
        """Dequeue and return everything currently buffered, in order."""
        items = list(self._items)
        self._gets += len(items)
        self._items.clear()
        return items

    def clear(self) -> int:
        """Discard buffered items without counting them as consumed.

        Returns the number of items discarded — the graph's fail-path
        uses this to drain cleanly after a node failure.
        """
        count = len(self._items)
        self._items.clear()
        return count

    # -- observability -----------------------------------------------------------------

    @property
    def flow(self) -> tuple[int, int, int, int]:
        """``(puts, gets, drops, refusals)`` without building a
        :class:`ChannelStats` — the cheap per-tick read the flight
        recorder's tap uses."""
        return (self._puts, self._gets, self._drops, self._refusals)

    @property
    def stats(self) -> ChannelStats:
        """Snapshot the flow counters."""
        return ChannelStats(
            name=self.name,
            capacity=self.capacity,
            policy=self.policy.value,
            occupancy=len(self._items),
            high_water=self._high_water,
            puts=self._puts,
            gets=self._gets,
            drops=self._drops,
            refusals=self._refusals,
        )

    def extend_offer(self, items: Iterable[Any]) -> list:
        """Offer each of *items* in order; returns the refused tail.

        Stops at the first refusal (``BLOCK`` channel full) so FIFO
        order is never violated; the caller re-offers the returned tail
        once the consumer has drained some room.
        """
        items = list(items)
        for index, item in enumerate(items):
            if not self.offer(item):
                return items[index:]
        return []
