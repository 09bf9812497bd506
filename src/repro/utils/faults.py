"""Ref-counted fault holds on devices.

Fault windows may overlap (two scheduled failures on one executor, the
second recovering before the first — or a permanent failure followed by a
transient one).  The correct semantics is a *hold count*: a device stays
down while **any** fault holds it, and a permanent fault never releases.
This tracker encodes that once for the
:class:`~repro.core.global_scheduler.GlobalScheduler`, keyed by
``(tenant, executor)`` pairs.
"""

from __future__ import annotations

from typing import Dict, Hashable


class FaultTracker:
    """Counts unrecovered faults per key."""

    def __init__(self) -> None:
        self._holds: Dict[Hashable, int] = {}

    def fail(self, key: Hashable) -> None:
        """One more fault holds the key down."""
        self._holds[key] = self._holds.get(key, 0) + 1

    def recover(self, key: Hashable) -> bool:
        """One fault on the key clears; True when no fault holds it anymore.

        A recovery with no outstanding fault is a no-op that reports the
        key clear (defensive: recovery events are driver-scheduled and
        should always pair with a failure).
        """
        remaining = self._holds.get(key, 0) - 1
        if remaining > 0:
            self._holds[key] = remaining
            return False
        self._holds.pop(key, None)
        return True

    def is_held(self, key: Hashable) -> bool:
        """Whether any unrecovered fault still holds the key down."""
        return self._holds.get(key, 0) > 0
