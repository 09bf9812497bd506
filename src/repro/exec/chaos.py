"""Chaos injectors: deterministic fault injection for the supervisor.

The simulator models infrastructure failures (``faults:`` blocks, fault
models) and verifies invariants under them -- this module applies the
same discipline to the execution runtime itself.  A :class:`ChaosPlan`
rides into every supervised attempt and decides, deterministically from
``(seed, task key, attempt)``, whether to fire a registered *injector*
before the task body runs.  The shipped injectors cover the failure
modes the supervisor must survive:

``kill``
    ``SIGKILL`` the worker process -- the OOM-killer / crashed-worker
    path (process mode only; inline it would kill the caller).
``sleep``
    Sleep past any sane deadline -- the hung-plan-search path, exercised
    together with a per-task timeout.
``exception``
    Raise :class:`ChaosError` -- the task-raised-an-error path.
``interrupt``
    Raise ``KeyboardInterrupt`` after N successful injection checks --
    the deterministic Ctrl-C-mid-sweep path (inline mode).
``truncate-cache``
    Cut a persistent plan-cache record short in place -- the torn or
    corrupt cache line path (must degrade to a quarantined miss, never
    a crash).

Injectors are registry entries (:data:`repro.registry.chaos_injectors`),
so plugins can register their own via
:func:`repro.registry.register_chaos_injector` and address them by name
from ``repro sweep --chaos <name>`` exactly like fault models.

Determinism matters: the decision hash makes a chaos campaign
reproducible (same seed, same grid, same injected failures), which is
what lets CI assert that a chaos-ridden sweep merges bit-identically to
a clean one.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.registry import chaos_injectors, register_chaos_injector


class ChaosError(RuntimeError):
    """The error raised by the ``exception`` injector."""


#: Stateful-injector call counters, keyed by (plan seed, injector name).
#: Only meaningful within one process (inline mode); forked/spawned
#: workers start fresh, which the stateful injectors document.
_CALL_COUNTS: Dict[Tuple[int, str], int] = {}


def reset_chaos_state() -> None:
    """Reset stateful injector counters (tests and repeated campaigns)."""
    _CALL_COUNTS.clear()


@dataclass(frozen=True)
class ChaosPlan:
    """When and what to inject, decided per ``(task key, attempt)``.

    ``params`` is stored as a sorted tuple of pairs so plans stay frozen
    and picklable (they cross process boundaries with every attempt);
    build plans with :meth:`build` to pass params as a plain dict.
    """

    injector: str
    params: Tuple[Tuple[str, Any], ...] = ()
    #: Probability that an eligible attempt is injected (1.0 = always).
    probability: float = 1.0
    #: Inject only on attempts ``<= max_attempt`` -- the default of 1
    #: fails first attempts and lets retries succeed.
    max_attempt: int = 1
    seed: int = 0

    @classmethod
    def build(
        cls,
        injector: str,
        params: Optional[Mapping[str, Any]] = None,
        *,
        probability: float = 1.0,
        max_attempt: int = 1,
        seed: int = 0,
    ) -> "ChaosPlan":
        """Construct a plan with ``params`` given as a mapping."""
        return cls(
            injector=injector,
            params=tuple(sorted((params or {}).items())),
            probability=float(probability),
            max_attempt=int(max_attempt),
            seed=int(seed),
        )

    def should_inject(self, key: str, attempt: int) -> bool:
        """The deterministic injection decision for one attempt."""
        if attempt > self.max_attempt:
            return False
        if self.probability >= 1.0:
            return True
        if self.probability <= 0.0:
            return False
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / float(2**64)
        return draw < self.probability

    def maybe_inject(self, key: str, attempt: int) -> None:
        """Fire the injector if this attempt is selected."""
        if not self.should_inject(key, attempt):
            return
        injector = chaos_injectors.get(self.injector)
        injector(key=key, attempt=attempt, **dict(self.params))


# -- shipped injectors ---------------------------------------------------------------


@register_chaos_injector("kill")
def kill_injector(*, key: str, attempt: int, sig: str = "SIGKILL") -> None:
    """Kill the current process with ``sig`` (default SIGKILL).

    Simulates an OOM-killed or segfaulted worker: no exception, no exit
    handler, no result -- the supervisor must notice the corpse.
    """
    os.kill(os.getpid(), getattr(signal, str(sig)))


@register_chaos_injector("sleep")
def sleep_injector(*, key: str, attempt: int, seconds: float = 3600.0) -> None:
    """Sleep ``seconds`` before the task body -- a hang, for timeout tests."""
    time.sleep(float(seconds))


@register_chaos_injector("exception")
def exception_injector(
    *, key: str, attempt: int, message: str = "chaos: injected failure"
) -> None:
    """Raise :class:`ChaosError` -- a task that errors instead of crashing."""
    raise ChaosError(f"{message} (key={key}, attempt={attempt})")


@register_chaos_injector("interrupt")
def interrupt_injector(*, key: str, attempt: int, after_points: int = 0) -> None:
    """Raise ``KeyboardInterrupt`` after ``after_points`` injection checks.

    Stateful (a per-process counter), so an inline sweep completes
    ``after_points`` points and is then "Ctrl-C'd" deterministically --
    the reproducible test for interrupt/flush/resume.  Call
    :func:`reset_chaos_state` between campaigns.
    """
    counter_key = (0, "interrupt")
    _CALL_COUNTS[counter_key] = _CALL_COUNTS.get(counter_key, 0) + 1
    if _CALL_COUNTS[counter_key] > int(after_points):
        raise KeyboardInterrupt(f"chaos: injected interrupt (key={key})")


@register_chaos_injector("truncate-cache")
def truncate_cache_injector(
    *,
    key: str,
    attempt: int,
    directory: Optional[str] = None,
    keep_bytes: int = 8,
) -> None:
    """Cut one persistent plan-cache record to ``keep_bytes`` bytes in place.

    Picks the line deterministically from the task key, over the complete
    lines of the sorted logs in ``directory`` (default: the configured
    cache's ``estimates/``).  The record keeps its first ``keep_bytes``
    bytes; the rest of the line, up to but not including its newline, is
    overwritten with filler, so every other line keeps its place.  The
    victim's digest no longer matches, which the cache must quarantine
    and treat as a miss -- results stay identical, just slower.  A
    disabled/empty cache makes this a no-op.
    """
    from repro.utils import plancache

    if directory is not None:
        root = Path(directory)
    elif plancache.is_enabled() and plancache.cache_dir() is not None:
        root = plancache.cache_dir() / "estimates"
    else:
        return
    logs = sorted(root.glob(f"*{plancache.LOG_SUFFIX}")) if root.is_dir() else []
    lines = []
    for log in logs:
        try:
            data = log.read_bytes()
        except OSError:
            continue
        for _, offset, length in plancache.iter_records(data):
            lines.append((log, offset, length))
    if not lines:
        return
    pick = int(hashlib.sha256(key.encode()).hexdigest(), 16) % len(lines)
    log, record, length = lines[pick]
    keep = min(max(0, int(keep_bytes)), length)
    # Without O_APPEND: on Linux a pwrite to an O_APPEND descriptor
    # appends instead of writing at the offset.
    try:
        fd = os.open(log, os.O_WRONLY)
        try:
            os.pwrite(fd, b"#" * (length - keep), record + keep)
        finally:
            os.close(fd)
    except OSError:
        pass
