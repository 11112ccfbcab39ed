"""Discrete-event simulation engine.

The whole reproduction runs on a single-threaded event loop with a
simulated clock.  Events are callbacks scheduled at absolute simulated
times; ties are broken by insertion order so runs are fully
deterministic for a given seed.

The engine is deliberately minimal: the TCP stack, links and gateways
are ordinary objects that schedule callbacks — there are no coroutines
or real threads involved, which keeps runs reproducible and fast.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised for invalid uses of the simulation engine."""


class Event:
    """Cancellation handle for a scheduled callback.

    Returned by :meth:`Simulator.at` / :meth:`Simulator.after` so the
    caller can cancel the callback (e.g. a retransmission timer being
    disarmed by an ACK).  The callback itself lives in the heap entry,
    not here, so a handle someone keeps never pins it.
    """

    __slots__ = ("time", "cancelled", "done", "_sim")

    def __init__(self, time: float, sim: "Simulator"):
        self.time = time
        self.cancelled = False
        self.done = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent."""
        if self.cancelled or self.done:
            return
        self.cancelled = True
        self._sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "done" if self.done else "pending")
        return f"<Event t={self.time:.6f} {state}>"


class Simulator:
    """Deterministic discrete-event scheduler with a simulated clock."""

    # The heap-entry contract.  ``_heap`` holds ``(time, seq, fn, args,
    # handle)`` tuples: ``seq`` is drawn from ``_seq``, which the writer
    # advances, so it is unique and ordering is settled by C-level
    # comparison of the first two fields; ``handle`` is the Event of
    # at()/after() (and of Timer) and None for a fire-and-forget entry,
    # which allocates nothing but the tuple.  Only at(), post(),
    # post_after(), Link and Timer write entries: the per-packet and
    # per-ACK schedulers push their own instead of paying a frame to
    # reach post().  Every writer guards inline, ``not time >= now`` or
    # ``not delay >= 0``, so NaN, which compares false either way, is
    # refused instead of poisoning the heap order and the clock.

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        #: Current simulated time in seconds.
        self.now = 0.0
        self._running = False
        self._stopped = False
        #: Callbacks dispatched by past :meth:`run` calls; settled when a
        #: run returns or raises, not per event.
        self.events_processed = 0
        #: Heap entries whose handle was cancelled before dispatch; the
        #: run loop drops them as it pops them.
        self._cancelled = 0

    def at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated ``time``."""
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        event = Event(time, self)
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args, event))
        return event

    def after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        return self.at(self.now + delay, fn, *args)

    def post(self, time: float, fn: Callable[..., Any], *args: Any) -> None:
        """Schedule ``fn(*args)`` at ``time``, fire-and-forget.

        Like :meth:`at` but returns no handle, so the event cannot be
        cancelled.  Components that never cancel their callbacks use
        this to keep an Event allocation out of the hot loop.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (time, seq, fn, args, None))

    def post_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> None:
        """:meth:`post` at ``delay`` seconds from now."""
        if not delay >= 0:
            raise SimulationError(f"negative delay: {delay}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, (self.now + delay, seq, fn, args, None))

    def stop(self) -> None:
        """Stop the run loop after the current event returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the heap drains, ``until`` is reached, or
        ``max_events`` have been processed.

        Returns the simulated time at which the run stopped.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        # Counted in a local and settled into ``events_processed`` once,
        # on the way out: the loop writes no counter attribute per event.
        processed = 0
        heap = self._heap
        pop = heappop
        try:
            while heap and not self._stopped:
                if until is not None and heap[0][0] > until:
                    self.now = until
                    break
                time, _seq, fn, args, handle = pop(heap)
                if handle is not None:
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    handle.done = True
                self.now = time
                fn(*args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
            else:
                if until is not None and not self._stopped:
                    self.now = max(self.now, until)
        finally:
            self.events_processed += processed
            self._running = False
        return self.now

    def pending(self) -> int:
        """Number of scheduled (non-cancelled) events still queued.

        O(1): the heap's length less the cancelled entries still in it,
        a count kept by ``cancel()`` and the run loop that drops them,
        so the resilience watchdog (and tests) can poll this without
        scanning the heap.
        """
        return len(self._heap) - self._cancelled


class Timer:
    """Restartable one-shot timer bound to a simulator.

    Used by the TCP stack for retransmission timeouts: ``start`` arms the
    timer, ``stop`` disarms it, and restarting implicitly cancels any
    previously armed expiry.
    """

    def __init__(self, sim: Simulator, callback: Callable[[], Any]):
        self._sim = sim
        self._callback = callback
        self._event: Optional[Event] = None
        #: True from :meth:`start` until the timer fires or is stopped;
        #: a plain attribute, so a sender tests it without a call.
        self.armed = False

    def start(self, delay: float) -> None:
        """(Re)arm the timer ``delay`` seconds from now."""
        sim = self._sim
        event = self._event
        if event is not None and not (event.cancelled or event.done):
            # ``event.cancel()`` inline: a sender re-arms on most ACKs.
            event.cancelled = True
            sim._cancelled += 1
        # ``sim.at(now + delay, self._fire)`` inline, its guard included
        # (the heap-entry contract above ``Simulator.__init__``).
        now = sim.now
        time = now + delay
        if not time >= now:
            self.armed = False  # the old expiry is cancelled either way
            raise SimulationError(
                f"cannot schedule event in the past: {time} < now {now}"
            )
        self._event = event = Event(time, sim)
        seq = sim._seq
        sim._seq = seq + 1
        heappush(sim._heap, (time, seq, self._fire, (), event))
        self.armed = True

    def stop(self) -> None:
        """Disarm the timer.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self.armed = False

    def _fire(self) -> None:
        self._event = None
        self.armed = False
        self._callback()
