"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim import SimulationError, Simulator, Timer


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.at(2.0, lambda: order.append("b"))
    sim.at(1.0, lambda: order.append("a"))
    sim.at(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.at(1.0, order.append, tag)
    sim.run()
    assert order == ["first", "second", "third"]


def test_after_schedules_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(5.0, lambda: sim.after(2.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [7.5]


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.at(4.25, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [4.25]
    assert sim.now == 4.25


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.at(10.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(5.0, lambda: None)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-1.0, lambda: None)


@pytest.mark.parametrize("entry", ["at", "post", "after", "post_after"])
def test_nan_time_rejected(entry):
    # nan < now is False, so a ``time < now`` guard would let it in: the
    # heap would stop being ordered and the clock would become nan.
    sim = Simulator()
    sim.at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        getattr(sim, entry)(float("nan"), lambda: None)
    assert sim.pending() == 1
    assert sim.run() == 1.0


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.at(1.0, fired.append, "x")
    event.cancel()
    sim.run()
    assert fired == []


def test_cancel_is_idempotent():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    event.cancel()
    event.cancel()
    sim.run()


def test_run_until_stops_clock_at_bound():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "early")
    sim.at(10.0, fired.append, "late")
    end = sim.run(until=5.0)
    assert fired == ["early"]
    assert end == 5.0
    # The late event is still pending and fires on a subsequent run.
    sim.run()
    assert fired == ["early", "late"]


def test_stop_halts_processing():
    sim = Simulator()
    fired = []

    def first():
        fired.append("a")
        sim.stop()

    sim.at(1.0, first)
    sim.at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a"]


def test_max_events_bound():
    sim = Simulator()
    count = []
    for i in range(10):
        sim.at(float(i), count.append, i)
    sim.run(max_events=3)
    assert count == [0, 1, 2]


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 3:
            sim.after(1.0, chain, n + 1)

    sim.at(0.0, chain, 0)
    sim.run()
    assert seen == [0, 1, 2, 3]
    assert sim.now == 3.0


def test_pending_counts_uncancelled():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    event = sim.at(2.0, lambda: None)
    event.cancel()
    assert sim.pending() == 1


def test_run_not_reentrant():
    sim = Simulator()
    failures = []

    def reenter():
        try:
            sim.run()
        except SimulationError:
            failures.append(True)

    sim.at(1.0, reenter)
    sim.run()
    assert failures == [True]


class TestTimer:
    def test_fires_after_delay(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        sim.run()
        assert fired == [3.0]

    def test_restart_cancels_previous(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        timer.start(5.0)
        sim.run()
        assert fired == [5.0]

    def test_stop_disarms(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        timer.start(3.0)
        timer.stop()
        sim.run()
        assert fired == []

    def test_armed_and_expiry_introspection(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: fired.append((sim.now, timer.armed)))
        assert not timer.armed
        timer.start(2.0)
        assert timer.armed
        sim.run()
        assert fired == [(2.0, False)]
        assert not timer.armed

    def test_timer_can_rearm_from_callback(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, lambda: None)

        def on_fire():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.start(1.0)

        timer._callback = on_fire
        timer.start(1.0)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


def test_pending_tracks_live_events_through_run():
    sim = Simulator()
    sim.at(1.0, lambda: None)
    event = sim.at(2.0, lambda: None)
    sim.at(3.0, lambda: None)
    assert sim.pending() == 3
    event.cancel()
    event.cancel()          # idempotent: no double-decrement
    assert sim.pending() == 2
    sim.run(until=1.5)
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    sim = Simulator()
    event = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    sim.run(until=1.5)
    event.cancel()          # already fired; the live count must hold
    assert sim.pending() == 1


class TestPooledEvents:
    """post/post_after: fire-and-forget events that are nothing but
    their heap entry (the class keeps its name from the free-list days
    so the test ids stay stable)."""

    def test_post_runs_in_time_order_with_handles(self):
        sim = Simulator()
        order = []
        sim.post(2.0, order.append, "pooled")
        sim.at(1.0, lambda: order.append("handle"))
        sim.post_after(3.0, order.append, "late")
        sim.run()
        assert order == ["handle", "pooled", "late"]

    def test_same_timestamp_dispatches_in_call_order(self):
        # All four entry points draw from one sequence counter, so a
        # tie is settled by who scheduled first, handle or not.
        sim = Simulator()
        order = []
        sim.at(1.0, order.append, "at")
        sim.post(1.0, order.append, "post")
        sim.post_after(1.0, order.append, "post_after")
        sim.after(1.0, order.append, "after")
        sim.post(1.0, order.append, "post again")
        sim.run()
        assert order == ["at", "post", "post_after", "after", "post again"]

    def test_dispatched_callback_is_released(self):
        # Nothing outlives dispatch: with no shell to recycle, the heap
        # entry was the only reference to the callback and its args.
        import gc
        import weakref

        class Payload:
            def fire(self, _arg):
                pass

        sim = Simulator()
        refs = []
        for schedule in (sim.post, sim.at):
            target, arg = Payload(), Payload()
            schedule(1.0, target.fire, arg)
            refs += [weakref.ref(target), weakref.ref(arg)]
        del target, arg
        assert all(ref() is not None for ref in refs)   # the heap pins them
        sim.run()
        gc.collect()
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("bound", [{"max_events": 2}, {"until": 2.5}])
    def test_bounded_run_leaves_later_posts_queued(self, bound):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.post(t, fired.append, t)
        sim.run(**bound)
        assert fired == [1.0, 2.0]
        assert sim.pending() == 2
        sim.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]
        assert sim.pending() == 0
        assert sim.events_processed == 4

    def test_post_validates_like_at(self):
        sim = Simulator()
        sim.at(5.0, sim.stop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(1.0, lambda: None)     # in the past
        with pytest.raises(SimulationError):
            sim.post_after(-0.1, lambda: None)

    def test_pooled_and_handle_events_interleave(self):
        # Cancelling a handle event must not disturb pooled dispatch.
        sim = Simulator()
        order = []
        sim.post(1.0, order.append, "a")
        handle = sim.at(1.5, lambda: order.append("cancelled"))
        sim.post(2.0, order.append, "b")
        handle.cancel()
        assert sim.pending() == 2
        sim.run()
        assert order == ["a", "b"]
        assert sim.pending() == 0
        assert sim.events_processed == 2

    def test_post_reschedules_from_callback(self):
        sim = Simulator()
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 5:
                sim.post_after(1.0, tick)

        sim.post(0.0, tick)
        sim.run()
        assert ticks == [0.0, 1.0, 2.0, 3.0, 4.0]


class TestAccounting:
    """``pending()`` and ``events_processed`` stay exact however events
    are cancelled and however a run ends.  Three handle events at 1-3 s
    and a posted one at 4 s, each appending its time to ``fired``."""

    @staticmethod
    def _schedule():
        sim = Simulator()
        fired = []
        handles = [sim.at(float(t), fired.append, t) for t in (1, 2, 3)]
        sim.post(4.0, fired.append, 4)
        return sim, fired, handles

    def test_cancel_before_dispatch(self):
        sim, fired, handles = self._schedule()
        handles[1].cancel()
        assert sim.pending() == 3
        sim.run()
        assert fired == [1, 3, 4]
        assert sim.pending() == 0
        assert sim.events_processed == 3

    def test_cancel_after_dispatch(self):
        sim, fired, handles = self._schedule()
        sim.run(until=1.5)
        handles[0].cancel()             # already fired: nothing to undo
        assert sim.pending() == 3
        assert sim.events_processed == 1
        sim.run()
        assert fired == [1, 2, 3, 4]
        assert sim.pending() == 0
        assert sim.events_processed == 4

    def test_double_cancel(self):
        sim, fired, handles = self._schedule()
        handles[2].cancel()
        handles[2].cancel()
        assert sim.pending() == 3
        sim.run()
        assert fired == [1, 2, 4]
        assert sim.events_processed == 3
        # The dropped entry leaves no residue in the count.
        assert sim.pending() == 0
        sim.post(5.0, fired.append, 5)
        assert sim.pending() == 1

    def test_cancelled_entry_left_behind_a_bounded_run(self):
        sim, fired, handles = self._schedule()
        handles[2].cancel()
        sim.run(until=2.5)
        assert sim.pending() == 1       # the post; the cancel is not live
        assert sim.events_processed == 2
        sim.run()
        assert fired == [1, 2, 4]
        assert sim.pending() == 0
        assert sim.events_processed == 3

    @pytest.mark.parametrize("stop", ["max_events", "until", "stop"])
    def test_bounded_run(self, stop):
        sim, fired, handles = self._schedule()
        if stop == "max_events":
            sim.run(max_events=2)
        elif stop == "until":
            sim.run(until=2.5)
        else:
            sim.at(2.0, sim.stop)       # dispatched after the 2 s event
            sim.run()
        dispatched = 3 if stop == "stop" else 2
        assert fired == [1, 2]
        assert sim.pending() == 2
        assert sim.events_processed == dispatched
        sim.run()
        assert fired == [1, 2, 3, 4]
        assert sim.pending() == 0
        assert sim.events_processed == dispatched + 2

    def test_callback_that_raises(self):
        sim, fired, handles = self._schedule()

        def boom():
            raise RuntimeError("boom")

        sim.at(2.0, boom)               # dispatched after the 2 s event
        with pytest.raises(RuntimeError):
            sim.run()
        # The raising callback was popped but does not count as processed.
        assert fired == [1, 2]
        assert sim.now == 2.0
        assert sim.events_processed == 2
        assert sim.pending() == 2
        handles[2].cancel()
        assert sim.pending() == 1
        sim.run()                       # the loop is usable again
        assert fired == [1, 2, 4]
        assert sim.pending() == 0
        assert sim.events_processed == 3
