"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import SimulationEngine, SimulationError


@pytest.fixture
def engine():
    return SimulationEngine()


class TestScheduling:
    def test_events_fire_in_time_order(self, engine):
        fired = []
        engine.schedule(3.0, lambda: fired.append("c"))
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(2.0, lambda: fired.append("b"))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self, engine):
        fired = []
        for tag in "abc":
            engine.schedule(1.0, lambda t=tag: fired.append(t))
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_times(self, engine):
        times = []
        engine.schedule(2.5, lambda: times.append(engine.now))
        engine.schedule(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [2.5, 5.0]
        assert engine.now == 5.0

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_in_the_past_rejected(self, engine):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_callbacks_can_schedule_more(self, engine):
        fired = []

        def chain(n):
            fired.append(n)
            if n < 3:
                engine.schedule(1.0, lambda: chain(n + 1))

        engine.schedule(0.0, lambda: chain(0))
        engine.run()
        assert fired == [0, 1, 2, 3]
        assert engine.now == 3.0


class TestNonFiniteRejection:
    """Regression lock: non-finite times used to slip into the heap
    and silently corrupt its ordering (NaN compares false against
    everything, so heap invariants break downstream).  The engine
    must reject them loudly at the boundary."""

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_at_rejects_non_finite(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule_at(bad, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_rejects_non_finite_delay(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule(bad, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_schedule_batch_rejects_non_finite(self, engine, bad):
        with pytest.raises(SimulationError):
            engine.schedule_batch([1.0, bad], [lambda: None, lambda: None])
        assert engine.pending_events == 0

    def test_engine_still_usable_after_rejection(self, engine):
        with pytest.raises(SimulationError):
            engine.schedule_at(math.nan, lambda: None)
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.run()
        assert fired == [1]


class TestBatchScheduling:
    def test_batch_fires_in_time_then_submission_order(self, engine):
        fired = []
        engine.schedule_batch(
            [2.0, 1.0, 1.0],
            [lambda: fired.append("late"),
             lambda: fired.append("a"),
             lambda: fired.append("b")],
        )
        engine.run()
        assert fired == ["a", "b", "late"]

    def test_batch_without_handles_fires_identically(self, engine):
        fired = []
        engine.schedule_batch(
            [2.0, 1.0],
            [lambda: fired.append("late"), lambda: fired.append("early")],
            handles=False,
        )
        engine.run()
        assert fired == ["early", "late"]

    def test_batch_handles_are_cancellable(self, engine):
        fired = []
        handles = engine.schedule_batch(
            [1.0, 2.0], [lambda: fired.append(1), lambda: fired.append(2)]
        )
        handles[0].cancel()
        engine.run()
        assert fired == [2]

    def test_batch_length_mismatch_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.schedule_batch([1.0, 2.0], [lambda: None])

    @pytest.mark.parametrize("handles", [True, False])
    def test_batch_in_the_past_rejected(self, engine, handles):
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_batch([1.0], [lambda: None], handles=handles)
        # A mixed batch is rejected whole: its future event is not
        # queued either.
        with pytest.raises(SimulationError, match="clock is at 5.0"):
            engine.schedule_batch(
                [6.0, 4.0], [lambda: None, lambda: None], handles=handles
            )
        assert engine.pending_events == 0
        assert engine.peek_time() is None

    def test_empty_batch_is_a_no_op(self, engine):
        assert engine.schedule_batch([], []) == []
        assert engine.schedule_batch([], [], handles=False) is None
        assert engine.pending_events == 0

    def test_batch_interleaves_with_singles(self, engine):
        fired = []
        engine.schedule(1.5, lambda: fired.append("single"))
        engine.schedule_batch(
            [1.0, 2.0],
            [lambda: fired.append("b1"), lambda: fired.append("b2")],
            handles=False,
        )
        engine.run()
        assert fired == ["b1", "single", "b2"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, engine):
        fired = []
        handle = engine.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        engine.run()
        assert fired == []

    def test_pending_events_excludes_cancelled(self, engine):
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h1.cancel()
        assert engine.pending_events == 1

    def test_peek_skips_cancelled(self, engine):
        h1 = engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        h1.cancel()
        assert engine.peek_time() == 2.0


class TestRunBounds:
    def test_until_stops_before_later_events(self, engine):
        fired = []
        engine.schedule(1.0, lambda: fired.append(1))
        engine.schedule(10.0, lambda: fired.append(10))
        engine.run(until=5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_until_past_everything_advances_clock(self, engine):
        engine.schedule(1.0, lambda: None)
        engine.run(until=100.0)
        assert engine.now == 100.0

    def test_max_events_bounds_runaway(self, engine):
        def forever():
            engine.schedule(1.0, forever)

        engine.schedule(0.0, forever)
        engine.run(max_events=50)
        assert engine.processed_events == 50

    @pytest.mark.parametrize("until", [2.0, math.nan])
    def test_until_before_now_or_nan_rejected(self, engine, until):
        fired = []
        engine.schedule(6.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError, match="simulation clock is at 6.0"):
            engine.run(until=until)
        assert engine.now == 6.0
        # The clock never went back, so a later event cannot fire in
        # the simulated past.
        with pytest.raises(SimulationError):
            engine.schedule_at(3.0, lambda: fired.append(3.0))
        engine.schedule_at(7.0, lambda: fired.append(engine.now))
        engine.run(until=6.0)
        assert fired == [] and engine.now == 6.0
        engine.run()
        assert fired == [7.0]

    def test_step_returns_false_when_dry(self, engine):
        assert engine.step() is False
        engine.schedule(1.0, lambda: None)
        assert engine.step() is True
        assert engine.step() is False

