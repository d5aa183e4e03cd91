"""Discrete-event clock: processes, timeouts, resources, AcquireAll."""

import pytest
from hypothesis import given, strategies as st

from repro.common.clock import AcquireAll, Resource, SimClock, Timeout, charge_parallel


class TestScheduling:
    def test_events_run_in_time_order(self):
        clock = SimClock()
        log = []
        clock.schedule(2.0, lambda: log.append("b"))
        clock.schedule(1.0, lambda: log.append("a"))
        clock.run()
        assert log == ["a", "b"]
        assert clock.now == 2.0

    def test_ties_broken_by_insertion_order(self):
        clock = SimClock()
        log = []
        clock.schedule(1.0, lambda: log.append(1))
        clock.schedule(1.0, lambda: log.append(2))
        clock.run()
        assert log == [1, 2]

    def test_run_until_stops_early(self):
        clock = SimClock()
        fired = []
        clock.schedule(5.0, lambda: fired.append(True))
        clock.run(until=2.0)
        assert not fired and clock.now == 2.0
        clock.run()
        assert fired

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimClock().schedule(-1, lambda: None)

    def test_advance(self):
        clock = SimClock()
        clock.advance(3.5)
        assert clock.now == 3.5
        with pytest.raises(ValueError):
            clock.advance(-1)


class TestChargeParallel:
    def test_single_lane_is_serial(self):
        makespan, lanes = charge_parallel([1.0, 2.0, 3.0], lanes=1)
        assert makespan == 6.0
        assert lanes == [6.0]

    def test_parallel_cost_is_max_over_lanes(self):
        makespan, lanes = charge_parallel([1.0, 1.0, 1.0, 1.0], lanes=4)
        assert makespan == 1.0
        assert lanes == [1.0, 1.0, 1.0, 1.0]

    def test_greedy_earliest_free_lane(self):
        # Lane 0 takes 3.0; 1.0 and then 2.0 pack onto lane 1.
        makespan, lanes = charge_parallel([3.0, 1.0, 2.0], lanes=2)
        assert lanes == [3.0, 3.0]
        assert makespan == 3.0

    def test_lane_totals_sum_to_serial_cost(self):
        durations = [0.5, 1.25, 0.25, 2.0, 0.75, 1.0]
        makespan, lanes = charge_parallel(durations, lanes=3)
        assert sum(lanes) == pytest.approx(sum(durations))
        assert makespan <= sum(durations)
        assert makespan >= max(durations)

    def test_more_lanes_than_durations(self):
        makespan, lanes = charge_parallel([2.0], lanes=8)
        assert makespan == 2.0
        assert lanes == [2.0]  # lanes are clamped to the work available

    def test_empty_batch_is_free(self):
        makespan, lanes = charge_parallel([], lanes=4)
        assert makespan == 0.0
        assert lanes == [0.0]

    def test_deterministic(self):
        durations = [0.031, 0.047, 0.012, 0.9, 0.031, 0.2, 0.044]
        first = charge_parallel(durations, lanes=3)
        second = charge_parallel(durations, lanes=3)
        assert first == second

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            charge_parallel([1.0], lanes=0)
        with pytest.raises(ValueError):
            charge_parallel([1.0, -0.5], lanes=2)

    @given(
        durations=st.lists(
            st.one_of(
                st.sampled_from([0.0, 0.001, 0.03, 0.5]),  # ties, and lots of them
                st.floats(0.0, 10.0, allow_nan=False),
            ),
            max_size=40,
        ),
        lanes=st.integers(1, 9),
    )
    def test_bit_identical_to_the_keyed_scan(self, durations, lanes):
        """Each duration goes where the old loop sent it: the first lane
        holding the minimum, found by a keyed ``min`` over lane indices."""
        lane_free = [0.0] * min(lanes, max(len(durations), 1))
        for duration in durations:
            index = min(range(len(lane_free)), key=lambda i: (lane_free[i], i))
            lane_free[index] += duration
        expected = ((max(lane_free) if durations else 0.0), lane_free)
        assert charge_parallel(durations, lanes) == expected


class TestProcesses:
    def test_timeout_sequence(self):
        clock = SimClock()
        times = []

        def proc():
            yield Timeout(1.0)
            times.append(clock.now)
            yield Timeout(2.0)
            times.append(clock.now)

        clock.spawn(proc())
        clock.run()
        assert times == [1.0, 3.0]

    def test_a_process_is_not_an_effect(self):
        """Nothing joins a process: yielding one is refused like any other
        unsupported effect."""
        clock = SimClock()

        def child():
            yield Timeout(1.0)

        def parent():
            yield clock.spawn(child())

        clock.spawn(parent())
        with pytest.raises(TypeError, match="Process"):
            clock.run()

    def test_unsupported_effect_raises(self):
        clock = SimClock()

        def proc():
            yield "nonsense"

        clock.spawn(proc())
        with pytest.raises(TypeError):
            clock.run()


class TestResource:
    def test_fifo_capacity(self):
        clock = SimClock()
        resource = Resource(2)
        done = []

        def proc(i):
            yield AcquireAll([resource])
            yield Timeout(1.0)
            resource.release()
            done.append((i, clock.now))

        for i in range(4):
            clock.spawn(proc(i))
        clock.run()
        assert [t for _, t in done] == [1.0, 1.0, 2.0, 2.0]
        assert [i for i, _ in done] == [0, 1, 2, 3]  # FIFO

    def test_release_more_than_held_rejected(self):
        clock = SimClock()
        resource = Resource(1)
        with pytest.raises(ValueError):
            resource.release()

    def test_set_capacity_wakes_waiters(self):
        clock = SimClock()
        resource = Resource(0)
        done = []

        def proc():
            yield AcquireAll([resource])
            done.append(clock.now)

        clock.spawn(proc())
        clock.schedule(5.0, lambda: resource.set_capacity(1))
        clock.run()
        assert done == [5.0]


class TestAcquireAll:
    def test_atomic_grant(self):
        clock = SimClock()
        a, b = Resource(1), Resource(1)
        order = []

        def holder():
            yield AcquireAll([a])
            yield Timeout(10.0)
            a.release()
            order.append(("holder", clock.now))

        def wants_both():
            yield AcquireAll([a, b])
            order.append(("both", clock.now))
            a.release()
            b.release()

        def wants_b():
            yield Timeout(1.0)
            yield AcquireAll([b])
            order.append(("b", clock.now))
            yield Timeout(1.0)
            b.release()

        clock.spawn(holder())
        clock.spawn(wants_both())
        clock.spawn(wants_b())
        clock.run()
        # wants_both must NOT hold b while waiting for a: wants_b proceeds
        # at t=1 even though wants_both arrived first.
        assert order == [("b", 1.0), ("holder", 10.0), ("both", 10.0)]

    def test_duplicate_resource_needs_two_units(self):
        clock = SimClock()
        a = Resource(1)
        granted = []

        def proc():
            yield AcquireAll([a, a])
            granted.append(clock.now)
            a.release(2)

        clock.spawn(proc())
        clock.schedule(3.0, lambda: a.set_capacity(2))
        clock.run()
        assert granted == [3.0]

    def test_empty_resource_list(self):
        clock = SimClock()
        done = []

        def proc():
            yield AcquireAll([])
            done.append(True)

        clock.spawn(proc())
        clock.run()
        assert done == [True]

    def test_throughput_matches_capacity(self):
        clock = SimClock()
        resources = {n: Resource(2) for n in "abc"}
        completed = []

        def client(i):
            while clock.now < 10.0:
                yield AcquireAll(list(resources.values()))
                yield Timeout(1.0)
                for resource in resources.values():
                    resource.release()
                completed.append(clock.now)

        for i in range(10):
            clock.spawn(client(i))
        clock.run(until=10.0)
        # 2 concurrent querie-equivalents, 1s each, 10s -> ~20 completions.
        assert 18 <= len(completed) <= 20
