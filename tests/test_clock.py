"""Discrete-event clock: processes, timeouts, resources, AcquireAll."""

import pytest

from repro.common.clock import AcquireAll, Process, Resource, SimClock, Timeout


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
        clock = SimClock()
        makespan, lanes = clock.charge_parallel([1.0, 2.0, 3.0], lanes=1)
        assert makespan == 6.0
        assert lanes == [6.0]

    def test_parallel_cost_is_max_over_lanes(self):
        clock = SimClock()
        makespan, lanes = clock.charge_parallel([1.0, 1.0, 1.0, 1.0], lanes=4)
        assert makespan == 1.0
        assert lanes == [1.0, 1.0, 1.0, 1.0]

    def test_greedy_earliest_free_lane(self):
        clock = SimClock()
        # Lane 0 takes 3.0; 1.0 and then 2.0 pack onto lane 1.
        makespan, lanes = clock.charge_parallel([3.0, 1.0, 2.0], lanes=2)
        assert lanes == [3.0, 3.0]
        assert makespan == 3.0

    def test_lane_totals_sum_to_serial_cost(self):
        clock = SimClock()
        durations = [0.5, 1.25, 0.25, 2.0, 0.75, 1.0]
        makespan, lanes = clock.charge_parallel(durations, lanes=3)
        assert sum(lanes) == pytest.approx(sum(durations))
        assert makespan <= sum(durations)
        assert makespan >= max(durations)

    def test_more_lanes_than_durations(self):
        clock = SimClock()
        makespan, lanes = clock.charge_parallel([2.0], lanes=8)
        assert makespan == 2.0
        assert lanes == [2.0]  # lanes are clamped to the work available

    def test_empty_batch_is_free(self):
        clock = SimClock()
        makespan, lanes = clock.charge_parallel([], lanes=4)
        assert makespan == 0.0
        assert lanes == [0.0]

    def test_does_not_move_the_clock(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.charge_parallel([10.0, 10.0], lanes=2)
        assert clock.now == 5.0

    def test_deterministic(self):
        durations = [0.031, 0.047, 0.012, 0.9, 0.031, 0.2, 0.044]
        first = SimClock().charge_parallel(durations, lanes=3)
        second = SimClock().charge_parallel(durations, lanes=3)
        assert first == second

    def test_invalid_inputs_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.charge_parallel([1.0], lanes=0)
        with pytest.raises(ValueError):
            clock.charge_parallel([1.0, -0.5], lanes=2)


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

    def test_join_returns_value(self):
        clock = SimClock()
        results = []

        def child():
            yield Timeout(1.0)
            return 42

        def parent():
            value = yield clock.spawn(child())
            results.append((value, clock.now))

        clock.spawn(parent())
        clock.run()
        assert results == [(42, 1.0)]

    def test_join_finished_process(self):
        clock = SimClock()
        results = []

        def child():
            return "done"
            yield  # pragma: no cover

        def parent(p):
            value = yield p
            results.append(value)

        child_process = clock.spawn(child())
        clock.run()
        clock.spawn(parent(child_process))
        clock.run()
        assert results == ["done"]

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
            grant = AcquireAll([resource])
            yield grant
            yield Timeout(1.0)
            grant.release()
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
            grant = AcquireAll([a])
            yield grant
            yield Timeout(10.0)
            grant.release()
            order.append(("holder", clock.now))

        def wants_both():
            grant = AcquireAll([a, b])
            yield grant
            order.append(("both", clock.now))
            grant.release()

        def wants_b():
            yield Timeout(1.0)
            grant = AcquireAll([b])
            yield grant
            order.append(("b", clock.now))
            yield Timeout(1.0)
            grant.release()

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
            grant = AcquireAll([a, a])
            yield grant
            granted.append(clock.now)
            grant.release()

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
                grant = AcquireAll(list(resources.values()))
                yield grant
                yield Timeout(1.0)
                grant.release()
                completed.append(clock.now)

        for i in range(10):
            clock.spawn(client(i))
        clock.run(until=10.0)
        # 2 concurrent querie-equivalents, 1s each, 10s -> ~20 completions.
        assert 18 <= len(completed) <= 20
