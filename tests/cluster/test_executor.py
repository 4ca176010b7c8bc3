"""Unit tests for the cluster Executor and FaultInjector."""

import random
import threading
import time

import pytest

from repro.cluster import (ExecutionPolicy, Executor, FaultInjector,
                           InjectedFault)

from tests.cluster.conftest import build_index

pytestmark = pytest.mark.cluster


def tasks_returning(values):
    return {name: (lambda v=value: v) for name, value in values.items()}


class TestFanOut:
    def test_every_task_produces_an_outcome(self):
        outcomes = Executor().run(tasks_returning(
            {"node0": 1, "node1": 2, "node2": 3}))
        assert sorted(outcomes) == ["node0", "node1", "node2"]
        assert all(outcome.ok for outcome in outcomes.values())
        assert [outcomes[n].value for n in ("node0", "node1", "node2")] \
            == [1, 2, 3]
        assert all(outcome.attempts == 1 for outcome in outcomes.values())

    def test_empty_task_set(self):
        assert Executor().run({}) == {}

    def test_outcomes_preserve_task_order(self):
        outcomes = Executor().run(tasks_returning(
            {"b": 1, "a": 2, "c": 3}))
        assert list(outcomes) == ["b", "a", "c"]

    def test_injected_delays_overlap_at_full_width(self):
        """Delays are loop timers: at full width four 40ms waits
        overlap, at width one they add up."""
        faults = FaultInjector().delay_all(40)
        tasks = tasks_returning({f"n{i}": i for i in range(4)})
        timings = {}
        for width in (None, 1):
            start = time.perf_counter()
            outcomes = Executor(ExecutionPolicy(max_workers=width),
                                faults).run(tasks)
            timings[width] = time.perf_counter() - start
            assert all(outcome.ok for outcome in outcomes.values())
        assert timings[None] < 0.080
        assert timings[1] >= 0.160

    def test_max_workers_one_serialises(self):
        running = []
        overlap = []

        def task():
            running.append(None)
            overlap.append(len(running))
            time.sleep(0.005)
            running.pop()
            return True

        policy = ExecutionPolicy(max_workers=1)
        outcomes = Executor(policy).run({f"n{i}": task for i in range(4)})
        assert all(outcome.ok for outcome in outcomes.values())
        assert max(overlap) == 1


class TestFailureHandling:
    def test_error_reported_not_raised(self):
        def boom():
            raise ValueError("kaput")

        outcomes = Executor().run({"node0": boom})
        outcome = outcomes["node0"]
        assert not outcome.ok
        assert outcome.error == "ValueError: kaput"
        assert outcome.attempts == 1

    def test_retry_succeeds_after_transient_fault(self):
        faults = FaultInjector().fail("node0", times=1)
        policy = ExecutionPolicy(retries=1, backoff_ms=1)
        outcomes = Executor(policy, faults).run(tasks_returning({"node0": 7}))
        outcome = outcomes["node0"]
        assert outcome.ok
        assert outcome.value == 7
        assert outcome.attempts == 2

    def test_retry_budget_exhausted(self):
        faults = FaultInjector().fail("node0", times=3)
        policy = ExecutionPolicy(retries=1, backoff_ms=1)
        outcome = Executor(policy, faults).run(
            tasks_returning({"node0": 7}))["node0"]
        assert not outcome.ok
        assert outcome.attempts == 2
        assert "injected fault" in outcome.error

    def test_injected_custom_error(self):
        faults = FaultInjector().fail("node0", error=OSError("conn reset"))
        outcome = Executor(None, faults).run(
            tasks_returning({"node0": 7}))["node0"]
        assert outcome.error == "OSError: conn reset"

    def test_default_injected_error_is_typed(self):
        faults = FaultInjector().fail("node0")
        with pytest.raises(InjectedFault):
            faults.on_attempt("node0", 1)


class TestDeadlines:
    def test_slow_node_times_out_others_survive(self):
        faults = FaultInjector().delay("node1", 500)
        policy = ExecutionPolicy(node_deadline_ms=40)
        start = time.perf_counter()
        outcomes = Executor(policy, faults).run(tasks_returning(
            {"node0": 1, "node1": 2, "node2": 3}))
        elapsed = time.perf_counter() - start
        assert outcomes["node0"].ok and outcomes["node2"].ok
        assert outcomes["node1"].timed_out
        assert not outcomes["node1"].ok
        assert "deadline" in outcomes["node1"].error \
            or "cancelled" in outcomes["node1"].error
        # the delay is a timer the deadline cuts short, not a sleep
        assert elapsed < 0.4

    def test_deadline_cancels_backoff_wait(self):
        faults = FaultInjector().fail("node0", times=5)
        policy = ExecutionPolicy(retries=5, backoff_ms=200,
                                 node_deadline_ms=30)
        start = time.perf_counter()
        outcome = Executor(policy, faults).run(
            tasks_returning({"node0": 1}))["node0"]
        assert not outcome.ok
        assert time.perf_counter() - start < 0.4

    def test_no_deadline_waits_for_slow_node(self):
        faults = FaultInjector().delay("node0", 30)
        outcome = Executor(None, faults).run(
            tasks_returning({"node0": 9}))["node0"]
        assert outcome.ok
        assert outcome.value == 9
        assert outcome.elapsed_ms >= 25


class TestJitteredBackoff:
    def test_backoff_is_uniform_within_exponential_ceiling(self):
        executor = Executor(ExecutionPolicy(backoff_ms=10),
                            rng=random.Random(42))
        for attempt in (1, 2, 3, 4):
            ceiling = 0.010 * (2 ** (attempt - 1))
            samples = [executor.backoff_s(attempt) for _ in range(200)]
            assert all(0.0 <= sample < ceiling for sample in samples)
            # full jitter, not fixed exponential: the draws spread out
            assert max(samples) - min(samples) > ceiling / 4

    def test_seeded_rng_reproduces_the_schedule(self):
        policy = ExecutionPolicy(backoff_ms=25)
        first = Executor(policy, rng=random.Random(7))
        second = Executor(policy, rng=random.Random(7))
        schedule = [first.backoff_s(attempt) for attempt in (1, 2, 3)]
        assert schedule == [second.backoff_s(a) for a in (1, 2, 3)]
        third = Executor(policy, rng=random.Random(8))
        assert schedule != [third.backoff_s(a) for a in (1, 2, 3)]

    def test_zero_backoff_never_sleeps(self):
        executor = Executor(ExecutionPolicy(backoff_ms=0))
        assert executor.backoff_s(1) == 0.0
        assert executor.backoff_s(5) == 0.0


class TestInjectorConfig:
    def test_delay_all_applies_to_every_node(self):
        faults = FaultInjector().delay_all(20)
        outcomes = Executor(None, faults).run(tasks_returning(
            {"node0": 1, "node1": 2}))
        assert all(outcome.elapsed_ms >= 15
                   for outcome in outcomes.values())

    def test_clear_removes_faults(self):
        faults = FaultInjector().fail("node0", times=5).delay_all(50)
        faults.clear()
        outcome = Executor(None, faults).run(
            tasks_returning({"node0": 1}))["node0"]
        assert outcome.ok
        assert outcome.elapsed_ms < 40


class TestNoThreads:
    def test_thread_backend_constructs_no_thread(self, monkeypatch):
        """Population and a thread-backend query (with retries, a
        deadline and injected delays) run on the calling thread."""
        faults = FaultInjector().delay_all(5).fail("node1", times=1)
        constructed = []
        init = threading.Thread.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(kwargs.get("name"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(threading.Thread, "__init__", counting_init)
        index = build_index(cluster_size=4, fault_injector=faults)
        index.add_documents([(f"http://site/extra{i}", "trophy w1 w2")
                             for i in range(10)])
        result = index.query("trophy melbourne w0", policy=ExecutionPolicy(
            cache=False, retries=1, backoff_ms=1, node_deadline_ms=5000))
        monkeypatch.undo()
        assert constructed == []
        assert not result.degraded
        assert result.attempts["node1"] == 2
