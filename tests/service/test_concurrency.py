"""The service under concurrency: parallel reads, writes, shed, drain."""

import threading
import time

import pytest

from repro.core.config import ExecutionPolicy
from repro.errors import ServiceClosedError, ServiceOverloadedError
from repro.service import (SearchRequest, SearchService, ServicePolicy)

from tests.service.conftest import build_ir_engine

pytestmark = pytest.mark.service

NO_CACHE = ExecutionPolicy(n=5, cache=False)


class TestParallelReadsDuringWrites:
    def test_queries_survive_a_concurrent_writer(self):
        engine = build_ir_engine(documents=40)
        service = SearchService(engine, ServicePolicy(
            max_inflight=8, max_queue=64, queue_timeout_ms=10000.0))
        errors = []
        responses = []
        lock = threading.Lock()
        stop = threading.Event()

        def reader(tag):
            for i in range(15):
                try:
                    response = service.submit(
                        f"trophy champion w{tag} w{i % 10}",
                        mode="content", policy=NO_CACHE)
                except Exception as exc:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(exc)
                else:
                    with lock:
                        responses.append(response)

        def writer():
            i = 0
            while not stop.is_set():
                service.reindex(f"doc:hot{i % 3}",
                                f"trophy champion fresh{i}")
                i += 1
                time.sleep(0.001)

        readers = [threading.Thread(target=reader, args=(t,))
                   for t in range(6)]
        writer_thread = threading.Thread(target=writer)
        writer_thread.start()
        for thread in readers:
            thread.start()
        for thread in readers:
            thread.join(30.0)
        stop.set()
        writer_thread.join(5.0)
        assert errors == []
        assert len(responses) == 6 * 15
        # every response is structurally sound despite interleaved writes
        for response in responses:
            for hit in response.hits:
                assert isinstance(hit.key, str) and hit.score >= 0.0
        assert service.status()["counters"]["writes"] > 0
        assert service.drain(5.0)


class TestCoalescing:
    def test_concurrent_duplicates_execute_once(self):
        engine = build_ir_engine(documents=30)
        executions = []
        real_execute = engine.execute

        def slow_execute(request):
            executions.append(request.query)
            time.sleep(0.2)
            return real_execute(request)

        engine.execute = slow_execute
        service = SearchService(engine, ServicePolicy(
            max_inflight=8, max_queue=16))
        barrier = threading.Barrier(6, timeout=5.0)
        results = []
        lock = threading.Lock()

        def query():
            barrier.wait()
            response = service.submit("trophy champion", mode="content",
                                      policy=NO_CACHE)
            with lock:
                results.append(response)

        threads = [threading.Thread(target=query) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10.0)
        assert len(executions) == 1
        assert len(results) == 6
        rankings = {tuple((h.key, h.score) for h in r.hits)
                    for r in results}
        assert len(rankings) == 1  # everyone saw the leader's answer
        assert sum(1 for r in results if r.coalesced) == 5
        assert service.status()["counters"]["coalesced"] == 5
        assert service.drain(5.0)

    def test_coalescing_off_executes_each(self):
        engine = build_ir_engine(documents=30)
        executions = []
        real_execute = engine.execute

        def counting_execute(request):
            executions.append(request.query)
            return real_execute(request)

        engine.execute = counting_execute
        service = SearchService(engine, ServicePolicy(coalesce=False))
        for _ in range(3):
            service.submit("trophy champion", mode="content",
                           policy=NO_CACHE)
        assert len(executions) == 3
        assert service.drain(5.0)


class TestLoadShedding:
    def test_shed_requests_carry_retry_after_and_never_crash(self):
        engine = build_ir_engine(documents=30)
        release = threading.Event()
        real_execute = engine.execute

        def gated_execute(request):
            release.wait(5.0)
            return real_execute(request)

        engine.execute = gated_execute
        service = SearchService(engine, ServicePolicy(
            max_inflight=1, max_queue=0, coalesce=False))
        occupier = threading.Thread(
            target=lambda: service.submit("trophy", mode="content",
                                          policy=NO_CACHE))
        occupier.start()
        for _ in range(200):
            if service.status()["admission"]["active"] == 1:
                break
            time.sleep(0.005)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit("champion", mode="content", policy=NO_CACHE)
        assert excinfo.value.retry_after > 0.0
        assert excinfo.value.reason == "queue"
        release.set()
        occupier.join(5.0)
        counters = service.status()["counters"]
        assert counters["shed"] == 1
        assert counters["admitted"] == 1
        assert service.drain(5.0)

    def test_rate_limited_service_sheds_with_reason_rate(self):
        engine = build_ir_engine(documents=30)
        service = SearchService(engine, ServicePolicy(rate=0.5, burst=1))
        service.submit("trophy", mode="content", policy=NO_CACHE)
        with pytest.raises(ServiceOverloadedError) as excinfo:
            service.submit("trophy", mode="content", policy=NO_CACHE)
        assert excinfo.value.reason == "rate"
        assert excinfo.value.retry_after > 0.0
        assert service.drain(5.0)


class TestDrain:
    def test_drain_finishes_inflight_then_rejects(self):
        engine = build_ir_engine(documents=30)
        release = threading.Event()
        real_execute = engine.execute

        def gated_execute(request):
            release.wait(5.0)
            return real_execute(request)

        engine.execute = gated_execute
        service = SearchService(engine)
        responses = []
        runner = threading.Thread(
            target=lambda: responses.append(
                service.submit("trophy", mode="content", policy=NO_CACHE)))
        runner.start()
        for _ in range(200):
            if service.status()["inflight"] == 1:
                break
            time.sleep(0.005)
        drainer = threading.Thread(target=lambda: service.drain(10.0))
        drainer.start()
        time.sleep(0.05)
        assert service.state == "draining"
        with pytest.raises(ServiceClosedError):
            service.submit("champion", mode="content", policy=NO_CACHE)
        release.set()
        runner.join(5.0)
        drainer.join(5.0)
        assert service.state == "closed"
        assert len(responses) == 1 and responses[0].hits
        assert service.status()["counters"]["rejected"] == 1

    def test_context_manager_drains_on_exit(self):
        engine = build_ir_engine(documents=20)
        with SearchService(engine) as service:
            service.submit("trophy", mode="content", policy=NO_CACHE)
        assert service.state == "closed"
        with pytest.raises(ServiceClosedError):
            service.submit("trophy", mode="content", policy=NO_CACHE)


class TestWriteKeyedCoalescing:
    def test_writes_split_singleflight_generations(self):
        # a follower keyed after a write must not join a pre-write flight:
        # the generation is part of the single-flight key
        engine = build_ir_engine(documents=30)
        service = SearchService(engine)
        before = service.submit("trophy champion", mode="content",
                                policy=NO_CACHE)
        service.reindex("doc:p0", "trophy trophy trophy champion trophy")
        after = service.submit("trophy champion", mode="content",
                               policy=NO_CACHE)
        assert [h.key for h in before.hits] != [h.key for h in after.hits] \
            or [h.score for h in before.hits] \
            != [h.score for h in after.hits]
        assert service.drain(5.0)


class TestRestoreUnderLoad(object):
    QUERY = ("SELECT p.name FROM Player p "
             "WHERE p.history CONTAINS 'Winner' TOP 5")

    def test_queries_run_to_completion_across_a_restore(
            self, search_engine, tmp_path):
        service = SearchService(search_engine, ServicePolicy(
            max_inflight=8, max_queue=64, queue_timeout_ms=10000.0))
        service.snapshot(tmp_path)
        errors = []
        responses = []
        lock = threading.Lock()

        def reader():
            for _ in range(10):
                try:
                    response = service.submit(self.QUERY)
                except Exception as exc:  # noqa: BLE001 - recorded
                    with lock:
                        errors.append(exc)
                else:
                    with lock:
                        responses.append(response)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        for thread in readers:
            thread.start()
        service.restore(tmp_path)
        for thread in readers:
            thread.join(30.0)
        assert errors == []
        assert len(responses) == 4 * 10
        names = {tuple(hit.values) for response in responses
                 for hit in response.hits}
        assert len(names) >= 1  # identical rows before and after the swap
        # the service now fronts the restored engine, not the original
        assert service.engine is not search_engine
        assert service.drain(5.0)


class TestEveryReplyEchoesItsRequest:
    def test_a_coalesced_follower_echoes_its_own_request(self):
        engine = build_ir_engine(documents=30)
        started = threading.Event()
        release = threading.Event()
        real_execute = engine.execute

        def gated_execute(request):
            started.set()
            release.wait(5.0)
            return real_execute(request)

        engine.execute = gated_execute
        service = SearchService(engine)
        leader = SearchRequest(query="tennis", mode="content",
                               policy=NO_CACHE, trace_id="leader")
        follower = SearchRequest(query="  tennis ", mode="content",
                                 policy=NO_CACHE, trace_id="follower")
        replies = {}
        threads = [threading.Thread(
            target=lambda r=request: replies.__setitem__(
                r.trace_id, service.search(r)))
            for request in (leader, follower)]
        threads[0].start()
        assert started.wait(5.0)
        threads[1].start()
        for _ in range(500):
            if service.status()["flights"]["followers"] == 1:
                break
            time.sleep(0.005)
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert replies["follower"].coalesced
        for trace_id, request in (("leader", leader),
                                  ("follower", follower)):
            payload = replies[trace_id].to_dict()
            assert payload["trace_id"] == trace_id
            assert payload["query"] == request.query
        assert service.drain(5.0)


class TestFragmentMemo:
    def test_concurrent_readers_after_a_write_build_one_set(self,
                                                            monkeypatch):
        """Four readers share the read lock on the first read after a
        write.  A build waits a moment for a second, concurrent build
        to join it: with the memo on the published index locked none
        comes, and every other reader reuses the first one's set."""
        import sys

        import repro.ir.fragmentation as fragmentation
        from repro.telemetry import telemetry_session

        engine = build_ir_engine(documents=30)
        service = SearchService(engine, ServicePolicy(max_inflight=4))
        service.reindex("doc:p3", "trophy champion fresh")
        builders = threading.Barrier(2)
        real_build = fragmentation.fragment_index

        def build(*args, **kwargs):
            try:
                builders.wait(timeout=0.5)
            except threading.BrokenBarrierError:  # nobody else built
                pass
            return real_build(*args, **kwargs)

        monkeypatch.setattr(fragmentation, "fragment_index", build)
        queries = ("trophy", "champion", "w1 w2", "w3")
        readers = threading.Barrier(len(queries))
        errors = []

        def reader(query):
            readers.wait(5.0)
            try:
                service.search(SearchRequest(query=query, mode="fragmented",
                                             policy=NO_CACHE))
            except Exception as exc:  # noqa: BLE001 - recorded
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with telemetry_session() as telemetry:
                threads = [threading.Thread(target=reader, args=(query,))
                           for query in queries]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                rebuilds = telemetry.metrics.sum_counters(
                    "ir.fragment_rebuilds")
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert rebuilds == 1
        assert service.drain(5.0)
