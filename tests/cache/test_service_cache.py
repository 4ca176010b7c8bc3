"""The one result cache, over every engine shape the service fronts.

``SearchService`` is the only place answers are cached.  Over a
single-node engine, the thread-backend cluster, the integrated engine
(conceptual and content modes) and a static index reader alike: a hit
equals a ``cache=False`` execution, every write makes the next read a
miss, requests that differ in anything that can change the answer never
share an entry, and nothing is cached that must not be.
"""

from dataclasses import replace

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.offline import StaticIndexReader, export_index
from repro.service import SearchRequest, SearchService
from repro.service.api import (MODE_CONCEPTUAL, MODE_CONTENT,
                               MODE_FRAGMENTED, SCHEMA_VERSION_V2)
from repro.telemetry import telemetry_session
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema

from tests.cache.conftest import corpus

pytestmark = pytest.mark.cache

CONTAINS = ("SELECT p.name FROM Player p "
            "WHERE p.history CONTAINS 'Winner' TOP 5")
UNCACHED = ExecutionPolicy(cache=False)


def _ir(tmp_path):
    engine = IrEngine(fragment_count=4)
    for url, text in corpus():
        engine.index(url, text)
    return engine, None


def _cluster(tmp_path):
    engine = ClusterIrEngine(3, fragment_count=4)
    engine.index.add_documents(corpus())
    return engine, None


def _site(tmp_path):
    server, truth = build_ausopen_site(players=8, articles=4, videos=1,
                                       frames_per_shot=4)
    engine = SearchEngine(australian_open_schema(), server,
                          EngineConfig(fragment_count=4))
    engine.populate()
    return engine, truth


def _static(tmp_path):
    engine, _ = _ir(tmp_path)
    return StaticIndexReader(export_index(engine, tmp_path / "artifact")), \
        None


#: schema-2 extras per dialect: (field prefix, filters, sort, facets, boosts)
IR_EXTRAS = ("title", (("year", "1990-"),), (("url", "asc"),), ("class",),
             (("title", 4.0),))
CONCEPTUAL_EXTRAS = (None, (("p.gender", "female"),), (("p.name", "asc"),),
                     ("p.gender",), (("history", 4.0),))

#: name -> (build, mode, query, schema-2 extras or None: no schema 2)
SHAPES = {
    "ir": (_ir, MODE_FRAGMENTED, "trophy champion w0", IR_EXTRAS),
    "cluster": (_cluster, MODE_CONTENT, "trophy champion w0", None),
    "conceptual": (_site, MODE_CONCEPTUAL, CONTAINS, CONCEPTUAL_EXTRAS),
    "content": (_site, MODE_CONTENT, "Winner trophy", IR_EXTRAS),
    "static": (_static, MODE_FRAGMENTED, "trophy champion w0", IR_EXTRAS),
}


@pytest.fixture(scope="module", params=sorted(SHAPES))
def shape(request, tmp_path_factory):
    """(engine, base request, schema-2 extras); read-only tests share
    the engine, each with a fresh service and so a fresh cache."""
    build, mode, query, extras = SHAPES[request.param]
    engine, _ = build(tmp_path_factory.mktemp(request.param))
    return engine, SearchRequest(query=query, mode=mode), extras


def answer(response):
    return ([(hit.key, hit.score, hit.values) for hit in response.hits],
            response.tuples_touched, response.facets, response.total)


def variants(base, extras):
    """Requests that must all be distinct entries."""
    requests = [base] + [replace(base, policy=policy) for policy in (
        ExecutionPolicy(n=3), ExecutionPolicy(prune=False),
        ExecutionPolicy(retries=1), ExecutionPolicy(on_failure="degrade"))]
    if extras is None:
        return requests
    field, filters, sort, facets, boosts = extras
    v2 = replace(base, schema_version=SCHEMA_VERSION_V2)
    requests += [v2, replace(v2, filters=filters), replace(v2, sort=sort),
                 replace(v2, facets=facets), replace(v2, boosts=boosts),
                 replace(v2, limit=2), replace(v2, limit=2, offset=2)]
    if field is not None:
        requests.append(replace(v2, query=f"{field}:{base.query}"))
    return requests


class TestHits:
    def test_a_hit_equals_an_uncached_execution(self, shape):
        engine, base, extras = shape
        service = SearchService(engine)
        requests = [base]
        if extras is not None:
            requests.append(replace(base, schema_version=SCHEMA_VERSION_V2,
                                    facets=extras[3], limit=3))
        for request in requests:
            uncached = replace(request, policy=UNCACHED)
            service.search(uncached)  # lazy builds and memos paid here
            reference = service.search(uncached)
            service.search(request)
            hit = service.search(request)
            assert hit.cache_hit and not reference.cache_hit
            assert answer(hit) == answer(reference)

    def test_a_hit_echoes_its_own_request(self, shape):
        engine, base, _ = shape
        service = SearchService(engine)
        service.search(replace(base, trace_id="first"))
        respelled = replace(base, query=f"  {base.query} ",
                            trace_id="second")
        hit = service.search(respelled)
        assert hit.cache_hit
        assert hit.to_dict()["trace_id"] == "second"
        assert hit.to_dict()["query"] == respelled.query

    def test_bulk_items_share_the_cache(self, shape):
        engine, base, _ = shape
        service = SearchService(engine)
        first, second = service.execute_bulk([base, base])
        assert not first.cache_hit and second.cache_hit
        assert answer(second) == answer(first)
        assert service.search(base).cache_hit


class TestKeys:
    def test_requests_that_differ_never_collide(self, shape):
        engine, base, extras = shape
        service = SearchService(engine)
        requests = variants(base, extras)
        firsts = [service.search(request) for request in requests]
        assert not any(response.cache_hit for response in firsts)
        assert service._results.stats()["entries"] == len(requests)
        for request, first in zip(requests, firsts):
            again = service.search(request)
            assert again.cache_hit
            assert answer(again) == answer(first)


class _Bare:
    """An engine that speaks ``execute`` and has no ``generation``."""

    def __init__(self, engine):
        self.execute = engine.execute


class _DegradedOnce:
    """The wrapped engine, but its first answer comes back degraded."""

    def __init__(self, engine):
        self._engine = engine
        self.calls = 0

    @property
    def generation(self):
        return self._engine.generation

    def execute(self, request):
        self.calls += 1
        response = self._engine.execute(request)
        return response.annotate(degraded=self.calls == 1)


class TestNeverCached:
    def test_cache_false_moves_no_cache_counter(self, shape):
        engine, base, _ = shape
        service = SearchService(engine)
        uncached = replace(base, policy=UNCACHED)
        with telemetry_session() as telemetry:
            service.search(uncached)
            service.search(uncached)
            service.execute_bulk([uncached])
            counters = telemetry.metrics.snapshot()["counters"]
        assert [name for name in counters if name.startswith("cache.")] \
            == []

    def test_an_engine_without_a_generation_is_never_cached(self, shape):
        engine, base, _ = shape
        service = SearchService(_Bare(engine))
        assert not service.search(base).cache_hit
        assert not service.search(base).cache_hit
        assert service._results.stats()["entries"] == 0

    def test_a_degraded_response_is_never_stored(self, shape):
        engine, base, _ = shape
        service = SearchService(_DegradedOnce(engine))
        assert service.search(base).degraded
        healed = service.search(base)
        assert not healed.cache_hit and not healed.degraded
        assert service.search(base).cache_hit


def _recrawl(service, engine, truth, tmp_path):
    player = truth.player("monica-seles")
    page = engine.server.get(player.page_path)
    engine.server.add_page(player.page_path,
                           page.body.replace(">USA<", ">Ruritania<"))
    assert service.recrawl().documents_replaced == 1


def _maintain(service, engine, truth, tmp_path):
    engine.upgrade_detector("tennis", "1.1.0")
    assert service.maintain().touched_keys


def _restore(service, engine, truth, tmp_path):
    service.snapshot(tmp_path / "snapshot")
    service.restore(tmp_path / "snapshot")


def _history_url(engine):
    return next(url for _, url in engine.ir.relations.D
                if url.endswith(":history"))


#: (shape, write) -> write(service, engine, truth, tmp_path)
WRITES = {
    ("ir", "reindex"): lambda service, engine, truth, tmp_path:
        service.reindex("http://site/p1", "trophy champion w0 w0"),
    ("ir", "remove"): lambda service, engine, truth, tmp_path:
        service.remove("http://site/p0"),
    ("ir", "direct"): lambda service, engine, truth, tmp_path:
        engine.index("http://site/fresh", "trophy champion w0"),
    ("cluster", "reindex"): lambda service, engine, truth, tmp_path:
        service.reindex("http://site/p1", "trophy champion w0 w0"),
    ("cluster", "remove"): lambda service, engine, truth, tmp_path:
        service.remove("http://site/p0"),
    ("cluster", "add_documents"): lambda service, engine, truth, tmp_path:
        service.add_documents([("http://site/fresh", "trophy champion")]),
    ("cluster", "direct"): lambda service, engine, truth, tmp_path:
        engine.index.add_document("http://site/fresh", "trophy champion"),
    ("conceptual", "populate"): lambda service, engine, truth, tmp_path:
        service.populate(),
    ("conceptual", "recrawl"): _recrawl,
    ("conceptual", "maintain"): _maintain,
    ("conceptual", "restore"): _restore,
    ("conceptual", "direct"): lambda service, engine, truth, tmp_path:
        engine.ir.reindex(_history_url(engine), "Winner Winner trophy"),
    ("content", "reindex"): lambda service, engine, truth, tmp_path:
        service.reindex(_history_url(engine), "Winner Winner trophy"),
    ("content", "remove"): lambda service, engine, truth, tmp_path:
        service.remove(_history_url(engine)),
}


@pytest.mark.parametrize("shape_name, write", sorted(WRITES),
                         ids=[f"{shape}-{write}"
                              for shape, write in sorted(WRITES)])
def test_every_write_makes_the_next_read_a_miss(shape_name, write,
                                                tmp_path):
    build, mode, query, _ = SHAPES[shape_name]
    engine, truth = build(tmp_path)
    service = SearchService(engine)
    request = SearchRequest(query=query, mode=mode)
    service.search(request)
    assert service.search(request).cache_hit
    WRITES[shape_name, write](service, engine, truth, tmp_path)
    after = service.search(request)
    assert not after.cache_hit
    # the hits of the post-write state (a conceptual memo refilled by
    # ``after`` makes the reference touch fewer tuples)
    assert answer(after)[0] == answer(
        service.search(replace(request, policy=UNCACHED)))[0]
