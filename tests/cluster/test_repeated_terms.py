"""A repeated query term weighs the same on every access path.

``rank_tfidf`` adds a term once per occurrence and ``compile_query``
merges a schema-2 term's occurrences into one weight, so the bag scan
must weigh a term by its multiplicity too (``idf × count``, its bound
as well) — else a clustered engine, whose nodes run the bag scan, ranks
``CONTAINS`` differently from a single node.  Here a document holding
``trophy`` three times beats one holding ``melbourne`` three times only
if the query's two ``trophy`` count twice.  The process backend's case
is ``tests/remote/test_repeated_terms.py``.
"""

import pytest

from repro.core.config import ExecutionPolicy
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.offline import StaticIndexReader, export_index
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)

pytestmark = pytest.mark.cluster

DOCUMENTS = [("/a", "melbourne open"),
             ("/b", "trophy trophy trophy"),
             ("/c", "melbourne melbourne melbourne trophy"),
             ("/d", "open final")]
QUERY = "melbourne trophy trophy"
#: trophy counted twice: /b 3 × 0.5 × 2 = 3.0, /c 1.5 + 1.0 = 2.5
EXPECTED = ["/b", "/c", "/a"]


def urls(response) -> list[str]:
    return [hit.key for hit in response.hits]


def requests() -> dict[str, SearchRequest]:
    return {
        "content": SearchRequest(query=QUERY, mode=MODE_CONTENT),
        "fragmented": SearchRequest(query=QUERY, mode=MODE_FRAGMENTED),
        "exhaustive": SearchRequest(query=QUERY, mode=MODE_FRAGMENTED,
                                    policy=ExecutionPolicy(prune=False)),
        "schema 2": SearchRequest(query=QUERY, mode=MODE_CONTENT,
                                  schema_version=SCHEMA_VERSION_V2),
    }


def test_every_access_path_ranks_alike(tmp_path):
    engine = IrEngine(fragment_count=2)
    for url, text in DOCUMENTS:
        engine.index(url, text)
    export_index(engine, tmp_path / "artifact")
    reader = StaticIndexReader(tmp_path / "artifact")
    cluster = ClusterIrEngine(2, fragment_count=2)
    cluster.index.add_documents(DOCUMENTS)

    ranked = {}
    for path, request in requests().items():
        ranked[path] = urls(engine.execute(request))
        ranked[f"static {path}"] = urls(reader.execute(request))
    ranked["thread cluster"] = [url for url, _ in
                                cluster.search_urls(QUERY)]
    ranked["central"] = [cluster.relations.doc_url(doc) for doc, _ in
                         cluster.index.exact_central_ranking(QUERY)]
    assert ranked == {path: EXPECTED for path in ranked}
