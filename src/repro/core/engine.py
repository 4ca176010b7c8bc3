"""The integrated search engine: the paper's system, end to end.

One object drives the whole lifecycle:

1. **Modeling** — construct with a webspace schema (conceptual level)
   and a feature grammar + detector registry (logical level).
2. **Populating** — :meth:`populate`: crawl the site, re-engineer HTML
   into materialized views, shred them into the conceptual store, index
   Hypertext attributes in the (optionally distributed) IR relations,
   and run the FDE over every multimedia object, storing parse trees in
   the FDS and their XML dumps in the meta store.
3. **Maintaining** — :meth:`upgrade_detector` / :meth:`notify_source_change`
   + :meth:`maintain`: the FDS localises the work.
4. **Querying** — :meth:`query`: conceptual + content-based, integrated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cobra.grammar import build_tennis_grammar, build_tennis_registry
from repro.cobra.library import VideoLibrary
from repro.errors import QueryError
from repro.featuregrammar.detectors import DetectorRegistry
from repro.featuregrammar.fde import FDE
from repro.featuregrammar.fds import FDS, MaintenanceReport
from repro.featuregrammar.parsetree import tree_to_xml
from repro.featuregrammar.versions import ChangeLevel, Version
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.monetdb.server import MonetServer
from repro.telemetry.runtime import get_telemetry
from repro.web.crawler import crawl
from repro.web.reengineer import reengineer_site
from repro.web.site import SimulatedWebServer
from repro.webspace.documents import document_to_xml
from repro.webspace.query import WebspaceQuery
from repro.webspace.schema import WebspaceSchema
from repro.xmlstore.store import ElementRef, XmlStore
from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.results import QueryResult
from repro.core.translate import ConceptualIndex, execute_query

__all__ = ["SearchEngine", "PopulationReport", "RecrawlReport"]


def _source_stamps(server: SimulatedWebServer):
    """The FDS's ``source_stamp``: a source's ``Last-Modified``, if any."""
    def stamp(key: str):
        if key in server:
            return server.head(key)["Last-Modified"]
        return None
    return stamp


@dataclass
class PopulationReport:
    """What one population run ingested."""

    pages_crawled: int = 0
    documents_stored: int = 0
    hypertexts_indexed: int = 0
    videos_analyzed: int = 0
    audios_analyzed: int = 0
    detector_calls: int = 0
    media_skipped: list[str] = field(default_factory=list)


@dataclass
class RecrawlReport:
    """What a maintenance re-crawl changed."""

    pages_crawled: int = 0
    documents_added: int = 0
    documents_replaced: int = 0
    documents_unchanged: int = 0
    documents_removed: int = 0
    hypertexts_reindexed: int = 0


class SearchEngine:
    """The three-level search engine for one webspace."""

    def __init__(self, schema: WebspaceSchema, server: SimulatedWebServer,
                 config: EngineConfig | None = None,
                 grammar=None, registry: DetectorRegistry | None = None,
                 extractor=None):
        self.schema = schema
        self.server = server
        self.config = config or EngineConfig()
        # the re-engineering process is site-specific ("using a special
        # purpose feature grammar"); engines for other webspaces plug in
        # their own extractor(schema, pages) -> [WebspaceDocument]
        self.extractor = extractor or reengineer_site

        # physical level (servers named per store so cost accounting is
        # attributable in metric snapshots)
        self.conceptual_store = XmlStore(MonetServer("conceptual"))
        self.meta_store = XmlStore(MonetServer("meta"))
        if self.config.cluster_size > 1:
            # "distribute the query workload over several database
            # engines": content predicates run the distributed plan
            self.ir = ClusterIrEngine(
                self.config.cluster_size,
                fragment_count=self.config.fragment_count)
        else:
            self.ir = IrEngine(fragment_count=self.config.fragment_count)

        # logical level: default to the tennis video grammar
        self.video_library = VideoLibrary()
        self.grammar = grammar or build_tennis_grammar()
        self.registry = registry or build_tennis_registry(self.video_library)
        self.fde = FDE(self.grammar, self.registry)
        # a closure over the server, not a bound method: the FDS must not
        # hold the engine, or a dropped engine (relations, postings and
        # all) would live on in a reference cycle until a full GC
        self.fds = FDS(self.fde, source_stamp=_source_stamps(server))

        self._index = ConceptualIndex(self.conceptual_store)
        # which checkpoint generation this engine was restored from, if
        # any; None for freshly built engines
        self.snapshot_generation: int | None = None
        # the last write-ahead-log sequence number this engine's state
        # covers (snapshot wal_seq plus any replayed tail); None when
        # no WAL is attached
        self.wal_seq: int | None = None

    # ------------------------------------------------------------------
    # populating
    # ------------------------------------------------------------------

    def populate(self) -> PopulationReport:
        """Crawl, re-engineer, shred, index, analyze."""
        report = PopulationReport()
        result = crawl(self.server, seed=self.config.crawl_seed)
        report.pages_crawled = len(result.pages)

        # conceptual level -> physical level
        documents = self.extractor(self.schema, result.pages)
        for document in documents:
            xml = document_to_xml(self.schema, document)
            if document.doc_id in self.conceptual_store:
                self.conceptual_store.replace(document.doc_id, xml)
            else:
                self.conceptual_store.insert(document.doc_id, xml)
        report.documents_stored = len(documents)

        # full-text hooks: every Hypertext attribute value becomes an
        # IR document keyed <class>:<key>:<attribute>
        for document in documents:
            report.hypertexts_indexed += self._index_hypertexts(document)

        # logical level: analyse every crawled video and audio object
        # through the feature grammar
        for resource in result.media:
            if resource.mime[0] in ("video", "audio") \
                    and resource.payload is not None:
                self.video_library.add(resource.payload, resource.mime)
            elif resource.url not in self.video_library:
                self.video_library.add_non_video(resource.url, resource.mime)
        for location in self.video_library.locations():
            if self.video_library.mime(location)[0] not in ("video",
                                                            "audio"):
                continue
            if location in self.meta_store:
                continue
            outcome = self.fds.add_object(location, location)
            if self.video_library.mime(location)[0] == "video":
                report.videos_analyzed += 1
            else:
                report.audios_analyzed += 1
            report.detector_calls += outcome.detector_calls
            self.meta_store.insert(location, tree_to_xml(outcome.tree))
        return report

    def recrawl(self) -> RecrawlReport:
        """Conceptual-level maintenance: re-crawl and apply the diff.

        "the source data and the extraction algorithms may all change,
        so the stored data has to be maintained to keep its validity" —
        pages that serialise identically are left untouched; changed
        pages are incrementally replaced (and their Hypertext
        attributes re-indexed); disappeared pages are deleted.
        """
        from repro.xmlstore.writer import canonical_xml

        report = RecrawlReport()
        result = crawl(self.server, seed=self.config.crawl_seed)
        report.pages_crawled = len(result.pages)
        documents = self.extractor(self.schema, result.pages)
        seen: set[str] = set()
        for document in documents:
            seen.add(document.doc_id)
            xml = document_to_xml(self.schema, document)
            if document.doc_id in self.conceptual_store:
                old = self.conceptual_store.reconstruct(document.doc_id)
                if canonical_xml(old) == canonical_xml(xml):
                    report.documents_unchanged += 1
                    continue
                self.conceptual_store.replace(document.doc_id, xml)
                report.documents_replaced += 1
            else:
                self.conceptual_store.insert(document.doc_id, xml)
                report.documents_added += 1
            report.hypertexts_reindexed += self._index_hypertexts(document)
        for key in list(self.conceptual_store.document_keys()):
            if key not in seen:
                self._unindex_document(key)
                self.conceptual_store.delete(key)
                report.documents_removed += 1
        return report

    def _index_hypertexts(self, document) -> int:
        indexed = 0
        for obj in document.objects:
            cls = self.schema.cls(obj.cls)
            for name, atype in cls.multimedia_attributes().items():
                if atype.by_reference:
                    continue
                text = obj.attributes.get(name)
                if not text:
                    continue
                self.ir.reindex(f"{obj.cls}:{obj.key}:{name}", str(text))
                indexed += 1
        return indexed

    def _unindex_document(self, doc_id: str) -> None:
        """Drop the IR documents of a deleted materialized view."""
        root = self.conceptual_store.reconstruct(doc_id)
        for node in root.element_children():
            if node.tag not in self.schema.classes:
                continue
            cls = self.schema.cls(node.tag)
            key = node.attributes.get("id", "")
            for name, atype in cls.multimedia_attributes().items():
                if atype.by_reference:
                    continue
                url = f"{node.tag}:{key}:{name}"
                if self.ir.relations.doc_oid(url) is not None:
                    self.ir.remove(url)

    # ------------------------------------------------------------------
    # maintaining
    # ------------------------------------------------------------------

    def upgrade_detector(self, name: str, version: str | Version,
                         implementation=None) -> ChangeLevel:
        """Install a new detector version; returns its change level."""
        if implementation is not None:
            old_version = self.registry.get(name).version
            self.registry.register(name, implementation, old_version)
        self.registry.set_version(name, version)
        return self.fds.notify_detector_change(name)

    def notify_source_change(self, location: str) -> bool:
        """Tell the engine a media object's source data changed."""
        return self.fds.notify_source_change(location)

    def maintain(self, limit: int | None = None) -> MaintenanceReport:
        """Run pending maintenance and refresh the touched meta entries.

        ``limit`` bounds the number of scheduler tasks processed — one
        *generation bump* of the incremental-maintenance loop.  The
        service's batched maintain calls this repeatedly between short
        writer-lock acquisitions so readers interleave; left at
        ``None`` it drains the whole queue in one go.  Either way only
        the meta-store entries of objects this run actually touched
        are rewritten.
        """
        report = self.fds.run(limit=limit)
        for key in sorted(report.touched_keys, key=str):
            xml = tree_to_xml(self.fds.tree(key))
            if key in self.meta_store:
                self.meta_store.replace(key, xml)
            else:
                self.meta_store.insert(key, xml)
        return report

    def maintenance_pending(self) -> int:
        """How many scheduler tasks are still queued."""
        return self.fds.pending()

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------

    def new_query(self) -> WebspaceQuery:
        """Start a conceptual query over this engine's schema."""
        return WebspaceQuery(self.schema)

    @property
    def generation(self) -> tuple:
        """Combined generation stamp of every store a query can read:
        what :class:`~repro.service.SearchService` keys its result
        cache on, so a write through any path is a new key space."""
        return (self.ir.generation, self.conceptual_store.generation,
                self.meta_store.generation)

    def execute(self, request) -> "SearchResponse":
        """Run one :class:`~repro.service.api.SearchRequest`.

        The single sanctioned query path: conceptual requests run the
        integrated three-level plan; ``content``/``fragmented``
        requests route to the IR backend's own ``execute``.  The
        public ``query_text``/``query`` methods (and the IR engines'
        ``search*``) are thin adapters over this, and
        :class:`~repro.service.SearchService` adds admission control,
        single-flight coalescing and reader–writer locking on top.
        """
        import time

        from repro.service import api

        if request.mode != api.MODE_CONCEPTUAL:
            return self.ir.execute(request)
        started = time.perf_counter()
        extras = (request if request.schema_version == api.SCHEMA_VERSION_V2
                  else None)
        result = self._query_text(request.query, request.policy,
                                  request=extras)
        return api.response_from_query_result(
            request, result, api.elapsed_ms_since(started))

    def query_text(self, source: str,
                   policy: ExecutionPolicy | None = None) -> QueryResult:
        """Parse and execute a textual conceptual query.

        A thin adapter over :meth:`execute` — it wraps ``source`` into
        a :class:`~repro.service.api.SearchRequest` and unwraps the
        :class:`QueryResult` from the response.
        """
        from repro.service.api import SearchRequest

        request = SearchRequest(query=source,
                                policy=policy or self.config.execution)
        return self.execute(request).result

    def _query_text(self, source: str, policy: ExecutionPolicy,
                    request=None) -> QueryResult:
        """The conceptual-path core behind :meth:`execute`.

        The textual language is the CLI-friendly counterpart of the
        paper's graphical query interface (Fig 13); see
        :mod:`repro.webspace.language` for the grammar.  ``request``
        carries the schema-2 extras (filters, facets, sort, pagination,
        CONTAINS remapped to the rich language).
        """
        from repro.webspace.language import parse_query

        query = parse_query(self.schema, source)
        if request is not None:
            self._apply_request_extras(query, request)
        return self.query(query, policy=policy)

    def _resolve_path(self, query: WebspaceQuery, name: str) -> str:
        """Resolve a bare field name to a unique ``alias.attribute``."""
        if "." in name:
            return name
        owners = []
        for binding in query.bindings:
            try:
                self.schema.cls(binding.cls).attribute(name)
            except Exception:
                continue
            owners.append(binding.alias)
        if not owners:
            raise QueryError(f"no bound class has attribute {name!r}")
        if len(owners) > 1:
            raise QueryError(
                f"attribute {name!r} is ambiguous across bindings "
                f"{sorted(owners)}; qualify it as alias.{name}")
        return f"{owners[0]}.{name}"

    def _apply_request_extras(self, query: WebspaceQuery, request) -> None:
        """Fold a schema-2 request's extras into a conceptual query.

        CONTAINS predicates are upgraded from the v1 bag of words to
        the rich language (so phrases, fields and booleans work inside
        them); filters/sort/facets name conceptual attributes, either
        qualified (``p.year``) or bare when unambiguous (``year``).
        """
        import re as _re

        from repro.webspace.query import (CONTENT_RICH, CONTENT_TERMS,
                                          ContentPredicate)

        query.content_predicates = [
            ContentPredicate(pred.alias, pred.attribute, pred.text,
                             CONTENT_RICH)
            if pred.kind == CONTENT_TERMS else pred
            for pred in query.content_predicates]
        range_re = _re.compile(r"^(\d+(?:\.\d+)?)?-(\d+(?:\.\d+)?)?$")
        for name, spec in request.filters:
            path = self._resolve_path(query, name)
            match = range_re.match(spec)
            if match and (match.group(1) or match.group(2)):
                low = float(match.group(1)) if match.group(1) else None
                high = float(match.group(2)) if match.group(2) else None
                query.where_range(path, low, high)
            else:
                query.where(path, "==", spec)
        for name in request.facets:
            query.facet(self._resolve_path(query, name))
        for name, direction in request.sort:
            path = name if name == "score" \
                else self._resolve_path(query, name)
            query.order_by(path, descending=(direction == "desc"))
        if request.limit is not None:
            query.top(request.limit)
        if request.offset:
            query.skip(request.offset)

    def query(self, query: WebspaceQuery,
              policy: ExecutionPolicy | None = None) -> QueryResult:
        """Execute an integrated conceptual + content-based query.

        ``policy`` governs how content predicates run on a clustered
        backend (fan-out width, per-node deadlines, retry, raise vs.
        degrade); it defaults to ``config.execution``.  A degraded
        distributed plan surfaces on the result (``degraded``,
        ``failed_nodes``, ``node_tuples``).
        """
        if query.schema is not self.schema:
            raise QueryError("query was built for a different schema")
        policy = policy or self.config.execution
        self.conceptual_store.server.reset_accounting()
        recent = getattr(self.ir, "recent_results", None)
        if recent is not None:
            recent.clear()
        telemetry = get_telemetry()
        with telemetry.tracer.span("query", schema=self.schema.name,
                                   bindings=len(query.bindings)) as span:
            content_search = (lambda cls, attribute, text, kind="terms":
                              self._content_search(cls, attribute, text,
                                                   policy, kind=kind))
            result = execute_query(query, self._index,
                                   content_search, self._event_search,
                                   self._audio_search,
                                   meta_server=self.meta_store.server)
            if recent:
                self._merge_distributed_accounting(result, recent)
            span.set_attributes(rows=len(result.rows),
                                tuples_touched=result.tuples_touched,
                                degraded=result.degraded)
        telemetry.metrics.counter("engine.queries").add(1)
        duration = span.duration_ms
        if duration is not None:
            telemetry.metrics.histogram("engine.query_ms").observe(duration)
        return result

    @staticmethod
    def _merge_distributed_accounting(result: QueryResult,
                                      distributed) -> None:
        """Fold the query's distributed plans into the unified surface."""
        for plan in distributed:
            result.degraded = result.degraded or plan.degraded
            for node in plan.failed_nodes:
                if node not in result.failed_nodes:
                    result.failed_nodes.append(node)
            for node, tuples in plan.tuples_read_per_node().items():
                result.node_tuples[node] = \
                    result.node_tuples.get(node, 0) + tuples

    # -- the two optimization hooks -----------------------------------

    def _content_search(self, cls: str, attribute: str, text: str,
                        policy: ExecutionPolicy | None = None,
                        kind: str = "terms"
                        ) -> tuple[dict[str, float], dict[str, object]]:
        """IR hook: ranked keys of one class/attribute namespace.

        ``kind`` selects the IR interpretation of ``text``: ``"terms"``
        builds the v1 bag-of-words request (bit-identical to before),
        ``"phrase"`` quotes it into a schema-2 phrase query, and
        ``"rich"`` passes it to the schema-2 language verbatim.

        Returns ``(ranked, info)``: the info dict carries how the
        physical level executed (the columnar kernel) and lands on the
        ``IrProbe`` plan node.
        """
        from repro.service.api import (MODE_CONTENT, SCHEMA_VERSION_V2,
                                       SearchRequest)

        prefix = f"{cls}:"
        suffix = f":{attribute}"
        ranked: dict[str, float] = {}
        # the predicate filters a namespace out of the global ranking,
        # so it needs the full collection ranked, whatever policy.n says
        base = policy if policy is not None else ExecutionPolicy()
        full = base.replace(n=max(1, self.ir.relations.document_count()))
        if kind == "terms":
            request = SearchRequest(query=text, mode=MODE_CONTENT,
                                    policy=full)
        else:
            source = (f'"{text.replace(chr(34), " ")}"'
                      if kind == "phrase" else text)
            request = SearchRequest(query=source, mode=MODE_CONTENT,
                                    policy=full,
                                    schema_version=SCHEMA_VERSION_V2)
        response = self.ir.execute(request)
        for hit in response.hits:
            url = hit.key
            if url.startswith(prefix) and url.endswith(suffix):
                key = url[len(prefix):len(url) - len(suffix)]
                ranked[key] = hit.score
        info: dict[str, object] = {"kernel": "columnar"}
        if kind != "terms":
            info["content_kind"] = kind
        return ranked, info

    def _event_search(self, media_url: str, event: str
                      ) -> list[tuple[int, int]]:
        """Meta-index hook: shots of a video in which an event holds.

        A shot holds when an ``event`` element in its subtree (the shot
        itself included) has direct text ``true`` and is not marked
        ``valid="false"``; nested shots both hold.  The ranges come in
        document order, from each shot's first ``begin``/``end`` child.
        It reads the event elements, their enclosing edges and the
        holding shots' bounds, never a frame.
        """
        store = self.meta_store
        if media_url not in store:
            return []
        holding: dict[int, ElementRef] = {}
        for node in store.elements(media_url, event):
            if store.text(node).strip() != "true" \
                    or store.attribute(node, "valid") == "false":
                continue
            for shot in [node, *store.ancestors(node)]:
                if shot.tag == "shot":
                    holding[shot.oid] = shot
        ranges: list[tuple[int, int]] = []
        for oid in sorted(holding):
            begin = store.children(holding[oid], "begin")
            end = store.children(holding[oid], "end")
            if begin and end:
                ranges.append((int(store.deep_text(begin[0]).strip()),
                               int(store.deep_text(end[0]).strip())))
        return ranges

    def _audio_search(self, media_url: str, kind: str
                      ) -> tuple[bool, list[tuple[float, float, int]]]:
        """Audio meta-index hook: kind match + speaker turns."""
        store = self.meta_store
        if media_url not in store:
            return False, []
        # the kind is the audio_kind element's first child
        if not any([child.tag for child in store.children(node)][:1] == [kind]
                   for node in store.elements(media_url, "audio_kind")):
            return False, []
        speaker_turns: list[tuple[float, float, int]] = []
        for turn in store.elements(media_url, "turn"):
            values = [store.deep_text(child).strip()
                      for child in store.children(turn)]
            if len(values) == 3:
                speaker_turns.append((float(values[0]), float(values[1]),
                                      int(values[2])))
        return True, speaker_turns

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        return {
            "conceptual": self.conceptual_store.catalog.stats(),
            "meta": self.meta_store.catalog.stats(),
            "ir": self.ir.relations.stats(),
            "videos": len(self.fds),
        }
