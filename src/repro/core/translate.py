"""Query translation: conceptual queries down to physical searches.

"Under the hood of the system the query is translated into an XML
representation, which in its turn is translated into the query algebra
of the storage engine.  During this translation statements using the
optimization hooks, like implemented for full text retrieval, are
inserted."

Concretely, a :class:`~repro.webspace.query.WebspaceQuery` becomes:

* path-expression scans over the shredded materialized views (class
  instances, attribute values, association pairs),
* ranked IR probes for ``contains`` predicates (through the fragment-
  pruned top-N access path),
* meta-index scans over the shredded parse trees for ``video_event``
  predicates,

joined with BAT algebra and ranked by the summed IR scores.
"""

from __future__ import annotations

from collections import defaultdict
from functools import wraps
from typing import Any

from repro.errors import QueryError
from repro.monetdb.atoms import Oid
from repro.telemetry.runtime import get_telemetry
from repro.webspace.query import WebspaceQuery
from repro.xmlstore.pathexpr import descend, match_paths, node_oids
from repro.xmlstore.store import XmlStore
from repro.core.plan import PlanNode
from repro.core.results import QueryResult, ResultRow, ShotRange, TurnRange

__all__ = ["ConceptualIndex", "execute_query"]


def _memoized(lookup):
    """Memoize a :class:`ConceptualIndex` lookup per store generation.

    The memo is one dict keyed ``(lookup name, *args)``; it is dropped
    whenever the store's ``generation`` has moved, so a write through
    any path — the engine's populate/recrawl or the store directly — is
    seen by the next read.
    """
    @wraps(lookup)
    def memoized(self, *args):
        generation = self.store.generation
        if self._generation != generation:
            self._memo = {}
            self._generation = generation
        key = (lookup.__name__, *args)
        value = self._memo.get(key)
        if value is None:
            value = self._memo[key] = lookup(self, *args)
        return value
    return memoized


class ConceptualIndex:
    """Read access to the shredded materialized views.

    Thin lookups over the conceptual :class:`XmlStore` — class
    instances, attribute values and association pairs — memoized
    against the store's generation.
    """

    def __init__(self, store: XmlStore):
        self.store = store
        self._memo: dict[tuple, Any] = {}
        self._generation = store.generation

    def _class_nodes(self, cls: str) -> tuple[Any, list[Oid]]:
        paths = match_paths(self.store.summary, f"/webspace/{cls}")
        if not paths:
            return None, []
        node = paths[0]
        return node, node_oids(self.store.catalog, node, self.store.server)

    @_memoized
    def keys_of(self, cls: str) -> set[str]:
        """All object keys of a class (deduplicated across documents)."""
        node, oids = self._class_nodes(cls)
        keys: set[str] = set()
        if node is not None:
            id_relation = self.store.catalog.get_or_none(
                node.attribute_relation("id"))
            if id_relation is not None:
                self.store.server.charge(len(id_relation))
                keys = {key for key in id_relation.get_many(oids)
                        if key is not None}
        return keys

    @_memoized
    def attribute_values(self, cls: str, attribute: str) -> dict[str, str]:
        """object key -> attribute value (text or href), merged over docs."""
        values: dict[str, str] = {}
        node, oids = self._class_nodes(cls)
        if node is not None:
            id_relation = self.store.catalog.get_or_none(
                node.attribute_relation("id"))
            attr_node = node.get_child(attribute)
            if id_relation is not None and attr_node is not None:
                # by-reference multimedia attributes live in @href
                href = self.store.catalog.get_or_none(
                    attr_node.attribute_relation("href"))
                if href is not None:
                    pairs = descend(self.store.catalog, node, oids,
                                    attribute, self.store.server)
                    self.store.server.charge(len(href))
                    # batch lookups: one index probe pass per column
                    keys = id_relation.get_many(
                        [obj_oid for obj_oid, _ in pairs])
                    tails = href.get_many(
                        [attr_oid for _, attr_oid in pairs])
                    for key, value in zip(keys, tails):
                        if value is not None and key is not None:
                            values.setdefault(key, value)
                cdata_node = attr_node.get_child("pcdata")
                if cdata_node is not None:
                    cdata = self.store.catalog.get_or_none(
                        cdata_node.cdata_relation())
                    if cdata is not None:
                        pairs = descend(self.store.catalog, node, oids,
                                        f"{attribute}/pcdata",
                                        self.store.server)
                        self.store.server.charge(len(cdata))
                        keys = id_relation.get_many(
                            [obj_oid for obj_oid, _ in pairs])
                        texts = cdata.get_many(
                            [text_oid for _, text_oid in pairs])
                        for key, text in zip(keys, texts):
                            if text is not None and key is not None:
                                values.setdefault(key, text)
        return values

    @_memoized
    def association_pairs(self, name: str) -> list[tuple[str, str]]:
        """(source key, target key) pairs of an association concept."""
        pairs: list[tuple[str, str]] = []
        paths = match_paths(self.store.summary, f"/webspace/{name}")
        if paths:
            node = paths[0]
            source = self.store.catalog.get_or_none(
                node.attribute_relation("source"))
            target = self.store.catalog.get_or_none(
                node.attribute_relation("target"))
            if source is not None and target is not None:
                self.store.server.charge(len(source) + len(target))
                seen: set[tuple[str, str]] = set()
                oids = node_oids(self.store.catalog, node,
                                 self.store.server)
                for pair in zip(source.get_many(oids),
                                target.get_many(oids)):
                    if pair not in seen:
                        seen.add(pair)
                        pairs.append(pair)
        return pairs


_COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _numeric(value: object) -> float | None:
    try:
        return float(str(value))
    except (TypeError, ValueError):
        return None


def _in_range(value: object, low: float | None,
              high: float | None) -> bool:
    """Numeric containment when the stored value parses as a number."""
    number = _numeric(value)
    if number is None:
        return False
    if low is not None and number < low:
        return False
    if high is not None and number > high:
        return False
    return True


def _order_value(value: object):
    """A sort key that compares numbers numerically, text after."""
    number = _numeric(value)
    if number is not None:
        return (0, number, "")
    return (1, 0.0, "" if value is None else str(value))


def _content_probe(content_search, cls: str, predicate):
    """Call the IR hook, passing ``kind`` only for non-v1 predicates —
    three-argument hooks (embedders, tests) keep working for v1."""
    kind = getattr(predicate, "kind", "terms")
    if kind == "terms":
        return content_search(cls, predicate.attribute, predicate.text)
    return content_search(cls, predicate.attribute, predicate.text, kind)


def _meta_probe_node(operator: str, detail: str, counters: dict,
                     meta_server, read_before: int) -> PlanNode:
    """A meta-index probe's plan node; ``tuples`` are the meta rows read."""
    if meta_server:
        counters["tuples"] = meta_server.tuples_touched - read_before
    return PlanNode(operator, detail, counters)


def execute_query(query: WebspaceQuery, index: ConceptualIndex,
                  content_search, event_search,
                  audio_search=None, meta_server=None) -> QueryResult:
    """Run a conceptual query.

    ``content_search(cls, attribute, text)`` must return
    ``dict[object key, score]`` (the IR hook), or a
    ``(ranked, info)`` tuple whose ``info`` dict's ``kernel`` is
    stamped onto the ``IrProbe`` plan node;
    ``event_search(media_url, event)`` must return a list of (begin,
    end) shot ranges, empty when the event never occurs;
    ``audio_search(media_url, kind)`` must return
    (matched, [(start, end, speaker)]) — all three are the physical
    level's optimization hooks.  Given the meta-index's ``meta_server``,
    each ``MetaProbe``/``AudioProbe`` plan node counts the ``tuples``
    its probes read there; ``tuples_touched`` stays the conceptual
    store's.
    """
    query.validate()
    telemetry = get_telemetry()
    tracer = telemetry.tracer
    operators = telemetry.metrics
    result = QueryResult()
    plan = PlanNode("TopN", f"limit={query.limit}")
    rank_node = plan.add(PlanNode("Rank", "by summed content scores"))
    join_root = rank_node.add(PlanNode("JoinGraph"))

    # 1. candidate keys per binding after local predicates
    candidates: dict[str, set[str]] = {}
    scores: dict[str, dict[str, float]] = defaultdict(dict)
    shots: dict[str, dict[str, list[ShotRange]]] = defaultdict(dict)
    turns: dict[str, dict[str, list[TurnRange]]] = defaultdict(dict)
    bind_nodes: dict[str, PlanNode] = {}

    with tracer.span("plan.bind", bindings=len(query.bindings)):
        for binding in query.bindings:
            with tracer.span("op.Bind", alias=binding.alias,
                             cls=binding.cls) as op:
                keys = set(index.keys_of(binding.cls))
                op.set_attribute("instances", len(keys))
            candidates[binding.alias] = keys
            bind_nodes[binding.alias] = join_root.add(PlanNode(
                "Bind", f"{binding.alias}: {binding.cls}",
                {"instances": len(keys)}))

    with tracer.span("plan.select",
                     predicates=len(query.attribute_predicates)):
        for predicate in query.attribute_predicates:
            cls = query.cls_of(predicate.alias)
            before = len(candidates[predicate.alias])
            with tracer.span("op.AttrSelect",
                             predicate=f"{predicate.alias}."
                                       f"{predicate.attribute} "
                                       f"{predicate.op} "
                                       f"{predicate.value!r}") as op:
                values = index.attribute_values(cls, predicate.attribute)
                compare = _COMPARATORS[predicate.op]
                candidates[predicate.alias] &= {
                    key for key, value in values.items()
                    if compare(value, predicate.value)}
                op.set_attributes(
                    out=len(candidates[predicate.alias]))
            operators.counter("translate.operators",
                              operator="AttrSelect").add(1)
            bind_nodes[predicate.alias].add(PlanNode(
                "AttrSelect",
                f"{predicate.alias}.{predicate.attribute} {predicate.op} "
                f"{predicate.value!r}",
                {"in": before, "out": len(candidates[predicate.alias])}))

    with tracer.span("plan.range",
                     predicates=len(query.range_predicates)):
        for predicate in query.range_predicates:
            cls = query.cls_of(predicate.alias)
            before = len(candidates[predicate.alias])
            with tracer.span("op.RangeSelect",
                             predicate=f"{predicate.alias}."
                                       f"{predicate.attribute} in "
                                       f"[{predicate.low}, "
                                       f"{predicate.high}]") as op:
                values = index.attribute_values(cls, predicate.attribute)
                candidates[predicate.alias] &= {
                    key for key, value in values.items()
                    if _in_range(value, predicate.low, predicate.high)}
                op.set_attributes(out=len(candidates[predicate.alias]))
            operators.counter("translate.operators",
                              operator="RangeSelect").add(1)
            bind_nodes[predicate.alias].add(PlanNode(
                "RangeSelect",
                f"{predicate.alias}.{predicate.attribute} in "
                f"[{predicate.low}, {predicate.high}]",
                {"in": before, "out": len(candidates[predicate.alias])}))

    with tracer.span("plan.content",
                     predicates=len(query.content_predicates)):
        for predicate in query.content_predicates:
            cls = query.cls_of(predicate.alias)
            before = len(candidates[predicate.alias])
            with tracer.span("op.IrProbe", cls=cls,
                             attribute=predicate.attribute,
                             text=predicate.text) as op:
                probed = _content_probe(content_search, cls, predicate)
                # hooks may return (ranked, info) to surface how the
                # physical level executed (the kernel)
                if isinstance(probed, tuple):
                    ranked, probe_info = probed
                else:
                    ranked, probe_info = probed, {}
                op.set_attribute("matched", len(ranked))
            operators.counter("translate.operators",
                              operator="IrProbe").add(1)
            candidates[predicate.alias] &= set(ranked)
            for key, score in ranked.items():
                previous = scores[predicate.alias].get(key, 0.0)
                scores[predicate.alias][key] = previous + score
            probe_node = PlanNode(
                "IrProbe",
                f"{predicate.alias}.{predicate.attribute} CONTAINS "
                f"{predicate.text!r}",
                {"in": before, "matched": len(ranked),
                 "out": len(candidates[predicate.alias])})
            if "kernel" in probe_info:
                probe_node.counters["kernel"] = probe_info["kernel"]
            bind_nodes[predicate.alias].add(probe_node)

    with tracer.span("plan.events",
                     predicates=len(query.event_predicates)):
        for predicate in query.event_predicates:
            cls = query.cls_of(predicate.alias)
            before = len(candidates[predicate.alias])
            read_before = meta_server.tuples_touched if meta_server else 0
            with tracer.span("op.MetaProbe", cls=cls,
                             event=predicate.event) as op:
                media = index.attribute_values(cls, predicate.attribute)
                surviving: set[str] = set()
                for key in candidates[predicate.alias]:
                    url = media.get(key)
                    if not url:
                        continue
                    ranges = event_search(url, predicate.event)
                    if ranges:
                        surviving.add(key)
                        shots[predicate.alias][key] = [
                            ShotRange(begin, end, predicate.event)
                            for begin, end in ranges]
                op.set_attribute("out", len(surviving))
            operators.counter("translate.operators",
                              operator="MetaProbe").add(1)
            candidates[predicate.alias] &= surviving
            bind_nodes[predicate.alias].add(_meta_probe_node(
                "MetaProbe",
                f"{predicate.alias}.{predicate.attribute} EVENT "
                f"{predicate.event}",
                {"in": before, "out": len(candidates[predicate.alias])},
                meta_server, read_before))

    with tracer.span("plan.audio",
                     predicates=len(query.audio_predicates)):
        for predicate in query.audio_predicates:
            if audio_search is None:
                raise QueryError("this engine has no audio meta-index hook")
            cls = query.cls_of(predicate.alias)
            before = len(candidates[predicate.alias])
            read_before = meta_server.tuples_touched if meta_server else 0
            with tracer.span("op.AudioProbe", cls=cls,
                             kind=predicate.kind) as op:
                media = index.attribute_values(cls, predicate.attribute)
                surviving = set()
                for key in candidates[predicate.alias]:
                    url = media.get(key)
                    if not url:
                        continue
                    matched, speaker_turns = audio_search(url,
                                                          predicate.kind)
                    if matched:
                        surviving.add(key)
                        turns[predicate.alias][key] = [
                            TurnRange(start, end, speaker)
                            for start, end, speaker in speaker_turns]
                op.set_attribute("out", len(surviving))
            operators.counter("translate.operators",
                              operator="AudioProbe").add(1)
            candidates[predicate.alias] &= surviving
            bind_nodes[predicate.alias].add(_meta_probe_node(
                "AudioProbe",
                f"{predicate.alias}.{predicate.attribute} KIND "
                f"{predicate.kind}",
                {"in": before, "out": len(candidates[predicate.alias])},
                meta_server, read_before))

    result.candidates_considered = sum(len(keys)
                                       for keys in candidates.values())

    # 2. joins: build the connected row set
    with tracer.span("plan.join", joins=len(query.joins)) as join_span:
        rows = _join_rows(query, candidates, index, join_root,
                          tracer=tracer)
        join_span.set_attribute("rows", len(rows))

    # 3. rank by summed content scores, project, cut to top-N
    with tracer.span("plan.rank", rows=len(rows)):
        scored_rows: list[ResultRow] = []
        for keys in rows:
            row = ResultRow(keys=dict(keys))
            row.score = sum(scores[alias].get(key, 0.0)
                            for alias, key in keys.items())
            for alias, key in keys.items():
                if alias in shots and key in shots[alias]:
                    row.shots[alias] = shots[alias][key]
                if alias in turns and key in turns[alias]:
                    row.turns[alias] = turns[alias][key]
            for alias, attribute in query.projections:
                cls = query.cls_of(alias)
                values = index.attribute_values(cls, attribute)
                row.values[f"{alias}.{attribute}"] = values.get(keys[alias])
            scored_rows.append(row)
        scored_rows.sort(key=lambda row: (-row.score,
                                          tuple(sorted(row.keys.items()))))
        # explicit sort keys re-order stably on top of the canonical
        # (score, keys) order — applied last-key-first so the first
        # key dominates
        for order_key in reversed(query.order):
            if order_key.alias is None:
                scored_rows.sort(key=lambda row: row.score,
                                 reverse=order_key.descending)
                continue
            values = index.attribute_values(
                query.cls_of(order_key.alias), order_key.attribute)
            scored_rows.sort(
                key=lambda row, values=values, alias=order_key.alias:
                    _order_value(values.get(row.keys[alias])),
                reverse=order_key.descending)
    rank_node.counter("rows", len(scored_rows))

    # facet counts run over the *full* match set, before pagination
    for alias, attribute in query.facets:
        values = index.attribute_values(query.cls_of(alias), attribute)
        counts: dict[str, int] = {}
        for row in scored_rows:
            value = values.get(row.keys.get(alias))
            if value is not None:
                counts[value] = counts.get(value, 0) + 1
        result.facets[f"{alias}.{attribute}"] = dict(sorted(
            counts.items(), key=lambda item: (-item[1], item[0])))
    if query.facets or query.offset or query.order:
        result.total_rows = len(scored_rows)

    result.rows = scored_rows[query.offset:query.offset + query.limit]
    plan.counter("rows", len(result.rows))
    result.tuples_touched = index.store.server.tuples_touched
    plan.counter("tuples_touched", result.tuples_touched)
    telemetry.metrics.counter("translate.candidates").add(
        result.candidates_considered)
    result.plan = plan
    return result


def _join_rows(query: WebspaceQuery, candidates: dict[str, set[str]],
               index: ConceptualIndex,
               plan: PlanNode | None = None,
               tracer=None) -> list[dict[str, str]]:
    """Combine per-binding candidates through the association joins."""
    if tracer is None:
        tracer = get_telemetry().tracer
    aliases = [binding.alias for binding in query.bindings]
    if len(aliases) == 1:
        alias = aliases[0]
        return [{alias: key} for key in sorted(candidates[alias])]

    rows: list[dict[str, str]] = [
        {aliases[0]: key} for key in sorted(candidates[aliases[0]])]
    remaining_joins = list(query.joins)
    bound = {aliases[0]}
    while remaining_joins:
        progressed = False
        for join in list(remaining_joins):
            if join.source_alias in bound or join.target_alias in bound:
                with tracer.span("op.AssocJoin",
                                 association=join.association) as op:
                    rows = _apply_join(rows, join, candidates, index, bound)
                    op.set_attribute("rows", len(rows))
                if plan is not None:
                    plan.add(PlanNode(
                        "AssocJoin",
                        f"{join.source_alias} -{join.association}-> "
                        f"{join.target_alias}",
                        {"pairs": len(index.association_pairs(
                            join.association)),
                         "rows": len(rows)}))
                remaining_joins.remove(join)
                bound.add(join.source_alias)
                bound.add(join.target_alias)
                progressed = True
        if not progressed:  # validate() guarantees connectivity
            raise QueryError("join graph is not connected")
    return rows


def _apply_join(rows: list[dict[str, str]], join, candidates, index,
                bound: set[str]) -> list[dict[str, str]]:
    pairs = index.association_pairs(join.association)
    by_source: dict[str, list[str]] = defaultdict(list)
    by_target: dict[str, list[str]] = defaultdict(list)
    for source, target in pairs:
        by_source[source].append(target)
        by_target[target].append(source)

    next_rows: list[dict[str, str]] = []
    source_bound = join.source_alias in bound
    target_bound = join.target_alias in bound
    for row in rows:
        if source_bound and target_bound:
            if row[join.target_alias] in by_source.get(
                    row[join.source_alias], ()):
                next_rows.append(row)
        elif source_bound:
            for target in by_source.get(row[join.source_alias], ()):
                if target in candidates[join.target_alias]:
                    extended = dict(row)
                    extended[join.target_alias] = target
                    next_rows.append(extended)
        else:
            for source in by_target.get(row[join.target_alias], ()):
                if source in candidates[join.source_alias]:
                    extended = dict(row)
                    extended[join.source_alias] = source
                    next_rows.append(extended)
    return next_rows
