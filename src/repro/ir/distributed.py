"""Distributed retrieval: per-document distribution over a cluster.

The paper's plan: the central server holds the global vocabulary and IDF;
TF/DT tuples are distributed "on a per-document basis to the available
hosts".  A query is stemmed centrally, reduced to term oids, and the
top-10 request is pushed to every node together with the term oids (and
their global idf weights); each node computes a *local* top-N over its
own documents (optionally with fragment pruning), returns
``RES(doc-oid, rank)``, and the central node merges the local rankings
into the final top-N — "almost perfect shared nothing parallelism".

Node tasks fan out through one engine, :class:`~repro.cluster.Executor`,
under one :class:`~repro.core.config.ExecutionPolicy` (width, per-node
deadline, retry/backoff, hedging), and a node failure either raises a
:class:`~repro.errors.ClusterExecutionError` or degrades gracefully to
the merged ranking of the surviving nodes
(``DistributedQueryResult.failed_nodes`` / ``degraded``, plus the
``ir.node_failures`` counter and a ``degraded`` span attribute).

Under the default ``backend="thread"`` the engine runs every node task
inline on the calling thread, against the coordinator's copy of the
node: one interpreter, so no CPU parallelism, and no thread either.
:meth:`DistributedIndex.start_remote` adds the *true* shared-nothing
execution level: every node gets ``replication_factor``
process-per-node workers (:class:`~repro.remote.ReplicaSet`), writes
dual-apply to the local authoritative copies and to all replicas with
generation-stamp reconciliation, and a query under
``ExecutionPolicy(backend="process")`` sends its node tasks to the
workers over the socket RPC through the same engine — with per-replica
failover, optional hedged requests, and automatic replacement-worker
bootstrap from the newest snapshot.  Rankings are bit-identical between
the two backends:
both run the one node task :func:`node_topn`, the workers over the same
postings against the same pushed global idf with the same insertion
order to tie-break, and the coordinator merges
both through :func:`~repro.monetdb.algebra.topn_merge` on central oids.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import partial

from pathlib import Path

from repro.cluster.executor import Executor, NodeOutcome
from repro.core.config import ExecutionPolicy
from repro.errors import ClusterExecutionError, QueryError
from repro.monetdb.algebra import topn_merge
from repro.monetdb.atoms import Oid
from repro.monetdb.server import Cluster
from repro.ir.fragmentation import FragmentSet
from repro.ir.ranking import Ranking, query_term_oids
from repro.ir.relations import IrRelations
from repro.ir.topn import TopNResult, topn_fragmented
from repro.telemetry.runtime import get_telemetry

__all__ = ["DistributedIndex", "DistributedQueryResult", "node_topn",
           "patch_fragment_idf"]


@dataclass
class DistributedQueryResult:
    """Merged ranking plus per-node work and failure accounting.

    The per-node numbers are also recorded on the telemetry registry
    (``ir.node_tuples_read`` counters and the servers'
    ``monetdb.tuples_touched``), so metric snapshots agree with the
    accessors below — benchmarks can read either side.  Under
    ``on_failure="degrade"`` a failed node appears in ``failed_nodes``
    (name -> error description) instead of ``local_results``, and
    ``degraded`` is set.
    """

    ranking: Ranking
    local_results: dict[str, TopNResult] = field(default_factory=dict)
    failed_nodes: dict[str, str] = field(default_factory=dict)
    degraded: bool = False
    attempts: dict[str, int] = field(default_factory=dict)

    def tuples_read_per_node(self) -> dict[str, int]:
        return {name: result.tuples_read
                for name, result in self.local_results.items()}

    def max_node_tuples(self) -> int:
        """Critical-path work: the busiest node's tuples read."""
        return max((result.tuples_read
                    for result in self.local_results.values()), default=0)

    def total_tuples(self) -> int:
        return sum(result.tuples_read
                   for result in self.local_results.values())

    # -- the unified result surface (shared with QueryResult) -------------

    def to_dict(self) -> dict[str, object]:
        """The common result shape (see ``QueryResult.to_dict``)."""
        from repro.service.api import SCHEMA_VERSION

        per_node = self.tuples_read_per_node()
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "distributed",
            "rows": len(self.ranking),
            "degraded": self.degraded,
            "failed_nodes": sorted(self.failed_nodes),
            "tuples": {
                "total": self.total_tuples(),
                "max_node": self.max_node_tuples(),
                "per_node": per_node,
            },
            "plan": self._plan_dict(),
        }

    def _plan_dict(self) -> dict[str, object]:
        """The distributed plan in ``PlanNode.to_dict()`` shape.

        One ``NodeTopN`` child per node, carrying the node's kernel
        field — the same schema the conceptual engine's
        ``QueryResult`` emits, so ``stats --json`` reads one format.
        """
        # deferred: repro.core imports repro.ir, so a module-level
        # import of repro.core.plan would be circular
        from repro.core.plan import PlanNode

        root = PlanNode(
            "DistributedTopN",
            f"merge of {len(self.local_results)} node rankings",
            {"rows": len(self.ranking)})
        for name, local in self.local_results.items():
            counters: dict[str, object] = {
                "tuples_read": local.tuples_read,
                "fragments_read": local.fragments_read,
                "stopped_early": local.stopped_early,
                "attempts": self.attempts.get(name, 1),
            }
            details = getattr(local, "details", None) or {}
            if "kernel" in details:
                counters["kernel"] = details["kernel"]
            root.add(PlanNode("NodeTopN", name, counters))
        for name, error in sorted(self.failed_nodes.items()):
            root.add(PlanNode("NodeTopN", name, {"failed": str(error)}))
        return root.to_dict()

    def explain(self) -> str:
        """Per-node execution report, EXPLAIN ANALYZE style."""
        from repro.service.api import SCHEMA_VERSION

        header = (f"ir.distributed_query  (schema_version={SCHEMA_VERSION}, "
                  f"nodes="
                  f"{len(self.local_results) + len(self.failed_nodes)}, "
                  f"rows={len(self.ranking)}, degraded={self.degraded})")
        lines = [header]
        for name, local in self.local_results.items():
            attempts = self.attempts.get(name, 1)
            lines.append(
                f"  {name}: tuples_read={local.tuples_read} "
                f"fragments_read={local.fragments_read} "
                f"stopped_early={local.stopped_early} attempts={attempts}")
        for name, error in sorted(self.failed_nodes.items()):
            lines.append(f"  {name}: FAILED {error}")
        return "\n".join(lines)


class DistributedIndex:
    """Global vocabulary at the central node, postings spread per-document."""

    def __init__(self, cluster: Cluster, fragment_count: int = 4,
                 fault_injector=None):
        self.cluster = cluster
        self.fragment_count = fragment_count
        self.fault_injector = fault_injector
        # The central node's view: global T/D/DT/TF/IDF (used for exact
        # reference rankings and for stemming queries into term oids).
        self.central = IrRelations()
        # Per-node relations, holding only that node's documents.
        self.nodes: dict[str, IrRelations] = {
            server.name: IrRelations(server.catalog)
            for server in cluster.servers
        }
        # the process backend's replica set; attached by start_remote()
        self.remote = None

    @property
    def generation(self) -> tuple:
        """Central + per-node generation stamps.

        Every mutation through this index bumps the central stamp *and*
        the placement node's, so result-cache keys built from this tuple
        go stale on any write — including writes that only touched one
        node's relations directly.
        """
        return (self.central.generation,
                tuple(sorted((name, relations.generation)
                             for name, relations in self.nodes.items())))

    # -- the process backend (shared-nothing workers) ---------------------

    def start_remote(self, replication_factor: int = 2, *,
                     snapshot_root: str | Path | None = None,
                     spawn_timeout_s: float = 30.0) -> "ReplicaSet":
        """Spawn process-per-node workers and seed them from this index.

        Every node gets ``replication_factor`` replicas, each a
        ``python -m repro.remote.worker`` subprocess bootstrapped from a
        snapshot of the node's authoritative local relations.  From then
        on writes dual-apply (local + all replicas) and a query under
        ``ExecutionPolicy(backend="process")`` executes on the workers.
        ``snapshot_root`` also serves replacement-worker bootstraps; it
        defaults to a private temporary directory.
        """
        from repro.remote.replicas import ReplicaSet

        if self.remote is not None:
            return self.remote
        replicas = ReplicaSet(
            self.nodes, replication_factor=replication_factor,
            fragment_count=self.fragment_count,
            snapshot_root=snapshot_root, spawn_timeout_s=spawn_timeout_s)
        try:
            replicas.start()
        except Exception:
            replicas.stop()
            raise
        self.remote = replicas
        return replicas

    def stop_remote(self) -> None:
        """Shut the process backend down (workers, snapshots, all of it)."""
        if self.remote is not None:
            self.remote.stop()
            self.remote = None

    # -- indexing ---------------------------------------------------------

    def add_document(self, url: str, text: str) -> None:
        """Index a document centrally and on its placement node.

        Write-path invalidation is implicit: both mutations bump their
        relations' generation, so the next read publishes (and lays
        out) a new one, and every result-cache entry stamped with the
        old generations goes stale.  No query publishes the central
        copy, so it applies the delta-or-compact rule at the write
        (:meth:`~repro.ir.relations.IrRelations.compact_if_due`).  With
        the process backend attached the write also fans to the node's
        replicas (dual-write with generation reconciliation).
        """
        self.central.add_document(url, text)
        self.central.compact_if_due()
        node = self.cluster.place(url)
        self.nodes[node.name].add_document(url, text)
        if self.remote is not None:
            self.remote.apply_write(node.name, "add_documents",
                                    {"documents": [[url, text]]})

    def add_documents(self, documents) -> None:
        """Bulk-index: one task per node plus the central copy."""
        docs = list(documents)
        placements = self.cluster.scatter(docs)
        tasks = {"central": partial(self.central.add_documents, docs)}
        for name, items in placements.items():
            tasks[name] = partial(self.nodes[name].add_documents, items)
        self._run_population(tasks)
        if self.remote is not None:
            for name, items in placements.items():
                if items:
                    self.remote.apply_write(
                        name, "add_documents",
                        {"documents": [[url, text] for url, text in items]})
        self.refresh()

    def remove_document(self, url: str) -> None:
        """Un-index a document centrally and on its placement node."""
        self.central.remove_document(url)
        self.central.compact_if_due()
        node = self.cluster.place(url)
        self.nodes[node.name].remove_document(url)
        if self.remote is not None:
            self.remote.apply_write(node.name, "remove_document",
                                    {"url": url})

    def reindex_document(self, url: str, text: str) -> None:
        """Replace a document's body everywhere."""
        if self.central.doc_oid(url) is not None:
            self.remove_document(url)
        self.add_document(url, text)

    def refresh(self) -> None:
        """Lay out every node's fragments (:meth:`_layouts`), and have
        the replicas do the same."""
        self._layouts()
        if self.remote is not None:
            self.remote.broadcast("refresh")

    def _layouts(self) -> dict[str, FragmentSet]:
        """Each node's fragment set of its current generation, the one
        its postings index memoizes."""
        return {name: relations.postings_index().fragments(
                    self.fragment_count)
                for name, relations in self.nodes.items()}

    @staticmethod
    def _run_population(tasks) -> dict:
        """Run every population task in order; their values by name.

        Population is *not* idempotent (re-adding a document duplicates
        postings), so nothing is retried: every task runs once, and any
        failure raises one error naming all that failed.
        """
        values, failures = {}, {}
        for name, task in tasks.items():
            try:
                values[name] = task()
            except Exception as error:  # noqa: BLE001 - raised together
                failures[name] = f"{type(error).__name__}: {error}"
        if failures:
            raise ClusterExecutionError(
                f"cluster population failed on {sorted(failures)}", failures)
        return values

    # -- querying ---------------------------------------------------------

    def query(self, query: str,
              policy: ExecutionPolicy | None = None, *,
              n: int | None = None, prune: bool | None = None
              ) -> DistributedQueryResult:
        """Distributed top-N: parallel local top-N per node, merged centrally.

        Global idf weights are pushed to the nodes with the term oids, so
        every node scores against the same weighting and the merged
        ranking equals the central ranking (verified by tests).  All
        execution knobs come from ``policy``; the removed
        ``n=``/``prune=`` aliases raise a :class:`TypeError` naming
        :class:`ExecutionPolicy`.
        """
        policy = ExecutionPolicy.coerce(policy, n=n, prune=prune)
        telemetry = get_telemetry()
        servers = {server.name: server for server in self.cluster.servers}
        with telemetry.tracer.span("ir.distributed_query", n=policy.n,
                                   prune=policy.prune,
                                   nodes=len(self.nodes)) as span:
            # The central node stems the query and resolves the vocabulary.
            with telemetry.tracer.span("ir.stem_query") as stem_span:
                central_terms = query_term_oids(self.central, query)
                stem_span.set_attribute("terms", len(central_terms))
            central_term_names = [self.central.T.find(oid)
                                  for oid in central_terms]
            global_idf = {self.central.T.find(oid): self.central.idf(oid)
                          for oid in central_terms}
            span.set_attribute("backend", policy.backend)
            if policy.backend == "process":
                outcomes = self._remote_query(query, central_term_names,
                                              global_idf, policy, servers,
                                              telemetry)
            else:
                # lay out fragments before the fan-out starts: a build
                # is not node work and must not eat a node's deadline
                layouts = self._layouts()
                tasks = {
                    name: partial(self._node_topn, name, relations,
                                  layouts[name], servers[name],
                                  central_term_names, global_idf, policy,
                                  telemetry)
                    for name, relations in self.nodes.items()
                }
                outcomes = Executor(policy, self.fault_injector).run(tasks)

            result = DistributedQueryResult(ranking=[])
            local_rankings: list[Ranking] = []
            for name, outcome in outcomes.items():
                result.attempts[name] = outcome.attempts
                if outcome.ok:
                    local, ranking = outcome.value
                    result.local_results[name] = local
                    local_rankings.append(ranking)
                else:
                    result.failed_nodes[name] = outcome.error
                    telemetry.metrics.counter("ir.node_failures",
                                              node=name).add(1)
            if result.failed_nodes:
                span.set_attributes(failed_nodes=sorted(result.failed_nodes))
                if policy.on_failure == "raise":
                    raise ClusterExecutionError(
                        "distributed query failed on "
                        f"{sorted(result.failed_nodes)}", result.failed_nodes)
                result.degraded = True
            with telemetry.tracer.span("ir.merge",
                                       nodes=len(local_rankings)) as merge:
                result.ranking = topn_merge(local_rankings, policy.n)
                merge.set_attribute("rows", len(result.ranking))
            span.set_attributes(total_tuples=result.total_tuples(),
                                max_node_tuples=result.max_node_tuples(),
                                degraded=result.degraded)
        if policy.backend == "process" and self.remote is not None \
                and self.remote.needs_repair():
            # heal in-line: replace dead/unhealthy replicas from the
            # newest snapshot + op-log while the survivors keep serving
            repaired = self.remote.repair()
            if repaired:
                telemetry.metrics.counter("remote.repairs").add(repaired)
        telemetry.metrics.counter("ir.distributed_queries").add(1)
        return result

    def _node_topn(self, name: str, relations: IrRelations,
                   fragments: FragmentSet, server, central_term_names,
                   global_idf, policy: ExecutionPolicy, telemetry):
        """One node's local top-N (runs inline on the fan-out loop)."""
        with telemetry.tracer.span("ir.node_topn", node=name) as node_span:
            local = node_topn(relations, fragments, central_term_names,
                              global_idf, policy)
            node_span.set_attributes(
                tuples_read=local.tuples_read,
                fragments_read=local.fragments_read,
                stopped_early=local.stopped_early)
        # report work against the node's server accounting and the
        # registry, so snapshots show the per-node 1/k split
        server.charge(local.tuples_read)
        telemetry.metrics.counter("ir.node_tuples_read",
                                  node=name).add(local.tuples_read)
        ranking = [(self._to_central_doc(relations, doc), score)
                   for doc, score in local.ranking]
        return local, ranking

    def _remote_query(self, query: str, central_term_names, global_idf,
                      policy: ExecutionPolicy, servers, telemetry
                      ) -> dict[str, NodeOutcome]:
        """Fan the per-node top-N tasks to the process-backend workers.

        Returns outcomes shaped exactly like the thread backend's —
        ``value`` is ``(TopNResult, central-oid ranking)`` — so the
        merge and degrade logic in :meth:`query` is backend-agnostic.
        """
        from repro.remote.executor import RemoteCall, RemoteExecutor
        from repro.service.api import MODE_FRAGMENTED, SearchRequest

        if self.remote is None:
            raise QueryError(
                "policy backend='process' needs the process backend "
                "attached — call DistributedIndex.start_remote() first")
        request = SearchRequest(query=query, mode=MODE_FRAGMENTED,
                                policy=policy).to_dict()
        calls = {
            name: RemoteCall(node=name, op="search",
                             params={"request": request,
                                     "terms": list(central_term_names),
                                     "idf": dict(global_idf)})
            for name in self.nodes
        }
        outcomes = RemoteExecutor(self.remote, policy).run(calls)
        for name, outcome in outcomes.items():
            if not outcome.ok:
                continue
            reply = outcome.value
            accounting = reply.get("accounting", {})
            # workers ship (url, score); map onto central oids so the
            # merge tie-breaks identically to the thread backend
            ranking = []
            for hit in reply.get("hits", ()):
                central_doc = self.central.doc_oid(hit["key"])
                if central_doc is not None:
                    ranking.append((central_doc, hit["score"]))
            local = TopNResult(
                ranking=ranking,
                fragments_read=int(accounting.get("fragments_read", 0)),
                tuples_read=int(accounting.get("tuples_read", 0)),
                stopped_early=bool(accounting.get("stopped_early",
                                                  False)))
            servers[name].charge(local.tuples_read)
            telemetry.metrics.counter("ir.node_tuples_read",
                                      node=name).add(local.tuples_read)
            outcome.value = (local, ranking)
        return outcomes

    def _to_central_doc(self, relations: IrRelations, doc: Oid) -> Oid:
        url = relations.doc_url(doc)
        central_doc = self.central.doc_oid(url)
        assert central_doc is not None
        return central_doc

    def exact_central_ranking(self, query: str, n: int = 10) -> Ranking:
        """Reference ranking computed at the central node alone."""
        from repro.ir.ranking import rank_tfidf
        return rank_tfidf(self.central, query, n)


def node_topn(relations: IrRelations, fragments: FragmentSet,
              term_names: list[str], global_idf: dict[str, float],
              policy: ExecutionPolicy) -> TopNResult:
    """One node's task: its exact local top-N under the global weights.

    The one node task of both backends — the thread backend runs it on
    the coordinator's copy of a node, a process worker
    (:mod:`repro.remote.worker`) on its own relations.  The pushed term
    names resolve into the node's vocabulary (a name the node never saw
    drops), the fragments' idf is patched to the pushed global weights,
    and the refined top-N makes the local scores exact for the merge.
    """
    local_terms = []
    for term in term_names:
        oid = relations.term_oid(term)
        if oid is not None:
            local_terms.append(oid)
    patched = patch_fragment_idf(fragments, relations, global_idf)
    return topn_fragmented(patched, local_terms, policy.n,
                           prune=policy.prune, refine=True)


def patch_fragment_idf(fragments: FragmentSet, relations: IrRelations,
                       global_idf: dict[str, float]) -> FragmentSet:
    """Return a fragment view whose idf weights are the global ones.

    Shared by both backends: the thread backend patches the
    coordinator's per-node fragment sets, the process backend's workers
    (:mod:`repro.remote.worker`) patch their own against the idf dict
    pushed over the wire — which is what makes the two executions score
    identically.

    The cost is O(pushed terms), not O(vocabulary): the pushed names are
    resolved to local oids once, a fragment holding one of them gets a
    read-only overlay of its idf dict (:class:`_PushedIdf`, no copy),
    and every other fragment shares its original dict.
    """
    pushed = {}
    for term, weight in global_idf.items():
        oid = relations.term_oid(term)
        if oid is not None:
            pushed[oid] = weight
    # the packed columns and dense universe are shared: only the
    # weights change, never the physical layout
    patched = FragmentSet(doc_ids=fragments.doc_ids)
    for fragment in fragments:
        idf = fragment.idf
        if any(oid in fragment.term_oids for oid in pushed):
            idf = _PushedIdf(idf, pushed)
        patched.fragments.append(replace(fragment, idf=idf))
    return patched


class _PushedIdf(Mapping):
    """A fragment's idf with pushed weights laid over it: its own terms,
    in its own order, each weighted by the pushed weight if there is
    one."""

    __slots__ = ("_idf", "_pushed")

    def __init__(self, idf: Mapping, pushed: dict):
        self._idf, self._pushed = idf, pushed

    def __getitem__(self, term):
        weight = self._idf[term]  # a KeyError for a term held elsewhere
        return self._pushed.get(term, weight)

    def __iter__(self):
        return iter(self._idf)

    def __len__(self) -> int:
        return len(self._idf)
