"""A command-line interface to the search engine.

The Acoi system shipped operator tools around the engine; this CLI is
their equivalent for the reproduction.  It drives the full lifecycle
against the bundled synthetic webspaces::

    repro-search populate --site ausopen --snapshot ./index
    repro-search query    --snapshot ./index \\
        "SELECT p.name FROM Player p WHERE p.plays = 'left' TOP 10"
    repro-search serve    --snapshot ./index --port 8080 --rate 50
    repro-search stats    --snapshot ./index
    repro-search stats    --site ausopen --cluster 3 \\
        --query "SELECT p.name FROM Player p \\
                 WHERE p.history CONTAINS 'Winner' TOP 5"
    repro-search paths    --snapshot ./index
    repro-search export-index --snapshot ./index --output ./artifact

``populate`` builds the named site, populates an engine and saves a
snapshot; ``query`` reloads the snapshot and runs a textual query
(``--mode conceptual|content|fragmented``) through the
:class:`~repro.service.SearchService` Request/Response path;
``serve`` keeps that service resident behind the JSON/HTTP daemon
(``POST /v1/search``, ``GET /healthz``, ``GET /metrics``) with the
admission-control knobs (``--max-inflight``, ``--max-queue``,
``--rate``) exposed as flags; ``stats``/``paths`` inspect the stored
index; ``export-index`` packs the IR index into the immutable,
checksummed static artifact that
:class:`~repro.offline.StaticIndexReader` queries without a server
(the command reloads and verifies the artifact before reporting
success).  Snapshots are
crash-safe checkpoints (``snapshot/<generation>/`` directories behind
an atomically flipped ``CURRENT`` pointer — see
:mod:`repro.persistence`); ``snapshot`` writes a fresh checkpoint
generation (or ``--list``\\ s them) and ``restore --verify`` reloads one
with checksum verification, degrading to an older intact generation
under ``--on-corrupt fallback``.  ``stats`` with
``--query`` runs the query under telemetry and prints the span tree
(query → plan stage → operator → distributed IR plan) plus the metric
snapshot with per-server cost accounting; ``--json`` writes the same
report in the ``BENCH_*.json`` format the benchmarks use.

``query`` and ``stats`` accept the execution-policy flags
(``--workers``, ``--deadline-ms``, ``--retries``, ``--backoff-ms``,
``--on-failure raise|degrade``) that configure the parallel cluster
executor behind content predicates, plus ``--no-cache`` for the
generation-stamped result cache; see ``repro-search query --help``.
``stats --query --warm`` runs the query twice through one search
service and measures the second, so the report shows the warm
(cached) execution — the ``cache.hit`` counter in the snapshot and the
response's ``cache_hit``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.persistence import load_engine, save_engine
from repro.errors import ReproError

__all__ = ["main"]

_SITE_MANIFEST = "site.json"
_WAL_DIR = "wal"


def _build_site(name: str, args: argparse.Namespace):
    """(server, truth, schema, extractor) for a named synthetic site."""
    if name == "ausopen":
        from repro.web.ausopen import build_ausopen_site
        from repro.webspace.schema import australian_open_schema
        server, truth = build_ausopen_site(
            players=args.players, articles=args.articles,
            videos=args.videos, frames_per_shot=args.frames)
        return server, truth, australian_open_schema(), None
    if name == "lonelyplanet":
        from repro.web.lonelyplanet import (build_lonelyplanet_site,
                                            lonely_planet_schema,
                                            reengineer_lonelyplanet)
        server, truth = build_lonelyplanet_site()
        return server, truth, lonely_planet_schema(), \
            reengineer_lonelyplanet
    raise ReproError(f"unknown site {name!r} (ausopen | lonelyplanet)")


def _rebuild_from_manifest(snapshot: Path):
    manifest_path = snapshot / _SITE_MANIFEST
    if not manifest_path.exists():
        raise ReproError(f"no site manifest in {snapshot}")
    manifest = json.loads(manifest_path.read_text())
    args = argparse.Namespace(**manifest["args"])
    return _build_site(manifest["site"], args), manifest["site"]


def _cmd_populate(args: argparse.Namespace) -> int:
    server, _, schema, extractor = _build_site(args.site, args)
    engine = SearchEngine(schema, server,
                          EngineConfig(fragment_count=args.fragments,
                                       cluster_size=args.cluster),
                          extractor=extractor)
    report = engine.populate()
    snapshot = Path(args.snapshot)
    save_engine(engine, snapshot, keep=args.keep)
    # atomic for the same reason the snapshot files are: a torn site
    # manifest would strand an otherwise intact checkpoint
    from repro.persistence.atomic import atomic_write_text
    atomic_write_text(snapshot / _SITE_MANIFEST, json.dumps({
        "site": args.site,
        "args": {"players": args.players, "articles": args.articles,
                 "videos": args.videos, "frames": args.frames},
    }, indent=2))
    print(f"crawled {report.pages_crawled} pages, stored "
          f"{report.documents_stored} documents, indexed "
          f"{report.hypertexts_indexed} texts, analysed "
          f"{report.videos_analyzed} videos / "
          f"{report.audios_analyzed} audios")
    print(f"snapshot written to {snapshot}")
    return 0


def _load(args: argparse.Namespace, wal=None) -> SearchEngine:
    snapshot = Path(args.snapshot)
    (server, _, schema, extractor), _ = _rebuild_from_manifest(snapshot)
    return load_engine(snapshot, schema, server, extractor=extractor,
                       wal=wal)


def _open_wal(args: argparse.Namespace):
    """The snapshot's write-ahead log, when ``--wal`` asks for one."""
    if not getattr(args, "wal", False):
        return None
    from repro.wal import WriteAheadLog
    return WriteAheadLog(Path(args.snapshot) / _WAL_DIR)


def _policy_from_args(args: argparse.Namespace) -> ExecutionPolicy:
    """One ExecutionPolicy from the shared execution flags."""
    return ExecutionPolicy(
        max_workers=args.workers,
        node_deadline_ms=args.deadline_ms,
        retries=args.retries,
        backoff_ms=args.backoff_ms,
        on_failure=args.on_failure,
        backend=args.backend,
        hedge_after_ms=args.hedge_after_ms,
        cache=not args.no_cache)


def _add_policy_flags(command: argparse.ArgumentParser) -> None:
    """The ExecutionPolicy knobs, shared by ``query`` and ``stats``."""
    group = command.add_argument_group(
        "execution policy",
        "how content predicates run on a clustered backend")
    group.add_argument("--workers", type=int, default=None,
                       help="fan-out width: nodes in flight at once "
                            "(default: every node)")
    group.add_argument("--deadline-ms", type=float, default=None,
                       help="per-node deadline in milliseconds "
                            "(default: none)")
    group.add_argument("--retries", type=int, default=0,
                       help="retry budget per node (default: 0)")
    group.add_argument("--backoff-ms", type=float, default=10.0,
                       help="base retry backoff in milliseconds")
    group.add_argument("--on-failure", choices=["raise", "degrade"],
                       default="raise",
                       help="node failure semantics: raise an error or "
                            "degrade to the surviving nodes' ranking")
    group.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="node execution backend: in-process on the "
                            "calling thread, or the shared-nothing "
                            "process-per-node workers (needs a "
                            "clustered index with replicas attached)")
    group.add_argument("--hedge-after-ms", type=float, default=None,
                       help="re-issue a straggling process-backend "
                            "node read to another replica after this "
                            "many milliseconds (default: no hedging)")
    group.add_argument("--no-cache", action="store_true",
                       help="bypass the generation-stamped result cache")
    group.add_argument("--replicas", type=int, default=2,
                       help="replicas per node for --backend process "
                            "(default: 2)")


def _remote_index(engine):
    """The engine's DistributedIndex, or a helpful error without one."""
    index = getattr(getattr(engine, "ir", None), "index", None)
    if index is None or not hasattr(index, "start_remote"):
        raise ReproError(
            "--backend process needs a clustered index; populate the "
            "snapshot with --cluster N (N > 1) first")
    return index


def _rich_request_fields(args: argparse.Namespace) -> dict:
    """SearchRequest kwargs from the schema-2 CLI flags (empty = v1)."""
    from repro.service.api import SCHEMA_VERSION_V2

    filters = []
    for spec in args.filters:
        if ":" not in spec:
            raise ReproError(f"--filter needs FIELD:SPEC, got {spec!r}")
        name, _, value = spec.partition(":")
        filters.append((name, value))
    if args.year:
        filters.append(("year", args.year))
    sort = []
    for spec in args.sort:
        name, _, direction = spec.partition(":")
        direction = direction or "desc"
        if direction not in ("asc", "desc"):
            raise ReproError(f"--sort direction must be asc or desc, "
                             f"got {spec!r}")
        sort.append((name, direction))
    boosts = []
    for spec in args.boosts:
        name, caret, weight = spec.partition("^")
        if not caret or not name:
            raise ReproError(f"--boost needs FIELD^N, got {spec!r}")
        try:
            boosts.append((name, float(weight)))
        except ValueError:
            raise ReproError(f"--boost weight must be a number, "
                             f"got {spec!r}") from None
    offset = 0
    if args.page is not None:
        if args.limit is None:
            raise ReproError("--page needs --limit")
        if args.page < 1:
            raise ReproError("--page is 1-based")
        offset = (args.page - 1) * args.limit
    fields: dict = {}
    if filters:
        fields["filters"] = tuple(filters)
    if args.facets:
        fields["facets"] = tuple(args.facets)
    if sort:
        fields["sort"] = tuple(sort)
    if args.limit is not None:
        fields["limit"] = args.limit
    if offset:
        fields["offset"] = offset
    if boosts:
        fields["boosts"] = tuple(boosts)
    if fields:
        fields["schema_version"] = SCHEMA_VERSION_V2
    return fields


def _print_rich_footer(response) -> None:
    """Facet counts and the pre-pagination total of a schema-2 answer."""
    for name, counts in response.facets:
        print(f"facet {name}:")
        for value, count in counts:
            print(f"    {value}: {count}")
    if response.total is not None:
        print(f"total matches: {response.total}")


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service import SearchRequest, SearchService

    engine = _load(args)
    policy = _policy_from_args(args)
    index = None
    if policy.backend == "process":
        index = _remote_index(engine)
        index.start_remote(replication_factor=args.replicas)
    request = SearchRequest(query=args.query, mode=args.mode,
                            policy=policy, **_rich_request_fields(args))
    try:
        with SearchService(engine) as service:
            response = service.search(request)
    finally:
        if index is not None:
            index.stop_remote()
    if response.degraded:
        print(f"warning: degraded result, failed nodes: "
              f"{', '.join(sorted(response.failed_nodes))}",
              file=sys.stderr)
    result = response.result
    if args.explain and hasattr(result, "explain"):
        print(result.explain())
        print()
    if not response.hits:
        print("no results")
        _print_rich_footer(response)
        return 0
    if args.mode != "conceptual":
        for hit in response.hits:
            print(f"{hit.key}  score={hit.score:.3f}")
        _print_rich_footer(response)
        return 0
    for row in result:
        values = "  ".join(f"{path}={value!r}"
                           for path, value in row.values.items())
        score = f"  score={row.score:.3f}" if row.score else ""
        print(f"{values}{score}")
        for alias, shots in row.shots.items():
            for shot in shots:
                print(f"    {alias}: shot frames "
                      f"{shot.begin}-{shot.end} ({shot.event})")
        for alias, turns in row.turns.items():
            for turn in turns:
                print(f"    {alias}: speaker {turn.speaker} "
                      f"{turn.start:.2f}s-{turn.end:.2f}s")
    _print_rich_footer(response)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service import SearchService, ServicePolicy, serve

    wal = _open_wal(args)
    engine = _load(args, wal=wal)
    if wal is not None:
        print(f"write-ahead log at {wal.root} "
              f"(recovered through seq {wal.last_seq})")
    index = None
    if args.backend == "process":
        index = _remote_index(engine)
        index.start_remote(replication_factor=args.replicas)
        workers = sum(len(handles) for handles
                      in index.remote.status()["nodes"].values())
        print(f"process backend up: {workers} workers "
              f"({args.replicas} replicas per node); requests opt in "
              f'with policy {{"backend": "process"}}')
    policy = ServicePolicy(
        max_inflight=args.max_inflight, max_queue=args.max_queue,
        queue_timeout_ms=args.queue_timeout_ms,
        rate=args.rate, burst=args.burst,
        coalesce=not args.no_coalesce)
    service = SearchService(engine, policy, wal=wal)
    httpd = serve(service, args.host, args.port)
    print(f"serving on {httpd.address} "
          f"(POST /v1/search, GET /healthz, GET /metrics)")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        print("draining...", file=sys.stderr)
        drained = service.drain(args.drain_timeout)
        print("drained" if drained
              else "drain timed out with requests in flight",
              file=sys.stderr)
    finally:
        httpd.server_close()
        if index is not None:
            index.stop_remote()
        if wal is not None:
            wal.close()
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import disable, enable, format_report, write_report

    if not args.snapshot and not args.site:
        raise ReproError("stats needs --snapshot or --site")
    # telemetry goes on before the engine is built so every server's
    # cost counter lands in the registry that the snapshot reads
    telemetry = enable() if args.query else None
    index = None
    try:
        if args.snapshot:
            engine = _load(args)
        else:
            server, _, schema, extractor = _build_site(args.site, args)
            engine = SearchEngine(
                schema, server,
                EngineConfig(fragment_count=args.fragments,
                             cluster_size=args.cluster),
                extractor=extractor)
            engine.populate()
        for section, values in engine.stats().items():
            print(f"{section}: {values}")
        if not args.query:
            return 0
        policy = _policy_from_args(args)
        if policy.backend == "process":
            index = _remote_index(engine)
            index.start_remote(replication_factor=args.replicas)
        from repro.service import SearchRequest, SearchService

        service = SearchService(engine)
        request = SearchRequest(query=args.query, policy=policy)
        if args.warm:
            # warm the result cache so the measured run below is the
            # cached execution (cache.hit in the metric snapshot)
            service.search(request)
        telemetry.reset()  # measure the query, not the population/warm-up
        response = service.search(request)
        print()
        print(format_report(telemetry))
        print()
        # one surface for both result types: the unified to_dict shape
        summary = response.result.to_dict() \
            | {"cache_hit": response.cache_hit}
        print(f"query rows: {summary['rows']}  "
              f"tuples_touched: {summary['tuples']['total']}")
        if summary["tuples"]["per_node"]:
            print(f"distributed per-node tuples: "
                  f"{summary['tuples']['per_node']}  "
                  f"max_node: {summary['tuples']['max_node']}")
        if summary["degraded"]:
            print(f"degraded: failed nodes {summary['failed_nodes']}")
        if args.json:
            from repro.service.api import SCHEMA_VERSION

            write_report(args.json, telemetry,
                         meta={"schema_version": SCHEMA_VERSION,
                               "command": "stats", "query": args.query,
                               "result": summary})
            print(f"telemetry report written to {args.json}")
        return 0
    finally:
        if index is not None:
            index.stop_remote()
        if telemetry is not None:
            disable()


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.persistence import Manifest, SnapshotStore

    root = Path(args.snapshot)
    store = SnapshotStore(root, keep=args.keep)
    if args.list:
        current = store.current_generation()
        if current is None and not store.generations():
            print(f"no checkpoints in {root}")
            return 0
        for generation in store.generations():
            marker = " (CURRENT)" if generation == current else ""
            path = store.path(generation)
            size = sum(entry.stat().st_size for entry in path.iterdir())
            print(f"generation {generation}: {size} bytes{marker}")
        return 0
    # reload the engine behind CURRENT and write a fresh checkpoint;
    # with --on-corrupt fallback this repairs a corrupted CURRENT by
    # re-checkpointing from the newest older intact generation
    snapshot = Path(args.snapshot)
    (server, _, schema, extractor), _ = _rebuild_from_manifest(snapshot)
    engine = load_engine(snapshot, schema, server, extractor=extractor,
                         on_corrupt=args.on_corrupt)
    path = save_engine(engine, root, keep=args.keep)
    manifest = Manifest.load(path)
    size = sum(stamp.bytes for stamp in manifest.files.values())
    print(f"checkpoint generation {manifest.generation} written to {path}")
    print(f"{len(manifest.files) + 1} files, {size} data bytes, "
          f"keeping last {args.keep}")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    from repro.persistence import Manifest, SnapshotStore

    snapshot = Path(args.snapshot)
    (server, _, schema, extractor), site = _rebuild_from_manifest(snapshot)
    wal = None
    if args.wal and (snapshot / _WAL_DIR).exists():
        from repro.wal import WriteAheadLog
        wal = WriteAheadLog(snapshot / _WAL_DIR)
    engine = load_engine(snapshot, schema, server, extractor=extractor,
                         on_corrupt=args.on_corrupt,
                         verify=args.verify, wal=wal)
    if wal is not None:
        print(f"write-ahead log tail replayed through seq "
              f"{engine.wal_seq}")
        wal.close()
    store = SnapshotStore(snapshot)
    # report the generation actually loaded — under on_corrupt=fallback
    # it can be older than what CURRENT points at
    loaded = engine.snapshot_generation
    verified = "verified" if args.verify else "unverified"
    manifest = Manifest.load(store.path(loaded))
    print(f"restored {site!r} from generation {loaded} "
          f"({verified}): schema {manifest.schema}, "
          f"cluster_size {manifest.config.cluster_size}")
    print(f"{len(engine.conceptual_store)} conceptual documents, "
          f"{len(engine.meta_store)} parse trees, "
          f"{len(engine.fds)} maintained objects")
    return 0


def _cmd_workers(args: argparse.Namespace) -> int:
    import time

    if args.run:
        # foreground: become one worker (what ReplicaSet spawns)
        from repro.remote.worker import main as worker_main
        return worker_main(["--host", args.host, "--port", str(args.port),
                            "--name", args.name,
                            "--fragments", str(args.fragments)])
    from repro.ir.relations import IrRelations
    from repro.remote.replicas import ReplicaSet

    nodes = {f"node{i}": IrRelations() for i in range(args.count)}
    replicas = ReplicaSet(nodes, replication_factor=1,
                          fragment_count=args.fragments)
    replicas.start()
    try:
        for node in nodes:
            for handle in replicas.replicas[node]:
                started = time.perf_counter()
                info = handle.client.ping()
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                print(f"{handle.name}: pid {info['pid']} "
                      f"port {handle.client.port} "
                      f"ping {elapsed_ms:.2f}ms")
    finally:
        replicas.stop()
    print(f"{args.count} workers spawned, pinged and shut down cleanly")
    return 0


def _cmd_export_index(args: argparse.Namespace) -> int:
    from repro.offline import StaticIndexReader, export_index

    engine = _load(args)
    destination = Path(args.output)
    export_index(engine, destination)
    # reload what was just written — the exported artifact is proven
    # loadable (checksums, versions, analyzer fingerprint) before the
    # command reports success
    reader = StaticIndexReader(destination)
    stats = reader.stats()
    print(f"static index artifact written to {destination}")
    print(f"format {stats['format_version']}, schema "
          f"{stats['schema_version']}, generation {stats['generation']}")
    print(f"{stats['documents']} documents, {stats['vocabulary']} terms, "
          f"{stats['bytes']} data bytes")
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    engine = _load(args)
    print("conceptual store path summary:")
    for path in engine.conceptual_store.paths():
        print(f"  {path}")
    print("meta store path summary:")
    for path in engine.meta_store.paths():
        print(f"  {path}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Flexible and scalable digital library search "
                    "(VLDB 2001 reproduction)")
    commands = parser.add_subparsers(dest="command", required=True)

    populate = commands.add_parser(
        "populate", help="build a site, populate the index, snapshot it")
    populate.add_argument("--site", default="ausopen",
                          choices=["ausopen", "lonelyplanet"])
    populate.add_argument("--snapshot", required=True)
    populate.add_argument("--players", type=int, default=12)
    populate.add_argument("--articles", type=int, default=10)
    populate.add_argument("--videos", type=int, default=4)
    populate.add_argument("--frames", type=int, default=8)
    populate.add_argument("--fragments", type=int, default=4)
    populate.add_argument("--cluster", type=int, default=1,
                          help="IR cluster size (N > 1 stores a "
                               "distributed index, the prerequisite of "
                               "--backend process at query/serve time)")
    populate.add_argument("--keep", type=int, default=3,
                          help="checkpoint generations to retain")
    populate.set_defaults(handler=_cmd_populate)

    snapshot = commands.add_parser(
        "snapshot",
        help="write a fresh checkpoint generation (or --list them)")
    snapshot.add_argument("--snapshot", required=True,
                          help="the snapshot root directory")
    snapshot.add_argument("--keep", type=int, default=3,
                          help="checkpoint generations to retain")
    snapshot.add_argument("--list", action="store_true",
                          help="list on-disk generations instead of saving")
    snapshot.add_argument("--on-corrupt", choices=["raise", "fallback"],
                          default="raise",
                          help="on corruption: fail, or re-checkpoint "
                               "from the newest older intact generation")
    snapshot.set_defaults(handler=_cmd_snapshot)

    restore = commands.add_parser(
        "restore", help="restore an engine from a snapshot and report")
    restore.add_argument("--snapshot", required=True)
    restore.add_argument("--verify", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="check manifest checksums before loading "
                              "(default: on)")
    restore.add_argument("--on-corrupt", choices=["raise", "fallback"],
                         default="raise",
                         help="on corruption: fail, or degrade to the "
                              "newest older intact checkpoint")
    restore.add_argument("--wal", action=argparse.BooleanOptionalAction,
                         default=True,
                         help="replay the snapshot's write-ahead-log "
                              "tail past the checkpoint, when one "
                              "exists (default: on)")
    restore.set_defaults(handler=_cmd_restore)

    query = commands.add_parser(
        "query", help="run a textual query against a snapshot")
    query.add_argument("--snapshot", required=True)
    query.add_argument("--mode", default="conceptual",
                       choices=["conceptual", "content", "fragmented"],
                       help="conceptual query language, ranked content "
                            "search, or fragmented top-N (default: "
                            "conceptual)")
    rich = query.add_argument_group(
        "rich queries (schema 2)",
        "any of these flags upgrades the request to SearchRequest "
        "schema 2; the query string itself then supports the rich "
        "language (field:term, AND/OR/NOT, \"quoted phrases\", "
        "title^4 boosts, year:1990-2001 ranges)")
    rich.add_argument("--filter", action="append", default=[],
                      metavar="FIELD:SPEC", dest="filters",
                      help="restrict matches: FIELD:VALUE for equality, "
                           "FIELD:LO-HI for a numeric range (repeatable)")
    rich.add_argument("--year", metavar="LO-HI",
                      help="shorthand for --filter year:LO-HI")
    rich.add_argument("-s", "--sort", action="append", default=[],
                      metavar="FIELD[:asc|desc]", dest="sort",
                      help="sort keys, e.g. -s downloads:desc "
                           "(repeatable; default direction desc)")
    rich.add_argument("-l", "--limit", type=int, default=None,
                      help="page size (rows per page)")
    rich.add_argument("-p", "--page", type=int, default=None,
                      help="1-based page number (needs --limit)")
    rich.add_argument("--facet", action="append", default=[],
                      metavar="FIELD", dest="facets",
                      help="count FIELD values over the full match set "
                           "(repeatable)")
    rich.add_argument("--boost", action="append", default=[],
                      metavar="FIELD^N", dest="boosts",
                      help="weight a field's term matches, e.g. "
                           "--boost title^4 (repeatable)")
    query.add_argument("--explain", action="store_true",
                       help="print the executed physical plan")
    _add_policy_flags(query)
    query.add_argument("query")
    query.set_defaults(handler=_cmd_query)

    serve = commands.add_parser(
        "serve", help="serve a snapshot over HTTP (POST /v1/search)")
    serve.add_argument("--snapshot", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="listen port; 0 picks an ephemeral port")
    admission = serve.add_argument_group(
        "admission control", "when to shed load instead of queueing")
    admission.add_argument("--max-inflight", type=int, default=8,
                           help="concurrently executing requests")
    admission.add_argument("--max-queue", type=int, default=16,
                           help="requests allowed to wait for a slot")
    admission.add_argument("--queue-timeout-ms", type=float, default=1000.0,
                           help="max wait for an execution slot")
    admission.add_argument("--rate", type=float, default=None,
                           help="token-bucket refill in requests/second "
                                "(default: unlimited)")
    admission.add_argument("--burst", type=int, default=None,
                           help="token-bucket burst headroom")
    serve.add_argument("--no-coalesce", action="store_true",
                       help="disable single-flight deduplication of "
                            "identical in-flight requests")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       help="seconds to wait for in-flight requests on "
                            "shutdown")
    serve.add_argument("--backend", choices=["thread", "process"],
                       default="thread",
                       help="with 'process', spawn shared-nothing "
                            "process-per-node workers at startup; "
                            "requests opt in per query via their "
                            "execution policy")
    serve.add_argument("--replicas", type=int, default=2,
                       help="replicas per node for --backend process "
                            "(default: 2)")
    serve.add_argument("--wal", action=argparse.BooleanOptionalAction,
                       default=True,
                       help="write-ahead-log writer ops under "
                            "<snapshot>/wal — recovery replays the "
                            "tail past the newest checkpoint "
                            "(default: on)")
    serve.set_defaults(handler=_cmd_serve)

    workers = commands.add_parser(
        "workers",
        help="spawn and smoke-test shared-nothing node workers")
    workers.add_argument("--count", type=int, default=2,
                         help="workers to spawn for the smoke test")
    workers.add_argument("--fragments", type=int, default=4)
    workers.add_argument("--run", action="store_true",
                         help="run ONE worker in the foreground instead "
                              "(prints a ready line, serves until "
                              "SIGTERM)")
    workers.add_argument("--host", default="127.0.0.1")
    workers.add_argument("--port", type=int, default=0,
                         help="--run listen port; 0 picks one")
    workers.add_argument("--name", default="worker")
    workers.set_defaults(handler=_cmd_workers)

    stats = commands.add_parser(
        "stats", help="index statistics; with --query, a traced run")
    stats.add_argument("--snapshot",
                       help="inspect a saved snapshot")
    stats.add_argument("--site", choices=["ausopen", "lonelyplanet"],
                       help="or build+populate a site in memory")
    stats.add_argument("--cluster", type=int, default=1,
                       help="IR cluster size for --site (distributed plan)")
    stats.add_argument("--players", type=int, default=12)
    stats.add_argument("--articles", type=int, default=10)
    stats.add_argument("--videos", type=int, default=4)
    stats.add_argument("--frames", type=int, default=8)
    stats.add_argument("--fragments", type=int, default=4)
    stats.add_argument("--query",
                       help="run this query under telemetry and print the "
                            "span tree + metric snapshot")
    stats.add_argument("--warm", action="store_true",
                       help="run --query once before measuring, so the "
                            "report shows the cached (warm) execution")
    stats.add_argument("--json",
                       help="also write the telemetry report to this file")
    _add_policy_flags(stats)
    stats.set_defaults(handler=_cmd_stats)

    export = commands.add_parser(
        "export-index",
        help="export a snapshot's IR index as a static, self-describing "
             "artifact for serverless StaticIndexReader consumers")
    export.add_argument("--snapshot", required=True,
                        help="the live snapshot to export from")
    export.add_argument("--output", required=True,
                        help="directory to write the artifact into")
    export.set_defaults(handler=_cmd_export_index)

    paths = commands.add_parser("paths", help="show the path summaries")
    paths.add_argument("--snapshot", required=True)
    paths.set_defaults(handler=_cmd_paths)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    arguments = _parser().parse_args(argv)
    try:
        return arguments.handler(arguments)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
