"""``conceptual-mixed``: the paper's running example and its variants."""

from __future__ import annotations

import itertools
import time

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.service import SearchRequest, SearchService
from repro.service.api import MODE_CONCEPTUAL
from repro.web.ausopen import AusOpenGroundTruth, build_ausopen_site
from repro.webspace.schema import australian_open_schema

from benchmarks.suite import corpus
from benchmarks.suite.measure import QUERY, Measurement
from benchmarks.suite.workloads import (CheckFailed, Workload, keys_of,
                                        prefix_mean, response_detail,
                                        self_ms, service_layer_metrics)

#: the site generator has 49 distinct player names; beyond that two
#: players share a key and the ground truth stops being one
PLAYERS, ARTICLES, VIDEOS = 48, 120, 6
#: plans must execute, so the result cache is off; the plan cache is on
EXECUTE = ExecutionPolicy(cache=False)
#: queries of each family per 40 operations.  Video-event plans are
#: ~30x dearer than attribute plans; keeping them above half puts the
#: median inside the running example's own family instead of on the
#: gap between the two.  The mix is exact, not drawn, so the median
#: does not move with the seed; only the order does.
FAMILIES = (("mixed", 14), ("event", 10), ("conceptual", 8), ("content", 8))


def query_pool(truth: AusOpenGroundTruth
               ) -> dict[str, list[tuple[str, set[str]]]]:
    """family -> [(query text, the hit keys the ground truth demands)]."""
    players = {player.key: player for player in truth.players}
    netplay = [video for video in truth.videos if video.netplay]

    def player_keys(test) -> set[str]:
        return {f"p:{p.key}" for p in truth.players if test(p)}

    pool: dict[str, list] = {name: [] for name, _ in FAMILIES}
    for gender, plays in itertools.product(("female", "male"),
                                           ("left", "right")):
        # the running example (Fig. 13) and its three siblings
        pool["mixed"].append((
            "SELECT p.name, v.title FROM Player p, Video v "
            f"WHERE p.gender = '{gender}' AND p.plays = '{plays}' "
            "AND p.history CONTAINS 'Winner' AND v Features p "
            "AND v.video EVENT netplay TOP 50",
            {f"p:{key},v:{video.key}" for video in netplay
             for key in video.players
             if players[key].gender == gender
             and players[key].plays == plays
             and players[key].is_champion}))
        pool["conceptual"].append((
            f"SELECT p.name FROM Player p WHERE p.gender = '{gender}' "
            f"AND p.plays = '{plays}' TOP 50",
            player_keys(lambda p: p.gender == gender
                        and p.plays == plays)))
    pool["event"].append((
        "SELECT v.title FROM Video v WHERE v.video EVENT netplay TOP 50",
        {f"v:{video.key}" for video in netplay}))
    pool["event"].append((
        "SELECT p.name, v.title FROM Player p, Video v WHERE v Features p "
        "AND v.video EVENT netplay TOP 50",
        {f"p:{key},v:{video.key}" for video in netplay
         for key in video.players}))
    for country in sorted({player.country for player in truth.players}):
        pool["conceptual"].append((
            f"SELECT p.name FROM Player p WHERE p.country = '{country}' "
            "TOP 50", player_keys(lambda p: p.country == country)))
    for words in ("Winner", "Winner championship trophy",
                  "championship trophy", "trophy Winner"):
        pool["content"].append((
            f"SELECT p.name FROM Player p WHERE p.history CONTAINS "
            f"'{words}' TOP 50", player_keys(lambda p: p.is_champion)))
    return pool


class ConceptualMixed(Workload):
    name = "conceptual-mixed"
    why = ("The running-example query and its conceptual / content / "
           "video-event variants with plans executing: webspace, core, "
           "monetdb.algebra, xmlstore and the cobra meta-index.")
    documents = PLAYERS + ARTICLES + VIDEOS
    min_ops = 400

    def set_up(self) -> None:
        server, truth = build_ausopen_site(
            players=PLAYERS, articles=ARTICLES, videos=VIDEOS,
            frames_per_shot=8, seed=self.seed)
        self.engine = SearchEngine(australian_open_schema(), server,
                                   EngineConfig(fragment_count=4))
        started = time.perf_counter()
        self.engine.populate()
        self.facts["populate_s"] = time.perf_counter() - started
        self.service = SearchService(
            self.recorder.wrap(self.engine, {"execute": "core/execute"}))
        self.pool = query_pool(truth)
        variants = {name: itertools.cycle(family)
                    for name, family in self.pool.items()}
        order = [name for name, count in FAMILIES for _ in range(count)]
        corpus.stream_rng(self.seed, self.name).shuffle(order)
        self.schedule = (next(variants[name])
                         for name in itertools.cycle(order))
        self._count = itertools.count()
        if not self._search(*self.pool["mixed"][0]).ok:
            raise CheckFailed("conceptual-mixed: the running example "
                              "does not return the ground truth")

    def warm_up(self) -> None:
        for family in self.pool.values():
            for query, expected in family:
                self._search(query, expected)

    def _search(self, query: str, expected: set[str]):
        request = SearchRequest(
            query=query, mode=MODE_CONCEPTUAL, policy=EXECUTE,
            trace_id=f"{self.name}-{next(self._count)}")
        sample, response = self.timed(
            QUERY, "service.service/search", request.trace_id,
            lambda: self.service.search(request))
        if response is not None:
            sample.ok = set(keys_of(response)) == expected
            sample.detail.update(response_detail(response))
        return sample

    def units(self):
        return [lambda: [self._search(*next(self.schedule))]]

    def layer_metrics(self, measurement: Measurement, telemetry,
                      prefix: int, report: dict) -> dict[str, float]:
        hits = telemetry.metrics.sum_counters("plan_cache.hit")
        misses = telemetry.metrics.sum_counters("plan_cache.miss")
        metrics = service_layer_metrics(self.service,
                                        measurement.all(QUERY))
        metrics.update(
            service_self_ms=self_ms(report, "service.service"),
            conceptual_ms=self_ms(report, "core"),
            tuples_per_query=prefix_mean(measurement, prefix, "tuples"),
            plan_cache_hit_ratio=hits / max(1, hits + misses),
            populate_s=self.facts["populate_s"])
        return metrics

    def tear_down(self) -> None:
        self.service.close()
