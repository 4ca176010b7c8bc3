"""The law of incremental index maintenance.

An ``IrRelations`` that lived through any interleaving of add / reindex
/ remove — journalled, patched copy-on-write, compacted — answers
exactly like a fresh ``IrRelations`` built from scratch over a copy of
the same catalog: same statistics, same IDF, same postings in the same
order, same fragment layout, and for every query the same hits with
scores compared by ``==``.  ``_build_postings_index`` (the only full
build) is the oracle; hypothesis drives the interleavings, derandomized
so CI replays the same ones.
"""

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.ir.fragmentation import fragment_by_idf
from repro.ir.relations import IrRelations
from repro.monetdb.catalog import Catalog
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)
from repro.telemetry import telemetry_session

# the walks' few dozen pairs would never patch under the cost rule
pytestmark = [pytest.mark.kernels,
              pytest.mark.usefixtures("patch_whenever_possible")]

# low ranks are common, "rare*" words usually have a single holder (so
# removing it removes the term), years feed the range queries
WORDS = ["tennis", "trophy", "champion", "library", "digital", "melbourne",
         "court", "final", "rare1", "rare2", "rare3", "1999", "2001", "2005"]
URLS = [f"{cls}:k{key}:{attribute}"
        for cls in ("Player", "Article")
        for key in range(3)
        for attribute in ("history", "title")] + ["http://site/plain"]

_words = st.lists(st.sampled_from(WORDS), min_size=0, max_size=12)
_urls = st.sampled_from(URLS)

BAGS = ["tennis trophy", "champion", "library digital melbourne",
        "rare1 rare2 court", "final 1999"]
RICH = [
    ('"tennis trophy"', {}),
    ("tennis AND NOT trophy", {}),
    ("NOT champion", {"facets": ("class", "attribute")}),
    ("year:1999-2003", {}),
    ("history:champion^3 OR library", {"facets": ("class",)}),
    ("tennis court final", {"sort": (("url", "asc"),), "offset": 1,
                            "limit": 3}),
    ("digital", {"filters": (("title", "library"),)}),
]


#: how the reads after a write were served, summed over every walk
STEPS = {"patches": 0, "builds": 0}


def copy_catalog(catalog: Catalog) -> Catalog:
    """A deep copy through the public surface (what a snapshot does)."""
    fresh = Catalog()
    for name in catalog.names():
        bat = catalog.get(name)
        fresh.create(name, bat.head_type, bat.tail_type).append_many(
            list(bat.head), list(bat.tail))
    fresh.oids.advance_past(int(catalog.oids.peek()) - 1)
    return fresh


def from_scratch(maintained: IrRelations) -> IrRelations:
    rebuilt = IrRelations(copy_catalog(maintained.catalog))
    rebuilt.generation = maintained.generation
    return rebuilt


def positions_of(packed) -> list[list[int]]:
    """Every posting's positions: a run of ``tf`` ascending positions,
    or none at all (a pre-v2 pair)."""
    flat, offsets = packed.position_columns()
    runs = [flat[start:stop].tolist()
            for start, stop in zip(offsets[:-1], offsets[1:])]
    assert all(run == sorted(run) and len(run) in (tf, 0)
               for run, tf in zip(runs, packed.tfs))
    return runs


def postings_of(relations: IrRelations) -> dict:
    index = relations.postings_index()
    return {int(term): (list(packed.docs), list(packed.tfs),
                        positions_of(packed),
                        packed.max_tf, packed.has_positions)
            for term, packed in index.by_term.items()}


def universe_of(relations: IrRelations) -> tuple:
    """The live documents with their url and segment names (dead slots,
    which only a patched index holds, are left out)."""
    index = relations.postings_index()
    classes, fields = list(index.class_names), list(index.field_names)
    live = {doc: (index.urls[slot], classes[index.class_codes[slot]],
                  fields[index.field_codes[slot]])
            for slot, doc in enumerate(index.doc_ids) if index.live[slot]}
    assert set(live) == set(index.doc_dense)
    return live, dict(index.doc_lengths)


def layout_of(relations: IrRelations, count: int) -> list:
    return [(set(map(int, fragment.term_oids)), fragment.tuples,
             {int(t): w for t, w in fragment.idf.items()},
             {int(t): fragment.packed[t].max_tf for t in fragment.term_oids},
             {int(t): fragment.packed[t].pairs()
              for t in fragment.term_oids})
            for fragment in fragment_by_idf(relations, count)]


def requests():
    for query in BAGS:
        for mode in (MODE_CONTENT, MODE_FRAGMENTED):
            for prune in (True, False):
                yield SearchRequest(
                    query=query, mode=mode,
                    policy=ExecutionPolicy(n=4, prune=prune, cache=False))
    for index, (query, extras) in enumerate(RICH):
        yield SearchRequest(
            query=query, schema_version=SCHEMA_VERSION_V2,
            mode=(MODE_CONTENT, MODE_FRAGMENTED)[index % 2],
            policy=ExecutionPolicy(n=4, cache=False), **extras)


def answer(engine: IrEngine, request: SearchRequest) -> tuple:
    response = engine.execute(request)
    return ([(hit.key, hit.score) for hit in response.hits],
            response.total, response.facets, response.tuples_touched)


def engine_over(relations: IrRelations) -> IrEngine:
    engine = IrEngine(fragment_count=3)
    engine.relations = relations
    return engine


class IncrementalMaintenance(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = IrEngine(fragment_count=3)
        for number, url in enumerate(URLS[:6]):
            self.engine.index(url, " ".join(WORDS[number:number + 5]))
        self.relations.postings_index()  # built: writes journal from here
        self.held: list[tuple] = []   # (index, deep copy of it at hold time)
        self.read_generation = self.relations.generation
        self.patches = self.builds = 0

    @property
    def relations(self) -> IrRelations:
        return self.engine.relations

    # -- writes ------------------------------------------------------------

    @rule(url=_urls, words=_words)
    def reindex(self, url, words):
        """Add a new url, replace a known one, re-add a removed one."""
        self.engine.reindex(url, " ".join(words))

    @precondition(lambda self: self.relations.document_count())
    @rule(data=st.data())
    def remove(self, data):
        url = data.draw(st.sampled_from(sorted(self.relations._doc_oids)))
        self.engine.remove(url)

    @precondition(lambda self: self.relations.document_count() >= 4)
    @rule()
    def remove_most(self):
        """Cross the compaction threshold: dead slots outnumber live."""
        self.relations.postings_index()  # a built index: slots go dead
        for url in sorted(self.relations._doc_oids)[1:]:
            self.engine.remove(url)

    @rule(urls=st.lists(_urls, min_size=2, max_size=4, unique=True),
          words=_words)
    def burst(self, urls, words):
        """Several writes between two reads share one patch."""
        for url in urls:
            self.engine.reindex(url, " ".join(words + [url[-5:]]))

    # -- reads that keep what they got ---------------------------------------

    @rule()
    def hold(self):
        index = self.relations.postings_index()
        if len(self.held) < 3:
            self.held.append((index, copy.deepcopy(index)))

    # -- the law -------------------------------------------------------------

    @invariant()
    def equals_a_from_scratch_rebuild(self):
        maintained = self.relations
        with telemetry_session() as telemetry:
            maintained.postings_index()
            built = telemetry.metrics.sum_counters("ir.postings_rebuilds")
        if maintained.generation != self.read_generation:
            self.read_generation = maintained.generation
            self.builds += bool(built)
            self.patches += not built
        rebuilt = from_scratch(maintained)
        assert maintained.stats() == rebuilt.stats()
        maintained.refresh_idf()
        rebuilt.refresh_idf()
        assert dict(zip(maintained.IDF.head, maintained.IDF.tail)) == \
            dict(zip(rebuilt.IDF.head, rebuilt.IDF.tail))
        assert postings_of(maintained) == postings_of(rebuilt)
        assert universe_of(maintained) == universe_of(rebuilt)
        for count in (1, 3):
            assert layout_of(maintained, count) == layout_of(rebuilt, count)
        oracle = engine_over(rebuilt)
        for request in requests():
            assert answer(self.engine, request) == answer(oracle, request), \
                request

    @invariant()
    def held_indexes_are_snapshots(self):
        for index, as_held in self.held:
            assert index == as_held

    def teardown(self):
        STEPS["patches"] += self.patches
        STEPS["builds"] += self.builds


TestIncrementalMaintenance = IncrementalMaintenance.TestCase
TestIncrementalMaintenance.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    derandomize=True)


def test_the_walks_took_both_paths():
    """After the machine (file order): reads after a write were served
    by patches *and*, past compaction or an outgrown journal, builds."""
    if not sum(STEPS.values()):
        pytest.skip("the state machine did not run in this session")
    assert STEPS["patches"] > STEPS["builds"] > 0, STEPS
