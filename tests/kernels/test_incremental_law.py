"""The law of incremental index maintenance.

An ``IrRelations`` that lived through any interleaving of add / reindex
/ remove — served from a base plus a delta, with dead slots, compacted
— holds exactly the pairs its live documents' analyzed texts give, and
answers exactly like a fresh ``IrRelations`` whose base is the
compacted segment over a copy of the same catalog: same statistics,
same IDF, same postings in the same order, same fragment layout, and
for every query the same hits with scores compared by ``==``.
Hypothesis drives the interleavings, derandomized so CI replays the
same ones.
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
from repro.ir.text import analyze
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)
from repro.telemetry import telemetry_session

from tests.kernels.postings_oracle import (compacted, docs_of, pair_rows,
                                           pairs)

pytestmark = pytest.mark.kernels

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
STEPS = {"delta": 0, "compactions": 0}


def positions_of(packed) -> list[list[int]]:
    """Every posting's positions: a run of ``tf`` ascending positions."""
    flat, offsets = packed.position_columns()
    runs = [flat[start:stop].tolist()
            for start, stop in zip(offsets[:-1], offsets[1:])]
    assert all(run == sorted(run) and len(run) == tf
               for run, tf in zip(runs, packed.tfs))
    return runs


def postings_of(relations: IrRelations) -> dict:
    index = relations.postings_index()
    return {int(term): (docs_of(index.doc_ids, packed), list(packed.tfs),
                        positions_of(packed), packed.max_tf)
            for term, packed in index.by_term.items()}


def universe_of(relations: IrRelations) -> tuple:
    """The live documents with their url and segment names (dead slots,
    which only an uncompacted index holds, are left out)."""
    index = relations.postings_index()
    classes, fields = list(index.class_names), list(index.field_names)
    live = {doc: (index.urls[slot], classes[index.class_codes[slot]],
                  fields[index.field_codes[slot]])
            for slot, doc in enumerate(index.doc_ids) if index.live[slot]}
    assert set(live) == set(index.doc_dense)
    return live


def layout_of(relations: IrRelations, count: int) -> list:
    fragments = fragment_by_idf(relations, count)
    return [(set(map(int, fragment.term_oids)), fragment.tuples,
             {int(t): w for t, w in fragment.idf.items()},
             {int(t): fragment.packed[t].max_tf for t in fragment.term_oids},
             {int(t): pairs(fragments.doc_ids, fragment.packed[t])
              for t in fragment.term_oids})
            for fragment in fragments]


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


def pairs_of(relations: IrRelations) -> list[tuple]:
    """``(url, term, tf, positions)`` per pair, in pair order."""
    terms = dict(zip(relations.T.head, relations.T.tail))
    return [(relations.doc_url(doc), terms[term], tf, positions)
            for _, doc, term, tf, positions in pair_rows(relations)]


def analyzed_pairs(texts: dict[str, str]) -> list[tuple]:
    """What a document's text gives, document by document in order of
    indexing, each term at its first occurrence: the pairs in the order
    their oids are drawn."""
    expected = []
    for url, text in texts.items():
        occurrences: dict[str, list[int]] = {}
        for position, term in enumerate(analyze(text)):
            occurrences.setdefault(term, []).append(position)
        expected += [(url, term, len(run), run)
                     for term, run in occurrences.items()]
    return expected


def engine_over(relations: IrRelations) -> IrEngine:
    engine = IrEngine(fragment_count=3)
    engine.relations = relations
    return engine


class IncrementalMaintenance(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.engine = IrEngine(fragment_count=3)
        # the model: each live url's text, in order of indexing
        self.texts: dict[str, str] = {}
        for number, url in enumerate(URLS[:6]):
            self.texts[url] = " ".join(WORDS[number:number + 5])
            self.engine.index(url, self.texts[url])
        self.relations.postings_index()  # compacted: writes go to a delta
        self.held: list[tuple] = []   # (index, deep copy of it at hold time)
        self.read_generation = self.relations.generation
        self.delta = self.compactions = 0

    @property
    def relations(self) -> IrRelations:
        return self.engine.relations

    # -- writes ------------------------------------------------------------

    @rule(url=_urls, words=_words)
    def reindex(self, url, words):
        """Add a new url, replace a known one, re-add a removed one."""
        self.engine.reindex(url, " ".join(words))
        self.texts.pop(url, None)
        self.texts[url] = " ".join(words)

    @precondition(lambda self: self.relations.document_count())
    @rule(data=st.data())
    def remove(self, data):
        url = data.draw(st.sampled_from(sorted(self.relations._doc_oids)))
        self.engine.remove(url)
        del self.texts[url]

    @precondition(lambda self: self.relations.document_count() >= 4)
    @rule()
    def remove_most(self):
        """Cross the compaction threshold: dead slots outnumber live."""
        self.relations.postings_index()  # a published index: slots go dead
        for url in sorted(self.relations._doc_oids)[1:]:
            self.engine.remove(url)
            del self.texts[url]

    @rule(urls=st.lists(_urls, min_size=2, max_size=4, unique=True),
          words=_words)
    def burst(self, urls, words):
        """Several writes between two reads share one generation."""
        for url in urls:
            self.engine.reindex(url, " ".join(words + [url[-5:]]))
            self.texts.pop(url, None)
            self.texts[url] = " ".join(words + [url[-5:]])

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
            compactions = telemetry.metrics.sum_counters(
                "ir.postings_rebuilds")
        if maintained.generation != self.read_generation:
            self.read_generation = maintained.generation
            self.compactions += bool(compactions)
            self.delta += len(maintained._delta) > 0
        # independent of the remove and merge paths: the model's texts
        expected = analyzed_pairs(self.texts)
        assert pairs_of(maintained) == expected
        assert maintained.collection_length == sum(
            tf for _, _, tf, _ in expected)
        rebuilt = compacted(maintained)
        assert maintained.stats() == rebuilt.stats()
        maintained_idf, rebuilt_idf = (
            relations._stored().get("ir:IDF") for relations in
            (maintained, rebuilt))
        assert dict(zip(maintained_idf.head, maintained_idf.tail)) == \
            dict(zip(rebuilt_idf.head, rebuilt_idf.tail))
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
        STEPS["delta"] += self.delta
        STEPS["compactions"] += self.compactions


TestIncrementalMaintenance = IncrementalMaintenance.TestCase
TestIncrementalMaintenance.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None,
    derandomize=True)


def test_the_walks_took_both_paths():
    """After the machine (file order): reads after a write were served
    over a delta *and*, past the delta share or the dead slots, after a
    compaction."""
    if not sum(STEPS.values()):
        pytest.skip("the state machine did not run in this session")
    assert STEPS["delta"] > 0 and STEPS["compactions"] > 0, STEPS
