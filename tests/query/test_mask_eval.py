"""The mask evaluator equals the per-document oracle.

``compile_query`` evaluates every node into a bool mask over the
postings index's slots; ``tests/query/eval_oracle.py`` is the evaluator
it replaced, one Python set per node.  Over random corpora — fielded
and plain urls, year tokens, ``'²'`` and ``'١٩٩٧'``, repeated words,
removes that leave dead slots and adds held in the delta — and random
query trees (terms, phrases including
``"a a"`` and out-of-vocabulary words, open-ended ranges, ``NOT``,
``AND``/``OR``, filters and field boosts), both sides must agree on the
match set, the merged scoring entries and the boost column, and
``IrEngine.execute`` must answer exactly what the oracle's execution
core answers: hits with scores by ``==``, ``total`` and ``facets``.
Derandomized, so CI replays the same examples.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import ExecutionPolicy
from repro.ir.engine import IrEngine
from repro.query import compile_query, parse_rich_query
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)

from tests.query import eval_oracle

pytestmark = pytest.mark.query

WORDS = ["tennis", "court", "final", "trophy", "melbourne", "1989", "1995",
         "1999", "2003", "²", "١٩٩٧"]
URLS = [f"{cls}:k{key}:{attribute}"
        for cls, attribute in (("Paper", "title"), ("Paper", "year"),
                               ("Article", "abstract"))
        for key in range(4)] + ["http://site/plain1", "http://site/plain2"]
FIELDS = ["title", "year", "abstract", "body"]  # "body": no document

#: phrase words come mostly from a few common ones, so phrases match
COMMON = ["tennis", "court", "final", "1999"]

_words = st.lists(st.one_of(st.sampled_from(COMMON), st.sampled_from(WORDS)),
                  min_size=2, max_size=10)
_docs = st.lists(st.tuples(st.sampled_from(URLS), _words), min_size=6,
                 max_size=12)
_later = st.lists(st.tuples(st.sampled_from(URLS), _words), max_size=2)
_query_word = st.sampled_from(WORDS + ["zebra"])  # "zebra": no document
_phrase_word = st.one_of(st.sampled_from(COMMON), _query_word)
_bound = st.sampled_from(["1989", "1990", "1995", "1999", "2003"])
_boost = st.sampled_from(["", "^2", "^0.5"])


def _leaves():
    word = st.builds("{}{}".format, _query_word, _boost)
    fielded = st.builds("{}:{}".format, st.sampled_from(FIELDS), word)
    phrase = st.builds('"{} {}"{}'.format, _phrase_word, _phrase_word,
                       _boost)
    fielded_phrase = st.builds("{}:{}".format, st.sampled_from(FIELDS),
                               phrase)
    ranges = st.builds("{}:{}".format, st.sampled_from(FIELDS), st.one_of(
        st.builds("{}-{}".format, _bound, _bound),
        st.builds("{}-".format, _bound), st.builds("-{}".format, _bound)))
    return st.one_of(word, fielded, phrase, fielded_phrase, ranges)


def _extend(children):
    return st.one_of(
        st.builds("NOT {}".format, children),
        st.builds("({} AND {})".format, children, children),
        st.builds("({} OR {})".format, children, children),
        st.builds("({} {})".format, children, children),
        st.builds("({}){}".format, children, _boost.filter(bool)))


_queries = st.recursive(_leaves(), _extend, max_leaves=5)
_filters = st.sampled_from([(), (("year", "1990-2000"),),
                            (("title", "tennis"),), (("abstract", "-1996"),)])
_field_boosts = st.sampled_from([(), (("title", 4.0),),
                                 (("abstract", 2.0), ("year", 3.0))])
_extras = st.fixed_dictionaries({
    "filters": _filters, "boosts": _field_boosts,
    "facets": st.sampled_from([(), ("class", "attribute")]),
    "sort": st.sampled_from([(), (("url", "asc"),),
                             (("class", "desc"), ("score", "desc"))]),
    "offset": st.sampled_from([0, 2]),
    "limit": st.sampled_from([None, 3]),
})


#: how many of the property's engines were read over a delta
READS = {"delta": 0, "engines": 0}


def build_engine(first, removed, later) -> IrEngine:
    """``first`` bulk-loaded and compacted by a read, then ``removed``
    from the base and ``later`` added to the delta: the next read serves
    base plus delta, with dead slots (unless the delta outgrew the
    base)."""
    engine = IrEngine(fragment_count=3)
    for url, words in first:
        engine.reindex(url, " ".join(words))
    engine.relations.postings_index()
    for url in sorted(removed):
        if engine.relations.doc_oid(url) is not None:
            engine.remove(url)
    for url, words in later:
        engine.reindex(url, " ".join(words))
    return engine


def doc_set(index, mask) -> set[int]:
    return {index.doc_ids[slot] for slot in np.flatnonzero(mask)}


def assert_compiles_alike(relations, parsed, boosts, filters):
    compiled = compile_query(relations, parsed, field_boosts=boosts,
                             filters=filters)
    entries, matched, field_weight = eval_oracle.compile_query(
        relations, parsed, field_boosts=boosts, filters=filters)
    index = relations.postings_index()
    assert doc_set(index, compiled.matched) == matched
    assert [(entry.term_oid, entry.weight,
             None if entry.docs is None else doc_set(index, entry.docs))
            for entry in compiled.entries] == \
        [(term, weight, None if docs is None else set(docs))
         for term, weight, docs in entries]
    assert {doc: compiled.field_weight[slot]
            for doc, slot in index.doc_dense.items()} == \
        {doc: field_weight.get(doc, 1.0) for doc in index.doc_dense}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(first=_docs,
       removed=st.sets(st.sampled_from(URLS), max_size=3), later=_later,
       query=_queries, extras=_extras, n=st.integers(1, 12),
       fragmented=st.booleans())
def test_mask_evaluator_equals_the_oracle(first, removed, later, query,
                                          extras, n, fragmented):
    engine = build_engine(first, removed, later)
    relations = engine.relations
    relations.postings_index()
    READS["engines"] += 1
    READS["delta"] += len(relations._delta) > 0
    parsed = parse_rich_query(query)
    if parsed.root is None and not extras["filters"]:
        return  # a query error on both sides
    assert_compiles_alike(relations, parsed, extras["boosts"],
                          extras["filters"])
    request = SearchRequest(
        query=query, mode=MODE_FRAGMENTED if fragmented else MODE_CONTENT,
        schema_version=SCHEMA_VERSION_V2,
        policy=ExecutionPolicy(n=n, cache=False), **extras)
    response = engine.execute(request)
    assert ([(hit.key, hit.score) for hit in response.hits],
            response.total, response.facets) == \
        eval_oracle.execute(engine, request)


def test_the_property_read_the_delta():
    """After the property (file order): some of its engines were read
    over a delta, not only over a compacted base."""
    if not READS["engines"]:
        pytest.skip("the property did not run here")
    assert READS["delta"] > 0, READS


class TestCorpusShapes:
    """The shapes the property must reach, pinned by example."""

    def test_dead_slots_and_not(self):
        engine = build_engine(
            [(URLS[0], ["tennis", "court"]), (URLS[1], ["1999"]),
             (URLS[3], ["court"])], {URLS[3]}, [(URLS[4], ["final"])])
        index = engine.relations.postings_index()
        assert len(index.doc_ids) > len(index.doc_dense)  # a dead slot
        assert_compiles_alike(engine.relations,
                              parse_rich_query("NOT tennis"), (), ())

    def test_repeated_word_phrase_needs_two_adjacent_occurrences(self):
        engine = build_engine(
            [(URLS[0], ["court", "court"]), (URLS[2], ["court", "final",
                                                       "court"])],
            set(), [])
        response = engine.execute(SearchRequest(
            query='"court court"', mode=MODE_CONTENT,
            schema_version=SCHEMA_VERSION_V2))
        assert [hit.key for hit in response.hits] == [URLS[0]]

    def test_superscript_and_arabic_indic_years(self):
        engine = build_engine([(URLS[3], ["²", "1989"]),
                               (URLS[4], ["١٩٩٧"])], set(), [])
        response = engine.execute(SearchRequest(
            query="year:1990-2000", mode=MODE_CONTENT,
            schema_version=SCHEMA_VERSION_V2))
        assert [hit.key for hit in response.hits] == [URLS[4]]
