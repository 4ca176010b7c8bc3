"""Boolean/phrase/range matching against the positional postings."""

import numpy as np
import pytest

from repro.errors import QueryError
from repro.ir.relations import IrRelations
from repro.query import (compile_query, doc_class_of, doc_field_of,
                        filters_to_nodes, parse_rich_query)

pytestmark = pytest.mark.query


def matched_urls(relations, source, **kwargs):
    compiled = compile_query(relations, parse_rich_query(source), **kwargs)
    urls = relations.postings_index().urls
    return {urls[slot] for slot in np.flatnonzero(compiled.matched)}


class TestDocNaming:
    def test_engine_indexed_urls(self):
        assert doc_field_of("Paper:p01:title") == "title"
        assert doc_class_of("Paper:p01:title") == "Paper"

    def test_plain_urls_have_neither(self):
        assert doc_field_of("http://site/report1") == ""
        assert doc_class_of("http://site/report1") == ""


class TestBooleanMatching:
    def test_or_unions(self, relations):
        urls = matched_urls(relations, "fragmentation OR kernels")
        assert "Paper:p02:title" in urls
        assert "Paper:p03:title" in urls

    def test_and_intersects(self, relations):
        urls = matched_urls(relations, "digital AND metadata")
        assert urls == {"Paper:p07:title", "Paper:p07:abstract"}

    def test_not_subtracts_from_the_universe(self, relations):
        with_term = matched_urls(relations, "library")
        without = matched_urls(relations, "library NOT metadata")
        assert "Paper:p07:title" in with_term
        assert "Paper:p07:title" not in without
        assert without < with_term

    def test_fielded_term_restricts_to_the_attribute(self, relations):
        urls = matched_urls(relations, "title:database")
        assert all(url.endswith(":title") for url in urls)
        assert "Paper:p02:title" in urls
        # the same word in an abstract does not match
        assert "Paper:p02:abstract" not in urls


class TestPhraseMatching:
    def test_adjacent_words_match(self, relations):
        urls = matched_urls(relations, '"digital library"')
        assert "Paper:p01:title" in urls

    def test_word_order_matters(self, relations):
        assert matched_urls(relations, '"digital library"')
        # the reversed phrase occurs nowhere in the corpus
        assert matched_urls(relations, '"library digital"') == set()

    def test_stop_words_vanish_before_adjacency(self, relations):
        # "fragment the database" matches the phrase "fragment database"
        urls = matched_urls(relations, '"fragment database"')
        assert "Paper:p02:abstract" in urls

    def test_out_of_vocabulary_phrase_matches_nothing(self, relations):
        assert matched_urls(relations, '"zebra crossing"') == set()


class TestRangeMatching:
    def test_fielded_range(self, relations):
        urls = matched_urls(relations, "year:1990-2001")
        assert "Paper:p01:year" in urls      # 1999
        assert "Paper:p04:year" not in urls  # 1989
        assert all(url.endswith(":year") for url in urls)

    def test_number_tokens_match_in_any_document(self, relations):
        # the plain report mentions 1994 in its running text; a year
        # filter restricted to the year field excludes it
        assert "http://site/report1" in matched_urls(relations, "1994")
        assert "http://site/report1" not in \
            matched_urls(relations, "year:1994-1994")

    def test_open_range(self, relations):
        urls = matched_urls(relations, "year:2000-")
        assert urls == {"Paper:p03:year", "Paper:p05:year"}

    def test_the_numeric_vocabulary_is_rebuilt_on_load(self, relations,
                                                       tmp_path):
        relations.add_document("Paper:p09:year", "² ١٩٩٧")
        relations.save(tmp_path / "ir.bats")
        restored = IrRelations.load(tmp_path / "ir.bats",
                                    relations.generation)
        assert restored.numeric_terms(None, None) \
            == relations.numeric_terms(None, None)
        assert matched_urls(restored, "year:1997-1997") \
            == {"Paper:p09:year"}


class TestCompile:
    def test_all_stopword_query_without_filters_raises(self, relations):
        with pytest.raises(QueryError):
            compile_query(relations, parse_rich_query("the of"))

    def test_filters_alone_supply_the_match_set(self, relations):
        compiled = compile_query(relations, parse_rich_query("the of"),
                                 filters=(("year", "1995-1999"),))
        assert compiled.matched.any()
        assert compiled.entries == ()  # filters never score

    def test_filters_to_nodes_rejects_stopword_values(self):
        with pytest.raises(QueryError):
            filters_to_nodes((("field", "the"),))

    def test_field_boosts_become_per_doc_weights(self, relations):
        compiled = compile_query(relations,
                                 parse_rich_query("digital library"),
                                 field_boosts=(("title", 4.0),))
        urls = relations.postings_index().urls
        title_slots = [slot for slot, url in enumerate(urls)
                       if url.endswith(":title")]
        assert np.flatnonzero(compiled.field_weight != 1.0).tolist() \
            == title_slots
        assert set(compiled.field_weight[title_slots]) == {4.0}

    def test_shape_distinguishes_boosts_and_filters(self, relations):
        parsed = parse_rich_query("digital library")
        plain = compile_query(relations, parsed)
        boosted = compile_query(relations, parsed,
                                field_boosts=(("title", 4.0),))
        filtered = compile_query(relations, parsed,
                                 filters=(("year", "1990-"),))
        assert not np.array_equal(plain.field_weight, boosted.field_weight)
        assert not np.array_equal(filtered.matched, plain.matched)


class TestVocabulary:
    def test_apostrophe_forms_join_in_the_vocabulary(self):
        relations = IrRelations()
        relations.add_document("http://site/d", "don't stop O'Brien's run")
        relations.refresh_idf()
        vocabulary = {term for _, term in relations.T}
        assert "dont" in vocabulary
        assert "obrien" in vocabulary
        # the split fragments never enter the vocabulary
        assert "don" not in vocabulary
        assert "t" not in vocabulary
