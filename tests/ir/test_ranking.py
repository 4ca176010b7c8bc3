"""tf·idf ranking."""

import pytest

from repro.ir.ranking import query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations


@pytest.fixture
def relations() -> IrRelations:
    relations = IrRelations()
    relations.add_documents([
        ("doc:d1", "champion champion tennis net"),
        ("doc:d2", "champion tennis tennis court game"),
        ("doc:d3", "tennis court court game game game"),
        ("doc:d4", "football stadium goal"),
    ])
    return relations


class TestQueryTerms:
    def test_oov_terms_drop(self, relations):
        oids = query_term_oids(relations, "champion quidditch")
        assert len(oids) == 1

    def test_stopwords_drop(self, relations):
        assert query_term_oids(relations, "the of and") == []


class TestTfIdf:
    def test_most_frequent_rare_term_wins(self, relations):
        ranking = rank_tfidf(relations, "champion", n=10)
        urls = [relations.doc_url(doc) for doc, _ in ranking]
        assert urls[0] == "doc:d1"        # tf=2 for the rarest useful term
        assert set(urls) == {"doc:d1", "doc:d2"}

    def test_scores_are_tf_times_idf(self, relations):
        ranking = dict(rank_tfidf(relations, "champion", n=10))
        d1 = relations.doc_oid("doc:d1")
        # champion: df=2 -> idf=0.5; tf in d1 = 2
        assert ranking[d1] == pytest.approx(1.0)

    def test_multi_term_scores_sum(self, relations):
        single = dict(rank_tfidf(relations, "champion", n=10))
        combined = dict(rank_tfidf(relations, "champion net", n=10))
        d1 = relations.doc_oid("doc:d1")
        assert combined[d1] > single[d1]

    def test_n_limits_results(self, relations):
        assert len(rank_tfidf(relations, "tennis", n=2)) == 2

    def test_n_none_returns_all(self, relations):
        assert len(rank_tfidf(relations, "tennis", n=None)) == 3

    def test_no_match_is_empty(self, relations):
        assert rank_tfidf(relations, "quidditch", n=10) == []

    def test_deterministic_tie_break(self, relations):
        first = rank_tfidf(relations, "game", n=10)
        second = rank_tfidf(relations, "game", n=10)
        assert first == second
