"""The T/D/DT/TF/IDF relation scheme."""

import pytest

from repro.errors import BatError, CatalogError
from repro.ir.ranking import rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.stemmer import stem

from tests.kernels.postings_oracle import copy_catalog, pairs


def postings(relations: IrRelations, term) -> dict:
    """One term's ``{doc: tf}``, read off the packed index."""
    index = relations.postings_index()
    return dict(pairs(index.doc_ids, index.by_term.get(int(term))))


@pytest.fixture
def relations() -> IrRelations:
    relations = IrRelations()
    relations.add_documents([
        ("http://x/d1", "tennis tennis champion"),
        ("http://x/d2", "tennis court"),
        ("http://x/d3", "football"),
    ])
    return relations


class TestBaseAndIdf:
    """A base's dfs are its run lengths in ``ir:IDF``'s row order, so
    the constructor refuses an ``ir:IDF`` that is not the base's terms."""

    @pytest.mark.parametrize("write", ["add", "remove"])
    def test_a_stale_idf_is_a_typed_error(self, relations, write):
        relations.refresh_idf()
        if write == "add":  # IDF lacks the new term: its df would be lost
            relations.add_document("http://x/d4", "quidditch")
        else:  # IDF names a term with no run left: past the last run
            relations.remove_document("http://x/d3")
        with pytest.raises(CatalogError, match="ir:IDF does not name "
                                               "exactly the segment"):
            IrRelations(copy_catalog(relations.catalog),
                        relations._merged())

    def test_a_current_idf_restores_every_df(self, relations):
        relations.remove_document("http://x/d3")
        relations.refresh_idf()
        restored = IrRelations(copy_catalog(relations.catalog),
                               relations._merged())
        assert restored._df == relations._df


class TestVocabulary:
    def test_terms_are_stemmed_and_interned_once(self, relations):
        relations.add_document("http://x/d4", "champions championed")
        assert relations.term_oid("champion") is not None

    def test_unknown_term_is_none(self, relations):
        assert relations.term_oid("quidditch") is None

    def test_vocabulary_size(self, relations):
        assert relations.vocabulary_size() == 4  # tennis champion court football


class TestDocuments:
    def test_doc_oid_round_trip(self, relations):
        oid = relations.doc_oid("http://x/d1")
        assert relations.doc_url(oid) == "http://x/d1"

    def test_duplicate_document_raises(self, relations):
        with pytest.raises(CatalogError):
            relations.add_document("http://x/d1", "again")

    def test_collection_length(self, relations):
        assert relations.collection_length == 6


class TestFrequencies:
    def test_tf_counts_per_pair(self, relations):
        tennis = relations.term_oid(stem("tennis"))
        tfs = postings(relations, tennis)
        assert tfs[relations.doc_oid("http://x/d1")] == 2
        assert tfs[relations.doc_oid("http://x/d2")] == 1

    def test_df_and_idf(self, relations):
        tennis = relations.term_oid(stem("tennis"))
        football = relations.term_oid(stem("football"))
        assert relations._df[tennis] == 2
        assert relations.idf(tennis) == pytest.approx(0.5)
        assert relations.idf(football) == pytest.approx(1.0)

    def test_idf_of_unknown_is_zero(self, relations):
        assert relations.idf(999999) == 0.0

    def test_idf_refresh_deferred_until_read(self):
        relations = IrRelations()
        relations.add_document("doc:u1", "alpha")
        assert len(relations.IDF) == 0  # population never refreshes
        relations.add_document("doc:u2", "alpha beta")
        assert len(relations.IDF) == 0
        assert not relations.idf_fresh()
        # the first idf read refreshes through the generation stamp
        alpha = relations.term_oid(stem("alpha"))
        assert relations.idf(alpha) == pytest.approx(0.5)
        assert len(relations.IDF) == 2
        assert relations.idf_fresh()

    def test_idf_refresh_memoized_per_generation(self):
        relations = IrRelations()
        relations.add_document("doc:u1", "alpha beta")
        relations.refresh_idf()
        generation = relations.generation
        relations.refresh_idf()  # no mutation in between: a no-op
        assert relations.generation == generation
        relations.add_document("doc:u2", "beta")
        assert relations.generation == generation + 1
        assert not relations.idf_fresh()


class TestRemoval:
    def test_remove_document_updates_everything(self, relations):
        tennis = relations.term_oid(stem("tennis"))
        relations.remove_document("http://x/d2")
        assert relations.document_count() == 2
        assert relations._df[tennis] == 1
        assert relations.idf(tennis) == pytest.approx(1.0)
        assert relations.collection_length == 4

    def test_remove_unknown_raises(self, relations):
        with pytest.raises(CatalogError):
            relations.remove_document("http://x/nope")

    def test_failed_remove_changes_nothing(self, relations, monkeypatch):
        # regression: remove_document used to forget the url and lower
        # collection_length pair by pair *before* a lookup could fail —
        # a raise mid-way left a document unknown by url yet still ranked.
        # Both ways a remove finds a document's pairs — in the base, in
        # the delta — are made to fail.
        from repro.ir.relations import _Delta, _Segment
        from tests.kernels.postings_oracle import pair_rows

        def fail(*args):
            raise BatError("injected: the pairs could not be found")

        def everything():
            return (relations.stats(), pair_rows(relations),
                    list(relations.D), dict(relations._df),
                    relations._base, relations._delta,
                    relations._doc_ids[:], relations._live[:],
                    dict(relations._slot_of),
                    rank_tfidf(relations, "tennis champion court clay"))

        relations.postings_index()  # compacted: d1 is in the base
        relations.add_document("http://x/d4", "tennis clay")  # the delta
        for url in ("http://x/d1", "http://x/d4"):
            before = everything()
            with monkeypatch.context() as patch:
                patch.setattr(_Segment, "rows_of", fail)
                patch.setattr(_Delta, "rows_of", fail)
                with pytest.raises(BatError, match="injected"):
                    relations.remove_document(url)
            assert everything() == before  # incl. the generation
            assert relations.doc_oid(url) is not None
            relations.remove_document(url)  # and it still can go
            assert relations.document_count() \
                == before[0]["documents"] - 1

    def test_stats(self, relations):
        stats = relations.stats()
        assert stats["documents"] == 3
        assert stats["terms"] == 4
        assert stats["pairs"] == 5
