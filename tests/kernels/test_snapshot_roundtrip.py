"""Snapshots round-trip the packed layout and reproduce rankings."""

import numpy as np
import pytest

from repro.ir.fragmentation import fragment_by_idf
from repro.ir.ranking import query_term_oids, rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.topn import topn_fragmented
from repro.monetdb.atoms import Oid
from repro.monetdb.bat import BAT
from repro.monetdb.catalog import Catalog
from repro.monetdb.persistence import load_catalog, save_catalog

from tests.kernels.conftest import QUERIES, build_relations

pytestmark = pytest.mark.kernels


class TestPackedRoundTrip:
    def test_storage_classes_survive(self, tmp_path):
        catalog = Catalog()
        ints = catalog.ensure("t:ints", "oid", "int")
        ints.append_many([Oid(1), Oid(2)], [10, 20])
        flts = catalog.ensure("t:flts", "oid", "flt")
        flts.insert(Oid(1), 0.25)
        strs = catalog.ensure("t:strs", "oid", "str")
        strs.insert(Oid(1), "hello")
        path = tmp_path / "snap.bats"
        save_catalog(catalog, path)
        loaded = load_catalog(path)
        assert loaded.get("t:ints").storage() == ("q", "q")
        assert loaded.get("t:flts").storage() == ("q", "d")
        assert loaded.get("t:strs").storage() == ("q", "list")

    def test_values_and_types_survive(self, tmp_path):
        catalog = Catalog()
        bat = catalog.ensure("t:pairs", "oid", "int")
        bat.append_many([Oid(i) for i in range(50)],
                        [i * 3 for i in range(50)])
        path = tmp_path / "snap.bats"
        save_catalog(catalog, path)
        loaded = load_catalog(path).get("t:pairs")
        assert loaded.head == bat.head
        assert loaded.tail == bat.tail
        assert isinstance(loaded.head[0], Oid)

    def test_spilled_big_int_survives(self, tmp_path):
        catalog = Catalog()
        bat = catalog.ensure("t:big", "oid", "int")
        bat.insert(Oid(1), 2 ** 80)
        path = tmp_path / "snap.bats"
        save_catalog(catalog, path)
        loaded = load_catalog(path).get("t:big")
        assert loaded.find(Oid(1)) == 2 ** 80
        assert loaded.storage()[1] == "list"


class TestIrRoundTrip:
    @pytest.fixture
    def restored(self, tmp_path):
        original = build_relations(seed=5, docs=60)
        path = tmp_path / "ir.bats"
        save_catalog(original.catalog, path)
        restored = IrRelations(load_catalog(path))
        restored.refresh_idf()
        return original, restored

    @pytest.mark.parametrize("query", QUERIES)
    def test_rank_tfidf_identical_after_restore(self, restored, query):
        original, loaded = restored
        assert rank_tfidf(loaded, query, 10) == \
            rank_tfidf(original, query, 10)

    def test_fragmented_topn_identical_after_restore(self, restored):
        original, loaded = restored
        for query in QUERIES:
            a = topn_fragmented(fragment_by_idf(original, 4),
                                query_term_oids(original, query), 10)
            b = topn_fragmented(fragment_by_idf(loaded, 4),
                                query_term_oids(loaded, query), 10)
            assert a.ranking == b.ranking

    def test_restored_index_repacks(self, restored):
        _, loaded = restored
        index = loaded.postings_index()
        assert len(index.doc_ids) == loaded.document_count()
        packed = loaded.packed_postings(loaded.term_oid("w0"))
        assert packed is not None
        # built postings are int64 / float64 views over the segment
        assert packed.docs.dtype == packed.dense.dtype == np.int64
        assert packed.tf_weights.dtype == np.float64
