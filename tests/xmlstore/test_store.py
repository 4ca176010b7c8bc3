"""XmlStore facade: documents, deletion, incremental replacement."""

import pytest

from repro.errors import XmlStoreError
from repro.xmlstore.model import element, isomorphic
from repro.xmlstore.shredder import SYS_RELATION
from repro.xmlstore.store import XmlStore


def _doc(n: int):
    return element("doc", {"id": str(n)},
                   element("title", None, f"title {n}"),
                   element("body", None,
                           element("p", None, f"text {n} alpha"),
                           element("p", None, f"text {n} beta")))


@pytest.fixture
def store() -> XmlStore:
    store = XmlStore()
    for n in range(3):
        store.insert(f"d{n}", _doc(n))
    return store


class TestRegistry:
    def test_contains_and_len(self, store):
        assert "d0" in store and len(store) == 3

    def test_document_keys_sorted(self, store):
        assert store.document_keys() == ["d0", "d1", "d2"]

    def test_root_oid_and_back(self, store):
        oid = store.root_oid("d1")
        assert store.document_key(oid) == "d1"

    def test_duplicate_insert_raises(self, store):
        with pytest.raises(XmlStoreError):
            store.insert("d0", _doc(0))

    def test_unknown_key_raises(self, store):
        with pytest.raises(XmlStoreError):
            store.root_oid("nope")

    def test_insert_many(self):
        store = XmlStore()
        oids = store.insert_many([("a", _doc(1)), ("b", _doc(2))])
        assert len(oids) == 2 and len(store) == 2


class TestReconstruction:
    def test_each_document_reconstructs(self, store):
        for n in range(3):
            assert isomorphic(store.reconstruct(f"d{n}"), _doc(n))

    def test_insert_from_text(self):
        store = XmlStore()
        store.insert("t", "<a><b>x</b></a>")
        assert store.reconstruct("t").find("b").text() == "x"


class TestDeletion:
    def test_delete_removes_document(self, store):
        store.delete("d1")
        assert "d1" not in store
        with pytest.raises(XmlStoreError):
            store.reconstruct("d1")

    def test_delete_leaves_others_intact(self, store):
        store.delete("d1")
        assert isomorphic(store.reconstruct("d0"), _doc(0))
        assert isomorphic(store.reconstruct("d2"), _doc(2))

    def test_delete_all_empties_relations(self, store):
        for n in range(3):
            store.delete(f"d{n}")
        assert store.catalog.total_buns() == 0

    def test_deleted_root_leaves_sys(self, store):
        before = len(store.catalog.get(SYS_RELATION))
        store.delete("d0")
        assert len(store.catalog.get(SYS_RELATION)) == before - 1


class TestReplace:
    def test_replace_updates_content(self, store):
        updated = _doc(0)
        updated.find("title").children[0].value = "new title"
        store.replace("d0", updated)
        assert store.reconstruct("d0").find("title").text() == "new title"

    def test_replace_changes_query_results(self, store):
        titles = store.query("/doc/title/text()").value_list()
        assert "title 0" in titles
        updated = element("doc", {"id": "0"},
                          element("title", None, "changed"))
        store.replace("d0", updated)
        titles = store.query("/doc/title/text()").value_list()
        assert "title 0" not in titles and "changed" in titles

    def test_replace_can_change_structure(self, store):
        new_shape = element("doc", {"id": "0"},
                            element("summary", None, "short"))
        store.replace("d0", new_shape)
        assert isomorphic(store.reconstruct("d0"), new_shape)

    def test_replace_from_text(self, store):
        store.replace("d0", "<doc id='0'><title>from text</title></doc>")
        assert store.reconstruct("d0").find("title").text() == "from text"

    def test_replace_unknown_key_raises(self, store):
        with pytest.raises(XmlStoreError):
            store.replace("nope", _doc(9))


class TestReplaceIsAllOrNothing:
    """Regression: replace used to delete the old document first, so a
    failing insert lost it.  A failing replace must leave the store
    byte-identical."""

    def snapshot_bytes(self, store, tmp_path):
        from repro.monetdb.persistence import save_catalog
        target = tmp_path / "state.bats"
        save_catalog(store.catalog, target)
        return target.read_bytes()

    def test_malformed_replacement_keeps_old_document(self, store,
                                                      tmp_path):
        from repro.errors import XmlSyntaxError
        before = self.snapshot_bytes(store, tmp_path)
        with pytest.raises(XmlSyntaxError):
            store.replace("d0", "<doc><broken")
        assert self.snapshot_bytes(store, tmp_path) == before
        assert isomorphic(store.reconstruct("d0"), _doc(0))

    def test_failed_replace_does_not_bump_generation(self, store):
        from repro.errors import XmlSyntaxError
        generation = store.generation
        with pytest.raises(XmlSyntaxError):
            store.replace("d0", "<doc><broken")
        assert store.generation == generation

    def test_failed_replace_keeps_store_queryable(self, store):
        from repro.errors import XmlSyntaxError
        with pytest.raises(XmlSyntaxError):
            store.replace("d1", "not xml at <all")
        titles = store.query("/doc/title/text()").value_list()
        assert "title 1" in titles

    def test_unknown_key_does_not_validate_first(self, store, tmp_path):
        # the key check precedes validation: a bad key raises
        # XmlStoreError even when the replacement is also malformed
        before = self.snapshot_bytes(store, tmp_path)
        with pytest.raises(XmlStoreError):
            store.replace("nope", "<doc><broken")
        assert self.snapshot_bytes(store, tmp_path) == before


class TestQueries:
    def test_query_spans_documents(self, store):
        values = store.query("/doc/body/p/text()").value_list()
        assert len(values) == 6

    def test_document_of_maps_back(self, store):
        result = store.query("/doc/title")
        node = result.paths[0]
        keys = {store.document_of(node, oid) for oid in result.oids}
        assert keys == {"d0", "d1", "d2"}


class TestDeleteCost:
    def test_delete_cost_follows_the_document_not_the_store(self):
        """Count-based, no timers: the BAT rows one delete has to look
        at are the same in a store of 4 documents and of 40."""
        from repro.telemetry import telemetry_session

        def rows_visited(documents: int) -> float:
            store = XmlStore()
            for n in range(documents):
                store.insert(f"d{n}", _doc(n))
            generation = store.generation
            with telemetry_session() as telemetry:
                store.delete("d1")
                visited = telemetry.metrics.sum_counters(
                    "monetdb.delete_visited")
            assert store.generation == generation + 1
            assert "d1" not in store and len(store) == documents - 1
            return visited

        assert rows_visited(4) == rows_visited(40) > 0
