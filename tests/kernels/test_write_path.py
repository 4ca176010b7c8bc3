"""The batched write path equals the per-pair one, byte for byte.

``IrRelations.add_document`` appends one batch per relation per
document; ``PerPairRelations`` (the oracle) inserts one pair at a time.
Over any history of add / remove / reindex / read — empty and
stop-word-only bodies, repeated terms, rejected duplicate and malformed
urls included — both leave the same raw columns, storage classes and
ascending flags in every ``ir:*`` BAT, draw the same oids, and keep the
same document frequencies (in the same order), totals, generation,
pair rows and postings index.  Hypothesis drives the histories,
derandomized so CI replays the same ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.ir.engine import ClusterIrEngine, IrEngine
from repro.ir.relations import IrRelations
from repro.monetdb.bat import BAT
from repro.wal.record import Record
from repro.wal.replay import replay_records
from tests.kernels.postings_oracle import pair_rows
from tests.kernels.write_oracle import PerPairRelations

pytestmark = pytest.mark.kernels

# stop words, repeats, an apostrophe join, a capital sigma, a number
WORDS = ["tennis", "trophy", "the", "and", "Champion", "champions", "don't",
         "ΟΔΟΣ", "1999", "melbourne", "court"]
# the last two are malformed urls: D's validation must reject them alike
URLS = ["http://site/a", "http://site/b", "Player:k1:history",
        "Article:k2:title", "/media/v0.mpg", "plainword", ""]

_bodies = st.lists(st.sampled_from(WORDS), max_size=10).map(" ".join)
_ops = st.one_of(
    st.tuples(st.just("add"), st.sampled_from(URLS), _bodies),
    st.tuples(st.just("reindex"), st.sampled_from(URLS), _bodies),
    st.tuples(st.just("remove"), st.sampled_from(URLS)),
    st.tuples(st.just("read")))


def apply(relations: IrRelations, op: tuple):
    """Run one write (or read); the error it raised, if any."""
    try:
        if op[0] == "add":
            relations.add_document(op[1], op[2])
        elif op[0] == "reindex":
            if relations.doc_oid(op[1]) is not None:
                relations.remove_document(op[1])
            relations.add_document(op[1], op[2])
        elif op[0] == "remove":
            relations.remove_document(op[1])
        else:
            relations.refresh_idf()
            relations.postings_index()
    except ReproError as error:
        return type(error), str(error)
    return None


def state(relations: IrRelations) -> tuple:
    catalog = relations.catalog
    columns = {}
    for name in catalog.names():
        bat = catalog.get(name)
        heads, tails = bat.raw_columns()
        columns[name] = (list(heads), list(tails), bat.storage(),
                         bat.head_ascending, bat.tail_ascending)
    return (columns, int(catalog.oids.peek()), list(relations._df.items()),
            relations.collection_length, relations.generation,
            pair_rows(relations), list(relations._term_oids.items()),
            list(relations._doc_oids.items()))


def postings(relations: IrRelations):
    return relations.postings_index()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(_ops, max_size=25))
def test_batched_writes_equal_per_pair_writes(history):
    batched, oracle = IrRelations(), PerPairRelations()
    for op in history:
        assert apply(batched, op) == apply(oracle, op), op
        assert state(batched) == state(oracle), op
    assert postings(batched) == postings(oracle)


def test_rejected_urls_consume_the_same_oids():
    for relations in (IrRelations(), PerPairRelations()):
        relations.add_document("http://site/a", "tennis tennis trophy")
        with pytest.raises(ReproError, match="already indexed"):
            relations.add_document("http://site/a", "court")
        with pytest.raises(ReproError, match="not a url"):
            relations.add_document("plainword", "court")
        # the doc oid was drawn before D rejected the url, as always
        assert int(relations.catalog.oids.peek()) == 6
        assert relations.document_count() == 1
        assert relations.generation == 1


def test_no_ir_write_path_calls_scalar_insert(monkeypatch):
    single, cluster, replayed = (IrEngine(), ClusterIrEngine(2),
                                 ClusterIrEngine(2))

    def refuse(bat, head, tail):
        raise AssertionError(f"scalar BAT.insert into {bat.name}")

    monkeypatch.setattr(BAT, "insert", refuse)
    single.index("http://site/a", "tennis trophy tennis")
    single.reindex("http://site/a", "court final")
    cluster.index.add_documents([("http://site/a", "tennis trophy"),
                                 ("http://site/b", "trophy court")])
    outcome = replay_records(replayed, [
        Record(1, "reindex", {"url": "http://site/a", "text": "tennis"}),
        Record(2, "add_documents",
               {"documents": [["http://site/b", "trophy court"]]})])
    assert outcome["applied"] == 2 and outcome["skipped"] == 0
