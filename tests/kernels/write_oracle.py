"""The per-pair write path: the oracle the batched ``add_document`` must equal.

This is ``IrRelations.add_document`` as it was before the write path
went columnar — one scalar ``BAT.insert`` per relation per document-term
pair, plus one per new term.  It lives here, not in production, so the
batched path has one plain reference to be compared against.
"""

from repro.errors import CatalogError
from repro.ir.relations import _ADD, IrRelations
from repro.ir.text import analyze
from repro.monetdb.atoms import Oid


class PerPairRelations(IrRelations):
    """``IrRelations`` whose documents are indexed one pair at a time."""

    def _intern_term(self, term: str) -> Oid:
        oid = self._term_oids.get(term)
        if oid is None:
            oid = self.catalog.oids.new()
            self.T.insert(oid, term)
            self._term_oids[term] = oid
        return oid

    def add_document(self, url: str, text: str) -> Oid:
        if url in self._doc_oids:
            raise CatalogError(f"document already indexed: {url!r}")
        occurrences: dict[str, list[int]] = {}
        for position, term in enumerate(analyze(text)):
            occurrences.setdefault(term, []).append(position)
        doc = self.catalog.oids.new()
        self.D.insert(doc, url)
        self._doc_oids[url] = doc
        terms: list[Oid] = []
        tfs: list[int] = []
        runs: list[list[int]] = []
        df = self._df
        for term, positions in occurrences.items():
            term_oid = self._intern_term(term)
            pair = self.catalog.oids.new()
            self.DT_doc.insert(pair, doc)
            self.DT_term.insert(pair, term_oid)
            self.TF.insert(pair, len(positions))
            for position in positions:
                self.POS.insert(pair, position)
            df[term_oid] = df.get(term_oid, 0) + 1
            terms.append(term_oid)
            tfs.append(len(positions))
            runs.append(positions)
        self.collection_length += sum(tfs)
        self._journal_write((_ADD, doc, url, terms, tfs, runs))
        self.generation += 1
        return doc
