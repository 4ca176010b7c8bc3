"""The per-pair write path: the oracle the batched ``add_document`` must equal.

This is ``IrRelations.add_document`` as it was before the write path
went columnar — one scalar ``BAT.insert`` per new term and per
document, one oid drawn per pair as the pair is met — handing the
document's pairs to the same ``_append`` the batched path ends in.  It
lives here, not in production, so the batched path has one plain
reference to be compared against.
"""

from repro.errors import CatalogError
from repro.ir.relations import IrRelations
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
        pairs: list[Oid] = []
        for term in occurrences:
            terms.append(self._intern_term(term))
            pairs.append(self.catalog.oids.new())
        self._append(doc, url, terms, pairs, list(occurrences.values()))
        return doc
