"""An Internet-scale search engine on the generic grammar.

"The system is applicable to the Internet as a whole.  Either by
replacing the specific webschema by a very generic, and thus not so
semantically rich one, or by giving the user the possibility to use a
direct interface on top of the logical level."  This facade is that
direct logical-level interface: it crawls by following the grammar's
``&MMO`` references, indexes page keywords, stores every parse tree in
the meta-index, and answers the future-work query — portraits embedded
in pages about a concept.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.config import ExecutionPolicy
from repro.errors import ParseError
from repro.featuregrammar.detectors import DetectorRegistry
from repro.featuregrammar.fde import FDE
from repro.featuregrammar.fds import FDS
from repro.featuregrammar.parsetree import tree_to_xml
from repro.ir.engine import IrEngine
from repro.ir.thesaurus import Thesaurus
from repro.media.grammar import build_internet_grammar, build_internet_registry
from repro.web.site import SimulatedWebServer
from repro.xmlstore.store import XmlStore

__all__ = ["InternetSearchEngine", "PortraitHit"]


@dataclass(frozen=True)
class PortraitHit:
    """One answer to the portraits-about-a-concept query."""

    image_url: str
    page_url: str
    score: float


@dataclass
class InternetCrawlReport:
    objects_parsed: int = 0
    pages: int = 0
    images: int = 0
    failures: list[str] = field(default_factory=list)


class InternetSearchEngine:
    """Generic multimedia search over a simulated web."""

    def __init__(self, server: SimulatedWebServer,
                 registry: DetectorRegistry | None = None):
        self.server = server
        self.grammar = build_internet_grammar()
        self.registry = registry or build_internet_registry(server)
        self.fde = FDE(self.grammar, self.registry)
        self.fds = FDS(self.fde)
        self.meta_store = XmlStore()
        self.ir = IrEngine()
        self.thesaurus = Thesaurus()
        self._embedded: dict[str, list[str]] = {}   # page -> linked urls

    # -- populating ---------------------------------------------------------

    def populate(self, seed: str = "index.html",
                 max_objects: int | None = None) -> InternetCrawlReport:
        """Crawl by following &MMO references from the seed page."""
        report = InternetCrawlReport()
        queue: deque[str] = deque([self.server.absolute(seed)])
        seen = {self.server.absolute(seed)}
        while queue:
            if max_objects is not None \
                    and report.objects_parsed >= max_objects:
                break
            location = queue.popleft()
            try:
                outcome = self.fds.add_object(location, location)
            except ParseError:
                report.failures.append(location)
                continue
            report.objects_parsed += 1
            self.meta_store.insert(location, tree_to_xml(outcome.tree))
            tree = outcome.tree
            keywords = [node.leaf_value()
                        for node in tree.find_all("word")]
            if keywords:
                self.ir.reindex(location,
                                " ".join(str(word) for word in keywords))
                report.pages += 1
            if tree.find_all("image"):
                report.images += 1
            links = [key for symbol, key in outcome.references
                     if symbol == "MMO"]
            self._embedded[location] = links
            for link in links:
                if link not in seen:
                    seen.add(link)
                    queue.append(link)
        return report

    # -- content-based predicates ------------------------------------------

    def _first_text(self, location: str, tag: str) -> str | None:
        """Direct text of the first ``tag`` element in a stored tree."""
        if location not in self.meta_store:
            return None
        nodes = self.meta_store.elements(location, tag)
        return self.meta_store.text(nodes[0]).strip() if nodes else None

    def is_portrait(self, location: str) -> bool:
        """Does the meta-index say this object is a portrait photograph?"""
        return self._first_text(location, "is_portrait") == "true"

    def page_language(self, location: str) -> str | None:
        """The detected language of a page, from the meta-index."""
        return self._first_text(location, "lang_code")

    # -- querying ---------------------------------------------------------

    def search_pages(self, concept: str, n: int = 10,
                     expand: bool = True) -> list[tuple[str, float]]:
        """Pages ranked for a concept (thesaurus-expanded by default)."""
        query = self.thesaurus.expand_query(concept) if expand else concept
        return self.ir.search_urls(query, policy=ExecutionPolicy(n=n))

    def portraits_about(self, concept: str, n: int = 10) -> list[PortraitHit]:
        """The paper's query: portraits embedded in pages semantically
        related to a concept."""
        hits: list[PortraitHit] = []
        seen: set[tuple[str, str]] = set()
        for page_url, score in self.search_pages(concept, n=n):
            for embedded in self._embedded.get(page_url, ()):
                if (page_url, embedded) in seen:
                    continue
                seen.add((page_url, embedded))
                if self.is_portrait(embedded):
                    hits.append(PortraitHit(embedded, page_url, score))
        hits.sort(key=lambda hit: (-hit.score, hit.image_url))
        return hits[:n]
