"""Seeded inputs: the document corpus and every request stream.

Everything the program under test sees comes from here, and everything
here is a pure function of ``--seed``: the same seed gives the same
documents and the same requests in the same order.

The corpus is Zipf over a 2 000-term vocabulary at ~120 words per
document.  Urls are shaped ``Class:key:attribute`` over four
class/attribute pairs so schema-2 fields, facets and the ``year:``
range (which restricts to documents whose attribute *is* ``year``) all
match something.  Every document carries one year token, and every
25th repeats two rare marker terms a growing number of times, so the
top-N boundary has a score gap fragment pruning can prove final.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator

from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)

VOCABULARY = 2000
WORDS_PER_DOC = 120
FIELDS = (("Article", "body"), ("Article", "abstract"),
          ("Player", "history"), ("Tournament", "year"))
YEARS = (1960, 2020)
MARKERS = ("grandslam", "finalist")
MARKER_EVERY = 25
#: ranks below this are "head" terms: they occur in most documents
HEAD_RANKS = 20

_ZIPF = list(itertools.accumulate(1.0 / (rank + 1)
                                  for rank in range(VOCABULARY)))
_WORDS = [f"w{rank:04d}" for rank in range(VOCABULARY)]


def stream_rng(seed: int, label: str) -> random.Random:
    """One independent, reproducible generator per (seed, purpose)."""
    return random.Random(f"{seed}:{label}")


def document_text(rng: random.Random, index: int) -> str:
    words = rng.choices(_WORDS, cum_weights=_ZIPF, k=WORDS_PER_DOC)
    words.append(str(rng.randrange(*YEARS)))
    if index % MARKER_EVERY == 0:
        # strictly increasing multiplicity: marker scores all differ
        words += list(MARKERS) * (index // MARKER_EVERY + 1)
    return " ".join(words)


def documents(count: int, seed: int, label: str = "corpus"
              ) -> list[tuple[str, str]]:
    """``count`` (url, text) pairs."""
    rng = stream_rng(seed, label)
    docs = []
    for index in range(count):
        cls, attribute = FIELDS[index % len(FIELDS)]
        docs.append((f"{cls}:{label}{index:05d}:{attribute}",
                     document_text(rng, index)))
    return docs


def marker(number: int) -> str:
    """A term no generated document contains, unique per write."""
    return f"zq{number:06d}"


def _terms(rng: random.Random, count: int) -> list[str]:
    """``count`` distinct Zipf-drawn terms, the first one a head term."""
    chosen = [_WORDS[rng.randrange(HEAD_RANKS)]]
    while len(chosen) < count:
        term = rng.choices(_WORDS, cum_weights=_ZIPF)[0]
        if term not in chosen:
            chosen.append(term)
    return chosen


def hot_set(seed: int, size: int = 64) -> list[str]:
    """The popular queries of ``http-hot`` (fits the 128-entry cache)."""
    rng = stream_rng(seed, "hot-set")
    queries: list[str] = []
    while len(queries) < size:
        query = " ".join(_terms(rng, rng.randint(2, 4)))
        if query not in queries:
            queries.append(query)
    return queries


def hot_stream(seed: int, client: int, size: int = 64) -> Iterator[int]:
    """Indexes into the hot set, Zipf-popular, one stream per client."""
    rng = stream_rng(seed, f"hot-stream-{client}")
    weights = list(itertools.accumulate(1.0 / (i + 1) for i in range(size)))
    while True:
        yield rng.choices(range(size), cum_weights=weights)[0]


#: rank bands of a 3-term bag: one term most documents hold, one some
#: do, one few do
BANDS = ((0, 8), (20, 200), (200, VOCABULARY))


def distinct_bags(seed: int, label: str) -> Iterator[str]:
    """3-term bag-of-words queries, none repeated.

    One term from each rank band, so every query scans about the same
    number of postings: the latency spread is then the program's, not
    the luck of the draw, which matters where a run has few reads.
    """
    rng = stream_rng(seed, label)
    seen: set[str] = set()
    while True:
        query = " ".join(_WORDS[rng.randrange(*band)] for band in BANDS)
        if query not in seen:
            seen.add(query)
            yield query


def _rich_shapes(rng: random.Random, docs: list[tuple[str, str]]):
    """One schema-2 request shape per call, cycling through all eight."""
    for shape in itertools.cycle(range(8)):
        a, b, c = _terms(rng, 3)
        extras: dict[str, object] = {}
        if shape == 0:      # phrase: two adjacent words of a real document
            words = docs[rng.randrange(len(docs))][1].split()
            start = rng.randrange(WORDS_PER_DOC - 1)
            query = f'"{words[start]} {words[start + 1]}" OR {c}'
        elif shape == 1:    # boolean
            query = f"({a} OR {b}) AND NOT {c}"
        elif shape == 2:    # fielded term
            query = f"{FIELDS[rng.randrange(3)][1]}:{a} {b}"
        elif shape == 3:    # boosts, in the query and per field
            query = f"{a}^3 {b} {c}"
            extras["boosts"] = (("abstract", 2.0),)
        elif shape == 4:    # year range
            low = rng.randrange(YEARS[0], YEARS[1] - 10)
            query = f"year:{low}-{low + 10} AND {a}"
        elif shape == 5:    # facets over the full match set
            query = f"{b} {c}"
            extras["facets"] = ("class", "attribute")
        elif shape == 6:    # non-score sort ranks the whole match set
            query = f"{a} {b}"
            extras["sort"] = (("url", "asc"),)
            extras["limit"] = 10
        else:               # deep page
            query = f"{a} {b} {c}"
            extras["offset"] = 50
            extras["limit"] = 10
        yield query, extras


def cold_requests(seed: int, docs: list[tuple[str, str]], label: str
                  ) -> Iterator[SearchRequest]:
    """``inproc-cold``: every request distinct, 70 % bags, 30 % rich.

    Bags are 3-6 terms and always include a head term; every fifth
    one pairs a rare marker with a head term, the case fragment pruning
    exists for.  Modes alternate ``content`` / ``fragmented``.
    """
    rng = stream_rng(seed, label)
    rich = _rich_shapes(rng, docs)
    seen: set[tuple] = set()
    for number in itertools.count():
        mode = MODE_CONTENT if number % 2 else MODE_FRAGMENTED
        trace_id = f"{label}-{number}"
        if rng.random() < 0.3:
            query, extras = next(rich)
            request = SearchRequest(query=query, mode=mode,
                                    schema_version=SCHEMA_VERSION_V2,
                                    trace_id=trace_id, **extras)
        else:
            terms = _terms(rng, rng.randint(3, 6))
            if number % 5 == 0:
                terms[-1] = MARKERS[number % 2]
            request = SearchRequest(query=" ".join(terms), mode=mode,
                                    trace_id=trace_id)
        key = (request.query, request.mode, request.shape_token())
        if key not in seen:
            seen.add(key)
            yield request
