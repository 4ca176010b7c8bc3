"""Tokenization, stopping and stemming — the "stemmer and stopper".

The query pipeline of the paper "first pushes the terms ... through the
stemmer and stopper"; documents go through the same normalisation at
indexing time so query terms and indexed terms meet in the same
vocabulary space.
"""

from __future__ import annotations

import hashlib
import re

from repro.ir.stemmer import stem

__all__ = ["STOP_WORDS", "tokenize", "normalize", "analyze",
           "analyzer_config"]

# A compact classic English stopword list (van Rijsbergen-style subset).
STOP_WORDS = frozenset("""
a about above after again against all am an and any are as at be because
been before being below between both but by could did do does doing down
during each few for from further had has have having he her here hers
herself him himself his how i if in into is it its itself just me more
most my myself no nor not now of off on once only or other our ours
ourselves out over own same she should so some such than that the their
theirs them themselves then there these they this those through to too
under until up very was we were what when where which while who whom why
will with you your yours yourself yourselves
""".split())


# A word: a run of letters and digits (``\w`` minus ``_`` is exactly
# ``str.isalnum``), its halves glued by apostrophes ("don't", "it’s").
_WORD = re.compile(r"[^\W_]+(?:['’][^\W_]+)*")


def tokenize(text: str) -> list[str]:
    """Split text into lowercase word tokens (letters and digits).

    An apostrophe *inside* a word is dropped rather than split on, so
    ``don't`` tokenizes as ``dont`` instead of the one-letter junk pair
    ``don`` + ``t`` that used to pollute the vocabulary (and would have
    forced phrase matching to require the halves adjacently).  A
    leading or trailing apostrophe still separates.

    Case folds as if letter by letter: ``str.lower`` on a word folds a
    word-final ``Σ`` to ``ς`` (its one context rule), where the
    vocabulary holds ``σ``, so text holding a ``Σ`` folds per letter.
    """
    words = _WORD.findall(text)
    if not words:
        return []
    if "Σ" in text:
        return ["".join(map(str.lower, word)).replace("'", "")
                .replace("’", "") for word in words]
    # no capital sigma, so folding all words at once folds each alone
    # (no word holds a newline, and no letter lowercases to one)
    return ("\n".join(words).lower().replace("'", "").replace("’", "")
            .split("\n"))


def normalize(token: str) -> str | None:
    """Lowercase, stop and stem one token; ``None`` for stop words.

    Self-contained on purpose: callers that bypass :func:`tokenize`
    (the rich-query parser hands raw user words straight in) must not
    be able to leak unstopped or unstemmed case variants into postings
    or cache keys, so the lowercasing lives here and not only in the
    tokenizer.
    """
    token = token.lower()
    if not token or token in STOP_WORDS:
        return None
    return stem(token)


def analyze(text: str) -> list[str]:
    """The full pipeline: tokenize, stop, stem (tokens are already
    lowercase and non-empty, so this is :func:`normalize` of each)."""
    return [stem(token) for token in tokenize(text)
            if token not in STOP_WORDS]


def analyzer_config() -> dict[str, object]:
    """A JSON-friendly fingerprint of the analysis pipeline.

    Static index artifacts record this at export time and readers
    compare it at load time: an index built under a different
    tokenizer, stemmer or stopword list would silently miss (or
    mis-rank) queries analyzed under this one, so a mismatch must be a
    typed load error, never a wrong answer.  The stopword list is
    fingerprinted by content hash — adding or removing a single word
    changes the vocabulary space.
    """
    stop_digest = hashlib.sha256(
        "\n".join(sorted(STOP_WORDS)).encode("utf-8")).hexdigest()
    return {
        "tokenizer": "alnum-lower-apostrophe-joining",
        "stemmer": "porter-1980",
        "stop_words": len(STOP_WORDS),
        "stop_words_sha256": stop_digest,
    }
