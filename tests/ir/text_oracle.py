"""The per-character tokenizer: the oracle the one-pass tokenizer must equal.

This is ``repro.ir.text.tokenize`` as it was before it became one
compiled regex — one Python step per character.  It lives here, not in
production, so the regex has one plain reference to be compared against.
"""

from repro.ir.stemmer import stem
from repro.ir.text import STOP_WORDS

# Apostrophe forms that glue word halves together ("don't", "it’s").
_APOSTROPHES = frozenset("'’")


def tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    word: list[str] = []
    length = len(text)
    for index, char in enumerate(text):
        if char.isalnum():
            word.append(char.lower())
        elif (char in _APOSTROPHES and word
              and index + 1 < length and text[index + 1].isalnum()):
            continue  # intra-word apostrophe: join the halves
        elif word:
            tokens.append("".join(word))
            word.clear()
    if word:
        tokens.append("".join(word))
    return tokens


def analyze(text: str) -> list[str]:
    """The pipeline over the oracle tokenizer: tokenize, stop, stem."""
    return [stem(token) for token in tokenize(text)
            if token not in STOP_WORDS]
