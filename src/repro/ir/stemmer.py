"""The Porter stemming algorithm (Porter, 1980), from scratch.

The paper's term index stores "the corresponding stems" of terms; this is
the standard algorithm used for that purpose in the IR literature it
cites ([BYRN99]).  The implementation follows the original paper's five
steps; the reference vocabulary cases from Porter's paper are covered in
the test suite.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = ["stem"]

#: Distinct words whose stems are remembered.  Bounded because a
#: hostile query stream can carry unbounded distinct tokens; a
#: library's working vocabulary is far smaller (~15 MB when full).
_STEM_MEMO_WORDS = 1 << 16

_VOWELS = set("aeiou")


def _is_consonant(word: str, index: int) -> bool:
    char = word[index]
    if char in _VOWELS:
        return False
    if char == "y":
        return index == 0 or not _is_consonant(word, index - 1)
    return True


def _measure(stem_part: str) -> int:
    """Porter's m: the number of VC sequences in [C](VC)^m[V]."""
    forms: list[str] = []
    for index in range(len(stem_part)):
        form = "c" if _is_consonant(stem_part, index) else "v"
        if not forms or forms[-1] != form:
            forms.append(form)
    pattern = "".join(forms)
    if pattern.startswith("c"):
        pattern = pattern[1:]
    if pattern.endswith("v"):
        pattern = pattern[:-1]
    # after stripping, the pattern alternates v,c,... so each "vc" pair
    # contributes one to m
    return len(pattern) // 2


def _contains_vowel(stem_part: str) -> bool:
    return any(not _is_consonant(stem_part, i) for i in range(len(stem_part)))


def _ends_double_consonant(word: str) -> bool:
    return (len(word) >= 2 and word[-1] == word[-2]
            and _is_consonant(word, len(word) - 1))


def _ends_cvc(word: str) -> bool:
    if len(word) < 3:
        return False
    if not (_is_consonant(word, len(word) - 3)
            and not _is_consonant(word, len(word) - 2)
            and _is_consonant(word, len(word) - 1)):
        return False
    return word[-1] not in "wxy"


def _replace_suffix(word: str, suffix: str, replacement: str,
                    minimum_measure: int) -> str | None:
    """Replace suffix when the remaining stem has measure > minimum."""
    if not word.endswith(suffix):
        return None
    stem_part = word[:len(word) - len(suffix)]
    if _measure(stem_part) > minimum_measure:
        return stem_part + replacement
    return word


def _step_1a(word: str) -> str:
    if word.endswith("sses"):
        return word[:-2]
    if word.endswith("ies"):
        return word[:-2]
    if word.endswith("ss"):
        return word
    if word.endswith("s"):
        return word[:-1]
    return word


def _step_1b(word: str) -> str:
    if word.endswith("eed"):
        stem_part = word[:-3]
        if _measure(stem_part) > 0:
            return word[:-1]
        return word
    changed = None
    if word.endswith("ed") and _contains_vowel(word[:-2]):
        changed = word[:-2]
    elif word.endswith("ing") and _contains_vowel(word[:-3]):
        changed = word[:-3]
    if changed is None:
        return word
    if changed.endswith(("at", "bl", "iz")):
        return changed + "e"
    if _ends_double_consonant(changed) and changed[-1] not in "lsz":
        return changed[:-1]
    if _measure(changed) == 1 and _ends_cvc(changed):
        return changed + "e"
    return changed


def _step_1c(word: str) -> str:
    if word.endswith("y") and _contains_vowel(word[:-1]):
        return word[:-1] + "i"
    return word


_STEP2_RULES = [
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"), ("iveness", "ive"),
    ("fulness", "ful"), ("ousness", "ous"), ("aliti", "al"),
    ("iviti", "ive"), ("biliti", "ble"),
]

_STEP3_RULES = [
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
]

_STEP4_SUFFIXES = [
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
]


def _step_2(word: str) -> str:
    for suffix, replacement in _STEP2_RULES:
        result = _replace_suffix(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step_3(word: str) -> str:
    for suffix, replacement in _STEP3_RULES:
        result = _replace_suffix(word, suffix, replacement, 0)
        if result is not None:
            return result
    return word


def _step_4(word: str) -> str:
    for suffix in _STEP4_SUFFIXES:
        if word.endswith(suffix):
            stem_part = word[:len(word) - len(suffix)]
            if _measure(stem_part) > 1:
                return stem_part
            return word
    if word.endswith("ion"):
        stem_part = word[:-3]
        if stem_part.endswith(("s", "t")) and _measure(stem_part) > 1:
            return stem_part
    return word


def _step_5a(word: str) -> str:
    if word.endswith("e"):
        stem_part = word[:-1]
        measure = _measure(stem_part)
        if measure > 1 or (measure == 1 and not _ends_cvc(stem_part)):
            return stem_part
    return word


def _step_5b(word: str) -> str:
    if (word.endswith("ll") and _measure(word[:-1]) > 1):
        return word[:-1]
    return word


@lru_cache(maxsize=_STEM_MEMO_WORDS)
def stem(word: str) -> str:
    """Return the Porter stem of an (already lowercased) word.

    A pure function of a short string, so memoised: a hot query's
    cache key re-stems the same few words on every hit, and a corpus
    repeats its vocabulary.  ``stem.__wrapped__`` is the algorithm.
    """
    if len(word) <= 2:
        return word
    word = _step_1a(word)
    word = _step_1b(word)
    word = _step_1c(word)
    word = _step_2(word)
    word = _step_3(word)
    word = _step_4(word)
    word = _step_5a(word)
    word = _step_5b(word)
    return word
