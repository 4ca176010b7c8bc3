"""Tokenizer, stopper, analyzer."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.stemmer import stem
from repro.ir.text import (STOP_WORDS, analyze, analyzer_config, normalize,
                           tokenize)
from tests.ir import text_oracle

# where a regex and the per-character loop could part ways: the
# underscore (``\w`` but not alnum), apostrophes single, doubled and at
# word edges, capital sigma (word-final folds differently under
# ``str.lower``), letters whose lowercase is longer or titlecased,
# numerals that are alnum but not ASCII digits, combining marks, breaks
EDGES = ["_", "'", "’", "''", "'’", "a'", "'b", "Σ", "ΑΣ", "Σα", "σ", "ς",
         "İ", "ǅ", "Ⅻ", "²", "٣", "٠١", "́", "é", "̇",
         "\n", " ", "x", "Z", "7"]
_edgy_text = st.lists(st.one_of(st.sampled_from(EDGES), st.characters()),
                      max_size=40).map("".join)


class TestTokenize:
    def test_splits_on_punctuation(self):
        assert tokenize("Hello, world! It's me.") \
            == ["hello", "world", "its", "me"]

    def test_intra_word_apostrophes_joined(self):
        # "don't" must not shed one-letter junk tokens into the index
        assert tokenize("don't") == ["dont"]
        assert tokenize("O'Brien's serve") == ["obriens", "serve"]
        # the unicode right single quote behaves identically
        assert tokenize("it’s") == ["its"]

    def test_edge_apostrophes_still_separate(self):
        assert tokenize("'quoted'") == ["quoted"]
        assert tokenize("rock 'n roll") == ["rock", "n", "roll"]
        assert tokenize("ends'") == ["ends"]

    def test_lowercases(self):
        assert tokenize("Monica SELES") == ["monica", "seles"]

    def test_keeps_digits(self):
        assert tokenize("won in 1991") == ["won", "in", "1991"]

    def test_empty_text(self):
        assert tokenize("") == []
        assert tokenize("  ...  ") == []


class TestNormalize:
    def test_stop_words_dropped(self):
        assert normalize("the") is None
        assert normalize("and") is None

    def test_content_words_stemmed(self):
        assert normalize("winners") == "winner"
        assert normalize("approaching") == "approach"

    def test_self_contained_on_raw_input(self):
        # callers bypassing tokenize (the rich-query parser) hand in
        # raw case: normalize must lowercase before stopping/stemming
        assert normalize("The") is None
        assert normalize("WINNERS") == "winner"
        assert normalize("") is None


class TestAnalyze:
    def test_pipeline(self):
        terms = analyze("The winner approaches the net")
        assert "the" not in terms
        assert "winner" in terms
        assert "approach" in terms
        assert "net" in terms

    def test_stability(self):
        assert analyze("Winner!") == analyze("winner")

    def test_stopword_only_text(self):
        assert analyze("the and of to") == []


def test_stop_words_are_removed_before_stemming():
    # the documented example: "one" is no stop word, so it is indexed,
    # and its stem happens to spell the stop word "on" — the stopper
    # never sees stems
    assert "one" not in STOP_WORDS and "on" in STOP_WORDS
    assert analyze("ONE") == ["on"]


@given(st.text(max_size=200))
def test_analyze_stops_before_it_stems(text):
    assert analyze(text) == [stem(word) for word in tokenize(text)
                             if word not in STOP_WORDS]


@given(st.text(max_size=200))
def test_tokens_are_lowercase_alnum(text):
    for token in tokenize(text):
        assert token == token.lower()
        assert token.isalnum()


@settings(max_examples=1000, derandomize=True)
@given(st.one_of(_edgy_text, st.text(max_size=200)))
def test_tokenize_equals_the_per_character_loop(text):
    assert tokenize(text) == text_oracle.tokenize(text)


def test_capital_sigma_folds_per_character():
    # str.lower("ΟΔΟΣ") ends in "ς"; the vocabulary has always held "σ"
    assert tokenize("ΟΔΟΣ ΣΑΣ") == ["οδοσ", "σασ"]
    assert analyze("ΟΔΟΣ ΣΑΣ") == text_oracle.analyze("ΟΔΟΣ ΣΑΣ")


def test_analyzer_config_is_pinned():
    # static artifacts compare this at load: the regex tokenizer is the
    # same tokenizer, so the fingerprint must not move
    assert analyzer_config() == {
        "tokenizer": "alnum-lower-apostrophe-joining",
        "stemmer": "porter-1980",
        "stop_words": 124,
        "stop_words_sha256": "ad996f782762541585cf4301ab194fd0666a67ab67"
                             "ba076553185dd44147e4cc",
    }


@given(st.text(max_size=200))
def test_analyze_is_normalize_of_tokenize(text):
    # the documented contract: the one-shot pipeline is exactly the
    # composition of its stages (so parsers may call normalize alone)
    assert analyze(text) \
        == [term for term in map(normalize, tokenize(text)) if term]
