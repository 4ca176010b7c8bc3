"""The rich-query parser: grammar, analysis, error handling."""

import pytest

from repro.errors import QueryError
from repro.ir.text import analyze
from repro.query.parser import MAX_NESTING
from repro.query import (And, Not, Or, ParsedQuery, Phrase, Range, Term,
                        parse_rich_query)

pytestmark = pytest.mark.query


def parse(source: str):
    return parse_rich_query(source).root


class TestBagOfWords:
    def test_adjacent_words_are_or(self):
        root = parse("digital library")
        assert isinstance(root, Or)
        assert root.children == (Term("digit"), Term("librari"))

    def test_single_word(self):
        assert parse("database") == Term("databas")

    def test_words_are_analyzed(self):
        # "The" is a stop word, "Winners" stems
        assert parse("The Winners") == Term("winner")

    def test_stop_word_only_query_is_empty(self):
        assert parse("the of and") is None
        assert parse_rich_query("the of").token() == ("empty",)

    def test_multi_token_word_becomes_implicit_phrase(self):
        root = parse("mother-in-law")
        assert isinstance(root, Phrase)
        assert root.words == tuple(analyze("mother-in-law"))


class TestBooleans:
    def test_uppercase_and(self):
        root = parse("database AND retrieval")
        assert root == And((Term("databas"), Term("retriev")))

    def test_lowercase_and_is_a_stop_word(self):
        assert parse("database and retrieval") \
            == Or((Term("databas"), Term("retriev")))

    def test_explicit_or(self):
        assert parse("database OR retrieval") \
            == Or((Term("databas"), Term("retriev")))

    def test_not(self):
        assert parse("NOT database") == Not(Term("databas"))

    def test_adjacent_not_binds_as_and(self):
        # "tennis NOT golf" means tennis AND NOT golf
        assert parse("tennis NOT golf") \
            == And((Term("tenni"), Not(Term("golf"))))

    def test_parentheses_group(self):
        root = parse("(database OR retrieval) AND ranking")
        assert root == And((Or((Term("databas"), Term("retriev"))),
                            Term("rank")))

    def test_dangling_operator_is_an_error(self):
        with pytest.raises(QueryError):
            parse("database AND")
        with pytest.raises(QueryError):
            parse("OR database")

    def test_unbalanced_paren_is_an_error(self):
        with pytest.raises(QueryError):
            parse("(database OR retrieval")


class TestNestingBound:
    """Regression: a nesting bomb raised ``RecursionError`` (an
    ``internal`` error on the wire); it is a typed ``QueryError``."""

    @pytest.mark.parametrize("source", [
        "(" * 5000 + "hello" + ")" * 5000,
        "NOT " * 5000 + "hello",
        "title:" + "(" * 5000 + "hello" + ")" * 5000,
        "(NOT " * 40 + "hello" + ")" * 40,
    ])
    def test_a_nesting_bomb_is_a_query_error(self, source):
        with pytest.raises(QueryError, match="nests deeper than"):
            parse(source)

    def test_the_bound_itself_still_parses(self):
        deep = parse("(" * MAX_NESTING + "hello" + ")" * MAX_NESTING)
        assert deep == Term("hello")
        negated = parse("NOT " * MAX_NESTING + "hello")
        for _ in range(MAX_NESTING):
            assert isinstance(negated, Not)
            negated = negated.child
        assert negated == Term("hello")

    def test_depth_is_nesting_not_a_count_of_groups(self):
        wide = " ".join(["(a1 OR (b2))"] * (MAX_NESTING * 2))
        assert isinstance(parse(wide), Or)


class TestPhrases:
    def test_quoted_phrase(self):
        root = parse('"digital library"')
        assert root == Phrase(("digit", "librari"))

    def test_phrase_words_are_analyzed(self):
        # stop words vanish before positions apply
        assert parse('"winner of the open"') == Phrase(("winner", "open"))

    def test_one_word_phrase_is_a_term(self):
        assert parse('"database"') == Term("databas")

    def test_unterminated_phrase_is_an_error(self):
        with pytest.raises(QueryError):
            parse('"digital library')


class TestFieldsBoostsRanges:
    def test_fielded_term(self):
        assert parse("title:database") == Term("databas", field="title")

    def test_field_names_lowercase(self):
        assert parse("TITLE:database") == Term("databas", field="title")

    def test_fielded_phrase(self):
        assert parse('title:"digital library"') \
            == Phrase(("digit", "librari"), field="title")

    def test_field_distributes_over_group(self):
        root = parse("title:(database retrieval)")
        assert root == Or((Term("databas", field="title"),
                           Term("retriev", field="title")))

    def test_boost(self):
        assert parse("title:database^4") \
            == Term("databas", field="title", boost=4.0)

    def test_boost_on_group_multiplies(self):
        root = parse("(database^2 retrieval)^3")
        assert root == Or((Term("databas", boost=6.0),
                           Term("retriev", boost=3.0)))

    def test_boost_without_number_is_an_error(self):
        with pytest.raises(QueryError):
            parse("database^")

    def test_range(self):
        assert parse("year:1990-2001") \
            == Range(field="year", low=1990.0, high=2001.0)

    def test_open_ended_ranges(self):
        assert parse("year:1990-") == Range("year", 1990.0, None)
        assert parse("year:-2001") == Range("year", None, 2001.0)

    def test_field_without_value_is_an_error(self):
        with pytest.raises(QueryError):
            parse("title:")


class TestTokens:
    def test_same_query_same_token(self):
        assert parse_rich_query("title:database^4").token() \
            == parse_rich_query("title:database^4").token()

    def test_different_field_different_token(self):
        assert parse_rich_query("title:database").token() \
            != parse_rich_query("abstract:database").token()

    def test_different_boost_different_token(self):
        assert parse_rich_query("database^2").token() \
            != parse_rich_query("database^3").token()

    def test_parsed_query_is_hashable(self):
        assert isinstance(hash(parse_rich_query("a AND b").token()), int)
        assert isinstance(parse_rich_query("x"), ParsedQuery)
