"""The idf push costs the query, not the vocabulary.

``patch_fragment_idf`` overrides a node's local idf with the weights the
coordinator pushed.  It used to rebuild every fragment's idf dict by
walking the node's whole vocabulary through ``T.find``; the comprehension
below is that body, kept as the oracle the O(query) patch must equal —
item for item, in order, and through ``min_idf``/``max_score_bound``.
A fragment a pushed term touches is read through an overlay of its own
dict, never a copy of it.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir.distributed import patch_fragment_idf
from repro.ir.fragmentation import fragment_by_idf
from repro.monetdb.bat import BAT

from tests.kernels.conftest import WORDS, build_relations

pytestmark = pytest.mark.kernels


def oracle_idf(fragment, relations, global_idf):
    return {term_oid: global_idf.get(relations.T.find(term_oid),
                                     fragment.idf[term_oid])
            for term_oid in fragment.term_oids}


# names the node knows, plus names it has never indexed
PUSHABLE = WORDS + ["absent", "nowhere", "zz9"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.dictionaries(st.sampled_from(PUSHABLE),
                       st.floats(min_value=0.0, max_value=20.0,
                                 allow_nan=False),
                       max_size=12))
def test_patched_idf_equals_the_oracle(global_idf):
    relations = build_relations()
    fragments = fragment_by_idf(relations, 4)
    patched = patch_fragment_idf(fragments, relations, global_idf)
    assert len(patched) == len(fragments)
    for original, view in zip(fragments, patched):
        copied = replace(original, idf=oracle_idf(original, relations,
                                                   global_idf))
        assert view.idf == copied.idf
        assert list(view.idf.items()) == [(term, copied.idf[term])
                                          for term in original.idf]
        assert view.min_idf() == copied.min_idf()
        assert [view.max_score_bound(term) for term in view.term_oids] \
            == [copied.max_score_bound(term) for term in view.term_oids]
        assert view.term_oids is original.term_oids
        assert view.packed is original.packed


def test_fragment_without_a_pushed_term_shares_its_dict(relations,
                                                        fragments):
    rare = max(fragments, key=lambda fragment: fragment.index)
    term = relations.T.find(next(iter(rare.term_oids)))
    patched = patch_fragment_idf(fragments, relations, {term: 9.5})
    for original, view in zip(fragments, patched):
        if original is rare:
            assert view.idf is not original.idf
            assert view.idf[relations.term_oid(term)] == 9.5
        else:
            assert view.idf is original.idf
    # the original weights are untouched
    assert rare.idf[relations.term_oid(term)] != 9.5


def test_patch_never_walks_the_vocabulary(relations, fragments,
                                          monkeypatch):
    calls = []
    find = BAT.find

    def counting_find(self, head):
        calls.append(head)
        return find(self, head)

    monkeypatch.setattr(BAT, "find", counting_find)
    global_idf = {"trophy": 0.9, "w0": 0.1, "absent": 3.0}
    patch_fragment_idf(fragments, relations, global_idf)
    assert calls == []
