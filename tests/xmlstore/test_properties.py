"""Property-based tests: the Monet transform's core guarantees.

Random document trees are shredded and reconstructed; serialisation and
parsing round-trip; deletion restores the store exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlstore.model import Element, element, isomorphic
from repro.xmlstore.sax import parse_document
from repro.xmlstore.store import XmlStore
from repro.xmlstore.writer import serialize

_tags = st.sampled_from(["a", "b", "c", "item", "node"])
_attr_names = st.sampled_from(["k", "id", "href"])
# texts avoid pure whitespace (the tokenizer suppresses it by design)
_texts = st.text(
    alphabet=st.characters(codec="utf-8",
                           blacklist_categories=("Cs", "Cc")),
    min_size=1, max_size=12).filter(lambda s: s.strip())


@st.composite
def _documents(draw, depth: int = 3) -> Element:
    tag = draw(_tags)
    attr_count = draw(st.integers(0, 2))
    attributes = {}
    for _ in range(attr_count):
        attributes[draw(_attr_names)] = draw(_texts)
    node = Element(tag, attributes)
    if depth > 0:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                node.children.append(draw(_documents(depth=depth - 1)))
            else:
                # adjacent text nodes are indistinguishable after
                # serialisation (XML merges them); never generate two in
                # a row, like any real document writer
                from repro.xmlstore.model import Text
                if node.children and isinstance(node.children[-1], Text):
                    continue
                node.add_text(draw(_texts))
    return node


@settings(max_examples=60, deadline=None)
@given(_documents())
def test_shred_reconstruct_is_isomorphic(doc):
    store = XmlStore()
    store.insert("doc", doc)
    assert isomorphic(store.reconstruct("doc"), doc)


@settings(max_examples=60, deadline=None)
@given(_documents())
def test_serialize_parse_round_trip(doc):
    assert isomorphic(parse_document(serialize(doc)), doc)


@settings(max_examples=30, deadline=None)
@given(st.lists(_documents(), min_size=1, max_size=4))
def test_many_documents_reconstruct_independently(docs):
    store = XmlStore()
    for index, doc in enumerate(docs):
        store.insert(f"d{index}", doc)
    for index, doc in enumerate(docs):
        assert isomorphic(store.reconstruct(f"d{index}"), doc)


@settings(max_examples=40, deadline=None)
@given(st.lists(_documents(), min_size=1, max_size=3))
def test_path_reads_equal_the_rebuilt_tree(docs):
    """The path-relation reads see what reconstruct rebuilds: per
    document, in document order, without rebuilding anything."""
    store = XmlStore()
    for index, doc in enumerate(docs):
        store.insert(f"d{index}", doc)
    for key in store.document_keys():
        tree = store.reconstruct(key)
        for tag in ("a", "b", "c", "item", "node"):
            nodes = [node for node in tree.iter()
                     if getattr(node, "tag", None) == tag]
            refs = store.elements(key, tag)
            assert [(store.text(ref), store.deep_text(ref))
                    for ref in refs] \
                == [(node.text(), node.deep_text()) for node in nodes]
            assert [[store.attribute(ref, name) for name in ("k", "id")]
                    for ref in refs] \
                == [[node.attributes.get(name) for name in ("k", "id")]
                    for node in nodes]
            assert [[child.tag for child in store.children(ref)]
                    for ref in refs] \
                == [[child.tag for child in node.element_children()]
                    for node in nodes]
        root = store.elements(key, tree.tag)[0]
        for ref in store.elements(key, "node") + store.elements(key, "b"):
            ancestors = store.ancestors(ref)
            if ref == root:
                assert ancestors == []
                continue
            assert ref in store.children(ancestors[0])
            assert ancestors[-1] == root
            assert [ancestor.path for ancestor in ancestors] \
                == [ancestor.path.parent for ancestor in [ref, *ancestors]
                    if ancestor.path.parent is not None]


@settings(max_examples=30, deadline=None)
@given(_documents(), _documents())
def test_delete_restores_bun_counts(first, second):
    store = XmlStore()
    store.insert("keep", first)
    buns_before = store.catalog.total_buns()
    store.insert("gone", second)
    store.delete("gone")
    assert store.catalog.total_buns() == buns_before
    assert isomorphic(store.reconstruct("keep"), first)


@settings(max_examples=40, deadline=None)
@given(_documents())
def test_bulkload_stack_depth_bounded_by_height(doc):
    store = XmlStore()
    store.insert("doc", doc)
    # O(height) memory claim: the loader's peak stack never exceeds the
    # document height (+1 frame while a pcdata node is being entered)
    assert store.stats.peak_stack_depth <= doc.height() + 1


@settings(max_examples=40, deadline=None)
@given(_documents())
def test_node_count_matches_tree_size(doc):
    store = XmlStore()
    store.insert("doc", doc)
    assert store.stats.nodes == doc.size()


def test_example_roundtrip_with_namespaced_entities():
    doc = element("a", {"q": 'say "hi" & <bye>'},
                  element("b", None, "x & y < z"))
    store = XmlStore()
    store.insert("d", doc)
    assert isomorphic(store.reconstruct("d"), doc)
    assert isomorphic(parse_document(serialize(doc)), doc)


def _delete_node_by_node(store: XmlStore, key: str) -> None:
    """The reference: one ``delete_head`` per node per relation, as the
    store deleted before it batched the doomed oids per relation."""
    from repro.xmlstore.shredder import SYS_RELATION

    def subtree(context, oid):
        for name in context.attribute_names:
            relation = store.catalog.get_or_none(
                context.attribute_relation(name))
            if relation is not None:
                relation.delete_head(oid)
        if context.is_pcdata():
            cdata = store.catalog.get_or_none(context.cdata_relation())
            if cdata is not None:
                cdata.delete_head(oid)
        for child_context in context.children.values():
            edges = store.catalog.get_or_none(child_context.edge_relation())
            if edges is None:
                continue
            ranks = store.catalog.get_or_none(child_context.rank_relation())
            for child_oid in edges.find_all(oid):
                subtree(child_context, child_oid)
                if ranks is not None:
                    ranks.delete_head(child_oid)
            edges.delete_head(oid)

    root = store.root_oid(key)
    sys_relation = store.catalog.get(SYS_RELATION)
    subtree(store.summary.get_root(sys_relation.find(root)), root)
    sys_relation.delete_head(root)
    store.catalog.get("docs").delete_head(root)


@settings(max_examples=40, deadline=None)
@given(st.lists(_documents(), min_size=1, max_size=4), st.data())
def test_batched_delete_equals_node_by_node_delete(docs, data):
    doomed = data.draw(st.integers(0, len(docs) - 1))
    batched, reference = XmlStore(), XmlStore()
    for store in (batched, reference):
        for index, doc in enumerate(docs):
            store.insert(f"d{index}", doc)
    batched.delete(f"d{doomed}")
    _delete_node_by_node(reference, f"d{doomed}")
    assert batched.catalog.names() == reference.catalog.names()
    for name in batched.catalog.names():
        assert list(batched.catalog.get(name)) == \
            list(reference.catalog.get(name)), name
    for index, doc in enumerate(docs):
        if index != doomed:
            assert isomorphic(batched.reconstruct(f"d{index}"), doc)
