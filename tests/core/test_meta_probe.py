"""Meta-index probes read path relations, never a rebuilt parse tree.

``SearchEngine._event_search``/``_audio_search`` answer from the
meta-store's path relations; ``meta_oracle`` holds the tree walks they
replaced.  The two must agree on random parse-tree shapes and on every
AusOpen object — also after maintenance, a delete and a restart — and
a probe's cost must follow the shots it answers, not the frames the
video has.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.persistence import load_engine, save_engine
from repro.service import SearchRequest, SearchService
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema
from repro.xmlstore.model import Element, Text
from repro.xmlstore.store import XmlStore

from tests.core import meta_oracle

RUNNING_EXAMPLE = (
    "SELECT p.name, v.title FROM Player p, Video v "
    "WHERE p.gender = 'female' AND p.plays = 'left' "
    "AND p.history CONTAINS 'Winner' AND v Features p "
    "AND v.video EVENT netplay TOP 50")
AUDIO_KINDS = ("speech", "music", "absent")


def _probe(store: XmlStore):
    """An object the engine's hooks can run on: just a meta store."""
    return SimpleNamespace(meta_store=store)


def assert_parity(store: XmlStore, events, kinds=AUDIO_KINDS) -> None:
    holder = _probe(store)
    for key in [*store.document_keys(), "http://nowhere/missing.mpg"]:
        for event in events:
            assert SearchEngine._event_search(holder, key, event) \
                == meta_oracle.event_search(store, key, event), (key, event)
        for kind in kinds:
            assert SearchEngine._audio_search(holder, key, kind) \
                == meta_oracle.audio_search(store, key, kind), (key, kind)


def _tags(store: XmlStore) -> list[str]:
    """Every element tag of the store's path summary, plus an absent one."""
    tags = {node.tag for node in store.summary.walk()
            if not node.is_pcdata()}
    return sorted(tags) + ["absent"]


# -- random parse-tree shapes ---------------------------------------------

_EVENTS = ("netplay", "baseline")
# direct text of an event element; None is an element between two texts
_TRUTHS = st.sampled_from([
    ["true"], [" true "], [" tr", "ue "], [" t", None, "rue"], ["false"],
    ["true", "true"], [], [None]])


@st.composite
def _event(draw) -> Element:
    node = Element(draw(st.sampled_from(_EVENTS)))
    if draw(st.integers(0, 3)) == 0:
        node.attributes["valid"] = "false"
    for part in draw(_TRUTHS):
        node.append(Element("x") if part is None else Text(part))
    return node


@st.composite
def _bound(draw, tag: str) -> Element:
    """A number split over direct and nested cdata, in either order."""
    digits = str(draw(st.integers(0, 999)))
    cut = draw(st.integers(0, len(digits)))
    head, tail = " " + digits[:cut], digits[cut:] + " "
    node = Element(tag)
    if draw(st.booleans()):
        node.add_element("frameNo").add_text(head)
        node.add_text(tail)
    else:
        node.add_text(head)
        node.add_element("frameNo").add_text(tail)
    return node


@st.composite
def _element(draw, depth: int) -> Element:
    """A shot (mostly with both bounds), or a non-shot wrapper."""
    node = Element(draw(st.sampled_from(["shot", "shot", "type"])))
    children = []
    if node.tag == "shot":
        children += [draw(_bound(tag)) for tag in ("begin", "end")
                     if draw(st.integers(0, 5))]
    kinds = ["event", "text"] + (["nested"] * 2 if depth else [])
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=3)):
        if kind == "event":
            children.append(draw(_event()))
        elif kind == "text":
            children.append(Text(draw(st.sampled_from(["true", " 7 ",
                                                       "x"]))))
        else:
            children.append(draw(_element(depth - 1)))
    for child in draw(st.permutations(children)):
        node.append(child)
    return node


@st.composite
def _videos(draw) -> Element:
    """Shots nested in shots, events at any depth and outside any shot,
    missing or repeated begin/end."""
    root = Element("MMO")
    for child in draw(st.lists(st.one_of(_element(3), _event()),
                               min_size=1, max_size=3)):
        root.append(child)
    return root


@st.composite
def _turn(draw) -> Element:
    turn = Element("turn")
    for tag in draw(st.lists(st.sampled_from(["startSec", "endSec",
                                              "speakerId"]),
                             min_size=2, max_size=4)):
        turn.append(draw(_bound(tag)))
    return turn


@st.composite
def _audios(draw) -> Element:
    """Kinds with zero, one or two children; turns at two depths."""
    features = Element("audio_features")
    for _ in range(draw(st.integers(0, 2))):
        kind = features.add_element("audio_kind")
        for tag in draw(st.lists(st.sampled_from(["speech", "music"]),
                                 max_size=2)):
            kind.add_element(tag).add_text(tag)
    features.children += draw(st.lists(_turn(), max_size=2))
    root = Element("MMO")
    for child in draw(st.permutations(
            [features, *draw(st.lists(_turn(), max_size=2))])):
        root.append(child)
    return root


@settings(max_examples=120)
@given(st.lists(st.one_of(_videos(), _audios()), min_size=1, max_size=3))
def test_probes_equal_the_oracle(documents):
    """Documents share paths; after a delete the rest still agree."""
    store = XmlStore()
    for index, document in enumerate(documents):
        store.insert(f"m{index}", document)
    events = [*_EVENTS, "shot", "type", "absent"]
    assert_parity(store, events)
    store.delete("m0")
    assert_parity(store, events)


# -- AusOpen ------------------------------------------------------------------

def _engine(frames_per_shot: int = 6, videos: int = 3):
    server, truth = build_ausopen_site(players=8, articles=4, videos=videos,
                                       frames_per_shot=frames_per_shot)
    engine = SearchEngine(australian_open_schema(), server, EngineConfig())
    engine.populate()
    return engine, server, truth


@pytest.fixture
def ausopen():
    return _engine()


class TestAusOpenParity:
    def test_every_object_every_event_and_kind(self, ausopen):
        engine, _, _ = ausopen
        assert_parity(engine.meta_store, _tags(engine.meta_store))

    def test_after_a_detector_bump(self, ausopen):
        engine, _, _ = ausopen
        before = engine.meta_store.generation
        engine.upgrade_detector("tennis", "1.1.0")
        engine.maintain()
        assert engine.meta_store.generation > before  # trees replaced
        assert_parity(engine.meta_store, _tags(engine.meta_store))

    def test_after_a_delete(self, ausopen):
        engine, server, truth = ausopen
        engine.meta_store.delete(server.absolute(truth.videos[0].media_path))
        assert_parity(engine.meta_store, _tags(engine.meta_store))

    def test_on_a_restored_engine(self, ausopen, tmp_path):
        engine, server, _ = ausopen
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path, australian_open_schema(), server)
        assert_parity(restored.meta_store, _tags(restored.meta_store))
        url = engine.meta_store.document_keys()[-1]
        assert restored._event_search(url, "netplay") \
            == engine._event_search(url, "netplay")


# -- cost ---------------------------------------------------------------------

def _netplay_probe(frames_per_shot: int):
    engine, _, _ = _engine(frames_per_shot, videos=1)
    result = engine.query_text(
        "SELECT v.title FROM Video v WHERE v.video EVENT netplay TOP 5")
    (probe,) = result.plan.find("MetaProbe")
    return probe.counters, engine.meta_store.catalog.total_buns()


def test_probe_cost_does_not_grow_with_frames():
    """8x the frames per shot: a 4x larger meta-index, the same rows."""
    (few, few_buns), (many, many_buns) = (_netplay_probe(4),
                                          _netplay_probe(32))
    assert few["out"] == many["out"] == 1
    assert many_buns > 4 * few_buns
    assert few["tuples"] == many["tuples"] > 0


def test_no_query_reconstructs_a_tree(ausopen, monkeypatch):
    """The running example through the service, and an audio query
    (which the textual language cannot express) through the engine."""
    engine, _, truth = ausopen

    def refuse(self, key):
        raise AssertionError(f"reconstruct({key!r}) on the query path")

    monkeypatch.setattr(XmlStore, "reconstruct", refuse)
    with SearchService(engine) as service:
        response = service.search(SearchRequest(
            query=RUNNING_EXAMPLE, policy=ExecutionPolicy(cache=False)))
    assert sorted((row.keys["p"], row.keys["v"])
                  for row in response.result.rows) \
        == truth.mixed_query_answer()
    result = engine.query(
        engine.new_query().from_class("p", "Player")
        .audio_event("p.interview", "speech").select("p.name"))
    assert result.rows
