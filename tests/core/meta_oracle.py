"""Reference meta-index probes: rebuild the parse tree, then walk it.

These are the two walks ``SearchEngine`` ran before its hooks read the
path relations directly.  They stay here, verbatim, as the oracle the
probe tests compare against.  One known difference: when an
``audio_kind`` element's first child is character data, the audio walk
raises ``AttributeError`` (text nodes have no tag); the probe reads the
first child *element* instead.
"""

from __future__ import annotations

from repro.xmlstore.store import XmlStore


def event_search(store: XmlStore, media_url: str, event: str
                 ) -> list[tuple[int, int]]:
    """Shots of a video in which an event holds."""
    if media_url not in store:
        return []
    ranges: list[tuple[int, int]] = []
    tree = store.reconstruct(media_url)
    for shot in tree.iter():
        if getattr(shot, "tag", None) != "shot":
            continue
        event_nodes = [node for node in shot.iter()
                       if getattr(node, "tag", None) == event]
        if not event_nodes:
            continue
        holds = any(node.text().strip() == "true"
                    and node.attributes.get("valid") != "false"
                    for node in event_nodes)
        if not holds:
            continue
        begin = shot.find("begin")
        end = shot.find("end")
        if begin is None or end is None:
            continue
        ranges.append((int(begin.deep_text().strip()),
                       int(end.deep_text().strip())))
    return ranges


def audio_search(store: XmlStore, media_url: str, kind: str
                 ) -> tuple[bool, list[tuple[float, float, int]]]:
    """Kind match + speaker turns of an audio object."""
    if media_url not in store:
        return False, []
    tree = store.reconstruct(media_url)
    kind_nodes = [node for node in tree.iter()
                  if getattr(node, "tag", None) == "audio_kind"]
    if not kind_nodes:
        return False, []
    matched = any(node.children and node.children[0].tag == kind
                  for node in kind_nodes)
    if not matched:
        return False, []
    speaker_turns: list[tuple[float, float, int]] = []
    for turn in tree.iter():
        if getattr(turn, "tag", None) != "turn":
            continue
        values = [child.deep_text().strip()
                  for child in turn.element_children()]
        if len(values) == 3:
            speaker_turns.append((float(values[0]), float(values[1]),
                                  int(values[2])))
    return True, speaker_turns
