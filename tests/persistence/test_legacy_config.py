"""A manifest written when the engine config named its ranking model.

tf·idf is the one ranking model, so ``EngineConfig`` has no
``ranking_model`` field.  An older manifest records
``"ranking_model": "tfidf"``: it loads, and its engine answers exactly as
the engine that wrote it.  A manifest that names another model — the
language model that was removed — is refused with a typed
:class:`~repro.errors.SnapshotError` naming the field, through both
loaders that read an engine config: :func:`~repro.persistence.load_engine`
and :class:`~repro.offline.StaticIndexReader`.
"""

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.errors import SnapshotError
from repro.persistence import config_from_dict, config_to_dict
from repro.service.api import (MODE_CONTENT, MODE_FRAGMENTED,
                               SCHEMA_VERSION_V2, SearchRequest)

from tests.persistence.test_object_matrix import (artifact_object,
                                                  snapshot_object)

REQUESTS = [
    SearchRequest(query="champion trophy winner", mode=MODE_CONTENT,
                  policy=ExecutionPolicy(n=5)),
    SearchRequest(query="champion trophy winner", mode=MODE_FRAGMENTED,
                  policy=ExecutionPolicy(n=5)),
    SearchRequest(query="champion OR final", mode=MODE_CONTENT,
                  schema_version=SCHEMA_VERSION_V2, offset=1, limit=3,
                  sort=(("url", "asc"),), facets=("class",)),
]

KINDS = [pytest.param(snapshot_object, marks=pytest.mark.persistence,
                      id="snapshot"),
         pytest.param(artifact_object, marks=pytest.mark.offline,
                      id="artifact")]


def with_model(model):
    def mutate(manifest):
        manifest["config"]["ranking_model"] = model
        return manifest
    return mutate


def answers(engine) -> list:
    """Each request's response as a dict, without its timings."""
    ir = getattr(engine, "ir", engine)  # a SearchEngine or a reader
    responses = [ir.execute(request).to_dict() for request in REQUESTS]
    for response in responses:
        response.pop("timings")
    return responses


@pytest.mark.persistence
def test_the_config_reader_drops_tfidf_and_refuses_any_other_model():
    config = EngineConfig(fragment_count=5, top_n=7)
    data = config_to_dict(config)
    assert "ranking_model" not in data
    assert config_from_dict({**data, "ranking_model": "tfidf"}) == config
    with pytest.raises(SnapshotError, match="ranking_model 'hiemstra'"):
        config_from_dict({**data, "ranking_model": "hiemstra"})


@pytest.mark.parametrize("saved", KINDS)
def test_an_older_tfidf_config_loads_and_answers_as_before(
        saved, populated, tmp_path):
    engine, _, _ = populated
    obj = saved(populated, tmp_path)
    obj.edit_manifest(with_model("tfidf"))
    assert answers(obj.load()) == answers(engine)


@pytest.mark.parametrize("saved", KINDS)
def test_another_ranking_model_is_a_typed_error_naming_the_field(
        saved, populated, tmp_path):
    obj = saved(populated, tmp_path)
    obj.edit_manifest(with_model("hiemstra"))
    with pytest.raises(SnapshotError, match="ranking_model 'hiemstra'"):
        obj.load()
