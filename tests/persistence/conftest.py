"""Shared fixtures for the crash-safe snapshot & recovery suite."""

import pytest

from repro.core.config import EngineConfig, ExecutionPolicy
from repro.core.engine import SearchEngine
from repro.persistence import save_engine
from repro.web.ausopen import build_ausopen_site
from repro.webspace.schema import australian_open_schema


def build_engine(cluster_size=1, **config_overrides):
    """A small populated engine over a fresh synthetic site."""
    server, truth = build_ausopen_site(players=6, articles=4, videos=2,
                                       frames_per_shot=4)
    config = EngineConfig(fragment_count=3, cluster_size=cluster_size,
                          **config_overrides)
    engine = SearchEngine(australian_open_schema(), server, config)
    engine.populate()
    return engine, server, truth


@pytest.fixture(scope="module")
def populated():
    """(engine, server, truth) for a populated single-node engine."""
    return build_engine()


@pytest.fixture(scope="module")
def snapshot_root(populated, tmp_path_factory):
    """A snapshot root holding one committed checkpoint of ``populated``."""
    engine, _, _ = populated
    root = tmp_path_factory.mktemp("snapshot-root")
    save_engine(engine, root)
    return root


@pytest.fixture(scope="module")
def full_config():
    """An EngineConfig with non-default values across the board.

    An old manifest dropped ``cluster_size`` and the whole execution
    policy; this config sets every field, so any dropped field shows up
    as an equality failure.
    """
    return EngineConfig(
        fragment_count=5,
        top_n=7,
        cluster_size=3,
        crawl_seed="players.html",
        execution=ExecutionPolicy(n=7, prune=False, max_workers=2,
                                  node_deadline_ms=250.0, retries=1,
                                  backoff_ms=5.0, on_failure="degrade",
                                  cache=True, cache_size=64),
    )
