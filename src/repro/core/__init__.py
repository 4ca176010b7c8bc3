"""The paper's primary contribution: the integrated three-level engine.

Public surface:

* :class:`~repro.core.engine.SearchEngine` — model / populate /
  maintain / query, over all three levels,
* :class:`~repro.core.config.EngineConfig`,
* :mod:`~repro.core.results` — result rows with shots and scores,
* :mod:`~repro.core.translate` — conceptual-to-physical translation.
"""

from repro.core.config import EngineConfig
from repro.core.plan import PlanNode, format_plan
from repro.core.engine import PopulationReport, RecrawlReport, SearchEngine
from repro.core.results import QueryResult, ResultRow, ShotRange
from repro.core.translate import ConceptualIndex, execute_query

__all__ = [
    "SearchEngine", "PopulationReport", "RecrawlReport", "EngineConfig",
    "save_engine", "load_engine", "PlanNode", "format_plan",
    "QueryResult", "ResultRow", "ShotRange",
    "ConceptualIndex", "execute_query",
]


def __getattr__(name):
    # lazy (PEP 562): the snapshot code lives in repro.persistence,
    # which imports this package — an eager import here would cycle
    if name in ("save_engine", "load_engine"):
        from repro.persistence import engine
        return getattr(engine, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
