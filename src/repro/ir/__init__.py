"""Full-text information retrieval with the paper's optimization hooks.

Public surface:

* :class:`~repro.ir.engine.IrEngine` — single-node facade,
* :class:`~repro.ir.distributed.DistributedIndex` — cluster retrieval,
* :class:`~repro.ir.relations.IrRelations` — the T/D/DT/TF/IDF relations,
* :mod:`~repro.ir.ranking`, :mod:`~repro.ir.topn`,
  :mod:`~repro.ir.fragmentation` — ranking and top-N optimization,
* :func:`~repro.ir.stemmer.stem`, :func:`~repro.ir.text.analyze` — text
  normalisation.
"""

from repro.ir.distributed import DistributedIndex, DistributedQueryResult
from repro.ir.engine import IrEngine
from repro.ir.fragmentation import Fragment, FragmentSet, fragment_by_idf
from repro.ir.ranking import rank_tfidf
from repro.ir.relations import IrRelations
from repro.ir.selectivity import CutoffPlan, QueryCostModel
from repro.ir.stemmer import stem
from repro.ir.text import STOP_WORDS, analyze, tokenize
from repro.ir.topn import TopNResult, quality_degrade, topn_cutoff, topn_fragmented

__all__ = [
    "IrEngine", "DistributedIndex", "DistributedQueryResult", "IrRelations",
    "Fragment", "FragmentSet", "fragment_by_idf",
    "rank_tfidf",
    "TopNResult", "topn_fragmented", "topn_cutoff", "quality_degrade",
    "stem", "analyze", "tokenize", "STOP_WORDS",
    "QueryCostModel", "CutoffPlan",
]
