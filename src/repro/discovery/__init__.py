"""Table discovery: SANTOS union search, LSH Ensemble & JOSIE join search,
and the user-defined-similarity hook (the paper's Sec. 2.1).

All discoverers share the :class:`~repro.discovery.base.Discoverer` API:
``fit({name: Table})`` once, then ``search(query, k, query_column)``.
"""

from .base import Discoverer, DiscoveryResult, merge_result_sets
from .cocoa import CocoaConfig, CocoaJoinSearch
from .evaluation import (
    RankingReport,
    average_precision,
    evaluate_discoverer,
    evaluate_ranking,
    precision_at_k,
    recall_at_k,
)
from .custom import FunctionDiscoverer, inner_join_similarity, value_overlap_similarity
from .josie import JosieConfig, JosieJoinSearch
from .kb import KnowledgeBase, Relation, seed_knowledge_base
from .lshensemble import LSHEnsembleConfig, LSHEnsembleJoinSearch
from .santos import SantosConfig, SantosUnionSearch, TableAnnotation
from .starmie import StarmieConfig, StarmieUnionSearch
from .tus import TusConfig, TusUnionSearch

__all__ = [
    "Discoverer",
    "DiscoveryResult",
    "merge_result_sets",
    "KnowledgeBase",
    "Relation",
    "seed_knowledge_base",
    "SantosUnionSearch",
    "SantosConfig",
    "TableAnnotation",
    "LSHEnsembleJoinSearch",
    "LSHEnsembleConfig",
    "JosieJoinSearch",
    "JosieConfig",
    "StarmieUnionSearch",
    "StarmieConfig",
    "TusUnionSearch",
    "TusConfig",
    "CocoaJoinSearch",
    "CocoaConfig",
    "FunctionDiscoverer",
    "inner_join_similarity",
    "value_overlap_similarity",
    "precision_at_k",
    "recall_at_k",
    "average_precision",
    "RankingReport",
    "evaluate_ranking",
    "evaluate_discoverer",
]
