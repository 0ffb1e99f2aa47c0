"""Table integration: Full Disjunction (ALITE and baselines) plus the
comparison operators (outer/inner join, union).  Paper Sec. 2.2.

All integrators consume *aligned* tables (shared columns = integration IDs,
see :mod:`repro.alignment`) and produce provenance-carrying
:class:`IntegratedTable` results.
"""

from .alite import AliteFD, LegacyAliteFD, complementation_closure
from .base import Integrator
from .definition import OracleFD, enumerate_merges
from .explain import explain_fact, fact_lineage
from .intern import IntTuple, ValueInterner, solve_interned
from .nested_loop import NestedLoopFD
from .outerjoin import (
    InnerJoinIntegrator,
    OuterJoinIntegrator,
    UnionIntegrator,
    order_sensitivity,
)
from .subsume import (
    connected_components,
    dedupe_tuples,
    interned_remove_subsumed,
    remove_subsumed,
)
from .tuples import (
    IntegratedTable,
    WorkTuple,
    joinable,
    merge_tuples,
    normalized_key,
    prepare_integration_input,
    subsumes,
)

__all__ = [
    "Integrator",
    "AliteFD",
    "LegacyAliteFD",
    "NestedLoopFD",
    "OracleFD",
    "ValueInterner",
    "IntTuple",
    "solve_interned",
    "interned_remove_subsumed",
    "OuterJoinIntegrator",
    "InnerJoinIntegrator",
    "UnionIntegrator",
    "IntegratedTable",
    "WorkTuple",
    "joinable",
    "merge_tuples",
    "subsumes",
    "normalized_key",
    "prepare_integration_input",
    "complementation_closure",
    "connected_components",
    "enumerate_merges",
    "dedupe_tuples",
    "remove_subsumed",
    "order_sensitivity",
    "explain_fact",
    "fact_lineage",
]
