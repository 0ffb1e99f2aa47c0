"""repro -- a from-scratch reproduction of DIALITE (SIGMOD '23):
Discover, Align and Integrate Open Data Tables.

The public surface in one import::

    from repro import Dialite, Table, DataLake

    pipeline = Dialite(DataLake.from_dir("lake/")).fit()
    outcome = pipeline.discover(query, k=5, query_column="City")
    integrated = pipeline.integrate(outcome)
    pipeline.analyze(integrated, "entity_resolution")

Subpackages (each usable standalone):

- :mod:`repro.table` -- null-aware table engine + relational operators
- :mod:`repro.text` / :mod:`repro.embeddings` / :mod:`repro.sketch` -- kernels
- :mod:`repro.candidates` -- the shared candidate-generation engine
  (inverted postings + sketch prefilter; the sublinear half of search)
- :mod:`repro.discovery` -- SANTOS, LSH Ensemble, JOSIE, user-defined search
- :mod:`repro.alignment` -- ALITE's holistic schema matching
- :mod:`repro.integration` -- Full Disjunction (ALITE + baselines), joins
- :mod:`repro.er` -- entity resolution
- :mod:`repro.analysis` -- downstream apps and quality metrics
- :mod:`repro.datalake` -- catalogs, indexing, synthetic benchmark lakes
- :mod:`repro.store` -- persistent lake store (versioned columnar segments
  + stats/sketch snapshots, incremental ingest, warm-start discovery)
- :mod:`repro.service` -- the concurrent query-serving layer (worker
  pool, versioned result cache, single-flight, live store reload)
- :mod:`repro.genquery` -- prompt-to-table generation
- :mod:`repro.core` -- the pipeline itself
"""

from .candidates import CandidateEngine, CandidateSpec
from .core.pipeline import Dialite
from .core.results import DiscoveryOutcome, PipelineResult
from .datalake.catalog import DataLake
from .integration.tuples import IntegratedTable
from .service import LakeServer, LakeService, ServiceClient
from .store.lakestore import LakeStore
from .table.table import Table
from .table.values import MISSING, PRODUCED

__version__ = "1.2.0"

__all__ = [
    "Dialite",
    "Table",
    "DataLake",
    "LakeStore",
    "LakeService",
    "LakeServer",
    "ServiceClient",
    "CandidateEngine",
    "CandidateSpec",
    "IntegratedTable",
    "DiscoveryOutcome",
    "PipelineResult",
    "MISSING",
    "PRODUCED",
    "__version__",
]
