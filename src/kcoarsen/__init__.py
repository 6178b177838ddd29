"""Graph coarsening via maximal k-independent set selection.

Pick a ranking, select a maximal set of nodes pairwise more than k hops
apart, cluster every node to its best centroid within k hops, and
contract each cluster to one coarse node.  The coarse graph preserves
connectivity exactly and hop distances up to bounded distortion.

The package root exports the pipeline: graphs and their IO, the ranking
resolver, selection, clustering, reduction and verification.  Everything
else is imported from its own module (``kcoarsen.graph``,
``kcoarsen.ranking``, ``kcoarsen.oracle``, ``kcoarsen.verify``, ...).
"""

from .coarsen import CoarsenedGraph, cluster, coarsen_pipeline, reduce
from .graph import Graph, GraphFormatError, build, load, store
from .kmis import KMisResult, k_mis
from .ranking import resolve_ranking
from .verify import VerificationReport, verify_reduction

__version__ = "0.1.0"

__all__ = [
    "CoarsenedGraph",
    "Graph",
    "GraphFormatError",
    "KMisResult",
    "VerificationReport",
    "build",
    "cluster",
    "coarsen_pipeline",
    "k_mis",
    "load",
    "reduce",
    "resolve_ranking",
    "store",
    "verify_reduction",
]
