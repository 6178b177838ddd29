"""Graph coarsening via maximal k-independent set selection.

Pick a ranking, select a maximal set of nodes pairwise more than k hops
apart, cluster every node to its best centroid within k hops, and
contract each cluster to one coarse node.  The coarse graph preserves
connectivity exactly and hop distances up to bounded distortion.
"""

from .coarsen import (CoarsenedGraph, Partition, cluster, coarsen_pipeline,
                      reduce)
from .graph import (DEFAULT_ORACLE_CAP, Graph, GraphFormatError, NodeWeights,
                    bfs, build, connected_components, load, power, store)
from .kmis import KMisResult, k_mis
from .oracle import (EXACT_MWIS_CAP, OracleReport, compare, exact_mwis,
                     sequential_greedy_mwis)
from .ranking import (Ranking, WalkVector, load_scores, rank_by_degree_rule,
                      rank_by_weight_rule, resolve_ranking, walk_counts)
from .verify import (ComponentReport, DistortionReport, ValidityReport,
                     VerificationReport, Violation, check_components,
                     check_distortion, check_edge_bounds, check_kmis_validity,
                     verify_reduction)

__version__ = "0.1.0"

__all__ = [
    "CoarsenedGraph",
    "ComponentReport",
    "DEFAULT_ORACLE_CAP",
    "DistortionReport",
    "EXACT_MWIS_CAP",
    "Graph",
    "GraphFormatError",
    "KMisResult",
    "NodeWeights",
    "OracleReport",
    "Partition",
    "Ranking",
    "ValidityReport",
    "VerificationReport",
    "Violation",
    "WalkVector",
    "bfs",
    "build",
    "check_components",
    "check_distortion",
    "check_edge_bounds",
    "check_kmis_validity",
    "cluster",
    "coarsen_pipeline",
    "compare",
    "connected_components",
    "exact_mwis",
    "k_mis",
    "load",
    "load_scores",
    "power",
    "rank_by_degree_rule",
    "rank_by_weight_rule",
    "reduce",
    "resolve_ranking",
    "sequential_greedy_mwis",
    "store",
    "verify_reduction",
    "walk_counts",
]
