"""causalsumm: summarize causal DAGs and reason over the summaries.

The package turns a causal DAG into a k-cluster summary DAG whose
canonical grounding preserves as many conditional independencies as
possible, and answers separation / do-calculus queries directly on the
summary.
"""

from .bench import (
    REPORT_COLUMNS,
    ComparisonReport,
    GenSpec,
    brute_force_summarize,
    compare,
    gen_random_dag,
    implication_percentage,
    perturb,
    random_summarize,
    report_row,
    write_report,
)
from .cagres import (
    CagresConfig,
    SimilarityMatrix,
    StuckError,
    get_cost,
    is_valid_pair,
    summarize,
)
from .cli_io import load_dag, load_summary, save_dag, save_summary
from .docalc import DoQuery, adjustment_set, rule_applies
from .graph_core import (
    CycleError,
    Dag,
    DuplicateEdgeError,
    GraphError,
    SizeLimitError,
    UnknownNodeError,
    ValidationError,
    has_directed_path_len_ge2,
    topological_order,
)
from .separation import SeparationQuery, d_separated, d_separated_oracle, s_separated
from .summary import (
    CiStatement,
    RecursiveBasis,
    SummaryDag,
    additional_edges,
    canonical,
    contract,
    ground_ci,
    is_compatible,
    mutilate,
    mutilate_summary,
    recursive_basis,
    summary_recursive_basis,
    trivial_summary,
)

__version__ = "0.1.0"

__all__ = [
    "CagresConfig",
    "CiStatement",
    "ComparisonReport",
    "CycleError",
    "Dag",
    "DoQuery",
    "DuplicateEdgeError",
    "GenSpec",
    "GraphError",
    "REPORT_COLUMNS",
    "RecursiveBasis",
    "SeparationQuery",
    "SimilarityMatrix",
    "SizeLimitError",
    "StuckError",
    "SummaryDag",
    "UnknownNodeError",
    "ValidationError",
    "additional_edges",
    "adjustment_set",
    "brute_force_summarize",
    "canonical",
    "compare",
    "contract",
    "d_separated",
    "d_separated_oracle",
    "gen_random_dag",
    "get_cost",
    "ground_ci",
    "has_directed_path_len_ge2",
    "implication_percentage",
    "is_compatible",
    "is_valid_pair",
    "load_dag",
    "load_summary",
    "mutilate",
    "mutilate_summary",
    "perturb",
    "random_summarize",
    "recursive_basis",
    "report_row",
    "rule_applies",
    "s_separated",
    "save_dag",
    "save_summary",
    "summarize",
    "summary_recursive_basis",
    "topological_order",
    "trivial_summary",
    "write_report",
]
