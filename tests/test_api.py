"""The package's public names, pinned: a removal or addition must be deliberate."""

import causalsumm
import oracles

PUBLIC = [
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
    "gen_random_dag",
    "get_cost",
    "ground_ci",
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


def test_all_is_the_pinned_list_and_every_name_resolves():
    assert sorted(causalsumm.__all__) == PUBLIC
    for name in PUBLIC:
        assert getattr(causalsumm, name) is not None


def test_no_test_oracle_is_exported():
    defined = {
        name
        for name, value in vars(oracles).items()
        if getattr(value, "__module__", None) == oracles.__name__
    }
    assert "d_separated_oracle" in defined and "has_long_path" in defined
    assert not defined & set(causalsumm.__all__)
    assert not [name for name in defined if hasattr(causalsumm, name)]
