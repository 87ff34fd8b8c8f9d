"""
What a summary claims: the canonical DAG and its recursive basis
================================================================

A summary DAG stands for a family of causal DAGs. Its canonical DAG is
the densest member: clusters become ordered cliques, cluster edges
become complete bipartite connections. CIs that survive in the
canonical DAG are exactly the ones every member of the family shares.
"""

from pathlib import Path

from causalsumm import (
    SeparationQuery,
    additional_edges,
    canonical,
    ground_ci,
    load_summary,
    s_separated,
    summary_recursive_basis,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
h1 = load_summary(FIXTURES / "h1.json")
h3 = load_summary(FIXTURES / "h3.json")

for h in (h1, h3):
    print("summary:", h)
    canon = canonical(h)
    print("  canonical edges:", sorted(canon.edges))
    print("  additional edges over the base:", additional_edges(h))
    print("  grounded recursive basis:")
    for s in summary_recursive_basis(h):
        grounded = ground_ci(h, s)
        print(f"    {sorted(grounded.x)} _||_ {sorted(grounded.y)} | {sorted(grounded.z)}")
    print()

# s-separation asks about clusters and answers for the whole family:
# E is separated from A by D in every DAG compatible with h1
q = SeparationQuery({"E"}, {"A"}, {"D"})
print("h1: E vs A given D, in every compatible DAG:", s_separated(h1, q))

# but not when nothing is observed
print("h1: E vs A given {}:", s_separated(h1, SeparationQuery({"E"}, {"A"})))
