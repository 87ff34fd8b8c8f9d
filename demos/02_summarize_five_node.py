"""
Greedy summarization, step by step
==================================

Contract the five-variable example down to four clusters and watch the
merge costs the greedy algorithm chooses between.
"""

from itertools import combinations
from pathlib import Path

from causalsumm import (
    CagresConfig,
    additional_edges,
    contract,
    get_cost,
    is_valid_pair,
    load_dag,
    summarize,
    trivial_summary,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

g = load_dag(FIXTURES / "g1.json")
h = trivial_summary(g)

print("merge costs at the start (invalid pairs skipped):")
for a, b in combinations(h.quotient.nodes, 2):
    if is_valid_pair(h, a, b):
        print(f"  {a}+{b}: {get_cost(h, a, b)} extra edge(s)")
    else:
        print(f"  {a}+{b}: would create a cycle")

# B+C is the unique cheapest merge, so the greedy run picks it
best = summarize(g, CagresConfig(k=4))
print("\nsummarize(k=4):", best)
print("additional edges:", additional_edges(best))

# the same summary, built by hand
by_hand = contract(trivial_summary(g), "B", "C")
print("equals contract(B, C):", best == by_hand)

# pushing on to three and two clusters costs more each time
for k in (3, 2):
    hk = summarize(g, CagresConfig(k=k))
    print(f"k={k}: clusters {list(hk.quotient.nodes)}, "
          f"additional edges {additional_edges(hk)}")
