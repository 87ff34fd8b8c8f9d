"""
Do-calculus on a summary DAG
============================

Each rule is licensed by an s-separation in a mutilated summary, so a
positive answer is safe for every causal DAG the summary stands for.
Interventions act on whole clusters: do(BC) intervenes on B and C.
"""

from pathlib import Path

from causalsumm import (
    DoQuery,
    ValidationError,
    adjustment_set,
    load_dag,
    load_summary,
    rule_applies,
    trivial_summary,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
g1 = load_dag(FIXTURES / "g1.json")
h = load_summary(FIXTURES / "h1.json")
print("summary:", h)

# R1 - drop an observation: once D is seen, A tells E nothing
q = DoQuery(y={"E"}, z={"A"}, w={"D"})
print("R1, drop A from P(E | A, D):", rule_applies(h, "R1", q))

# R2 - exchange do(BC) for seeing BC when E is the outcome and D is held
q = DoQuery(y={"E"}, z={"BC"}, w={"D"})
print("R2, do(BC) vs observe BC:", rule_applies(h, "R2", q))

# R3 - drop an intervention entirely: do(D) cannot move the upstream A
q = DoQuery(y={"A"}, z={"D"})
print("R3, drop do(D) from P(A | do(D)):", rule_applies(h, "R3", q))

# ...but do(BC) still reaches E, so it cannot be dropped
q = DoQuery(y={"E"}, z={"BC"})
print("R3, drop do(BC) from P(E | do(BC)):", rule_applies(h, "R3", q))

# Backdoor adjustment: which variables deconfound D -> E? The members of
# the cluster parents of D, which is alone in its cluster.
print("\nadjustment set for D -> E on the summary:", sorted(adjustment_set(h, "D", "E")))
print("adjustment set for D -> E on the full DAG:",
      sorted(adjustment_set(trivial_summary(g1), "D", "E")))

# B shares its cluster with C, and a compatible DAG with C -> B and C -> D
# has the backdoor path B <- C -> D -> E that the quotient does not show,
# so the summary gives no adjustment set for B alone.
try:
    adjustment_set(h, "B", "E")
except ValidationError as exc:
    print("adjustment set for B -> E on the summary: refused:", exc)
