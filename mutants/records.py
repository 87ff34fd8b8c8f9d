"""Mutants of the package that the named tests must catch.

Each record names a file under ``src/``, a text that occurs in it
exactly once, the text ``run.py`` puts in its place, and the tests
(pytest node ids) of which at least one must fail on the mutated copy.
``why`` says what the mutant breaks. ``tests/test_mutants.py`` checks, in tier-1, that every
old text still occurs exactly once, so a refactor of mutated code must
update its record here.
"""

CAGRES = "src/causalsumm/cagres.py"

MUTANTS = [
    {
        "name": "clash-fold-skips-partners",
        "why": "a merge gives the merged cluster b's clashes but does not give "
        "those clusters its id, so a clash is lost once both sides retire",
        "file": CAGRES,
        "old": "        for y in _ones(gained):\n            clash[y] |= 1 << a\n",
        "new": "",
        "tests": [
            "tests/test_cagres.py::TestEngine::test_a_clash_outlives_both_clusters_that_had_it",
        ],
    },
    {
        "name": "far-ignores-clash",
        "why": "validity reads only the paths, so a similarity forbids nothing",
        "file": CAGRES,
        "old": "        row, kids, reach = self.clash[x], self.kids[x], self.reach\n",
        "new": "        row, kids, reach = 0, self.kids[x], self.reach\n",
        "tests": ["tests/test_cagres.py::TestSummarize::test_similarity_stuck"],
    },
    {
        "name": "loop-link-one-way",
        "why": "the loop form sees a quotient edge between the pair in one "
        "direction only, and misprices the other",
        "file": CAGRES,
        "old": "                    (kids[x] >> y | kids[y] >> x) & 1,\n",
        "new": "                    kids[x] >> y & 1,\n",
        "tests": ["tests/test_cagres.py::TestSummarize::test_redshift_k4_summaries_are_pinned"],
    },
    {
        "name": "merge-drops-parent-bit",
        "why": "a merge clears b from its neighbours' parents without setting a",
        "file": CAGRES,
        "old": "                parents[x] = parents[x] & not_b | 1 << a\n",
        "new": "                parents[x] = parents[x] & not_b\n",
        "tests": ["tests/test_cagres.py::TestSummarize::test_redshift_k4_summaries_are_pinned"],
    },
    {
        "name": "loop-coin-biased",
        "why": "the loop form's tie coin replaces the candidate at a draw "
        "below 0.6, not 0.5",
        "file": CAGRES,
        "old": "                elif price == low and rng.random() < 0.5:\n",
        "new": "                elif price == low and rng.random() < 0.6:\n",
        "tests": ["tests/test_cagres.py::TestSummarize::test_redshift_k4_summaries_are_pinned"],
    },
    {
        "name": "loop-form-allocates",
        "why": "the loop form allocates a numpy array",
        "file": CAGRES,
        "old": "            self.size, self.far = [1] * n, far\n",
        "new": "            self.size, self.far = [1] * n, far\n            np.zeros(n)\n",
        "tests": [
            "tests/test_cagres.py::TestLoopForm::test_small_graphs_allocate_no_array",
        ],
    },
    {
        "name": "stale-misses-neighbours",
        "why": "the array form re-prices only the merged cluster, not its "
        "neighbours, whose neighbour mass the merge changed",
        "file": CAGRES,
        "old": "            self.stale.update(near)\n",
        "new": "",
        "tests": ["tests/test_cagres.py::TestEngine::test_merge_evicts_the_merge_neighbourhood"],
    },
    {
        "name": "stale-misses-merged",
        "why": "the array form re-prices the merged cluster's neighbours but not "
        "the merged cluster itself",
        "file": CAGRES,
        "old": "            self.stale.add(a)\n",
        "new": "",
        "tests": ["tests/test_cagres.py::TestEngine::test_merge_evicts_the_merge_neighbourhood"],
    },
    {
        "name": "holders-swap-roles",
        "why": "pricing unpacks a parent role's parents and a child role's kids, "
        "not the clusters that hold the role",
        "file": CAGRES,
        "old": "kids[r] if r < n else parents[r - n]",
        "new": "parents[r] if r < n else kids[r - n]",
        "tests": ["tests/test_cagres.py::TestEngine::test_every_chunk_reads_refreshed_weights"],
    },
    {
        "name": "weight-per-chunk",
        "why": "pricing refreshes each chunk's weights just before pricing it, "
        "so an earlier chunk reads a later chunk's stale weights",
        "file": CAGRES,
        "old": "            weight[rows[start : start + 32]] = near[start : start + 32] @ sizes\n"
        "        for start in starts:\n",
        "new": "            weight[rows[start : start + 32]] = near[start : start + 32] @ sizes\n",
        "tests": ["tests/test_cagres.py::TestEngine::test_every_chunk_reads_refreshed_weights"],
    },
]
