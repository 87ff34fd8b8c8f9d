from pathlib import Path

import pytest
from hypothesis import strategies as st

from causalsumm import Dag, load_dag, load_summary

#: the worked examples, one JSON file each; test_fixtures.py pins their bytes
FIXTURES_DIR = Path(__file__).parent.parent / "fixtures"


@pytest.fixture
def fixtures_dir():
    return FIXTURES_DIR


@pytest.fixture
def g1():
    return load_dag(FIXTURES_DIR / "g1.json")


@pytest.fixture
def h1():
    return load_summary(FIXTURES_DIR / "h1.json")


@pytest.fixture
def h2():
    return load_summary(FIXTURES_DIR / "h2.json")


@pytest.fixture
def h3():
    return load_summary(FIXTURES_DIR / "h3.json")


@pytest.fixture
def h4():
    return load_summary(FIXTURES_DIR / "h4.json")


@pytest.fixture
def redshift():
    return load_dag(FIXTURES_DIR / "redshift.json")


@pytest.fixture
def redshift_missing_edge():
    return load_dag(FIXTURES_DIR / "redshift_missing_edge.json")


@st.composite
def dags(draw, min_nodes=1, max_nodes=7):
    """Random small DAGs: a permuted order plus a subset of forward edges."""
    n = draw(st.integers(min_nodes, max_nodes))
    labels = [f"N{i}" for i in range(n)]
    order = draw(st.permutations(labels))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                edges.append((order[i], order[j]))
    return Dag(labels, edges)


# labels the file formats must escape (quotes, backslashes, non-ASCII),
# plus A, B and AB, whose merge is labeled AB#2
TRICKY_LABELS = ["A", "B", "AB", 'a"b', "\\", '"', 'q\\"', "x\\y", "é", "日本", "𝔸", "#2"]
tricky_labels = st.sampled_from(TRICKY_LABELS) | st.text('AB"\\é𝔸#2', min_size=1, max_size=3)


@st.composite
def tricky_dags(draw, max_nodes=7):
    """Random small DAGs over labels drawn from ``tricky_labels``."""
    labels = draw(st.lists(tricky_labels, min_size=1, max_size=max_nodes, unique=True))
    order = draw(st.permutations(labels))
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if draw(st.booleans())
    ]
    return Dag(labels, edges)
