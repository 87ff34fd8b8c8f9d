import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from causalsumm import Dag, fixtures


@pytest.fixture
def g1():
    return fixtures.g1()


@pytest.fixture
def h1():
    return fixtures.h1()


@pytest.fixture
def h2():
    return fixtures.h2()


@pytest.fixture
def h3():
    return fixtures.h3()


@pytest.fixture
def h4():
    return fixtures.h4()


@pytest.fixture
def redshift():
    return fixtures.redshift()


@pytest.fixture
def fixtures_dir():
    return Path(__file__).parent.parent / "fixtures"


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
