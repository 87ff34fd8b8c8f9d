"""Run the usage examples embedded in docstrings."""

import doctest

import pytest

from causalsumm import bench, cagres, graph_core, separation, summary


@pytest.mark.parametrize("module", [graph_core, separation, summary, cagres, bench])
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0
    assert result.attempted > 0
