"""The records of ``mutants/records.py`` still apply to the source.

``mutants/run.py`` runs the mutants, which takes a process per mutant;
this only checks, without starting one, that each record can still be
applied and names tests that still exist.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutant_records", ROOT / "mutants" / "records.py")
records = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(records)

by_name = pytest.mark.parametrize("mutant", records.MUTANTS, ids=lambda m: m["name"])


def test_names_are_unique():
    names = [m["name"] for m in records.MUTANTS]
    assert len(names) == len(set(names))


@by_name
def test_old_text_occurs_exactly_once(mutant):
    assert mutant["file"].startswith("src/")  # run.py copies src/ alone
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    assert text.count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"]


@by_name
def test_named_tests_exist(mutant):
    assert mutant["tests"]
    for test in mutant["tests"]:
        path, *scopes = re.sub(r"\[.*\]$", "", test).split("::")
        source = (ROOT / path).read_text(encoding="utf-8")
        for scope in scopes:
            assert re.search(rf"^\s*(class|def) {scope}\b", source, re.M), test
