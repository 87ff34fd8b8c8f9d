"""Apply each mutant in ``records.py`` to a copy of the package and report
every one its tests fail to catch.

    python mutants/run.py

The named tests first run on an unmutated copy, and must pass there.
Then, for each mutant, ``src/`` is copied to a temporary directory, the
record's old text is replaced by its new text, and pytest runs the
record's tests from this checkout with the copy first on the import path.
It runs them with ``-x``: the first failure ends the run, so hypothesis
shrinks one failing property rather than all of them (without ``-x`` a
caught mutant can take ten minutes). A fixed hypothesis seed makes every
run draw the same examples, and hypothesis keeps its example database in
the temporary directory. A mutant is caught when pytest exits with status
1, some test failed; a run that takes more than ``TIMEOUT`` seconds is
not. Only the standard library and the installed pytest are used.

Exits 0 when every mutant is caught, 1 when one is not, 2 when the
unmutated copy fails or a record does not apply.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from records import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
PYTEST = ["-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
TIMEOUT = 900


def _pytest(tree, tests):
    """pytest's exit status on ``tests`` with the package in ``tree/src``
    (None on a timeout), the first failed test's id or the last line of
    the report, and the seconds taken."""
    src = tree / "src"
    env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_STORAGE_DIRECTORY=str(tree / "db"))
    start = time.perf_counter()
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", *PYTEST, "-o", f"pythonpath={src}", *tests],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        return None, "", time.perf_counter() - start
    lines = done.stdout.splitlines()
    failed = [line[7:].split(" - ")[0] for line in lines if line.startswith("FAILED ")]
    detail = failed[0] if failed else (lines or [""])[-1]
    return done.returncode, detail, time.perf_counter() - start


def _copy(into):
    shutil.copytree(ROOT / "src", into / "src", ignore=shutil.ignore_patterns("__pycache__"))


def _mutated(mutant):
    """The text of the mutant's file with the mutant applied, or None when
    its old text does not occur exactly once."""
    text = (ROOT / mutant["file"]).read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        return None
    return text.replace(mutant["old"], mutant["new"])


def main():
    stale = [m["name"] for m in MUTANTS if _mutated(m) is None]
    if stale:
        print(f"old text not found exactly once: {', '.join(stale)}")
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        clean = Path(scratch) / "clean"
        _copy(clean)
        tests = sorted({t for m in MUTANTS for t in m["tests"]})
        status, detail, seconds = _pytest(clean, tests)
        if status != 0:
            print(f"the unmutated copy fails its tests ({seconds:.1f}s): {detail}")
            return 2
        print(f"unmutated copy passes {len(tests)} test(s) in {seconds:.1f}s")
        missed = []
        for mutant in MUTANTS:
            tree = Path(scratch) / mutant["name"]
            _copy(tree)
            (tree / mutant["file"]).write_text(_mutated(mutant), encoding="utf-8")
            status, detail, seconds = _pytest(tree, mutant["tests"])
            verdict = {0: "SURVIVED", 1: "caught", None: "timeout"}.get(status, f"error {status}")
            if status != 1:
                missed.append(mutant["name"])
            print(f"{verdict:8} {mutant['name']:26} {seconds:6.1f}s  {detail}", flush=True)
            shutil.rmtree(tree)
    print(f"{len(MUTANTS) - len(missed)} of {len(MUTANTS)} mutants caught")
    if missed:
        print("not caught: " + ", ".join(missed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
