"""Regenerate expected_query.json, the query workload's recorded answers.

    python3 perfbench/make_expected.py 0-29 1009

Arguments are seeds or inclusive seed ranges. For each seed the query
workload's operations run once through ``cli()``; every answer (the
printed verdict, or ``sha256:<digest>`` of the exported canonical file)
must equal the definition-based reference answer before it is recorded.
Regenerate only at a commit whose answers are known to be right: the
file pins them so that a later change that alters an answer fails.
"""

import json
import shutil
import sys
import tempfile

from run import ROOT, SRC, git_sha


def parse_seeds(args):
    seeds = []
    for arg in args:
        first, _, last = arg.partition("-")
        seeds.extend(range(int(first), int(last or first) + 1))
    return seeds


def main(args):
    sys.path.insert(0, str(SRC))
    import workloads

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    answers = {}
    for seed in parse_seeds(args):
        workdir = tempfile.mkdtemp(dir=scratch)
        try:
            query = workloads.Query(seed, workdir)
            query.expected = None
            query.setup()
            recorded = []
            for index, op in enumerate(query.ops()):
                answer = query.answer(index, op.run())
                reference = query.reference_answer(index)
                if answer != reference:
                    print(f"seed {seed} op {index}: {answer!r} != {reference!r}", file=sys.stderr)
                    return 1
                recorded.append(answer)
            answers[str(seed)] = recorded
            print(f"seed {seed}: {recorded}", flush=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    try:
        scratch.rmdir()
    except OSError:
        pass  # a benchmark run still uses it
    doc = {"generated_at": git_sha(), "answers": answers}
    with open(workloads.EXPECTED_QUERY, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
