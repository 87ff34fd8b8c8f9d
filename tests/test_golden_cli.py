"""The golden CLI corpus: every command line's bytes, pinned call by call.

One seeded generator draws about 1,500 ``cli()`` calls in groups:

- random instances: ``gen`` at n in {5, 7, 8, 9, 12, 30}, ``summarize``
  to JSON and DOT (some with ``--similarity``, some with a negative
  ``--seed``), ``canonical`` to JSON and DOT, ``rb`` on the graph and the
  summary, ``query`` in both modes, ``docalc`` R1-R3, ``bruteforce`` and
  ``metrics`` at n <= 9, ``perturb``, and a mutilated copy of each summary;
- graphs over labels that JSON and DOT must escape, and over A, B and AB,
  whose merge is labeled ``AB#2``;
- usage and error paths;
- seeded damaged documents: graph, summary, DOT and CSV files with one
  entry replaced, removed or shuffled, or their text cut or spliced.
- similarity CSVs that are symmetric only to within 1e-7, with pairs
  on both sides of ``--tau 0.5``;
- an edgeless graph one node past the greedy engine's size guard, which
  ``summarize`` refuses;
- ``docalc`` with ``--zw-in-hbar`` and ``--no-zw-in-hbar``, two usage
  errors: rule 3 has one reading.

``golden_cli.txt`` holds one line per call: the exit code, short sha256
digests of stdout, stderr and the ``--out`` file (``-`` when empty or
absent), and the argv. Paths appear as ``{work}`` and ``{fixtures}``, in
the argv and in the text before it is hashed, so the record does not
depend on where the corpus runs. Each group opens with a ``#`` line.
The usage errors are argparse's text, which the record pins for the
Python version it was made with (3.11).

Only a declared behaviour change may alter the record. Re-record it with

    PYTHONPATH=src python tests/test_golden_cli.py --record

and say in CHANGES.md which lines changed and why. Without ``--record``
the script prints the lines it would record (of every n-th group only,
with ``--every n``).
"""

import contextlib
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

from causalsumm.cagres import ENGINE_NODE_LIMIT
from causalsumm.cli_io import cli

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
RECORD = HERE / "golden_cli.txt"

#: labels the file formats must escape
TRICKY = ["A", "B", "AB", 'a"b', "\\", 'q\\"', "é", "日本", "𝔸", "#2", "x.y"]
#: labels whose merges are suffixed: A with B is AB#2, B with C is BC#2
SUFFIXED = ["A", "B", "AB", "C", "BC", "ABC"]


def _sets(rng, labels):
    """Disjoint x, y (non-empty) and z drawn from ``labels`` (at least 2)."""
    labels = rng.sample(labels, len(labels))
    i = rng.randint(1, len(labels) - 1)
    j = rng.randint(i + 1, len(labels))
    k = rng.randint(j, len(labels))
    return labels[:i][:3], labels[i:j][:3], labels[j:k][:3]


def _label_args(**sets):
    args = []
    for flag, labels in sets.items():
        if labels:
            args += [f"--{flag}", ",".join(labels)]
    return args


def _clusters(path):
    try:
        return list(json.loads(path.read_text(encoding="utf-8"))["clusters"])
    except (OSError, ValueError):
        return []


def _random_graph_doc(rng, order):
    """A graph document whose edges go forward in ``order``."""
    density = rng.choice([0.2, 0.4, 0.7])
    edges = [
        [u, v] for i, u in enumerate(order) for v in order[i + 1 :] if rng.random() < density
    ]
    return {"version": 1, "nodes": order, "edges": edges}


def _similarity_csv(rng, labels):
    n = len(labels)
    values = [[1.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i):
            values[i][j] = values[j][i] = rng.choice([0.1, 0.4, 0.7, 0.9, 1.0])
    rows = [",".join(["", *labels])]
    rows += [",".join([v, *map(str, row)]) for v, row in zip(labels, values)]
    return "\n".join(rows) + "\n"


def _summary_calls(rng, work, tag, graph, summary, labels):
    """Calls on a graph file and its summary file: canonical, rb, queries,
    do-calculus, and a mutilated copy of the summary."""
    yield ["canonical", "--in", summary, "--out", work / f"{tag}c.json"]
    yield ["canonical", "--in", summary, "--out", work / f"{tag}c.dot"]
    yield ["rb", "--in", graph]
    yield ["rb", "--in", summary]
    for _ in range(2):
        x, y, z = _sets(rng, labels)
        yield ["query", "--in", graph, "--mode", "dsep", *_label_args(x=x, y=y, z=z)]
    clusters = _clusters(summary)
    if len(clusters) >= 2:
        for _ in range(2):
            x, y, z = _sets(rng, clusters)
            yield ["query", "--in", summary, "--mode", "ssep", *_label_args(x=x, y=y, z=z)]
        for rule in ("r1", "r2", "r3"):
            y, z, x = _sets(rng, clusters)
            w, x = x[:1], x[1:]
            rng.choice([0, 1, 2])  # a draw kept so that later draws stay put
            yield ["docalc", "--in", summary, "--rule", rule, *_label_args(x=x, y=y, z=z, w=w)]
        doc = json.loads(summary.read_text(encoding="utf-8"))
        doc["edges"] = [e for e in doc["edges"] if rng.random() < 0.5]
        doc["mutilated"] = True
        cut = work / f"{tag}m.json"
        cut.write_text(json.dumps(doc), encoding="utf-8")
        yield ["canonical", "--in", cut, "--out", work / f"{tag}mc.json"]
        yield ["rb", "--in", cut]
        x, y, z = _sets(rng, clusters)
        yield ["query", "--in", cut, "--mode", "ssep", *_label_args(x=x, y=y, z=z)]
        yield ["metrics", "--a", summary, "--b", cut]


def _instance(rng, work, tag):
    """A random instance through every command."""
    n = rng.choice([5, 7, 8, 9, 12, 30])
    graph = work / f"{tag}g.json"
    yield ["gen", "--n", n, "--density", rng.choice([0.1, 0.3, 0.5, 0.9]),
           "--seed", rng.randrange(100), "--out", graph]
    labels = json.loads(graph.read_text(encoding="utf-8"))["nodes"]
    k = rng.randint(1, n)
    seed = rng.choice([0, 1, 7, 42])
    summary = work / f"{tag}h.json"
    similarity = []
    if rng.random() < 0.25:
        csv = work / f"{tag}s.csv"
        csv.write_text(_similarity_csv(rng, labels), encoding="utf-8")
        similarity = ["--similarity", csv, "--tau", rng.choice([0.0, 0.5, 0.8])]
    yield ["summarize", "--in", graph, "--k", k, "--seed", seed, *similarity, "--out", summary]
    yield ["summarize", "--in", graph, "--k", k, "--seed", seed, *similarity,
           "--out", work / f"{tag}h.dot"]
    if rng.random() < 0.3:  # no later call reads this summary
        yield ["summarize", "--in", graph, "--k", k, "--seed", -max(seed, 1),
               "--out", work / f"{tag}n.json"]
    yield from _summary_calls(rng, work, tag, graph, summary, labels)
    if n <= 9:
        exact = work / f"{tag}b.json"
        yield ["bruteforce", "--in", graph, "--k", rng.randint(1, n), "--out", exact]
        yield ["metrics", "--a", summary, "--b", exact]
        yield ["metrics", "--a", exact, "--b", summary]
    yield ["perturb", "--in", graph, "--add", rng.randint(0, 3), "--remove", rng.randint(0, 3),
           "--seed", rng.randrange(100), "--out", work / f"{tag}p.json"]


def _tricky(rng, work, tag):
    """A graph over labels that need quoting or suffixing, through every command."""
    pool = rng.choice([TRICKY, SUFFIXED])
    labels = sorted(rng.sample(pool, min(rng.randint(3, 8), len(pool))), key=pool.index)
    if pool is TRICKY:
        rng.shuffle(labels)
    graph = work / f"{tag}g.json"
    graph.write_text(json.dumps(_random_graph_doc(rng, labels)), encoding="utf-8")
    dot = work / f"{tag}g.dot"
    yield ["perturb", "--in", graph, "--add", 0, "--remove", 0, "--out", dot]
    yield ["rb", "--in", dot]
    summary = work / f"{tag}h.json"
    k = rng.randint(1, len(labels))
    yield ["summarize", "--in", dot, "--k", k, "--seed", rng.randrange(10), "--out", summary]
    yield ["summarize", "--in", graph, "--k", k, "--out", work / f"{tag}h.dot"]
    yield ["bruteforce", "--in", graph, "--k", k, "--out", work / f"{tag}b.dot"]
    yield from _summary_calls(rng, work, tag, graph, summary, labels)


def _usage(rng, work, tag):
    """Usage errors and the errors every command reports for bad values."""
    g1, h1 = FIXTURES / "g1.json", FIXTURES / "h1.json"
    yield []
    yield ["frobnicate"]
    yield ["gen", "--n", 5]
    yield ["gen", "--n", "five", "--density", 0.5, "--out", work / f"{tag}a.json"]
    yield ["rb", "--in", g1, "--bogus"]
    yield ["query", "--in", h1, "--mode", "bayes", "--x", "A", "--y", "E"]
    yield ["docalc", "--in", h1, "--rule", "r4", "--y", "E", "--z", "A"]
    yield ["gen", "--n", 0, "--density", 0.5, "--out", work / f"{tag}b.json"]
    yield ["gen", "--n", 5, "--density", 1.5, "--out", work / f"{tag}c.json"]
    yield ["gen", "--n", 5, "--density", 0.5, "--seed", -1, "--out", work / f"{tag}d.json"]
    yield ["perturb", "--in", g1, "--add", 1, "--remove", 1, "--seed", -1,
           "--out", work / f"{tag}e.json"]
    yield ["perturb", "--in", g1, "--add", 99, "--remove", 0, "--out", work / f"{tag}f.json"]
    yield ["summarize", "--in", g1, "--k", 0, "--out", work / f"{tag}g.json"]
    yield ["summarize", "--in", g1, "--k", 2, "--tau", 0.5, "--out", work / f"{tag}h.json"]
    yield ["summarize", "--in", g1, "--k", 2, "--out", work / f"{tag}h.txt"]
    yield ["bruteforce", "--in", FIXTURES / "redshift.json", "--k", 3,
           "--out", work / f"{tag}i.json"]
    yield ["canonical", "--in", work / "missing.json", "--out", work / f"{tag}j.json"]
    yield ["canonical", "--in", g1, "--out", work / f"{tag}k.json"]
    yield ["query", "--in", h1, "--mode", "ssep", "--x", "A", "--y", "A"]
    yield ["query", "--in", h1, "--mode", "ssep", "--x", "A", "--y", "Q"]
    yield ["metrics", "--a", h1, "--b", FIXTURES / "h3_canonical.json"]
    for seed in (-5, 5):
        yield ["summarize", "--in", FIXTURES / "redshift.json", "--k", rng.randint(2, 8),
               "--seed", seed, "--out", work / f"{tag}l{seed}.json"]


def _junk(rng, depth=0):
    kind = rng.randrange(10 if depth < 2 else 7)
    if kind < 2:
        return [None, True][kind]
    if kind == 2:
        return rng.randint(-2, 3)
    if kind == 3:
        return 1.5
    if kind < 7:
        return rng.choice(["", "A", "BC", "E", "x y", "a,b", "Q", "ED"])
    if kind < 9:
        return [_junk(rng, depth + 1) for _ in range(rng.randint(0, 2))]
    return {rng.choice(["A", "k", ""]): _junk(rng, depth + 1) for _ in range(rng.randint(0, 2))}


def _damage(rng, doc):
    """``doc`` with one entry, at any depth, replaced, removed or shuffled."""
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = rng.choice(keys)
        child = node[key]
        if isinstance(child, (dict, list)) and child and rng.random() < 0.6:
            node = child
            continue
        action = rng.randrange(4)
        if action == 0:
            del node[key]
        elif action == 1 and isinstance(child, list):
            rng.shuffle(child)
        else:
            node[key] = _junk(rng)
        return doc


def _damaged(rng, work, tag):
    """Seeded damaged graph, summary, DOT and CSV documents."""
    sources = ["g1", "g3", "redshift", "h1", "h2", "h3", "h4"]
    for i in range(50):
        source = FIXTURES / f"{rng.choice(sources)}.json"
        text = source.read_text(encoding="utf-8")
        if rng.random() < 0.8:
            text = json.dumps(_damage(rng, json.loads(text)))
        elif rng.random() < 0.5:
            text = text[: rng.randrange(len(text))]
        else:
            at = rng.randrange(len(text))
            text = text[:at] + rng.choice(['"', "]", "{", ",", "\\", "1"]) + text[at:]
        bad = work / f"{tag}{i}.json"
        bad.write_text(text, encoding="utf-8")
        if source.stem.startswith("h"):
            runs = [
                ["query", "--in", bad, "--mode", "ssep", "--x", "A", "--y", "E"],
                ["canonical", "--in", bad, "--out", work / f"{tag}{i}c.json"],
                ["rb", "--in", bad],
                ["docalc", "--in", bad, "--rule", "r2", "--y", "E", "--z", "D"],
                ["metrics", "--a", bad, "--b", FIXTURES / "h1.json"],
            ]
        else:
            runs = [
                ["rb", "--in", bad],
                ["query", "--in", bad, "--mode", "dsep", "--x", "A", "--y", "E"],
                ["summarize", "--in", bad, "--k", 3, "--out", work / f"{tag}{i}h.json"],
                ["perturb", "--in", bad, "--add", 1, "--remove", 1, "--out",
                 work / f"{tag}{i}p.json"],
            ]
        yield from rng.sample(runs, 2)
    dot = 'digraph {\n  "A";\n  "B";\n  "A" -> "B";\n  "B" -> "C";\n}\n'
    for i in range(10):
        at = rng.randrange(len(dot))
        bad = work / f"{tag}d{i}.dot"
        bad.write_text(dot[:at] + rng.choice(['"', ";", "->", "{", "}", "\\", "-", " x"])
                       + dot[at + rng.randint(0, 2):], encoding="utf-8")
        yield ["rb", "--in", bad]
    labels = ["A", "B", "C", "D", "E"]
    for i in range(10):
        rows = _similarity_csv(rng, labels).splitlines()
        j = rng.randrange(len(rows))
        cells = rows[j].split(",")
        cells[rng.randrange(len(cells))] = rng.choice(["", "x", "2", "-1", "nan", "A", "0.5,0.5"])
        rows[j] = ",".join(cells)
        csv = work / f"{tag}s{i}.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        yield ["summarize", "--in", FIXTURES / "g1.json", "--k", 2, "--similarity", csv,
               "--tau", 0.5, "--out", work / f"{tag}s{i}.json"]


def _near_symmetric(rng, work, tag):
    """Summaries under similarity CSVs whose straddling pairs read 0.5 on
    one side of the diagonal and 0.4999999 on the other, at ``--tau 0.5``."""
    for i in range(8):
        n = rng.randint(5, 8)
        graph = work / f"{tag}g{i}.json"
        yield ["gen", "--n", n, "--density", rng.choice([0.3, 0.5]), "--seed", rng.randrange(100),
               "--out", graph]
        labels = json.loads(graph.read_text(encoding="utf-8"))["nodes"]
        values = [["1.0"] * n for _ in range(n)]
        for a in range(n):
            for b in range(a):
                if rng.random() < 0.3:
                    values[a][b], values[b][a] = rng.sample(["0.5", "0.4999999"], 2)
                else:
                    values[a][b] = values[b][a] = rng.choice(["0.2", "0.9", "0.9", "0.9"])
        rows = [",".join(["", *labels])] + [",".join([v, *row]) for v, row in zip(labels, values)]
        csv = work / f"{tag}s{i}.csv"
        csv.write_text("\n".join(rows) + "\n", encoding="utf-8")
        for seed in (0, 7):
            yield ["summarize", "--in", graph, "--k", rng.randint(1, n - 1), "--seed", seed,
                   "--similarity", csv, "--tau", 0.5, "--out", work / f"{tag}h{i}-{seed}.json"]


def _too_large(rng, work, tag):
    """A graph one node past the engine's size guard, generated and then
    refused by ``summarize`` before it allocates."""
    graph = work / f"{tag}g.json"
    yield ["gen", "--n", ENGINE_NODE_LIMIT + 1, "--density", 0, "--out", graph]
    yield ["summarize", "--in", graph, "--k", 1, "--out", work / f"{tag}h.json"]


def _rule_3_flags(rng, work, tag):
    """``docalc`` with the flags of a second rule 3 reading, which the
    command does not have: usage errors."""
    for flag in ("--zw-in-hbar", "--no-zw-in-hbar"):
        yield ["docalc", "--in", FIXTURES / "h1.json", "--rule", "r3", "--y", "A", "--z", "D",
               flag]


def groups():
    """The corpus as (title, calls) groups; ``calls(rng, work, tag)`` yields
    argv lists and may read what earlier calls of its group wrote."""
    yield "usage and value errors", _usage
    for i in range(40):
        yield f"instance {i}", _instance
    for i in range(12):
        yield f"tricky labels {i}", _tricky
    for i in range(4):
        yield f"damaged documents {i}", _damaged
    yield "near-symmetric similarities", _near_symmetric
    yield "engine size guard", _too_large
    yield "rule 3 reading flags", _rule_3_flags


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:10] if data else "-"


def run_corpus(work, every=1):
    """Run every ``every``-th group with its files under ``work``; return
    the record lines."""
    work = Path(work)
    places = [(str(work), "{work}"), (str(FIXTURES), "{fixtures}")]

    def normal(text):
        for path, name in places:
            text = text.replace(path, name)
        return text

    lines = []
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps its usage text to the terminal
    try:
        for index, (title, calls) in enumerate(groups()):
            if index % every:
                continue
            lines.append(f"# {title}")
            rng = random.Random(f"golden-{index}")
            for argv in calls(rng, work, f"t{index}"):
                argv = [str(a) for a in argv]
                out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli(argv)
                written = out.read_bytes() if out is not None and out.exists() else b""
                lines.append(" ".join([
                    str(code),
                    _digest(normal(stdout.getvalue()).encode()),
                    _digest(normal(stderr.getvalue()).encode()),
                    _digest(written),
                    shlex.join(map(normal, argv)),
                ]))
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    return lines


def _record(every=1):
    """The record's lines, of every ``every``-th group."""
    groups = []
    for line in RECORD.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            groups.append([])
        groups[-1].append(line)
    return [line for group in groups[::every] for line in group]


def _check(found, expected):
    if len(found) != len(expected):
        changed = [f"{len(found)} lines, the record has {len(expected)}"]
    else:
        changed = [f"now  {a}\nwas  {b}" for a, b in zip(found, expected) if a != b]
    assert not changed, f"{len(changed)} calls changed:\n" + "\n".join(changed[:20])


def test_every_call_matches_the_record(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _check(run_corpus(tmp_path), _record())


def test_the_record_holds_under_another_hash_seed_and_cwd(tmp_path):
    # every fourth group, to keep the second run short
    src = str(HERE.parent / "src")
    env = {**os.environ, "PYTHONHASHSEED": "4242",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, __file__, "--every", "4"], capture_output=True,
                          encoding="utf-8", cwd=tmp_path, env=env, check=True)
    _check(proc.stdout.splitlines(), _record(every=4))


def test_the_corpus_covers_what_it_claims():
    record = [line for line in _record() if not line.startswith("#")]
    assert len(record) >= 1000
    commands = {shlex.split(line.split(" ", 4)[4])[0] for line in record if line[0] != "2"}
    assert commands == {"gen", "summarize", "canonical", "rb", "query", "docalc", "metrics",
                        "bruteforce", "perturb"}
    text = "\n".join(record)
    for needle in ("--similarity", "--seed -1", "AB#2", "m.json", "--mode dsep", "--mode ssep"):
        assert needle in text, needle


if __name__ == "__main__":
    every = int(sys.argv[2]) if sys.argv[1:2] == ["--every"] else 1
    with tempfile.TemporaryDirectory() as work:
        lines = run_corpus(work, every)
    if sys.argv[1:] == ["--record"]:
        RECORD.write_text("\n".join(lines) + "\n", encoding="utf-8")
    else:
        sys.stdout.reconfigure(encoding="utf-8")
        print("\n".join(lines))
