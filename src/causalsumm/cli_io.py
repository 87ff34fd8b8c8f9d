"""File formats and the command-line interface.

Graphs and summaries travel as small versioned JSON documents; a DOT
subset (``digraph { "A"; "A" -> "B"; }``) is supported for interop with
graph viewers. The ``causalsumm`` entry point wires every library
operation to a subcommand. All text I/O is UTF-8 with LF line endings,
and identical invocations produce byte-identical files.
"""

import argparse
import io
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import bench, cagres, docalc
from .graph_core import Dag, GraphError, ValidationError, topological_order
from .separation import SeparationQuery, d_separated, s_separated
from .summary import (
    SummaryDag,
    canonical,
    ground_ci,
    recursive_basis,
    summary_recursive_basis,
)

FORMAT_VERSION = 1


class ParseError(GraphError):
    """A file could not be parsed; carries position info when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", column {column}" if column else "")
            message = f"{where}: {message}"
        super().__init__(message)


def _format_of(path):
    suffix = Path(path).suffix.lower()
    if suffix == ".json":
        return "json"
    if suffix == ".dot":
        return "dot"
    raise ValidationError(f"unsupported file extension: {path}")


def _read_text(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from None


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None


def _require(condition, message):
    if not condition:
        raise ParseError(message)


def _labels(values):
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _edge_pairs(edges, what):
    _require(isinstance(edges, list), f"{what} needs an 'edges' list")
    for e in edges:
        _require(
            _labels(e) and len(e) == 2, f"edge must be a [tail, head] pair of labels: {e}"
        )
    return [tuple(e) for e in edges]


def _dag_from_doc(doc):
    _require(isinstance(doc, dict), "graph document must be an object")
    _require(doc.get("version") == FORMAT_VERSION, "unsupported document version")
    nodes = doc.get("nodes")
    _require(isinstance(nodes, list), "graph document needs a 'nodes' list")
    return Dag(nodes, _edge_pairs(doc.get("edges", []), "graph document"))


def _dag_to_doc(g):
    return {
        "version": FORMAT_VERSION,
        "nodes": list(g.nodes),
        "edges": [list(e) for e in sorted(g.edges)],
    }


# --- the DOT subset -------------------------------------------------------

_DOT_TOKEN = re.compile(r'"[^"\n]*"|->|[{};]|[A-Za-z0-9_.]+')


def _position(text, offset):
    line = text.count("\n", 0, offset) + 1
    column = offset - (text.rfind("\n", 0, offset) + 1) + 1
    return line, column


def _tokenize_dot(text):
    tokens = []
    pos = 0
    for match in _DOT_TOKEN.finditer(text):
        gap = text[pos : match.start()]
        if gap.strip():
            line, column = _position(text, pos + len(gap) - len(gap.lstrip()))
            raise ParseError(f"unexpected character {gap.strip()[0]!r}", line, column)
        tokens.append((match.group(), match.start()))
        pos = match.end()
    if text[pos:].strip():
        line, column = _position(text, pos)
        raise ParseError("unexpected trailing text", line, column)
    return tokens


def _unquote(token):
    if token.startswith('"') and token.endswith('"'):
        return token[1:-1]
    return token


def _dag_from_dot(text):
    tokens = _tokenize_dot(text)
    if not tokens or tokens[0][0] != "digraph":
        raise ParseError("expected 'digraph'", 1, 1)
    i = 1
    if i < len(tokens) and tokens[i][0] != "{":
        i += 1  # optional graph name
    if i >= len(tokens) or tokens[i][0] != "{":
        line, column = _position(text, tokens[min(i, len(tokens) - 1)][1])
        raise ParseError("expected '{'", line, column)
    i += 1

    nodes = []
    seen = set()
    edges = []

    def declare(label):
        if label not in seen:
            seen.add(label)
            nodes.append(label)

    def fail(message, at):
        line, column = _position(text, at)
        raise ParseError(message, line, column)

    while i < len(tokens) and tokens[i][0] != "}":
        token, offset = tokens[i]
        if token in ("->", ";", "{"):
            fail(f"expected a node identifier, got {token!r}", offset)
        left = _unquote(token)
        i += 1
        if i < len(tokens) and tokens[i][0] == "->":
            i += 1
            if i >= len(tokens) or tokens[i][0] in ("->", ";", "{", "}"):
                fail("expected a node identifier after '->'", tokens[i - 1][1])
            right = _unquote(tokens[i][0])
            i += 1
            declare(left)
            declare(right)
            edges.append((left, right))
        else:
            declare(left)
        if i >= len(tokens) or tokens[i][0] != ";":
            fail("expected ';'", tokens[i][1] if i < len(tokens) else tokens[i - 1][1])
        i += 1
    if i >= len(tokens):
        raise ParseError("expected '}'", *_position(text, len(text)))
    return Dag(nodes, edges)


def _dag_to_dot(g):
    lines = ["digraph {"]
    for v in g.nodes:
        lines.append(f'  "{v}";')
    for u, v in sorted(g.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def load_dag(path):
    """Read a DAG from ``path`` (.json or .dot)."""
    if _format_of(path) == "json":
        return _dag_from_doc(_load_json(path))
    return _dag_from_dot(_read_text(path))


def save_dag(g, path):
    """Write a DAG to ``path`` (.json or .dot); load_dag inverts it."""
    if _format_of(path) == "json":
        _write_text(path, json.dumps(_dag_to_doc(g), indent=2) + "\n")
    else:
        _write_text(path, _dag_to_dot(g))


def load_summary(path):
    """Read a summary DAG from a JSON document."""
    if _format_of(path) != "json":
        raise ValidationError("summaries load from JSON only (DOT export is one-way)")
    doc = _load_json(path)
    _require(isinstance(doc, dict), "summary document must be an object")
    _require(doc.get("version") == FORMAT_VERSION, "unsupported document version")
    for key in ("base", "base_order", "clusters", "edges"):
        _require(key in doc, f"summary document needs {key!r}")
    base = _dag_from_doc(doc["base"])
    _require(_labels(doc["base_order"]), "'base_order' must be a list of labels")
    edges = _edge_pairs(doc["edges"], "summary document")
    clusters = doc["clusters"]
    _require(isinstance(clusters, dict), "'clusters' must map label -> members")
    mapping = {}
    for label, members in clusters.items():
        _require(isinstance(members, list) and members, f"cluster {label!r} is empty")
        _require(_labels(members), f"cluster {label!r} members must be labels")
        for v in members:
            _require(v not in mapping, f"node {v!r} appears in two clusters")
            mapping[v] = label
    quotient = Dag(list(clusters), edges)
    return SummaryDag(
        base,
        quotient,
        mapping,
        doc["base_order"],
        mutilated=bool(doc.get("mutilated", False)),
    )


def summary_to_doc(h):
    position = {v: i for i, v in enumerate(h.base_order)}
    doc = {
        "version": FORMAT_VERSION,
        "base": _dag_to_doc(h.base),
        "base_order": list(h.base_order),
        "clusters": {
            label: sorted(h.members(label), key=position.get)
            for label in h.quotient.nodes
        },
        "edges": [list(e) for e in sorted(h.quotient.edges)],
    }
    if h.mutilated:
        doc["mutilated"] = True
    return doc


def save_summary(h, path):
    """Write a summary to ``path``: JSON (lossless) or DOT (render-only)."""
    if _format_of(path) == "json":
        _write_text(path, json.dumps(summary_to_doc(h), indent=2) + "\n")
    else:
        export_summary_dot(h, path)


def export_summary_dot(h, path):
    """Render a summary as DOT: one node per cluster, labeled by members."""
    position = {v: i for i, v in enumerate(h.base_order)}
    lines = ["digraph {"]
    for label in h.quotient.nodes:
        members = ",".join(sorted(h.members(label), key=position.get))
        lines.append(f'  "{label}" [label="{members}"];')
    for u, v in sorted(h.quotient.edges):
        lines.append(f'  "{u}" -> "{v}";')
    lines.append("}")
    _write_text(path, "\n".join(lines) + "\n")


def load_similarity(path, threshold):
    """Read a similarity matrix CSV (first row/column are node labels)."""
    import csv

    try:
        rows = list(csv.reader(io.StringIO(_read_text(path), newline="")))
    except csv.Error as exc:
        raise ParseError(f"malformed CSV: {exc}") from None
    _require(rows and len(rows[0]) > 1, "similarity CSV needs a label header")
    labels = rows[0][1:]
    index = {label: i for i, label in enumerate(labels)}
    _require(len(index) == len(labels), "duplicate labels in similarity header")
    n = len(labels)
    values = np.zeros((n, n))
    filled = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        _require(
            len(row) == n + 1,
            f"line {lineno}: expected {n + 1} fields, got {len(row)}",
        )
        label = row[0]
        _require(label in index, f"line {lineno}: unknown row label {label!r}")
        _require(label not in filled, f"line {lineno}: duplicate row {label!r}")
        filled.add(label)
        for col, cell in enumerate(row[1:]):
            try:
                values[index[label], col] = float(cell)
            except ValueError:
                raise ParseError(
                    f"not a number: {cell!r}", line=lineno, column=col + 2
                ) from None
    _require(len(filled) == n, "similarity CSV is missing rows for some labels")
    return cagres.SimilarityMatrix(labels, values, threshold)


# --- command-line interface -----------------------------------------------


def _parse_labels(text):
    return frozenset(text.split(",")) if text else frozenset()


def _fmt_members(members, position):
    return ",".join(sorted(members, key=position.get))


def _cmd_gen(args):
    g = bench.gen_random_dag(bench.GenSpec(args.n, args.density, args.seed))
    save_dag(g, args.out)
    return 0


def _cmd_summarize(args):
    if (args.similarity is None) != (args.tau is None):
        print("error: --similarity and --tau must be given together", file=sys.stderr)
        return 2
    g = load_dag(args.in_path)
    similarity = (
        load_similarity(args.similarity, args.tau) if args.similarity else None
    )
    cfg = cagres.CagresConfig(k=args.k, seed=args.seed, similarity=similarity)
    save_summary(cagres.summarize(g, cfg), args.out)
    return 0


def _cmd_canonical(args):
    save_dag(canonical(load_summary(args.in_path)), args.out)
    return 0


def _cmd_rb(args):
    doc = _load_json(args.in_path) if _format_of(args.in_path) == "json" else None
    if isinstance(doc, dict) and "clusters" in doc:
        h = load_summary(args.in_path)
        position = {v: i for i, v in enumerate(h.base_order)}
        statements = [ground_ci(h, s) for s in summary_recursive_basis(h)]
    else:
        g = load_dag(args.in_path)
        order = topological_order(g)
        position = {v: i for i, v in enumerate(order)}
        statements = list(recursive_basis(g, order))
    for s in statements:
        x = _fmt_members(s.x, position)
        y = _fmt_members(s.y, position)
        z = _fmt_members(s.z, position)
        print(f"{x} | {y} | {z}")
    return 0


def _cmd_query(args):
    query = SeparationQuery(
        x=_parse_labels(args.x), y=_parse_labels(args.y), z=_parse_labels(args.z)
    )
    if args.mode == "dsep":
        separated = d_separated(load_dag(args.in_path), query)
    else:
        separated = s_separated(load_summary(args.in_path), query)
    print("SEPARATED" if separated else "CONNECTED")
    return 0 if separated else 1


def _cmd_docalc(args):
    h = load_summary(args.in_path)
    query = docalc.DoQuery(
        y=_parse_labels(args.y),
        z=_parse_labels(args.z),
        x=_parse_labels(args.x),
        w=_parse_labels(args.w),
    )
    applies = docalc.rule_applies(
        h, args.rule.upper(), query, zw_in_hbar=args.zw_in_hbar
    )
    print("APPLIES SEPARATED" if applies else "NOT-APPLICABLE CONNECTED")
    return 0


def _cmd_metrics(args):
    report = bench.compare(load_summary(args.a), load_summary(args.b))
    print(
        f"{report.implied_a_by_b:.2f},{report.implied_b_by_a:.2f},"
        f"{report.additional_edges_a},{report.additional_edges_b}"
    )
    return 0


def _cmd_bruteforce(args):
    save_summary(bench.brute_force_summarize(load_dag(args.in_path), args.k), args.out)
    return 0


def _cmd_perturb(args):
    g = bench.perturb(load_dag(args.in_path), args.add, args.remove, args.seed)
    save_dag(g, args.out)
    return 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="causalsumm",
        description="Summarize causal DAGs and query the summaries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random DAG")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen)

    p = sub.add_parser("summarize", help="greedy summarization down to k clusters")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--similarity", help="similarity matrix CSV")
    p.add_argument("--tau", type=float, help="similarity threshold in [0,1]")
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_summarize)

    p = sub.add_parser("canonical", help="canonical causal DAG of a summary")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_canonical)

    p = sub.add_parser("rb", help="print the recursive basis, one CI per line")
    p.add_argument("--in", dest="in_path", required=True)
    p.set_defaults(handler=_cmd_rb)

    p = sub.add_parser("query", help="d-/s-separation query")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--mode", choices=("dsep", "ssep"), required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", default="")
    p.set_defaults(handler=_cmd_query)

    p = sub.add_parser("docalc", help="do-calculus rule applicability")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--rule", choices=("r1", "r2", "r3"), required=True)
    p.add_argument("--x", default="")
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--w", default="")
    p.add_argument(
        "--zw-in-hbar",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="compute rule 3's ancestor sets in the x-mutilated quotient",
    )
    p.set_defaults(handler=_cmd_docalc)

    p = sub.add_parser("metrics", help="pairwise RB implication of two summaries")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(handler=_cmd_metrics)

    p = sub.add_parser("bruteforce", help="exhaustive best summary (small graphs)")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_bruteforce)

    p = sub.add_parser("perturb", help="randomly remove then add edges")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--add", type=int, required=True)
    p.add_argument("--remove", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_perturb)

    return parser


def cli(argv=None):
    """Run the command line; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
