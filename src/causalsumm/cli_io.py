"""File formats and the command-line interface.

Graphs and summaries travel as small versioned JSON documents; a DOT
subset (``digraph { "A"; "A" -> "B"; }``) is supported for interop with
graph viewers. The ``causalsumm`` entry point wires every library
operation to a subcommand. All text I/O is UTF-8 with LF line endings
on every OS, and identical invocations produce byte-identical files.

Every file the package writes goes through ``_output``, the one writer:
an existing output is rewritten in place and cut to the new length, never
truncated to zero first. The write is not atomic and is not synced to
disk.
"""

import argparse
import contextlib
import functools
import io
import json
import os
import re
import stat
import sys
from itertools import chain

from . import bench, cagres, docalc
from .graph_core import Dag, GraphError, ValidationError
from .separation import SeparationQuery, d_separated, s_separated
from .summary import (
    SummaryDag,
    canonical_rows,
    ground_ci,
    summary_recursive_basis,
    trivial_summary,
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
    # Path(path).suffix, without building a Path: the last component that is
    # neither empty nor ".", from its last dot, unless that dot starts or
    # ends it (so a dot-file such as ".json" has no suffix)
    text = os.path.splitdrive(os.fspath(path))[1]
    if os.altsep:
        text = text.replace(os.altsep, os.sep)
    name = next((part for part in reversed(text.split(os.sep)) if part not in ("", ".")), "")
    dot = name.rfind(".")
    suffix = name[dot:].lower() if 0 < dot < len(name) - 1 else ""
    if suffix == ".json":
        return "json"
    if suffix == ".dot":
        return "dot"
    raise ValidationError(f"unsupported file extension: {path}")


def _read_text(path):
    try:
        with open(os.fspath(path), encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}") from None


@contextlib.contextmanager
def _output(path):
    """Open ``path`` for writing UTF-8 text with LF line endings.

    This is the only place the package opens a file for writing. The file
    is opened without truncating it, so an existing one is written over in
    place, and on exit, an exception included, a regular file is cut at
    the end of what was written. It then holds the bytes ``open(path,
    "w")`` would have left: the new text, or a prefix of it, and never a
    tail of the old file. Truncating to zero first makes ext4 (mounted
    with ``auto_da_alloc``) start writeback on close, which costs far more
    than writing a small file. Outputs that are not regular files, such
    as ``/dev/null`` or a FIFO, are written but not truncated.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    try:
        fh = io.open(fd, "w", encoding="utf-8", newline="\n")
    except BaseException:
        os.close(fd)
        raise
    with fh:
        try:
            yield fh
        finally:
            try:
                fh.flush()
            finally:
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))


def _load_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("document is nested too deeply") from None


def _require(condition, message):
    if not condition:
        raise ParseError(message)


def _require_version(doc):
    # JSON true and 1.0 compare equal to 1 in Python; only the integer counts
    version = doc.get("version")
    _require(type(version) is int and version == FORMAT_VERSION, "unsupported document version")


def _labels(values):
    # one pass over the types; only a list of str subclasses needs the second
    return isinstance(values, list) and (
        {*map(type, values)} <= {str} or all(isinstance(v, str) for v in values)
    )


def _edge_pairs(edges, what):
    _require(isinstance(edges, list), f"{what} needs an 'edges' list")
    if not (
        {*map(type, edges)} <= {list}
        and {*map(len, edges)} <= {2}
        and {*map(type, chain.from_iterable(edges))} <= {str}
    ):
        for e in edges:  # name the first edge that is not a pair of labels
            _require(
                _labels(e) and len(e) == 2, f"edge must be a [tail, head] pair of labels: {e}"
            )
    return list(map(tuple, edges))


def _dag_from_doc(doc, order=None):
    """A graph document's ``Dag``. With a summary's ``order``, edges that are
    all lists first try ``Dag._ordered``, whose one forward pass stands in
    for Kahn's pass and the summary's order test; when it fails, ``Dag``
    raises what the per-item checks would, in their order."""
    _require(isinstance(doc, dict), "graph document must be an object")
    _require_version(doc)
    nodes = doc.get("nodes")
    _require(isinstance(nodes, list), "graph document needs a 'nodes' list")
    edges = doc.get("edges", [])
    if isinstance(order, list) and isinstance(edges, list) and {*map(type, edges)} <= {list}:
        g = Dag._ordered(nodes, edges, order)
        if g is not None:
            return g
    return Dag(nodes, _edge_pairs(edges, "graph document"))


# --- the DOT subset -------------------------------------------------------

# a quoted identifier escapes its backslashes and double quotes
_DOT_TOKEN = re.compile(r'"(?:[^"\\\n]|\\.)*"|->|[{};]|[A-Za-z0-9_.]+')
_DOT_ESCAPE = re.compile(r'\\([\\"])')


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
    # undoes exactly the two escapes _dot_quote writes; any other
    # backslash is a literal character of the label
    if token.startswith('"'):
        return _DOT_ESCAPE.sub(r"\1", token[1:-1])
    return token


def _dot_quote(label):
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


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


def load_dag(path):
    """Read a DAG from ``path`` (.json or .dot)."""
    if _format_of(path) == "json":
        return _dag_from_doc(_load_json(path))
    return _dag_from_dot(_read_text(path))


def save_dag(g, path):
    """Write a DAG to ``path`` (.json or .dot); load_dag inverts it."""
    _write_graph(path, g.nodes, functools.partial(_edge_rows, g))


def _edge_rows(g, name):
    """``(tail, heads)`` as ``name``'s text, tails and heads in label order."""
    return ((name(u), list(map(name, sorted(g.children(u))))) for u in sorted(g.nodes))


def _write_graph(path, nodes, rows):
    """Write a graph as ``save_dag`` lays it out, one edge row at a time.

    ``rows(name)`` yields ``(tail, heads)`` already as text, each label
    given as ``name(label)``, with tails and heads in label order, so the
    edges come out in ``sorted(edges)`` order. ``name`` encodes each label
    once: as a JSON string for JSON (``json.encoder.encode_basestring_ascii``,
    the text ``json.dumps`` gives a ``str``), whose layout is the one
    ``json.dumps(doc, indent=2)`` gives, and as a quoted DOT identifier for
    DOT, whose layout declares every node, then every edge.
    """
    is_json = _format_of(path) == "json"
    quote = json.encoder.encode_basestring_ascii if is_json else _dot_quote
    quoted = {v: quote(v) for v in nodes}
    rows = rows(quoted.__getitem__)
    with _output(path) as fh:
        if is_json:
            _json_graph(fh, quoted.values(), rows, "")
            fh.write("\n")
        else:
            fh.write("digraph {\n")
            fh.writelines(f"  {q};\n" for q in quoted.values())
            for u, heads in rows:
                if heads:
                    tail = f"  {u} -> "
                    fh.write(tail + f";\n{tail}".join(heads) + ";\n")
            fh.write("}\n")


# The pieces of ``json.dumps(doc, indent=2)``'s layout, for a value whose
# opening bracket sits at indentation ``pad``; items are encoded JSON text.


def _json_items(items, pad, brackets="[]"):
    inner = "\n  " + pad
    if not items:
        return brackets
    return brackets[0] + inner + f",{inner}".join(items) + "\n" + pad + brackets[1]


def _json_graph(fh, nodes, rows, pad):
    """A graph document: its nodes, then its edge rows as ``[tail, head]``."""
    fh.write(f'{{\n{pad}  "version": {FORMAT_VERSION},\n{pad}  "nodes": ')
    fh.write(_json_items(nodes, pad + "  "))
    fh.write(f',\n{pad}  "edges": ')
    _json_edges(fh, rows, pad + "  ")
    fh.write(f"\n{pad}}}")


def _json_edges(fh, rows, pad):
    fh.write("[")
    sep = ""
    for u, heads in rows:
        if heads:
            tail = f"\n{pad}  [\n{pad}    {u},\n{pad}    "
            fh.write(sep + tail + f"\n{pad}  ],{tail}".join(heads))
            sep = f"\n{pad}  ],"
    fh.write(f"\n{pad}  ]\n{pad}]" if sep else "]")


def load_summary(path):
    """Read a summary DAG from a JSON document."""
    if _format_of(path) != "json":
        raise ValidationError("summaries load from JSON only (DOT export is one-way)")
    return _summary_from_doc(_load_json(path))


def _summary_from_doc(doc):
    _require(isinstance(doc, dict), "summary document must be an object")
    _require_version(doc)
    for key in ("base", "base_order", "clusters", "edges"):
        _require(key in doc, f"summary document needs {key!r}")
    base = _dag_from_doc(doc["base"], doc["base_order"])
    _require(_labels(doc["base_order"]), "'base_order' must be a list of labels")
    edges = _edge_pairs(doc["edges"], "summary document")
    clusters = doc["clusters"]
    _require(isinstance(clusters, dict), "'clusters' must map label -> members")
    mapping = _cluster_mapping(clusters)
    # a mutilated summary skips edge preservation, so only JSON true may say so
    mutilated = doc.get("mutilated", False)
    _require(type(mutilated) is bool, "'mutilated' must be true or false")
    quotient = Dag(list(clusters), edges)
    return SummaryDag(base, quotient, mapping, doc["base_order"], mutilated=mutilated)


def _cluster_mapping(clusters):
    """Member -> cluster label, for clusters that are non-empty lists of
    labels with no label in two of them."""
    groups = clusters.values()
    if {*map(type, groups)} <= {list} and all(groups):
        members = list(chain.from_iterable(groups))
        if {*map(type, members)} <= {str} and len(set(members)) == len(members):
            return {v: label for label, vs in clusters.items() for v in vs}
    # one cluster at a time, to name the first bad cluster or repeated node
    mapping = {}
    for label, members in clusters.items():
        _require(isinstance(members, list), f"cluster {label!r} must be a list of labels")
        _require(members, f"cluster {label!r} is empty")
        _require(_labels(members), f"cluster {label!r} members must be labels")
        for v in members:
            _require(v not in mapping, f"node {v!r} appears in two clusters")
            mapping[v] = label
    return mapping


def save_summary(h, path):
    """Write a summary to ``path``: JSON (lossless) or DOT (render-only).

    The JSON layout is ``json.dumps(doc, indent=2)``'s for the document
    ``{"version", "base", "base_order", "clusters", "edges"}``, plus
    ``"mutilated": true`` for a mutilated summary, streamed like a graph.
    """
    if _format_of(path) != "json":
        export_summary_dot(h, path)
        return
    quote = json.encoder.encode_basestring_ascii
    quoted = {v: quote(v) for v in h.base.nodes}
    labels = {label: quote(label) for label in h.quotient.nodes}
    clusters = [
        f"{labels[label]}: " + _json_items([quoted[v] for v in members], "    ")
        for label, members in h.ordered_clusters.items()
    ]
    with _output(path) as fh:
        fh.write(f'{{\n  "version": {FORMAT_VERSION},\n  "base": ')
        _json_graph(fh, quoted.values(), _edge_rows(h.base, quoted.__getitem__), "  ")
        fh.write(',\n  "base_order": ' + _json_items([quoted[v] for v in h.base_order], "  "))
        fh.write(',\n  "clusters": ' + _json_items(clusters, "  ", "{}"))
        fh.write(',\n  "edges": ')
        _json_edges(fh, _edge_rows(h.quotient, labels.__getitem__), "  ")
        fh.write(',\n  "mutilated": true\n}\n' if h.mutilated else "\n}\n")


def export_summary_dot(h, path):
    """Render a summary as DOT: one node per cluster, labeled by members."""
    lines = ["digraph {"]
    for label, members in h.ordered_clusters.items():
        lines.append(f"  {_dot_quote(label)} [label={_dot_quote(','.join(members))}];")
    for u, v in sorted(h.quotient.edges):
        lines.append(f"  {_dot_quote(u)} -> {_dot_quote(v)};")
    lines.append("}")
    with _output(path) as fh:
        fh.write("\n".join(lines) + "\n")


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
    values = [[0.0] * n for _ in range(n)]
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
                values[index[label]][col] = float(cell)
            except ValueError:
                raise ParseError(
                    f"not a number: {cell!r}", line=lineno, column=col + 2
                ) from None
    _require(len(filled) == n, "similarity CSV is missing rows for some labels")
    return cagres.SimilarityMatrix(labels, values, threshold)


# --- command-line interface -----------------------------------------------


def _parse_labels(text):
    return frozenset(text.split(",")) if text else frozenset()


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
    h = load_summary(args.in_path)
    _write_graph(args.out, h.base_order, functools.partial(canonical_rows, h))
    return 0


def _cmd_rb(args):
    # a graph is read as its trivial summary, whose singletons keep their labels
    is_json = _format_of(args.in_path) == "json"
    doc = _load_json(args.in_path) if is_json else None
    if isinstance(doc, dict) and "clusters" in doc:
        h = _summary_from_doc(doc)
    else:
        h = trivial_summary(_dag_from_doc(doc) if is_json else load_dag(args.in_path))
    position = {v: i for i, v in enumerate(h.base_order)}.get
    for s in (ground_ci(h, c) for c in summary_recursive_basis(h)):
        print(" | ".join(",".join(sorted(part, key=position)) for part in (s.x, s.y, s.z)))
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


@functools.cache
def _build_parser():
    """The command-line parser and its command parsers by name, built once
    per process.

    ``parse_args`` leaves a parser unchanged and returns a fresh
    ``Namespace`` on each call, so one parser serves every ``cli`` call.
    """
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

    return parser, sub.choices


def _parse(argv):
    """``parser.parse_args(argv)``, with a command word sent straight to its
    command's parser.

    That skips the top-level parse, which would only hand the command's
    parser every argument after the word and fail what it leaves over
    with this same error. Help, usage errors and unknown commands take the
    top-level parse. The namespace has no ``command`` attribute, which no
    handler reads.
    """
    parser, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def cli(argv=None):
    """Run the command line; returns the process exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if hasattr(args, "out"):  # an unsupported extension fails before any work
            _format_of(args.out)
        return args.handler(args)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a valid input too large for this machine
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))
