"""Command-line front end.

Verbs: normalize, classify, dual-check, verify-mes, make-mes, relations-test,
simulate.  Exit codes: 0 success / verdict true, 1 verdict false, 2 usage or
parse error, 3 resource guard, 4 internal error (one `internal error: ...`
line on stderr).  No verb takes a tolerance: the two verdicts that compare
floats, dual-check's signature match (its H/V dressing verdict is exact)
and every cut of verify-mes, use the one tolerance simulator.DEFAULT_TOL =
1e-10, which their JSON reports as "tolerance".  relations-test checks each
field up to order 5 on every case and each field past it on a fixed 1000
random cases drawn from --seed, the rules and then both parameters each in
one array call.  Each rule's right-hand side comes from the rule table
(rewrite.RELATIONS), which this verb alone reads, computed once over all
the rule's draws; every draw is checked and counted as drawn, a case drawn
twice twice.  Each field's JSON report gives "decided_by": "affine-rows".
--fields takes comma-separated decimal field orders, and names a bad entry
in its usage error; --seed takes a non-negative decimal integer, whichever
fields it is read for.  Every integer argument, classify's N and make-mes's
d included, is ASCII decimal (gf._ascii_int): '+', '_' and digits of other
scripts are usage errors.
normalize --verify decides exactly, with no dense state and so at any size:
it runs the graph's rows back through the inverse circuit
(rewrite.pulls_back_to_register), and its JSON gives "decided_by":
"inverse-circuit".  normalize writes its graph from the graph's edge table
(GraphState.edge_table): JSON, text and DOT each render every edge in one %
over a per-edge template (rewrite.format_rows), the JSON byte for byte as
json.dumps(..., indent=2, sort_keys=True) writes graph_to_json_dict.
simulate is exact over GF(2^m), from the affine-quadratic form
(simulator.quadratic_form_support), and dense over an odd p; on both lanes
an output past the ket guard (simulator.check_ket_count) exits 3 before
any ket is listed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import traceback
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .classify import classify
from .duality import verify_dual_equivalence
from .entangle import build_mes, mes_verdict
from .gf import Field, _ascii_int
from .rewrite import (
    CircuitParseError,
    GraphState,
    canonicalize,
    format_rows,
    graph_from_json_dict,
    graph_to_dot,
    parse_circuit,
    pulls_back_to_register,
    relations_suite,
)
from .simulator import (
    DEFAULT_TOL,
    ResourceGuardError,
    SupportState,
    check_ket_count,
    dump_state,
    ket_digits,
    parse_state,
    quadratic_form_support,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_INTERNAL = 4


def _emit_json(obj) -> None:
    print(_json_text(obj))


def _json_float(x: float) -> str:
    """A float as json.dumps writes it: float.__repr__, or NaN, Infinity and -Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# leaf type -> its JSON text, as json.dumps writes it (ensure_ascii)
_JSON_LEAVES = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _json_float,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _json_text(obj, indent: str = "") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, with its bulk written at C speed.

    indent is the indentation of the line obj starts on.  Dicts with string
    keys, lists, tuples and the leaves of _JSON_LEAVES are written here,
    each leaf by the function json itself uses for it (an int in a dict in
    place), and a list of ints as one join.  A GraphState is written as
    json.dumps writes its graph_to_json_dict, from its edge table
    (_graph_json).  Everything else (a dict with a key that is not a
    string, a numpy scalar) goes to json.dumps, re-indented: JSON text holds
    no raw newline but those between its lines.
    """
    leaf = _JSON_LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if type(obj) is GraphState:
        return _graph_json(obj, indent)
    inner = indent + "  "
    if type(obj) is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        # an int value (a count, a wire) is written in place, with no call
        items = [f"{inner}{encode_basestring_ascii(key)}: {value if type(value) is int else _json_text(value, inner)}"
                 for key, value in sorted(obj.items())]
        return "{\n" + ",\n".join(items) + "\n" + indent + "}"
    if type(obj) in (list, tuple):
        if not obj:
            return "[]"
        if set(map(type, obj)) == {int}:
            body = inner + (",\n" + inner).join(map(int.__repr__, obj))
        else:
            body = ",\n".join([inner + _json_text(item, inner) for item in obj])
        return "[\n" + body + "\n" + indent + "]"
    return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _graph_json(g: GraphState, indent: str) -> str:
    """_json_text(graph_to_json_dict(g), indent), its edges one format_rows of g.edge_table: no dict per edge."""
    inner, item = indent + "  ", indent + "    "
    edges = "[]"
    if len(g.edge_table):
        template = f'{item}{{\n{item}  "from": %d,\n{item}  "label": %d,\n{item}  "to": %d\n{item}}}'
        edges = "[\n" + format_rows(template, g.edge_table[:, [0, 2, 1]], ",\n") + "\n" + inner + "]"
    members = {
        "O": _json_text(list(g.o_wires), inner),
        "S": _json_text(list(g.s_wires), inner),
        "edges": edges,
        "field": _json_text({"n": g.field.n, "p": g.field.p, "poly": g.field.poly_index}, inner),
    }
    return "{\n" + ",\n".join(f'{inner}"{key}": {text}' for key, text in members.items()) + "\n" + indent + "}"


def _field_arg(text: str) -> Field:
    try:
        return Field.from_descriptor(text)
    except ValueError as exc:  # argparse would print only "invalid _field_arg value"
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _int_arg(text: str) -> int:
    """classify N and make-mes d: ASCII decimal with an optional '-' (_ascii_int); the verb checks the range."""
    try:
        return _ascii_int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _unsigned_arg(text: str, message: str) -> int:
    """_int_arg without the '-': any other text is a usage error carrying message."""
    if text.startswith("-"):
        raise argparse.ArgumentTypeError(message)
    try:
        return _int_arg(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(message) from None


def _fields_arg(text: str) -> list[Field]:
    """--fields: comma-separated field orders (ASCII, spaces allowed); a bad entry is named in the usage error."""
    fields = []
    for entry in text.split(","):
        message = f"entry {entry!r} is not a decimal field order"
        order = _unsigned_arg(entry.strip() if entry.isascii() else entry, message)
        try:
            fields.append(Field.of_order(order))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return fields


def _seed_arg(text: str) -> int:
    """--seed: a non-negative ASCII decimal integer, checked here because only fields past order 5 read it."""
    return _unsigned_arg(text, f"{text!r} is not a non-negative decimal integer")


# ---------------------------------------------------------------------------
# Verb handlers
# ---------------------------------------------------------------------------

def _normalize_text(perm: tuple[int, ...], graph: GraphState) -> str:
    """normalize --format text: the permutation, S and O lines, then one line per row of graph.edge_table."""
    return (f"permutation: {' '.join(map(str, perm))}\nS: {' '.join(map(str, graph.s_wires))}\n"
            f"O: {' '.join(map(str, graph.o_wires))}\n" + format_rows("edge %d -> %d label %d\n", graph.edge_table))


def cmd_normalize(args) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text())
    perm, graph = canonicalize(circuit)
    verification = status = None
    if args.verify:
        verification = {"decided_by": "inverse-circuit", "equal": pulls_back_to_register(circuit, graph)}
        status = f"verification: {'OK' if verification['equal'] else 'MISMATCH'} (inverse-circuit)"
    if args.format == "json":
        _emit_json({"permutation": list(perm), "graph": graph, "verification": verification})
    else:
        out = graph_to_dot(graph) if args.format == "dot" else _normalize_text(perm, graph)
        if status is not None:
            out += ("// " if args.format == "dot" else "") + status + "\n"
        print(out, end="")
    if verification is not None and not verification["equal"]:
        return EXIT_FALSE
    return EXIT_OK


def cmd_classify(args) -> int:
    report = classify(args.field, args.n)
    if args.format == "text":
        print(f"field {report['field']}  N={report['n']}  classes={report['count']}")
        for cls in report["classes"]:
            orbit_counts = ", ".join(str(o["count"]) for o in cls["signature_orbits"])
            print(
                f"  class |S|={cls['sources']}: {cls['graphs']} graphs, "
                f"{len(cls['signature_orbits'])} signature orbit(s) [{orbit_counts}]"
            )
    else:
        _emit_json(report)
    return EXIT_OK


def cmd_dual_check(args) -> int:
    graph = graph_from_json_dict(json.loads(Path(args.graph).read_text()))
    report = verify_dual_equivalence(graph)
    _emit_json(report.to_dict())
    return EXIT_OK if report.signature_match else EXIT_FALSE


def cmd_verify_mes(args) -> int:
    report = mes_verdict(parse_state(Path(args.state).read_text()))
    _emit_json(report.to_dict())
    return EXIT_OK if report.verdict else EXIT_FALSE


def cmd_make_mes(args) -> int:
    built = build_mes(args.d)
    if not built.ok:
        print(f"refused: {built.reason}", file=sys.stderr)
        _emit_json(built.to_dict())
        return EXIT_FALSE
    text = dump_state(built.state, header=[f"construction {built.construction}"])
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote {args.output} ({built.construction})")
    else:
        print(text, end="")
    return EXIT_OK


def cmd_relations_test(args) -> int:
    all_ok = True
    reports = []
    for fld in args.fields:
        report = relations_suite(fld, seed=args.seed)
        reports.append(report)
        all_ok &= report["ok"]
        if args.format == "text":
            print(f"field {fld.descriptor()} ({report['mode']}):")
            for name in sorted(report["relations"]):
                entry = report["relations"][name]
                failed = f"FAIL at {entry['first_failure']}" if entry["checked"] else "UNCHECKED"
                status = "ok" if entry["ok"] else failed
                print(f"  {name:24s} {entry['checked']:5d} cases  {status}")
    if args.format == "json":
        _emit_json(reports)
    return EXIT_OK if all_ok else EXIT_FALSE


def cmd_simulate(args) -> int:
    circuit = parse_circuit(Path(args.circuit).read_text())
    fld, n = circuit.field, circuit.n_qudits
    if fld.p == 2:
        state = quadratic_form_support(fld, n, circuit.init, circuit.columns)
    else:
        amps = circuit.simulate().amps
        kets = np.flatnonzero(np.abs(amps) > 1e-14)  # smaller is residue of odd-p H, not a ket
        check_ket_count(len(kets), n)
        state = SupportState(fld.d, n, ket_digits(kets, fld.d, n), amps[kets])
    print(dump_state(state), end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

DESCRIPTION = (
    "Exact graph-state answers for generalized-CNOT circuits over GF(p^n).  "
    "Verbs: normalize, classify, dual-check, verify-mes, make-mes, relations-test, simulate.  "
    "Exit codes: 0 success or verdict true, 1 verdict false, 2 usage or parse error, "
    "3 resource guard, 4 internal error.  "
    f"No verb takes a tolerance: the float verdicts of dual-check and verify-mes use {DEFAULT_TOL:g}."
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quditgraph", description=DESCRIPTION)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("normalize", help="reduce a C-only circuit file to its bipartite graph")
    p.add_argument("circuit")
    p.add_argument("--format", choices=["json", "dot", "text"], default="json")
    p.add_argument("--verify", action="store_true", help="check the graph exactly by pulling it back through the inverse circuit")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("classify", help="enumerate and classify graph states at small N")
    p.add_argument("n", type=_int_arg)
    p.add_argument("--field", type=_field_arg, required=True, metavar="'p n [poly]'")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("dual-check", help="verify a graph against its dual (JSON graph input)")
    p.add_argument("graph")
    p.set_defaults(func=cmd_dual_check)

    p = sub.add_parser("verify-mes", help="check a state dump for 4-party maximal entanglement")
    p.add_argument("state")
    p.set_defaults(func=cmd_verify_mes)

    p = sub.add_parser("make-mes", help="construct a maximally entangled 4-party state")
    p.add_argument("d", type=_int_arg)
    p.add_argument("--output", help="write the state dump to this path")
    p.set_defaults(func=cmd_make_mes)

    p = sub.add_parser("relations-test", help="exact operator check of all rewrite rules")
    p.add_argument("--fields", type=_fields_arg, default="2,3,4,5", help="comma-separated prime powers")
    p.add_argument("--seed", type=_seed_arg, default=0)
    p.add_argument("--format", choices=["json", "text"], default="text")
    p.set_defaults(func=cmd_relations_test)

    p = sub.add_parser("simulate", help="simulate a circuit file and dump the state: exact over GF(2^m), dense over odd p")
    p.add_argument("circuit")
    p.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser, once per process: parse_args fills a fresh namespace on every call."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CircuitParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # never let a stray exception exit 1, which means "false"
        where = traceback.extract_tb(exc.__traceback__)[-1]
        print(f"internal error: {exc!r} at {Path(where.filename).name}:{where.lineno}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
