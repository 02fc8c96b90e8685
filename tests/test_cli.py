import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import quditgraph
from quditgraph import cli, graph_to_dot, graph_to_json_dict, kernels, make_graph_state, simulator
from quditgraph.cli import main
from quditgraph.rewrite import pulls_back_to_register

from util import (dense_verification, dot_oracle, edges_oracle, field_for, json_oracle, negate_last,
                  normalize_text_oracle, random_c_circuit, random_graph_state, serialize_circuit, spoiled)

EXAMPLE_CIRCUIT = """\
field 2 2 3
qudits 4
init s s 0 0
C 1 3 1
C 1 4 1
C 2 3 1
C 2 4 2
C 3 1 3
"""

BELL_CIRCUIT = "field 3 1 0\nqudits 2\ninit s 0\nC 1 2 1\n"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_states_the_contract_not_the_internals(capsys):
    code, out, err = run_cli(capsys, "--help")
    text = " ".join(out.split())  # argparse wraps the description anywhere
    assert code == 0 and not err
    for verb in ("normalize", "classify", "dual-check", "verify-mes", "make-mes", "relations-test", "simulate"):
        assert f" {verb} " in text, verb
    for status in ("0 success or verdict true", "1 verdict false", "2 usage or parse error", "3 resource guard",
                   "4 internal error"):
        assert status in text, status
    assert "1e-10" in text
    assert not any(name in out for name in ("rewrite.", "simulator.", "commute_pair"))


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------

def test_normalize_example_circuit(tmp_path, capsys):
    path = tmp_path / "example.qc"
    path.write_text(EXAMPLE_CIRCUIT)
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["S"] == [1, 2]
    assert data["graph"]["O"] == [3, 4]
    assert data["verification"]["equal"] is True
    assert data["permutation"] == [1, 2, 3, 4]


def test_normalize_single_gate(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["graph"] == {
        "field": {"p": 3, "n": 1, "poly": 0},
        "S": [1], "O": [2],
        "edges": [{"from": 1, "to": 2, "label": 1}],
    }


def test_normalize_cancelling_gates(tmp_path, capsys):
    path = tmp_path / "cancel.qc"
    path.write_text("field 3 1 0\nqudits 2\ninit s 0\nC 1 2 1\nC 1 2 2\n")
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify")
    assert code == 0
    data = json.loads(out)
    assert data["graph"]["edges"] == []
    assert data["verification"]["equal"] is True


def test_normalize_round_trip_identical_json(tmp_path, capsys):
    from quditgraph import graph_from_json_dict

    path = tmp_path / "example.qc"
    path.write_text(EXAMPLE_CIRCUIT)
    code, out1, _ = run_cli(capsys, "normalize", str(path))
    graph = graph_from_json_dict(json.loads(out1)["graph"])
    path2 = tmp_path / "roundtrip.qc"
    path2.write_text(serialize_circuit(graph.to_circuit()))
    code, out2, _ = run_cli(capsys, "normalize", str(path2))
    assert code == 0
    assert out1 == out2


def test_normalize_dot_output(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    code, out, _ = run_cli(capsys, "normalize", str(path), "--format", "dot", "--verify")
    assert code == 0
    assert out.startswith("digraph")
    assert "// verification: OK" in out


def test_normalize_text_output(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    code, out, _ = run_cli(capsys, "normalize", str(path), "--format", "text", "--verify")
    assert code == 0
    assert "S: 1" in out and "O: 2" in out
    assert "edge 1 -> 2 label 1" in out
    assert "verification: OK" in out


@pytest.mark.parametrize("fmt", ["json", "dot", "text"])
def test_normalize_verify_mismatch_exit_1(tmp_path, capsys, monkeypatch, fmt):
    # a graph whose support differs from the circuit's state is reported, whatever the format
    from quditgraph import make_graph_state

    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    wrong = make_graph_state(quditgraph.Field(3, 1), [1], [2], [(1, 2, 2)])
    monkeypatch.setattr("quditgraph.cli.canonicalize", lambda circuit: ((1, 2), wrong))
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out)["verification"]["equal"] is False
    else:
        assert "verification: MISMATCH" in out


def test_normalize_verify_decides_by_support_not_float_deviation(monkeypatch):
    # the dense oracle of --verify decides by support; a float deviation is only reported
    from quditgraph import Circuit, StateVector

    circuit = quditgraph.parse_circuit(EXAMPLE_CIRCUIT)
    graph = quditgraph.canonicalize(circuit)[1]
    exact = Circuit.simulate

    def rounded(circuit):
        state = exact(circuit)
        return StateVector(state.field, state.n, state.amps * (1 + 1e-6))

    monkeypatch.setattr(Circuit, "simulate", rounded)
    verification = dense_verification(circuit, graph)
    assert verification["equal"] is True
    assert 1e-8 < verification["max_deviation"] < 1e-6
    assert pulls_back_to_register(circuit, graph)


def test_normalize_verify_needs_the_full_support(monkeypatch):
    # a simulated state on one of the graph's d^k kets has no ket outside its support, yet differs
    from quditgraph import StateVector

    circuit = quditgraph.parse_circuit(BELL_CIRCUIT)
    graph = quditgraph.canonicalize(circuit)[1]
    one_ket = lambda circuit: StateVector(circuit.field, 2, np.eye(1, 9, dtype=complex)[0])
    monkeypatch.setattr(quditgraph.Circuit, "simulate", one_ket)
    verification = dense_verification(circuit, graph)
    assert verification["equal"] is False
    assert verification["max_deviation"] == pytest.approx(3 ** -0.5)


def test_normalize_verify_builds_no_dense_graph_state(tmp_path, capsys, monkeypatch):
    # neither side of the check is a dense vector: no simulation, no initial state, no graph state
    from quditgraph import Circuit, GraphState, SymbolicState, rewrite

    def refuse(*args, **kwargs):
        raise AssertionError("normalize --verify built a dense state")

    path = tmp_path / "example.qc"
    path.write_text(EXAMPLE_CIRCUIT)
    expected = run_cli(capsys, "normalize", str(path), "--verify")
    monkeypatch.setattr(SymbolicState, "dense_amps", refuse)
    monkeypatch.setattr(GraphState, "state", refuse)
    monkeypatch.setattr(Circuit, "simulate", refuse)
    for module in (simulator, rewrite):  # rewrite holds its own references to both
        monkeypatch.setattr(module, "_run_raw", refuse)
        monkeypatch.setattr(module, "init_state", refuse)
    assert run_cli(capsys, "normalize", str(path), "--verify") == expected
    assert expected[0] == 0
    assert json.loads(expected[1])["verification"] == {"decided_by": "inverse-circuit", "equal": True}


def test_normalize_verify_answers_past_the_dense_guard(tmp_path, capsys):
    # 2^30 amplitudes: the dense check exited 3 here; the pull-back needs no state vector
    rng = np.random.default_rng(30)
    control = rng.integers(1, 31, size=600)
    target = (control + rng.integers(1, 30, size=600) - 1) % 30 + 1
    gates = "".join(f"C {m} {t} 1\n" for m, t in zip(control.tolist(), target.tolist()))
    path = tmp_path / "wide30.qc"
    path.write_text("field 2 1\nqudits 30\ninit " + " ".join("s0" * 15) + "\n" + gates)
    code, out, err = run_cli(capsys, "normalize", str(path), "--verify")
    assert (code, err) == (0, "")
    assert json.loads(out)["verification"] == {"decided_by": "inverse-circuit", "equal": True}


def test_normalize_verify_catches_a_defect_of_the_forward_tracking(tmp_path, capsys, monkeypatch):
    # C(a) tracked as C(2a) gives a wrong graph; the pull-back runs its own inverse gates, so it is not fooled
    from quditgraph import rewrite
    from quditgraph.simulator import KIND_C, GateColumns

    real = rewrite._track_packed

    def doubled(fld, rows, columns):
        param = np.where(columns.kind == KIND_C, fld.mul_arr(2, columns.param), columns.param)
        real(fld, rows, GateColumns(columns.kind, columns.wire1, columns.wire2, param))

    path = tmp_path / "example.qc"
    path.write_text(EXAMPLE_CIRCUIT)
    monkeypatch.setattr(rewrite, "_track_packed", doubled)
    circuit = quditgraph.parse_circuit(EXAMPLE_CIRCUIT)
    assert dense_verification(circuit, quditgraph.canonicalize(circuit)[1])["equal"] is False
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify")
    assert code == 1
    assert json.loads(out)["verification"] == {"decided_by": "inverse-circuit", "equal": False}


def test_normalize_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.qc"
    path.write_text("field 3 1 0\nqudits 2\ninit s 0\nC 1\n")
    code, _, err = run_cli(capsys, "normalize", str(path))
    assert code == 2
    assert "line 4" in err


@pytest.mark.parametrize("text, line", [
    ("field 2 1 0\nqudits 3\ninit s 0 0\nC 1 5 1\n", 4),  # wire out of range
    ("field 3 1 0\nqudits 3\ninit s 0 0\nC 1 2 1\nD 2 0\n", 5),  # D(0)
    ("field 3 1 0\nqudits 3\ninit s 0 x\n", 3),  # bad init entry
])
def test_normalize_names_the_line_circuit_rejects(tmp_path, capsys, text, line):
    path = tmp_path / "bad.qc"
    path.write_text(text)
    code, out, err = run_cli(capsys, "normalize", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: line {line}: ")


HEADER = "field 3 1 0\nqudits 3\ninit s 0 0\n"


@pytest.mark.parametrize("text, line, message", [
    (HEADER + "C 1 2\n", 4, "C gate takes 3 argument(s)"),
    (HEADER + "A 1 2 3\n", 4, "A gate takes 2 argument(s)"),
    (HEADER + "C 1 x 1\n", 4, "invalid literal for int() with base 10: 'x'"),
    (HEADER + "C 1 2 1.5\n", 4, "invalid literal for int() with base 10: '1.5'"),
    (HEADER + "C 0 2 1\n", 4, "wire 0 out of range 1..3"),
    (HEADER + "C 1 4 1\n", 4, "wire 4 out of range 1..3"),
    (HEADER + "A -1 1\n", 4, "wire -1 out of range 1..3"),
    (HEADER + "C 2 2 1\n", 4, "wires of a two-qudit gate must be distinct: (2, 2)"),
    (HEADER + "W 3 3\n", 4, "wires of a two-qudit gate must be distinct: (3, 3)"),
    (HEADER + "C 1 2 3\n", 4, "parameter 3 out of range for order-3 field"),
    (HEADER + "C 1 2 -1\n", 4, "parameter -1 out of range for order-3 field"),
    (HEADER + "C 1 2 1\nD 2 0\n", 5, "D(0) is not unitary"),
    (HEADER + "H 1 1\n", 4, "H gate takes 1 argument(s)"),
    (HEADER + "X 1 1\n", 4, "unknown gate 'X'"),
    ("field 3 1 0\nqudits 3\ninit s 0 x\n", 3, "init entries must be 's' or '0', got 'x'"),
    ("field 3 1 0\nqudits 3\ninit s 0\n", 3, "expected 'init' with 3 entries"),
    # a bad init entry is named before a gate out of range
    ("field 3 1 0\nqudits 3\ninit s 0 x\nC 1 9 1\n", 3, "init entries must be 's' or '0', got 'x'"),
    # comments and blank lines keep their line numbers; the first bad gate is named
    (HEADER + "C 1 2 1\n# c\n\nC 1 2 1\nA 3 7\nC 0 1 1\n", 8, "parameter 7 out of range for order-3 field"),
    # a line that is no gate at all is named before an earlier gate out of range
    (HEADER + "C 1 5 1\nC 1 x 1\n", 5, "invalid literal for int() with base 10: 'x'"),
    (HEADER + "C 1 5 1\nC 1 2\n", 5, "C gate takes 3 argument(s)"),
    (HEADER + "C 1 5 1\nQ 1\n", 5, "unknown gate 'Q'"),
    # values past int64 are reported as written
    (HEADER + "C 1 2 99999999999999999999999\n", 4, "parameter 99999999999999999999999 out of range for order-3 field"),
    (HEADER + "C 99999999999999999999999 2 1\n", 4, "wire 99999999999999999999999 out of range 1..3"),
    ("field 2 8\nqudits 2\ninit s 0\nC 1 2 255\nC 1 2 256\n", 5, "parameter 256 out of range for order-256 field"),
    # exact past int64, beside small values, in Circuit's order of checks: a D(0) before them is named first
    (HEADER + "C 1 2 1\nC 1 2 9223372036854775808\n", 5, "parameter 9223372036854775808 out of range for order-3 field"),
    (HEADER + "C 1 2 1\nC 18446744073709551616 2 1\n", 5, "wire 18446744073709551616 out of range 1..3"),
    (HEADER + "C 1 2 1\nA -9223372036854775809 1\n", 5, "wire -9223372036854775809 out of range 1..3"),
    (HEADER + "D 1 0\nC 1 2 18446744073709551616\n", 4, "D(0) is not unitary"),
    # gate lines are ASCII outside comments, and their numbers ASCII decimal with an optional '-'
    (HEADER + "C 1 2 1 # é\nC 1 2 +1\n", 5, "argument '+1' is not an ASCII decimal integer"),
    (HEADER + "C 1 2 1_0\n", 4, "argument '1_0' is not an ASCII decimal integer"),
    (HEADER + "C 1 2 \u0663\n", 4, "non-ASCII character '\u0663' outside a comment"),
    (HEADER + "C 1\xa02 1\n", 4, "non-ASCII character '\\xa0' outside a comment"),
    # so are the numbers of the field and qudits lines
    ("field 3 1 0\nqudits +2\ninit s 0\n", 2, "'+2' is not an ASCII decimal integer"),
    ("field 3 1 0\nqudits \u0663\ninit s 0 0\n", 2, "'\u0663' is not an ASCII decimal integer"),
    ("# a comment\nfield +3 1\nqudits 2\ninit s 0\n", 2, "'+3' is not an ASCII decimal integer"),
    ("field 3 1_0\nqudits 2\ninit s 0\n", 1, "'1_0' is not an ASCII decimal integer"),
])
@pytest.mark.parametrize("verb", ["normalize", "simulate"])
def test_parse_errors_name_the_first_bad_line(tmp_path, capsys, verb, text, line, message):
    path = tmp_path / "bad.qc"
    path.write_text(text)
    assert run_cli(capsys, verb, str(path)) == (2, "", f"parse error: line {line}: {message}\n")


NORMALIZE_GOLDEN = ["gf2", "gf3", "gf4", "gf9", "sinks", "wide48", "wide96"]  # tests/data/normalize/<name>.qc


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt"), ("dot", "dot")])
@pytest.mark.parametrize("name", NORMALIZE_GOLDEN)
def test_normalize_golden_output(capsys, name, fmt, ext):
    # every circuit is verified, the wide ones (48 and 96 wires) far past the dense guard included
    code, out, _ = run_cli(capsys, "normalize", str(DATA / "normalize" / f"{name}.qc"), "--format", fmt, "--verify")
    assert code == 0
    assert out == (DATA / "normalize" / f"{name}.{ext}").read_text()


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt"), ("dot", "dot")])
def test_normalize_layout_matches_the_plain_circuit(capsys, fmt, ext):
    # layout.qc is gf3.qc with CRLF breaks, tabs, a form feed, blank lines, comments and no final break
    code, out, _ = run_cli(capsys, "normalize", str(DATA / "normalize" / "layout.qc"), "--format", fmt, "--verify")
    assert code == 0
    assert out == (DATA / "normalize" / f"gf3.{ext}").read_text()


def test_normalize_rejects_non_cnot_gates(tmp_path, capsys):
    path = tmp_path / "h.qc"
    path.write_text("field 2 1 0\nqudits 2\ninit s 0\nH 1\n")
    code, _, err = run_cli(capsys, "normalize", str(path))
    assert code == 2
    assert "C-only" in err


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_cli(capsys):
    code, out, _ = run_cli(capsys, "classify", "4", "--field", "3 1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 2


def test_classify_cli_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "classify", "3", "--field", "2 1")
    code, out2, _ = run_cli(capsys, "classify", "3", "--field", "2 1")
    assert out1 == out2


def test_classify_guard_exit_3(capsys):
    code, _, err = run_cli(capsys, "classify", "9", "--field", "3 2")
    assert code == 3
    assert "guard" in err.lower()


def test_classify_guard_counts_labellings(capsys):
    # 7^4 + 7^6 = 120050 labellings: the sweep would take over a minute
    code, _, err = run_cli(capsys, "classify", "5", "--field", "7 1")
    assert code == 3
    assert "120050 labellings" in err


def test_guards_bound_the_exponent_first(tmp_path, capsys):
    # 3^(10^12) amplitudes or labellings could never be computed; both guards refuse at once
    big = 10 ** 12
    path = tmp_path / "huge.state"
    path.write_text(f"# quditgraph-state d=3 qudits={big}\n")
    for argv, message in (
        (["verify-mes", str(path)], f"state of 3**{big} amplitudes exceeds the 2^24 guard"),
        (["classify", str(big), "--field", "3 1"], f"classify {big} over GF(3) sweeps at least 3^{big - 1} labellings"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert message in err


@pytest.mark.parametrize("d", [2, 3, 4, 5, 7, 9, 49, 256, 65521])
def test_classify_guard_message_counts_the_power(d):
    # past N = 65 the power d^(N - 1) is not computed: the message names it as d^(N-1)
    fld = quditgraph.Field.of_order(d)
    for n_qudits in (18, 40, 65, 66, 67, 100, 1000, 4097):
        labellings = d ** (n_qudits - 1)  # k = 1 alone is over the guard
        shown = labellings if labellings < 10 ** 12 else f"2^{labellings.bit_length() - 1}"
        if n_qudits > 65:
            shown = f"{d}^{n_qudits - 1}"
        with pytest.raises(quditgraph.ResourceGuardError) as info:
            quditgraph.classify(fld, n_qudits)
        assert str(info.value) == f"classify {n_qudits} over GF({d}) sweeps at least {shown} labellings, over the 2^16 guard"


CLASSIFY_GOLDEN = [("gf2", "2 1", n) for n in (2, 3, 4, 5)] + [("gf4", "2 2", 4), ("gf4", "2 2", 5), ("gf3", "3 1", 5),
                                                                ("gf5", "5 1", 4), ("gf5", "5 1", 5), ("gf7", "7 1", 4)]


@pytest.mark.parametrize("fmt, ext", [("json", "json"), ("text", "txt")])
@pytest.mark.parametrize("name, field, n", CLASSIFY_GOLDEN)
def test_classify_golden_output(capsys, name, field, n, fmt, ext):
    # tests/data/classify/<name>_n<N>.<ext>: GF(4) at N = 5, GF(5) and GF(7) written before rank_exponents read
    # rank tables, the rest before the representative came from graph_to_json_dict
    code, out, _ = run_cli(capsys, "classify", str(n), "--field", field, "--format", fmt)
    assert code == 0
    assert out == (DATA / "classify" / f"{name}_n{n}.{ext}").read_text()


def test_classify_untabulated_field(capsys):
    # GF(257), past the order-256 cap that the d x d tables once had
    code, out, _ = run_cli(capsys, "classify", "2", "--field", "257 1")
    assert code == 0
    report = json.loads(out)
    assert report["count"] == 1
    assert report["classes"][0]["graphs"] == 256


# ---------------------------------------------------------------------------
# dual-check
# ---------------------------------------------------------------------------

def test_dual_check_cli(tmp_path, capsys):
    graph = {
        "field": {"p": 3, "n": 1, "poly": 0},
        "S": [1], "O": [2],
        "edges": [{"from": 1, "to": 2, "label": 1}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "dual-check", str(path))
    assert code == 0
    data = json.loads(out)
    assert data["signature_match"] is True
    assert data["state_equivalence_holds"] is True


def test_dual_check_gf4_square(tmp_path, capsys):
    graph = {
        "field": {"p": 2, "n": 2, "poly": 3},
        "S": [1, 3], "O": [2, 4],
        "edges": [
            {"from": 1, "to": 2, "label": 1}, {"from": 1, "to": 4, "label": 1},
            {"from": 3, "to": 4, "label": 1}, {"from": 3, "to": 2, "label": 2},
        ],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "dual-check", str(path))
    assert code == 0  # signature check is the authoritative verdict
    data = json.loads(out)
    assert data["signature_match"] is True
    assert data["state_equivalence_holds"] is False
    assert data["counterexample"] == {"kind": "dressing", "label": 2, "entry": [0, 0], "lhs": 1, "rhs": 0}
    assert set(data["details"]) == {"signature_deviation", "dual"}
    assert data["tolerance"] == 1e-10
    assert data["decided_by"] == {"state_equivalence_holds": "persymmetry", "signature_match": "dense-spectrum"}


BELL_GRAPH = {
    "field": {"p": 3, "n": 1, "poly": 0},
    "S": [1], "O": [2],
    "edges": [{"from": 1, "to": 2, "label": 1}],
}


SHAPE_MESSAGE = "graph JSON needs a 'field' object, 'S' and 'O' lists and an 'edges' list of objects"


@pytest.mark.parametrize("graph, message", [
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": 1.5}]}, "must be JSON integers, got 1.5"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": True}]}, "must be JSON integers, got True"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": "1"}]}, "must be JSON integers, got '1'"),
    ({**BELL_GRAPH, "S": ["1"]}, "must be JSON integers, got '1'"),
    ({**BELL_GRAPH, "edges": [{"from": 1.0, "to": 2, "label": 1}]}, "must be JSON integers, got 1.0"),
    ([], "graph JSON must be an object"),
    ({**BELL_GRAPH, "O": [], "edges": []}, "at least two wires"),
    ({**BELL_GRAPH, "S": [1, 1]}, "wires must cover 1..N"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": 1}, {"from": 1, "to": 2, "label": 2}]}, "listed twice"),
    ({**BELL_GRAPH, "edges": [{"from": 2, "to": 1, "label": 1}]}, "edge (2, 1) does not run from a source to a sink wire"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": 3}]}, "edge label 3 must be a nonzero field element"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": -1}]}, "edge label -1 must be a nonzero field element"),
    # range-checked before it is written into the int64 block, where it would overflow (exit 4)
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": 10 ** 30}]},
     f"edge label {10 ** 30} must be a nonzero field element"),
    ({**BELL_GRAPH, "edges": 5}, SHAPE_MESSAGE),
    ({**BELL_GRAPH, "edges": [[1, 2, 1]]}, SHAPE_MESSAGE),
    ({**BELL_GRAPH, "S": 1}, SHAPE_MESSAGE),
    ({**BELL_GRAPH, "field": [3, 1, 0]}, SHAPE_MESSAGE),
    # pasted into a descriptor, these would read as the field '3 1 2' or '3 1 0'
    ({**BELL_GRAPH, "field": {"p": 3, "n": "1 2", "poly": ""}}, "field p, n and poly must be JSON integers, got '1 2'"),
    ({**BELL_GRAPH, "field": {"p": "3", "n": 1, "poly": 0}}, "field p, n and poly must be JSON integers, got '3'"),
    ({**BELL_GRAPH, "field": {"p": 3, "n": 1, "poly": " 0"}}, "field p, n and poly must be JSON integers, got ' 0'"),
    ({**BELL_GRAPH, "field": {"p": 3, "n": True, "poly": 0}}, "field p, n and poly must be JSON integers, got True"),
    ({**BELL_GRAPH, "field": {"p": 3.0, "n": 1, "poly": 0}}, "field p, n and poly must be JSON integers, got 3.0"),
    # a missing key is named with the object it is missing from, not as a bare KeyError repr
    ({key: v for key, v in BELL_GRAPH.items() if key != "edges"}, "error: graph JSON is missing 'edges'\n"),
    ({key: v for key, v in BELL_GRAPH.items() if key != "S"}, "error: graph JSON is missing 'S'\n"),
    ({**BELL_GRAPH, "field": {"p": 3, "n": 1}}, "error: graph JSON field is missing 'poly'\n"),
    ({**BELL_GRAPH, "edges": [{"from": 1, "to": 2, "label": 1}, {"from": 1, "to": 3}]},
     "error: graph JSON edge 2 is missing 'label'\n"),
], ids=["label-float", "label-bool", "label-string", "wire-string", "wire-float", "top-level-list", "one-wire",
        "repeated-wire", "repeated-edge", "edge-from-sink", "label-d", "label-negative", "label-10e30", "edges-int", "edge-list", "sources-int", "field-list",
        "field-n-string", "field-p-string", "field-poly-string", "field-n-bool", "field-p-float",
        "missing-edges", "missing-sources", "missing-poly", "missing-label"])
def test_dual_check_rejects_malformed_graph_json(tmp_path, capsys, graph, message):
    # read as Python values, 1.5 and true would both become label 1: a different graph
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "dual-check", str(path))
    assert code == 2, err
    assert out == ""
    assert message in err


def test_dual_check_gf257(tmp_path, capsys):
    # every field order up to 2^16 has the same tables, so dense states over GF(257) work
    graph = {
        "field": {"p": 257, "n": 1, "poly": 0},
        "S": [1], "O": [2],
        "edges": [{"from": 1, "to": 2, "label": 1}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "dual-check", str(path))
    assert code == 0
    assert json.loads(out)["signature_match"] is True


def test_dual_check_leaves_numpy_ma_unimported(tmp_path):
    # np.unique imports numpy.ma on its first call, about 20 ms of a process's start
    graph = make_graph_state(quditgraph.Field.of_order(4), [1, 2], [3], [(1, 3, 2), (2, 3, 3)])
    (tmp_path / "graph.json").write_text(json.dumps(graph_to_json_dict(graph)))
    source = (
        "import sys\n"
        "from quditgraph.cli import main\n"
        "assert main(['dual-check', 'graph.json']) == 0\n"
        "print(sorted(name for name in sys.modules if name.split('.')[:2] == ['numpy', 'ma']))\n"
    )
    done = _run_capped(tmp_path, python_args=("-c", source))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def _run_capped(tmp_path, *argv, python_args=("-m", "quditgraph.cli")):
    """Run python in a child process whose address space is capped at 1.5 GiB.

    By default it runs the CLI on argv; python_args=("-c", source) runs a library call instead.
    """
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1536 << 20, 1536 << 20))

    src = str(Path(quditgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, *python_args, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=120, preexec_fn=cap,
    )


@pytest.mark.parametrize("call", [
    "gate_matrix(Field(2, 2), 7, Gate('H', (1,)))",  # 4^14 = 2^28 entries
    "sequence_matrix(Field(2, 7), 2, [Gate('H', (1,)), Gate('C', (1, 2), 3)])",  # 128^4 = 2^28
    "tripartite_marginal_checks(1024)",  # 1024^3 = 2^30
    "reduced_density_raw(np.zeros(2 ** 15), 2, 15, range(1, 15))",  # 2^28 RDM entries of a 2^15 state
], ids=["gate_matrix", "sequence_matrix", "tripartite_marginal_checks", "reduced_density_raw"])
def test_dense_builders_guard_before_allocating(tmp_path, call):
    # under the cap an unguarded build dies by MemoryError instead of taking gigabytes
    source = (
        "import numpy as np\n"
        "from quditgraph import Field, Gate, ResourceGuardError, gate_matrix, sequence_matrix, "
        "tripartite_marginal_checks\n"
        "from quditgraph.simulator import reduced_density_raw\n"
        f"try:\n    {call}\nexcept ResourceGuardError as exc:\n    print('guarded:', exc)\n"
    )
    done = _run_capped(tmp_path, python_args=("-c", source))
    assert done.returncode == 0, done.stderr
    assert "guarded:" in done.stdout and "2^24 guard" in done.stdout


def test_make_mes_dense_guard_exit_3(tmp_path):
    # the GF(128) square state would have 128^4 = 2^28 amplitudes as a dense
    # vector; the guard on d^4 refuses it before any field or ket is built
    done = _run_capped(tmp_path, "make-mes", "128")
    assert done.returncode == 3, done.stderr
    assert "2^24 guard" in done.stderr


def test_dual_check_dense_guard_exit_3(tmp_path):
    graph = {
        "field": {"p": 2, "n": 4, "poly": quditgraph.Field(2, 4).poly_index},
        "S": [1, 2, 3], "O": [4, 5, 6, 7],
        "edges": [{"from": i, "to": j, "label": 1} for i in (1, 2, 3) for j in (4, 5, 6, 7)],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    done = _run_capped(tmp_path, "dual-check", str(path))  # 16^7 = 2^28 amplitudes
    assert done.returncode == 3, done.stderr
    assert "2^24 guard" in done.stderr


def test_dual_check_rdm_guard_exit_3(tmp_path, capsys):
    # 8^8 = 2^24 amplitudes pass the state guard, but the signature diagonalizes
    # 70 RDMs of 8^4 = 4096 rows: over 14 minutes unguarded
    graph = {
        "field": {"p": 2, "n": 3, "poly": quditgraph.Field(2, 3).poly_index},
        "S": [1, 2, 3, 4], "O": [5, 6, 7, 8],
        "edges": [{"from": i, "to": j, "label": 1} for i in (1, 2, 3, 4) for j in (5, 6, 7, 8)],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, "dual-check", str(path))
    assert time.perf_counter() - t0 < 1.0
    assert code == 3 and out == "" and "8^4 rows" in err
    done = _run_capped(tmp_path, "dual-check", str(path))
    assert done.returncode == 3, done.stderr
    assert "8^4 rows" in done.stderr


@pytest.mark.parametrize("p, n, poly", [
    (1000000000000000003, 1, None), (3, 1000000000, 0), (2, 1000000000, None),
], ids=["huge-p", "huge-n-with-poly", "huge-n"])
def test_huge_field_orders_exit_2_at_once(tmp_path, capsys, p, n, poly):
    descriptor = f"{p} {n}" if poly is None else f"{p} {n} {poly}"
    graph = {"field": {"p": p, "n": n, "poly": poly or 0}, "S": [1], "O": [2],
             "edges": [{"from": 1, "to": 2, "label": 1}]}
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    for argv in (["classify", "2", "--field", descriptor], ["dual-check", str(path)]):
        t0 = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - t0 < 0.5, argv
        assert code == 2 and out == "", argv
        assert f"field order {p}^{n} exceeds supported limit 65536" in err, (argv, err)


@pytest.mark.parametrize("argv, argument, value", [
    (["classify", "+4", "--field", "2 1"], "n", "+4"),
    (["classify", "\u0664", "--field", "2 1"], "n", "\u0664"),
    (["classify", "3", "--field", "+2 1"], "--field", "+2"),
    (["classify", "3", "--field", "2 1_0"], "--field", "1_0"),
    (["make-mes", "5_0"], "d", "5_0"),
    (["make-mes", "+5"], "d", "+5"),
])
def test_integer_arguments_are_ascii_decimal(capsys, argv, argument, value):
    # int() reads each of these; a typo must not run as another number
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"argument {argument}: {value!r} is not an ASCII decimal integer" in err


def test_dual_check_does_not_measure_the_field(tmp_path, capsys, monkeypatch):
    # the H/V identity over the whole field is no part of a graph's verdict;
    # over GF(32) it alone would take tens of seconds
    def boom(*args, **kwargs):
        raise AssertionError("dual-check measured the field-wide conjugation identity")

    monkeypatch.setattr("quditgraph.duality.conjugation_report", boom)
    monkeypatch.setattr("quditgraph.duality.check_conjugation_identity", boom)
    graph = {
        "field": {"p": 2, "n": 5, "poly": quditgraph.Field(2, 5).poly_index},
        "S": [1], "O": [2],
        "edges": [{"from": 1, "to": 2, "label": 7}],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "dual-check", str(path))
    assert code == 0
    assert json.loads(out)["signature_match"] is True


# ---------------------------------------------------------------------------
# make-mes / verify-mes
# ---------------------------------------------------------------------------

def test_make_and_verify_mes_12(tmp_path, capsys):
    out_path = tmp_path / "mes12.state"
    code, out, _ = run_cli(capsys, "make-mes", "12", "--output", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("# quditgraph-state d=12 qudits=4")
    assert "# construction" in text
    code, out, _ = run_cli(capsys, "verify-mes", str(out_path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["tolerance"] == 1e-10
    assert len(data["bipartitions"]) == 7


@pytest.mark.parametrize("d", [3, 4, 5, 7, 8, 9])
def test_verify_mes_passes_every_make_mes_dump(tmp_path, capsys, d):
    # the program's own dumps are decided at the one tolerance, 1e-10, on all 7 cuts
    path = tmp_path / f"mes{d}.state"
    assert run_cli(capsys, "make-mes", str(d), "--output", str(path))[0] == 0
    code, out, _ = run_cli(capsys, "verify-mes", str(path))
    data = json.loads(out)
    assert (code, data["verdict"], data["tolerance"]) == (0, True, 1e-10)
    assert len(data["bipartitions"]) == 7


def test_make_mes_refuses_6(capsys):
    code, out, err = run_cli(capsys, "make-mes", "6")
    assert code == 1
    assert "refused" in err
    assert json.loads(out)["ok"] is False


def test_make_mes_guard(capsys):
    code, _, err = run_cli(capsys, "make-mes", "68")
    assert code == 3


def test_make_mes_usage_error(capsys):
    code, _, err = run_cli(capsys, "make-mes", "1")
    assert code == 2


@pytest.mark.parametrize("d", ["131072", "1048576"])
def test_make_mes_past_field_orders_hits_the_amplitude_guard(capsys, d):
    # one 2^24 amplitude guard runs before any field is built or any factor sought
    code, out, err = run_cli(capsys, "make-mes", d)
    assert code == 3
    assert out == ""
    assert "2^24 guard" in err


def test_make_mes_60_tensors_one_odd_ring(tmp_path, capsys):
    # 60 = 4 * 15: the square state over GF(4) times the ring state of 15
    out_path = tmp_path / "mes60.state"
    code, out, _ = run_cli(capsys, "make-mes", "60", "--output", str(out_path))
    assert code == 0
    assert "square(GF(2^2),twist=2) x ring(15)" in out
    code, out, _ = run_cli(capsys, "verify-mes", str(out_path))
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert data["decided_by"] == "diagonal-marginals"


def test_make_and_verify_mes_64_allocate_no_dense_state(tmp_path, capsys):
    # the 64^4 = 2^24 amplitudes of a dense state take 256 MiB; the dump lists 4096 kets
    import tracemalloc

    path = tmp_path / "mes64.state"
    for argv in (["make-mes", "64", "--output", str(path)], ["verify-mes", str(path)]):
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, argv
        assert peak < 16 << 20, (argv, peak)
    assert json.loads(capsys.readouterr().out.split("\n", 1)[1])["decided_by"] == "diagonal-marginals"


@pytest.mark.parametrize("zero", ["0.0 0.0", "-0.0 0.0", "0.0 -0.0"])
def test_verify_mes_zero_amplitude_line_is_not_a_ket(tmp_path, capsys, zero):
    # |1000> is no ket of the ring(5) state and shares digits 2-4 with |0000>: read
    # as a ket, it would send every cut whose side A holds party 1 to the spectrum
    path = tmp_path / "mes5.state"
    assert run_cli(capsys, "make-mes", "5", "--output", str(path))[0] == 0
    code, plain, _ = run_cli(capsys, "verify-mes", str(path))
    assert code == 0
    with_zero = tmp_path / "mes5-zero.state"
    with_zero.write_text(path.read_text() + f"1000 {zero}\n")
    assert run_cli(capsys, "verify-mes", str(with_zero)) == (0, plain, "")
    report = json.loads(plain)
    assert report["decided_by"] == "diagonal-marginals"
    assert [b["rank"] for b in report["bipartitions"]] == [5] * 4 + [25] * 3


def test_verify_mes_on_square_state_dump(tmp_path, capsys):
    from quditgraph import dump_state, square_state
    from util import field_for

    sq = square_state(field_for(4), 2)
    path = tmp_path / "square.state"
    path.write_text(dump_state(sq))
    code, out, _ = run_cli(capsys, "verify-mes", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_verify_mes_rejects_single_qudit_dump(tmp_path, capsys):
    path = tmp_path / "one.state"
    path.write_text("# quditgraph-state d=3 qudits=1\n0 1.0 0.0\n")
    code, out, err = run_cli(capsys, "verify-mes", str(path))
    assert code == 2
    assert out == ""
    assert "at least 2 systems" in err


def test_verify_mes_rejects_unnormalized_state(tmp_path, capsys):
    path = tmp_path / "bell_x2.state"
    path.write_text("# quditgraph-state d=2 qudits=2\n00 1.4142135623730951 0.0\n11 1.4142135623730951 0.0\n")
    code, out, err = run_cli(capsys, "verify-mes", str(path))
    assert code == 2
    assert out == ""
    assert "norm 2.0" in err


@pytest.mark.parametrize("header", [
    "# quditgraph-state d=3",
    "# quditgraph-state d=3 qudits",
    "# quditgraph-state d=x qudits=2",
    "# quditgraph-state d=3 qudits=2 d=5",
    "# quditgraph-state d=3 qudits=2=2",
    "# quditgraph-state",
    "# quditgraph-state d=+2 qudits=0_2",
    "# quditgraph-state d=2 qudits=\u0662",
], ids=["no-qudits", "qudits-no-value", "d-not-integer", "repeated-d", "two-equals", "no-keys", "sign-underscore",
        "non-ascii-digit"])
def test_verify_mes_names_a_bad_header(tmp_path, capsys, header):
    # one message for every header without d=<integer> and qudits=<integer>; a repeated key is refused, not overwritten
    path = tmp_path / "bad.state"
    path.write_text(f"# construction test\n{header}\n000 1.0 0.0\n")
    code, out, err = run_cli(capsys, "verify-mes", str(path))
    assert (code, out) == (2, "")
    assert err == f"error: line 2: dump header needs d=<integer> and qudits=<integer>, got {header!r}\n"


def test_verify_mes_reads_a_dump_whose_comments_are_not_ascii(tmp_path, capsys):
    # only the amplitude fields must be ASCII with no '_'; a comment may hold either
    path = tmp_path / "bell.state"
    path.write_text("# note_\u00e4\n# quditgraph-state d=2 qudits=2\n00 0.7071067811865476 0.0\n"
                    "11 0.7071067811865476 -0.0\n")
    code, out, _ = run_cli(capsys, "verify-mes", str(path))
    assert code == 0 and json.loads(out)["verdict"] is True


@pytest.mark.parametrize("text, message", [
    ("# quditgraph-state d=2 qudits=2\n00 nan 0.0\n11 0.5 0.0\n", "not finite"),
    ("# quditgraph-state d=2 qudits=2\n00 0.7071067811865476 0.0\n11 inf 0.0\n", "not finite"),
    ("# quditgraph-state d=2 qudits=2\n00 0.7071067811865476 0.0\n00 0.7071067811865476 0.0\n",
     "listed twice"),
    ("# quditgraph-state d=2 qudits=2\n00 1.0 0.0\n# quditgraph-state d=2 qudits=2\n11 1.0 0.0\n",
     "second '# quditgraph-state' header"),
    ("# quditgraph-state d=1 qudits=4\n0000 1.0 0.0\n", "d=1 must be at least 2"),
    ("# quditgraph-state d=2 qudits=-1\n", "line 1: qudit count qudits=-1 must be at least 1"),
    ("# quditgraph-state d=2 qudits=0\n", "line 1: qudit count qudits=0 must be at least 1"),
    ("# quditgraph-state d=3 qudits=2\n00 1.0 0.0\n03 0.0 0.0\n", "line 3: bad basis index '03' for d=3, n=2"),
    ("# quditgraph-state d=49 qudits=2\n1,x 1.0 0.0\n", "line 2: bad basis index '1,x' for d=49, n=2"),
    ("# quditgraph-state d=49 qudits=2\n1_0,+2 1.0 0.0\n", "line 2: bad basis index '1_0,+2' for d=49, n=2"),
    # float() reads '_' separators and digits of other scripts; a dump's amplitudes are ASCII numbers
    ("# quditgraph-state d=2 qudits=2\n00 0.707_1067811865476 0.0\n11 0.7071067811865476 0.0\n",
     "line 2: amplitude needs re and im as ASCII numbers, got '00 0.707_1067811865476 0.0'"),
    ("# quditgraph-state d=2 qudits=2\n00 0.7071067811865476 0.\u0660\n11 0.7071067811865476 0.0\n",
     "line 2: amplitude needs re and im as ASCII numbers, got '00 0.7071067811865476 0.\u0660'"),
    ("# quditgraph-state d=2 qudits=2\n00 0.7071067811865476 0.0\n11 0.7071067811865476 abc\n",
     "line 3: amplitude needs re and im as ASCII numbers, got '11 0.7071067811865476 abc'"),
], ids=["nan", "inf", "repeated-ket", "second-header", "d1", "qudits-negative", "qudits0", "ket-digit-d",
        "comma-digit-letter", "comma-digit-underscore-sign", "amplitude-underscore", "amplitude-non-ascii-digit",
        "amplitude-not-a-number"])
def test_verify_mes_rejects_malformed_dump(tmp_path, capsys, text, message):
    # read as they stand, a nan would decide "false" (exit 1) and d=1 a vacuous "maximally entangled"
    path = tmp_path / "bad.state"
    path.write_text(text)
    code, out, err = run_cli(capsys, "verify-mes", str(path))
    assert code == 2, err
    assert out == ""
    assert message in err


# ---------------------------------------------------------------------------
# relations-test / simulate
# ---------------------------------------------------------------------------

def test_relations_cli(capsys):
    code, out, _ = run_cli(capsys, "relations-test", "--fields", "2,3")
    assert code == 0
    assert "field 2 1 0" in out and "field 3 1 0" in out
    assert "FAIL" not in out


def test_relations_cli_json(capsys):
    code, out, _ = run_cli(capsys, "relations-test", "--fields", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["ok"] is True


def test_relations_cli_unchecked_rule_fails(capsys, monkeypatch):
    # three random tuples cannot reach all 13 rules; a rule never checked is not ok
    from quditgraph import rewrite

    monkeypatch.setattr(rewrite, "RELATIONS_SAMPLES", 3)
    code, out, _ = run_cli(capsys, "relations-test", "--fields", "7")
    assert code == 1
    lines = [l for l in out.splitlines() if l.startswith("  ")]
    assert len(lines) == 13
    assert all(l.endswith("UNCHECKED") == (" 0 cases" in l) for l in lines)
    assert sum(l.endswith("  ok") for l in lines) >= 1
    code, out, _ = run_cli(capsys, "relations-test", "--fields", "7", "--format", "json")
    relations = json.loads(out)[0]["relations"]
    assert {name for name, r in relations.items() if r["checked"] == 0} == \
        {name for name, r in relations.items() if not r["ok"]}


def test_relations_cli_runs_past_order_256(capsys):
    # the rules are compared as affine maps, so no d^3-entry map is built for three wires
    code, out, err = run_cli(capsys, "relations-test", "--fields", "257")
    assert code == 0, err
    assert "field 257 1 0 (random[1000]):" in out
    assert "FAIL" not in out and "UNCHECKED" not in out


def test_relations_cli_runs_no_gate_kernel(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("relations-test ran a dense gate kernel")

    for name in ("cnot", "axis_perm", "swap", "fourier"):
        monkeypatch.setattr(kernels, name, refuse)
    monkeypatch.setattr(simulator, "sequence_source_map", refuse)
    code, out, err = run_cli(capsys, "relations-test", "--fields", "2,3,4,5,7,8,9")
    assert code == 0, err
    assert "FAIL" not in out and "UNCHECKED" not in out


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relations_cli_golden_output(capsys, seed, fmt):
    # stdout of the batched suite, which test_rewrite.py checks case by case against the dense oracle
    code, out, err = run_cli(capsys, "relations-test", "--fields", "2,3,4,5,7,8,9", "--seed", str(seed), "--format", fmt)
    assert code == 0, err
    assert out == (DATA / f"relations_seed{seed}.{'txt' if fmt == 'text' else 'json'}").read_text()


def test_relations_cli_sign_flip_fails_where_minus_one_is_not_one(capsys, monkeypatch):
    from quditgraph import rewrite

    # the reverse chain's new CNOT negated, in the table entry that relations_suite reads
    monkeypatch.setitem(rewrite.RELATIONS, "cnot_chain_reverse", spoiled(rewrite.RELATIONS["cnot_chain_reverse"], negate_last))
    # the golden files hold the batched suite's report of the same fault, checked case by case in test_rewrite.py
    code, out, err = run_cli(capsys, "relations-test", "--fields", "2,3,4,5,7,8,9", "--seed", "1")
    assert code == 1, err
    assert out == (DATA / "relations_sign_flip_seed1.txt").read_text()
    code, out, err = run_cli(capsys, "relations-test", "--fields", "2,3,4,5,7,8,9", "--seed", "1", "--format", "json")
    assert code == 1, err
    assert out == (DATA / "relations_sign_flip_seed1.json").read_text()
    for report in json.loads(out):
        bad = {name for name, r in report["relations"].items() if not r["ok"]}
        odd = int(report["field"].split()[0]) % 2
        assert bad == ({"cnot_chain_reverse"} if odd else set()), report["field"]
        assert all(r["checked"] for r in report["relations"].values())


@pytest.mark.parametrize("extra", [(("H", (1,), None), "H gate has no affine representation"),
                                   (("V", (1,), None), "V gate has no affine representation"),
                                   (("D", (1,), 0), "D(0) is not unitary"),
                                   (("A", (1,), 3), "parameter 3 out of range for order-3 field")])
def test_relations_cli_bad_right_hand_side_exit_2(capsys, monkeypatch, extra):
    from quditgraph import rewrite

    extra, message = extra

    # every rule's right-hand side gets the extra factor
    for name, relation in list(rewrite.RELATIONS.items()):
        monkeypatch.setitem(rewrite.RELATIONS, name, spoiled(relation, lambda f, factors: factors + [extra]))
    code, out, err = run_cli(capsys, "relations-test", "--fields", "3")
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_relations_cli_rejects_non_prime_power(capsys):
    code, out, err = run_cli(capsys, "relations-test", "--fields", "6")
    assert code == 2
    assert "6 is not a prime power" in err


@pytest.mark.parametrize("fields, entry", [("7,", ""), ("", ""), ("7,,8", ""), ("2,x", "x"), ("3.5", "3.5"),
                                           ("+7", "+7"), ("7_0", "7_0"), ("\u0667", "\u0667")])
def test_relations_cli_names_a_bad_fields_entry(capsys, fields, entry):
    code, out, err = run_cli(capsys, "relations-test", "--fields", fields)
    assert (code, out) == (2, "")
    assert f"argument --fields: entry {entry!r} is not a decimal field order" in err


@pytest.mark.parametrize("fields", ["2", "7"])
@pytest.mark.parametrize("seed", ["-1", "+1", "1.0", "1_0", "\u0661", ""])
def test_relations_cli_rejects_a_seed_that_is_not_a_nonnegative_decimal(capsys, fields, seed):
    # the seed is read only past order 5, but checked for every --fields at parse time
    code, out, err = run_cli(capsys, "relations-test", "--fields", fields, f"--seed={seed}")
    assert (code, out) == (2, "")
    assert f"argument --seed: {seed!r} is not a non-negative decimal integer" in err


def test_simulate_cli(tmp_path, capsys):
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert [l.split()[0] for l in lines] == ["00", "11", "22"]
    assert all(abs(float(l.split()[1]) - 1 / np.sqrt(3)) < 1e-12 for l in lines)


def test_simulate_init_s_s_prints_exact_halves(tmp_path, capsys):
    # |s>|s> over GF(2) is d^(-k/2) = 0.5 on every ket, not four rounded 1/sqrt(2) products
    path = tmp_path / "ss.qc"
    path.write_text("field 2 1\nqudits 2\ninit s s\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0 and out.splitlines()[1:] == ["00 0.5 0.0", "01 0.5 0.0", "10 0.5 0.0", "11 0.5 0.0"]


@pytest.mark.parametrize("body, want", [
    ("qudits 1\ninit 0\nH 1\nH 1\n", ["0 1.0 0.0"]),  # H^2 = I exactly, not 0.9999999999999998
    ("qudits 1\ninit 0\nH 1\n", ["0 0.7071067811865476 0.0", "1 0.7071067811865476 0.0"]),  # 2.0 ** -0.5
    ("qudits 2\ninit s 0\nC 1 2 1\nH 1\n", ["00 0.5 0.0", "01 0.5 0.0", "10 0.5 0.0", "11 -0.5 0.0"]),
])
def test_simulate_over_characteristic_2_prints_exact_amplitudes(tmp_path, capsys, body, want):
    path = tmp_path / "h.qc"
    path.write_text("field 2 1\n" + body)
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0 and out.splitlines()[1:] == want


@pytest.mark.parametrize("n", [25, 64, 1024])
def test_simulate_over_characteristic_2_has_no_amplitude_guard(tmp_path, capsys, n):
    # the form costs its 8 output kets, not 2^n amplitudes; init s on every wire is over the ket guard at once
    path = tmp_path / "wide.qc"
    gates = f"H 1\nH {n}\nC 1 {n} 1\nC {n} 1 1\nW 1 {n}\nH 12\n"
    path.write_text(f"field 2 1\nqudits {n}\ninit {' '.join('0' * n)}\n{gates}")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0 and len(out.splitlines()) == 9
    path.write_text(f"field 2 1\nqudits {n}\ninit {' '.join('s' * n)}\n{gates}")
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "simulate", str(path))
    assert (code, out) == (3, "") and "ket guard" in err
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("field, init", [("2 1", "s s s 0"), ("3 1", "s s 0 0"), ("2 2", "s 0 s 0"),
                                         ("5 1", "s s s 0"), ("3 2 1", "0 s s 0")])
def test_h_free_amplitudes_are_exact(tmp_path, capsys, field, init):
    # an H-free circuit's kets all carry d^(-k/2), the graph's own amplitude, so the deviation is exactly 0
    path = tmp_path / "c_only.qc"
    c_only = f"field {field}\nqudits 4\ninit {init}\nC 1 4 1\nC 2 4 1\nC 3 4 1\n"
    path.write_text(c_only + "A 4 1\nD 2 1\nW 1 4\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    d, k = quditgraph.Field.from_descriptor(field).d, init.count("s")
    assert code == 0 and simulator.parse_state(out).amps.tolist() == [d ** (-k / 2)] * d ** k
    path.write_text(c_only)
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify")
    assert code == 0 and json.loads(out)["verification"] == {"decided_by": "inverse-circuit", "equal": True}
    circuit = quditgraph.parse_circuit(c_only)
    assert dense_verification(circuit, quditgraph.canonicalize(circuit)[1]) == {"equal": True, "max_deviation": 0.0}


@pytest.mark.parametrize("field, real", [("2 2", True), ("2 3", True), ("3 1", False), ("5 1", False)])
def test_simulate_prints_exact_zero_imaginary_parts_over_characteristic_2(tmp_path, capsys, field, real):
    # over GF(2^m) omega = -1 and every amplitude is real, so each imaginary column is 0.0;
    # an odd-p H on a shifted wire gives complex amplitudes
    path = tmp_path / "h.qc"
    path.write_text(f"field {field}\nqudits 3\ninit s 0 0\nA 2 1\nH 2\nC 1 3 1\nH 3\nV 1\nH 1\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    imaginary = [line.split()[2] for line in out.splitlines() if not line.startswith("#")]
    assert code == 0 and imaginary
    assert all(im == "0.0" for im in imaginary) == real


def test_simulate_one_qudit_dump_past_d36_parses(tmp_path, capsys):
    # past d = 36 a digit is written in decimal, so one qudit's ket "40" is digit 40, not digits 4 and 0
    path = tmp_path / "one.qc"
    path.write_text("field 7 2\nqudits 1\ninit 0\nA 1 40\n")
    code, out, _ = run_cli(capsys, "simulate", str(path))
    assert code == 0 and out.splitlines()[-1] == "40 1.0 0.0"
    state = simulator.parse_state(out)
    assert (state.d, state.n, state.digits.tolist(), state.amps.tolist()) == (49, 1, [[40]], [1.0])


def test_no_verb_takes_a_tolerance_or_a_sample_count(tmp_path, capsys):
    # the verdicts use the one tolerance DEFAULT_TOL and relations-test its 1000 samples
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    dump = tmp_path / "mes5.state"
    assert run_cli(capsys, "make-mes", "5", "--output", str(dump))[0] == 0
    graph = tmp_path / "graph.json"
    graph.write_text('{"field": {"p": 3, "n": 1, "poly": 0}, "S": [1], "O": [2], "edges": [{"from": 1, "to": 2, "label": 1}]}')
    for argv in (["simulate", str(path)], ["normalize", str(path), "--verify"], ["relations-test", "--fields", "2"],
                 ["make-mes", "5"], ["verify-mes", str(dump)], ["dual-check", str(graph)]):
        for option in (["--tolerance", "1e-10"], ["--tolerance=0"]):
            code, out, err = run_cli(capsys, *argv, *option)
            assert (code, out) == (2, ""), argv
            assert "unrecognized arguments: --tolerance" in err
    for fields in ("2", "7"):
        code, out, err = run_cli(capsys, "relations-test", "--fields", fields, "--samples", "1000")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --samples 1000" in err


def test_back_to_back_calls_get_fresh_defaults(tmp_path, capsys, monkeypatch):
    # the argument parser is built once per process; each call still starts from the defaults
    path = tmp_path / "bell.qc"
    path.write_text(BELL_CIRCUIT)
    code, out, _ = run_cli(capsys, "normalize", str(path), "--verify")
    assert code == 0 and json.loads(out)["verification"]["equal"]
    code, out, _ = run_cli(capsys, "normalize", str(path))
    assert code == 0 and json.loads(out)["verification"] is None
    seeds = []
    real = cli.relations_suite
    monkeypatch.setattr(cli, "relations_suite", lambda fld, seed: seeds.append(seed) or real(fld, seed=seed))
    assert run_cli(capsys, "relations-test", "--fields", "2", "--seed", "5")[0] == 0
    assert run_cli(capsys, "relations-test", "--fields", "2")[0] == 0
    assert seeds == [5, 0]


def test_emit_json_matches_json_dumps_on_every_verb(tmp_path, capsys, monkeypatch):
    emitted = []
    real = cli._json_text

    def recording(obj, indent=""):
        if not indent:
            emitted.append(obj)
        return real(obj, indent)

    monkeypatch.setattr(cli, "_json_text", recording)
    circuit = tmp_path / "example.qc"
    circuit.write_text(EXAMPLE_CIRCUIT)
    graph = tmp_path / "graph.json"
    square_graph = make_graph_state(quditgraph.Field.of_order(4), [1, 2], [3, 4], [(1, 3, 1), (1, 4, 1), (2, 3, 1), (2, 4, 2)])
    graph.write_text(json.dumps(graph_to_json_dict(square_graph)))
    dump = tmp_path / "mes5.state"
    assert run_cli(capsys, "make-mes", "5", "--output", str(dump))[0] == 0
    square = tmp_path / "square.state"
    square.write_text(quditgraph.dump_state(quditgraph.square_state(quditgraph.Field(5, 1), 0)))
    verbs = [
        ["normalize", str(circuit)],
        ["normalize", str(circuit), "--verify"],
        ["normalize", str(DATA / "normalize" / "wide96.qc")],
        ["classify", "4", "--field", "3 1"],
        ["classify", "3", "--field", "2 2 3"],
        ["dual-check", str(graph)],
        ["verify-mes", str(dump)],
        ["verify-mes", str(square)],
        ["make-mes", "6"],
        ["relations-test", "--fields", "2,3,7", "--format", "json"],
    ]
    for argv in verbs:
        code, out, _ = run_cli(capsys, *argv)
        assert code in (0, 1), argv
        assert out == json_oracle(emitted[-1]), argv
    assert len(emitted) == len(verbs)


def test_emit_json_matches_json_dumps_on_random_graphs(capsys):
    rng = np.random.default_rng(19)
    for d in (2, 3, 4, 7, 8, 9, 257):
        fld = quditgraph.Field.of_order(d)
        n = int(rng.integers(2, 40))
        k = int(rng.integers(1, n))
        wires = rng.permutation(n) + 1
        edges = [(int(i), int(j), int(rng.integers(1, d))) for i in wires[:k] for j in wires[k:] if rng.random() < 0.5]
        graph = make_graph_state(fld, wires[:k].tolist(), wires[k:].tolist(), edges)
        report = {"permutation": list(graph.s_wires + graph.o_wires), "graph": graph_to_json_dict(graph), "verification": None}
        cli._emit_json(report)
        assert capsys.readouterr().out == json_oracle(report)
    for obj in ([], {}, {"a": [], "b": {}}, [1, True, None, 1.5, "x"], {"e": [{"a": 1, "b": False}]},
                {"e": [{"a": 1, "b": 2}, {"a": 1, "c": 2}]}, {"%d": [{"%s": 1, "b": -2}]}, [(1, 2), [float("nan")]]):
        cli._emit_json(obj)
        assert capsys.readouterr().out == json_oracle(obj)


def writer_cases():
    """Graphs for the edge-table writers: random ones over each field, sources and sinks out of ascending order."""
    rng = np.random.default_rng(38)
    for d in (2, 3, 4, 7, 8, 9, 65521):
        fld = field_for(d)
        for _ in range(6):
            yield random_graph_state(fld, int(rng.integers(2, 41)), rng, density=float(rng.random()))
        yield random_graph_state(fld, int(rng.integers(2, 41)), rng, density=0.0)  # no edge
    fld = field_for(65521)
    labels = np.array([[7, 42, 0], [999, 1234, 65520]])  # one to five digits
    yield quditgraph.GraphState(fld, (5, 2), (4, 1, 3), labels)
    yield random_graph_state(field_for(8), 96, rng)


def test_edge_table_writers_match_the_oracles():
    cases = list(writer_cases())
    assert {len(str(b)) for g in cases for _, _, b in g.edges} == {1, 2, 3, 4, 5}
    assert any(g.n == 96 for g in cases) and any(not g.edges for g in cases)
    assert any(list(g.s_wires) != sorted(g.s_wires) for g in cases)
    rng = np.random.default_rng(3)
    for g in cases:
        assert g.edges == edges_oracle(g)
        table = g.edge_table
        assert table.dtype == np.int64 and table.shape == (len(g.edges), 3) and not table.flags.writeable
        assert graph_to_json_dict(g)["edges"] == [{"from": i, "to": j, "label": b} for i, j, b in edges_oracle(g)]
        perm = tuple((rng.permutation(g.n) + 1).tolist())
        report = {"permutation": list(perm), "graph": g, "verification": None}
        assert cli._json_text(report) + "\n" == json_oracle(report)
        assert cli._json_text([{"nested": [g]}]) + "\n" == json_oracle([{"nested": [g]}])
        assert cli._normalize_text(perm, g) == normalize_text_oracle(perm, g)
        assert graph_to_dot(g) == dot_oracle(g)


@pytest.mark.parametrize("d", [2, 3, 4, 7, 8, 9, 65521])
def test_normalize_writes_every_format_as_the_oracles(tmp_path, capsys, d):
    rng = np.random.default_rng(d)
    fld = field_for(d)
    for n_wires in (2, 9, 30):
        circuit = random_c_circuit(fld, n_wires, int(rng.integers(1, n_wires)), 4 * n_wires, rng)
        path = tmp_path / "random.qc"
        path.write_text(serialize_circuit(circuit))
        perm, graph = quditgraph.canonicalize(circuit)
        code, out, _ = run_cli(capsys, "normalize", str(path))
        assert code == 0 and out == json_oracle({"permutation": list(perm), "graph": graph, "verification": None})
        code, out, _ = run_cli(capsys, "normalize", str(path), "--format", "text")
        assert code == 0 and out == normalize_text_oracle(perm, graph)
        code, out, _ = run_cli(capsys, "normalize", str(path), "--format", "dot", "--verify")
        assert code == 0 and out == dot_oracle(graph) + "// verification: OK (inverse-circuit)\n"


def random_json_object(rng, depth=0):
    """A random nested object of the types json.dumps takes: non-ASCII and escaped text, special floats, empty containers."""
    texts = ["", "a", "%d", 'q"uote', "back\\slash", "tab\tnew\nline", "\x00\x1f\x7f", "\u00e9t\u00e9", "\u2297",
             "\U0001f600", "\ud800", "graph \u03c8"]
    floats = [0.0, -0.0, 1.5, -2.25e-300, 1e300, 0.1, float("nan"), float("inf"), float("-inf"), 1 / 3]
    leaves = [lambda: texts[rng.integers(len(texts))], lambda: int(rng.integers(-10 ** 6, 10 ** 6)), lambda: 2 ** 70,
              lambda: floats[rng.integers(len(floats))], lambda: bool(rng.integers(2)), lambda: None]
    pick = int(rng.integers(8 if depth < 4 else 6))
    if pick < 6:
        return leaves[pick]()
    size = int(rng.integers(4))
    if pick == 6:
        items = [random_json_object(rng, depth + 1) for _ in range(size)]
        return tuple(items) if rng.integers(2) else items
    return {texts[rng.integers(len(texts))] + str(rng.integers(3)): random_json_object(rng, depth + 1) for _ in range(size)}


def test_json_text_matches_json_dumps_on_random_nested_objects(capsys):
    rng = np.random.default_rng(35)
    kinds = set()
    for _ in range(2000):
        obj = random_json_object(rng)
        kinds.add(type(obj))
        cli._emit_json(obj)
        assert capsys.readouterr().out == json_oracle(obj), obj
    assert kinds == {str, int, float, bool, type(None), list, tuple, dict}


def test_unknown_verb_exit_2(capsys):
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# stray exceptions
# ---------------------------------------------------------------------------

def test_stray_exception_exit_4(capsys, monkeypatch):
    def broken(fld, n):
        raise RuntimeError("broken\ninvariant")

    monkeypatch.setattr("quditgraph.cli.classify", broken)
    code, out, err = run_cli(capsys, "classify", "4", "--field", "2 1")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: RuntimeError(")
    assert err.count("\n") == 1


def test_stray_exception_process_status_4():
    # classify at N = 6 still trips its class-boundary premise (a known defect)
    src = str(Path(quditgraph.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-m", "quditgraph.cli", "classify", "6", "--field", "2 1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 4
    assert done.stdout == ""
    assert done.stderr.startswith("internal error: RuntimeError(")
    assert "Traceback" not in done.stderr
