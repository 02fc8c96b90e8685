"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from quditgraph import cli  # noqa: E402


def binding_snapshot() -> dict:
    """Identity of every attribute of every quditgraph module and of its classes."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "quditgraph" and not mod_name.startswith("quditgraph."):
            continue
        for attr, value in vars(mod).items():
            snap[(mod_name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    snap[(mod_name, attr, cattr)] = id(cvalue)
    return snap


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _small_ops(tmp_path: Path) -> list:
    """Cheap ops covering every layer group: circuits, classify, verdicts."""
    picked = []
    for name, wanted in (
        ("dense_circuits", ("dense0.qc", "dense1.qc", "dense2.qc")),
        ("classify", ("classify 4 --field '2 1",)),
        ("verdicts", ("make-mes 5 ", "mes5.state", "graph0.json", "graph4.json", "make-mes 6")),
    ):
        wl = workloads.build(name, 3, tmp_path)
        picked += [op for op in wl.ops if any(w in op.label + " " for w in wanted)]
    # make-mes must run before the verify-mes of its dump
    return sorted(picked, key=lambda op: op.verb != "make-mes")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(tmp_path, name):
    a, b, c = (tmp_path / x for x in "abc")
    for d, seed in ((a, 7), (b, 7), (c, 8)):
        d.mkdir()
        wl = workloads.build(name, seed, d)
        (d / "argv.txt").write_text("\n".join(op.label.replace(str(d), "<dir>") for op in wl.ops))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)


def test_tracer_restores_every_binding():
    import quditgraph.duality
    import quditgraph.simulator
    before = binding_snapshot()
    original = quditgraph.simulator.run_gates
    with tracer.Tracer():
        assert quditgraph.simulator.run_gates is not original
        assert quditgraph.duality.run_gates is quditgraph.simulator.run_gates
        assert binding_snapshot() != before
    assert binding_snapshot() == before


def test_traced_ops_match_untraced_and_self_times_add_up(tmp_path):
    ops = _small_ops(tmp_path)
    assert len(ops) >= 8
    tr = tracer.Tracer()
    loop = run.timed_loop(ops, 1, lambda argv: cli.main(argv), speed.Reference(), tr)
    assert loop["mismatched"] == {}
    assert run.check_outputs(ops, loop) == {}
    assert tr.op_s == pytest.approx(sum(s[2] for s in loop["traced"]), rel=0.05)
    assert sum(tr.self_s.values()) == pytest.approx(tr.op_s, rel=1e-9)
    layers = run.per_layer(tr, loop)
    covered = sum(layers[name] for name in run.LAYER_SELF_S)
    assert covered / tr.op_s + layers["trace.unattributed_share"] == pytest.approx(1.0, rel=1e-9)
    for name in ("kernels.cnot_calls", "simulator.rdm_calls", "classify.graphs_kept", "entangle.verdicts",
                 "rewrite.symbolic_gates", "gf.field_builds", "simulator.dump_lines"):
        assert layers[name] > 0, name


def test_oracles_reject_wrong_outputs(tmp_path):
    ops = _small_ops(tmp_path)
    loop = run.timed_loop(ops, 1, lambda argv: cli.main(argv), speed.Reference())
    for i, (rc, out, _, _) in loop["first"].items():
        assert ops[i].check(rc, out) is None, ops[i].label
        wrong_rc = 1 if rc == 0 else 0
        assert ops[i].check(wrong_rc, out) is not None, ops[i].label
    simulate = next(i for i, op in enumerate(ops) if op.verb == "simulate")
    rc, out, _, _ = loop["first"][simulate]
    lines = out.splitlines()
    lines[-1] = lines[-1].split()[0] + " 0.5 0.0"
    assert ops[simulate].check(rc, "\n".join(lines) + "\n") is not None


def test_product_free_count_matches_enumeration():
    from itertools import product
    for d, k, m in ((2, 2, 3), (3, 1, 3), (3, 2, 2)):
        brute = sum(
            1 for labels in product(range(d), repeat=k * m)
            if all(any(labels[r * m:(r + 1) * m]) for r in range(k))
            and all(any(labels[r * m + c] for r in range(k)) for c in range(m))
        )
        assert workloads.product_free_count(d, k, m) == brute


def test_polynomial_table_lists_irreducible_polynomials():
    from quditgraph.gf import _poly_index, irreducible_polynomials
    for (p, n), indices in workloads.POLYS.items():
        assert indices == [_poly_index(q, p) for q in irreducible_polynomials(p, n)]


def test_tail_percentile_leaves_ten_samples_beyond():
    values = list(range(1, 31))
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND
    assert pct == pytest.approx(100 * 20 / 30)


def test_benchmark_json_names_every_printed_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
