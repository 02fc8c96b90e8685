#!/usr/bin/env python3
"""End-to-end benchmark of the quditgraph CLI, with a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload dense_circuits --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

One client in one process, closed loop: each op starts when the previous one
returns.  An op is one in-process ``quditgraph.cli.main(argv)`` call on
seeded input files (see workloads.py).  The timed loop runs whole rounds of
the workload's op list; the number of rounds is fixed from ``--seconds`` and
the workload's round time at the commit that defined the benchmark, so every
run does the same work.  Outputs are checked after the loop: the first
occurrence of each op by its oracle, later ones by equality with the first.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced repeat of the loop (spans from tracer.py) and the
tracing overhead.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  Exit code 2 means the benchmark
could not run, for instance because ``src/quditgraph`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

# Whole rounds of each workload in a 20-second run: about 20 s of work at the
# defining commit (2-core Xeon, Python 3.11, numpy 2.4, numpy kernel lane),
# chosen so that the tail sample falls inside one op's samples, not at an edge.
ROUNDS_PER_20_S = {"dense_circuits": 7, "symbolic_circuits": 8, "classify": 4, "verdicts": 4}
TAIL_BEYOND = 10        # op_tail_ms: the highest percentile with this many samples beyond it
MIN_ROUNDS = 4          # so that every op's median rests on at least four samples
# Reference parts (speed.py) each workload's op times are scaled by: the kinds
# of work its time is made of.  Set-up launches run in child processes whose
# speed the reference does not track, so setup_s stays raw.
SCALE_PARTS = {
    "dense_circuits": ("numpy", "memory"),
    "symbolic_circuits": ("python",),
    "classify": ("python", "numpy"),
    "verdicts": ("numpy", "memory"),
}
SETUP_LAUNCHES = 7
VERBS = ("normalize", "simulate", "classify", "dual-check", "make-mes", "verify-mes", "relations-test")

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s", "peak_rss_mb": "MiB"}

# Per-layer metric -> span names whose self times it sums.
LAYER_SELF_S = {
    "kernels.busy_s": ("kernels.cnot", "kernels.axis_perm", "kernels.swap"),
    "simulator.run_gates_self_s": ("simulator.run_gates",),
    "simulator.init_state_s": ("simulator.init_state",),
    "simulator.rdm_s": ("simulator.rdm",),
    "simulator.spectrum_s": ("simulator.spectrum",),
    "simulator.signature_self_s": ("simulator.signature",),
    "simulator.dump_s": ("simulator.dump",),
    "simulator.parse_s": ("simulator.parse",),
    "simulator.operator_s": ("simulator.operator",),
    "rewrite.parse_s": ("rewrite.parse",),
    "rewrite.symbolic_apply_s": ("rewrite.symbolic_apply",),
    "rewrite.rref_s": ("rewrite.rref",),
    "rewrite.dense_amps_s": ("rewrite.dense_amps",),
    "rewrite.relations_self_s": ("rewrite.relations",),
    "rewrite.canonical_self_s": ("rewrite.canonical",),
    "classify.self_s": ("classify.classify",),
    "entangle.build_self_s": ("entangle.build",),
    "entangle.compose_s": ("entangle.compose",),
    "entangle.verdict_self_s": ("entangle.verdict",),
    "duality.conjugation_s": ("duality.conjugation",),
    "duality.verify_self_s": ("duality.verify",),
    "gf.field_build_s": ("gf.field_build",),
    "cli.self_s": ("cli.main",),
}
LAYER_CALLS = {
    "kernels.cnot_calls": "kernels.cnot",
    "kernels.axis_perm_calls": "kernels.axis_perm",
    "kernels.swap_calls": "kernels.swap",
    "simulator.rdm_calls": "simulator.rdm",
    "simulator.spectrum_calls": "simulator.spectrum",
    "rewrite.rref_calls": "rewrite.rref",
    "rewrite.dense_amps_calls": "rewrite.dense_amps",
    "gf.field_builds": "gf.field_build",
    "rewrite.symbolic_gates": "rewrite.symbolic_apply",
    "entangle.verdicts": "entangle.verdict",
}
LAYER_COUNTS = {
    "kernels.amps_touched": "amps_touched",
    "simulator.gates_applied": "gates_applied",
    "simulator.h_gates": "h_gates",
    "simulator.rdm_elems": "rdm_elems",
    "simulator.spectrum_dim_max": "spectrum_dim_max",
    "simulator.dump_lines": "dump_lines",
    "rewrite.relations_cases": "relations_cases",
    "gf.scalar_calls": "scalar_calls",
    "classify.graphs_kept": "graphs_kept",
}


class Unavailable(Exception):
    """The checkout cannot be benchmarked (for example, no program sources)."""


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> int:
    """Keep BLAS/OpenMP threads at or below nproc; must run before numpy loads."""
    cap = nproc()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        os.environ[var] = str(min(int(current), cap) if current.isdigit() and int(current) > 0 else cap)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def import_program():
    init = SRC / "quditgraph" / "__init__.py"
    if not init.is_file():
        raise Unavailable(f"no program sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import quditgraph
    if Path(quditgraph.__file__).resolve() != init.resolve():
        raise Unavailable(f"quditgraph imported from {quditgraph.__file__}, not from this checkout")
    return quditgraph


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None when it cannot be asked."""
    import ctypes
    import re
    try:
        maps = Path("/proc/self/maps").read_text()
        lib = ctypes.CDLL(re.search(r"(/\S*openblas\S*\.so\S*)", maps).group(1))
    except (OSError, AttributeError):
        return None
    for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment(quditgraph, blas_threads_cap: int) -> dict:
    import importlib.util
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)).strip() for f in ("level", "type", "size"))
        if size:
            caches.append(f"L{level} {kind} {size}")
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:  # no git on this machine
            pass
    digest = hashlib.sha1()
    for path in sorted((SRC / "quditgraph").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "kernel_backend": quditgraph.KERNEL_BACKEND,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_cap": blas_threads_cap,
        "blas_threads": _blas_threads_in_use(),
        "nproc": nproc(),
        "cpu_model": cpu,
        "caches": caches,
        "git_commit": commit,
        "source_sha1": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import quditgraph; "
    "[quditgraph.Field(int(p), int(n)) for p, n in (f.split(':') for f in sys.argv[2:])]"
)


def setup_launches(fields) -> list[float]:
    """Wall seconds of fresh interpreters importing quditgraph and building the fields."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + [f"{p}:{n}" for p, n in fields]
    launches = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        launches.append(time.perf_counter() - t0)
    return launches


def invoke(call, argv):
    """One op: (exit code or None, stdout, seconds, error).  Only the call itself is timed."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = call(argv)
        except Exception as exc:  # an escaped exception is a failed op, not a crash of the benchmark
            rc, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
    return rc, out.getvalue(), dt, error


def timed_loop(ops, rounds: int, call, ref, tracer=None) -> dict:
    """Run whole rounds of ops; with a tracer, each op runs untraced and then traced.

    Samples are (round, op index, seconds, reference sample taken just before).  The
    first output of each op is kept for its oracle; every later output,
    traced ones included, must equal it.
    """
    plain, traced, first, mismatched = [], [], {}, {}
    for r in range(rounds):
        for i, op in enumerate(ops):
            ref.sample()
            results = [(plain, invoke(call, op.argv))]
            if tracer is not None:
                with tracer:
                    results.append((traced, invoke(lambda argv: tracer.run_op(len(traced), call, argv), op.argv)))
            for samples, (rc, out, dt, error) in results:
                key = (rc, hashlib.sha1(out.encode()).hexdigest(), error)
                if i not in first:
                    first[i] = (rc, out, error, key)
                elif key != first[i][3]:
                    mismatched.setdefault(i, f"output differs from the first run of this op: exit {rc}, {error}")
                samples.append((r, i, dt, len(ref.samples) - 1))
    ref.sample()  # the sample after the last op
    return {"samples": plain, "traced": traced, "first": first, "mismatched": mismatched}


def check_outputs(ops, loop) -> dict:
    """Op index -> failure reason, for every op whose output is wrong."""
    failures = dict(loop["mismatched"])
    for i, (rc, out, error, _) in loop["first"].items():
        if error is not None:
            failures[i] = error
            continue
        try:
            reason = ops[i].check(rc, out)
        except Exception as exc:  # an unparsable output is a wrong output
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures[i] = reason
    return failures


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond it."""
    s = sorted(latencies)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def end_to_end(ops, samples, setup) -> tuple[dict, dict]:
    """Metrics from successful (round, op index, seconds) samples and setup launch times."""
    lat = [dt * 1e3 for _, _, dt in samples] or [float("nan")]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "ops_per_s": len(samples) / (sum(lat) / 1e3),
        "op_p50_ms": statistics.median(lat),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setup),
    }
    verbs, per_op = {}, {}
    for verb in VERBS:
        v = [dt * 1e3 for _, i, dt in samples if ops[i].verb == verb]
        if v:
            verbs[verb.replace("-", "_") + "_ms"] = {"value": statistics.median(v), "unit": "ms", "samples": len(v)}
    for _, i, dt in samples:
        per_op.setdefault(ops[i].label, []).append(dt * 1e3)
    detail = {
        "samples": {"ops_per_s": len(samples), "op_p50_ms": len(samples),
                    "op_tail_ms": f"{len(samples)}, p{tail_pct:.1f}", "setup_s": len(setup), "peak_rss_mb": 1},
        "verbs": verbs,
        "per_op_median_ms": {label: round(statistics.median(v), 3) for label, v in per_op.items()},
    }
    return metrics, detail


def per_layer(tr, loop) -> dict:
    m = {name: sum(tr.self_s[s] for s in spans) for name, spans in LAYER_SELF_S.items()}
    m.update({name: tr.calls[span] for name, span in LAYER_CALLS.items()})
    m.update({name: tr.counts[key] for name, key in LAYER_COUNTS.items()})
    m["kernels.amps_per_s"] = m["kernels.amps_touched"] / m["kernels.busy_s"] if m["kernels.busy_s"] else 0.0
    m["kernels.bytes_moved_computed"] = 32 * m["kernels.amps_touched"]  # 16 B read + 16 B written per amplitude
    labelings = tr.counts["labelings"]
    m["classify.kept_ratio"] = m["classify.graphs_kept"] / labelings if labelings else 0.0
    m["trace.unattributed_share"] = tr.self_s["op"] / tr.op_s if tr.op_s else 0.0
    plain = sum(s[2] for s in loop["samples"])
    traced = sum(s[2] for s in loop["traced"])
    m["trace.overhead_share"] = traced / plain - 1.0
    return m


PER_LAYER_UNITS = {
    **{name: "s" for name in LAYER_SELF_S},
    **{name: "count" for name in (*LAYER_CALLS, *LAYER_COUNTS)},
    "simulator.rdm_elems": "elements",
    "simulator.spectrum_dim_max": "dim",
    "kernels.amps_touched": "amplitudes",
    "kernels.amps_per_s": "amps/s",
    "kernels.bytes_moved_computed": "B",
    "classify.kept_ratio": "ratio",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(args, blas_cap: int) -> int:
    quditgraph = import_program()
    import speed
    import tracer
    import workloads
    from quditgraph import cli

    work = WORKDIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl = workloads.build(args.workload, args.seed, work)
        rounds = max(MIN_ROUNDS, round(ROUNDS_PER_20_S[args.workload] * args.seconds / 20))
        env = environment(quditgraph, blas_cap)
        call = lambda argv: cli.main(argv)  # noqa: E731 - late lookup, so the tracer's rebinding applies
        report = {"workload": args.workload, "seed": args.seed, "rounds": rounds, "ops_per_round": len(wl.ops), "env": env}

        ref = speed.Reference()
        if args.trace:
            tr = tracer.Tracer()
            loop = timed_loop(wl.ops, rounds, call, ref, tr)
            failures = check_outputs(wl.ops, loop)
            metrics = per_layer(tr, loop)
            units = PER_LAYER_UNITS
            attempted = len(loop["samples"]) + len(loop["traced"])
            failed = sum(1 for s in loop["samples"] + loop["traced"] if s[1] in failures)
            # known-defect ops, untimed; here rather than in every untraced run to save their 8 s
            report["known_defect_probe"] = [
                {"argv": op.label, "exit": rc, "error": error, "seconds": round(dt, 3)}
                for op in wl.probe for rc, _, dt, error in [invoke(call, op.argv)]
            ]
        else:
            launches = setup_launches(wl.fields)
            loop = timed_loop(wl.ops, rounds, call, ref)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before the oracles run
            failures = check_outputs(wl.ops, loop)
            ok = [s for s in loop["samples"] if s[1] not in failures]
            parts = SCALE_PARTS[args.workload]
            metrics, detail = end_to_end(wl.ops, [(r, i, dt * ref.scale(k, parts)) for r, i, dt, k in ok], launches)
            metrics["peak_rss_mb"] = peak_rss_mb
            raw, _ = end_to_end(wl.ops, [(r, i, dt) for r, i, dt, _ in ok], launches)
            report.update(detail)
            report["raw"] = raw
            report["reference_ms"] = [[round(t * 1e3, 4) for t in s] for s in ref.samples]
            report["samples_raw"] = [list(s) for s in loop["samples"]]
            report["labels"] = [op.label for op in wl.ops]
            units = END_TO_END_UNITS
            attempted = len(loop["samples"])
            failed = sum(1 for s in loop["samples"] if s[1] in failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report["failures"] = {wl.ops[i].label: reason for i, reason in sorted(failures.items())}
    counts = report.get("samples", {})
    for name, value in metrics.items():
        print(f"{name:34s} {value:16.6g} {units[name]}" + (f"  (n={counts[name]})" if name in counts else ""))
    for name, v in report.get("verbs", {}).items():
        print(f"{name:34s} {v['value']:16.6g} {v['unit']}  (n={v['samples']})")
    for probe in report.get("known_defect_probe", []):
        print(f"known defect: {probe['argv']} -> {probe['error'] or 'exit ' + str(probe['exit'])}")
    for label, reason in report["failures"].items():
        print(f"FAILED {label}: {reason}")
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so that peak_rss_mb belongs to one workload."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        print(f"== {name} (exit {done.returncode})")
        print(done.stdout, end="")
        print(done.stderr, end="", file=sys.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            status = done.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    if status == 0:
        print(json.dumps(results))
    return status


def main(argv=None) -> int:
    blas_cap = cap_blas_threads()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args, blas_cap)
    except Unavailable as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
