import numpy as np
import pytest

from quditgraph import (
    Circuit,
    Gate,
    ResourceGuardError,
    SupportState,
    SymbolicState,
    build_mes,
    compose_mes,
    mes_verdict,
    ring_square_state,
    square_state,
    symbolic_rdm_rank,
    tripartite_marginal_checks,
)
from quditgraph.rewrite import mat_rref
from quditgraph.simulator import bipartition_subsets, reduced_density_raw, spectrum

from util import field_for, ket_strings, random_c_circuit, random_cadw_circuit, support_of

# Expected expansion of the twist-2 square state over GF(4): every ket
# |i, i+2k, k, i+k| with field arithmetic from the x^2+x+1 tables.
SQUARE_GF4_TWIST2_KETS = [
    "0000", "0211", "0322", "0133",
    "1101", "1310", "1223", "1032",
    "2202", "2013", "2120", "2331",
    "3303", "3112", "3021", "3230",
]


# ---------------------------------------------------------------------------
# Square states over fields
# ---------------------------------------------------------------------------

def test_square_state_gf4_twist2_literal_terms():
    sq = square_state(field_for(4), 2)
    assert ket_strings(sq.dense(), 4, 4) == sorted(SQUARE_GF4_TWIST2_KETS)
    assert ["".join(map(str, ket)) for ket in sq.digits.T] == sorted(SQUARE_GF4_TWIST2_KETS)  # ascending
    assert np.array_equal(sq.amps, np.full(16, 0.25))


def test_square_state_degenerate_twists_fail_verdict():
    for d in (3, 4, 5):
        fld = field_for(d)
        for twist in (0, 1):
            assert not mes_verdict(square_state(fld, twist)).verdict


def test_square_state_qubits_never_maximal():
    fld = field_for(2)
    for twist in (0, 1):
        assert not mes_verdict(square_state(fld, twist)).verdict


@pytest.mark.parametrize("d", [3, 4, 5])
def test_square_state_good_twists_pass_verdict(d):
    fld = field_for(d)
    for twist in range(2, d):
        report = mes_verdict(square_state(fld, twist))
        assert report.verdict
        assert all(r.deviation < 1e-10 for r in report.records)


# ---------------------------------------------------------------------------
# Ring square states
# ---------------------------------------------------------------------------

def test_ring_parity_small():
    assert mes_verdict(ring_square_state(3)).verdict
    assert mes_verdict(ring_square_state(5)).verdict
    assert not mes_verdict(ring_square_state(2)).verdict
    assert not mes_verdict(ring_square_state(4)).verdict


def test_ring_state_normalized_and_guarded():
    st = ring_square_state(6)
    assert abs(np.linalg.norm(st.amps) - 1) < 1e-12
    with pytest.raises(ValueError):
        ring_square_state(1)
    with pytest.raises(ResourceGuardError):
        ring_square_state(65)


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_compose_single_input_unchanged():
    st = ring_square_state(3)
    assert compose_mes([st]) is st


def test_compose_field_and_ring_gives_d12_mes():
    parts = [square_state(field_for(4), 2), ring_square_state(3)]
    composite = compose_mes(parts)
    assert composite.d == 12 and composite.n == 4
    report = mes_verdict(composite)
    assert report.verdict
    assert len(report.records) == 7


def test_compose_two_rings_gives_d15_mes():
    composite = compose_mes([ring_square_state(3), ring_square_state(5)])
    assert composite.d == 15
    assert mes_verdict(composite).verdict


def test_constructions_match_their_dense_formulas():
    # the deleted dense constructions as oracles: the square and ring states filled
    # ket by ket, the composite as an interleaved outer product
    for d in (2, 3, 4, 5, 7, 8, 9):
        fld = field_for(d)
        for twist in range(d):
            square = np.zeros([d] * 4)
            for i in range(d):
                for k in range(d):
                    square[i, fld.add(i, fld.mul(twist, k)), k, fld.add(i, k)] = 1 / d
            assert np.array_equal(square_state(fld, twist).dense(), square.reshape(-1)), (d, twist)
    for d in (2, 3, 6, 7):
        ring = np.zeros([d] * 4)
        for i in range(d):
            for k in range(d):
                ring[i, (i - k) % d, k, (i + k) % d] = 1 / d
        assert np.array_equal(ring_square_state(d).dense(), ring.reshape(-1)), d
    states = []
    for parts in ([square_state(field_for(4), 2), ring_square_state(3)], [ring_square_state(3)] * 3):
        want = np.ones([1] * 4)
        for part in parts:
            prod = np.multiply.outer(want, part.dense().reshape([part.d] * 4))
            dim = want.shape[0] * part.d
            want = prod.transpose([0, 4, 1, 5, 2, 6, 3, 7]).reshape([dim] * 4)
        composite = compose_mes(parts)
        assert composite.d == dim and composite.amps.size == dim ** 2
        assert np.array_equal(composite.dense(), want.reshape(-1))
        states += parts + [composite]
    for state in states:
        index = state.digits[0]
        for row in state.digits[1:]:
            index = index * state.d + row
        assert np.all(np.diff(index) > 0), state.d  # kets listed once each, ascending


def test_compose_rejects_non_mes_inputs():
    with pytest.raises(ValueError):
        compose_mes([ring_square_state(3), ring_square_state(2)])


def test_compose_dimension_guard():
    with pytest.raises(ResourceGuardError):
        compose_mes([ring_square_state(9), ring_square_state(11)])


# ---------------------------------------------------------------------------
# Construction dispatcher
# ---------------------------------------------------------------------------

def test_build_mes_odd():
    built = build_mes(7)
    assert built.ok and built.construction == "ring(7)"
    assert mes_verdict(built.state).verdict


def test_build_mes_multiple_of_four():
    built = build_mes(12)
    assert built.ok
    assert built.state.d == 12
    assert "GF(2^2)" in built.construction and "ring(3)" in built.construction
    assert mes_verdict(built.state).verdict


def test_build_mes_refuses_twice_odd():
    two, six, ten = build_mes(2), build_mes(6), build_mes(10)
    for built in (two, six, ten):
        assert not built.ok and built.state is None and built.construction == "none"
    assert "no 4-party maximally entangled state of dimension 2 exists" in two.reason
    assert "quant-ph/0005013" in two.reason
    assert "dimension 6 exists" in six.reason and "arXiv:2104.05122" in six.reason
    assert "dimension 10 exists" in ten.reason and "orthogonal Latin squares of order 10" in ten.reason
    for built in (six, ten):
        assert "no construction for it is implemented here" in built.reason


def test_build_mes_rejects_tiny_dimension():
    with pytest.raises(ValueError):
        build_mes(1)


# ---------------------------------------------------------------------------
# Verdicts on hand-built states
# ---------------------------------------------------------------------------

def test_two_bell_pairs_are_not_four_party_mes():
    # |B>_12 x |B>_34: every single qudit is maximally mixed, but the
    # {1,2} split is a product cut
    d = 2
    amps = np.zeros(d ** 4, dtype=np.complex128)
    for a in range(d):
        for b in range(d):
            amps[((a * d + a) * d + b) * d + b] = 1 / d
    report = mes_verdict(support_of(amps, d, 4))
    assert not report.verdict
    by_subset = {r.subset: r for r in report.records}
    for q in range(1, 5):
        assert by_subset[(q,)].maximally_mixed
    assert by_subset[(1, 2)].rank == 1
    assert not by_subset[(1, 2)].maximally_mixed


def test_ghz_fails_pair_check():
    fld = field_for(3)
    gates = (Gate("C", (1, 2), 1), Gate("C", (1, 3), 1), Gate("C", (1, 4), 1))
    circ = Circuit(fld, 4, ("s", "0", "0", "0"), gates)
    report = mes_verdict(support_of(circ.simulate().amps, 3, 4))
    assert not report.verdict
    pair = next(r for r in report.records if r.subset == (1, 2))
    assert pair.rank == 3 and not pair.maximally_mixed


# ---------------------------------------------------------------------------
# Symbolic rank oracle
# ---------------------------------------------------------------------------

def test_symbolic_rank_examples():
    f3 = field_for(3)
    bell = SymbolicState(f3, 2, np.array([[1, 1]]), np.zeros(2))
    assert symbolic_rdm_rank(bell, (1,)) == 3
    ghz = SymbolicState(f3, 3, np.array([[1, 1, 1]]), np.zeros(3))
    assert symbolic_rdm_rank(ghz, (1, 2)) == 3
    f4 = field_for(4)
    square = SymbolicState(f4, 4, np.array([[1, 1, 0, 1], [0, 2, 1, 1]]), np.zeros(4))
    assert symbolic_rdm_rank(square, (1, 3)) == 16


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_symbolic_rank_matches_dense_rank(d):
    fld = field_for(d)
    rng = np.random.default_rng(77 + d)
    for _ in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        circ = random_c_circuit(fld, n, k, int(rng.integers(0, 25)), rng)
        sym = SymbolicState.from_circuit(circ)
        size = int(rng.integers(1, n))
        subset = tuple(sorted(rng.permutation(n)[:size] + 1))
        dense = circ.simulate().amps
        a_axes = [q - 1 for q in subset]
        b_axes = [q for q in range(n) if q + 1 not in subset]
        m = dense.reshape([d] * n).transpose(a_axes + b_axes).reshape(d ** len(subset), -1)
        dense_rank = np.linalg.matrix_rank(m, tol=1e-10)
        assert symbolic_rdm_rank(sym, subset) == dense_rank


@pytest.mark.parametrize("d", [2, 3, 4, 5, 9])
def test_symbolic_rank_off_the_first_wires_matches_dense_rank(d):
    # A/D/C/W circuits on a random s/0 pattern: the pivot wires of the
    # coefficient matrix are rarely 1..k, so the label block is taken in a
    # permuted wire order and the subset must follow it
    fld = field_for(d)
    rng = np.random.default_rng(310 + d)
    moved = 0
    for _ in range(40):
        n = int(rng.integers(3, 6))
        k = int(rng.integers(1, n))
        circ = random_cadw_circuit(fld, n, k, int(rng.integers(5, 25)), rng)
        sym = SymbolicState.from_circuit(circ)
        pivots = mat_rref(fld, sym.matrix)[1]
        assert len(pivots) == k
        moved += pivots != list(range(k))
        dense = circ.simulate().amps.reshape([d] * n)
        for subset in bipartition_subsets(n):
            a_axes = [q - 1 for q in subset]
            b_axes = [q for q in range(n) if q + 1 not in subset]
            m = dense.transpose(a_axes + b_axes).reshape(d ** len(subset), -1)
            assert symbolic_rdm_rank(sym, subset) == np.linalg.matrix_rank(m, tol=1e-10), (circ, subset)
    assert moved >= 10


def test_symbolic_rank_subset_validation():
    sym = SymbolicState(field_for(3), 2, np.array([[1, 1]]), np.zeros(2))
    with pytest.raises(ValueError):
        symbolic_rdm_rank(sym, ())
    with pytest.raises(ValueError):
        symbolic_rdm_rank(sym, (1, 2))


def test_circuit_state_spectra_are_flat():
    rng = np.random.default_rng(9)
    for d in (2, 3):
        fld = field_for(d)
        for _ in range(10):
            circ = random_c_circuit(fld, 4, 2, 12, rng)
            amps = circ.simulate().amps
            for size in (1, 2):
                subset = tuple(sorted(rng.permutation(4)[:size] + 1))
                evals = spectrum(reduced_density_raw(amps, d, 4, subset))
                nonzero = evals[evals > 1e-10]
                assert nonzero.max() - nonzero.min() < 1e-10


# ---------------------------------------------------------------------------
# Tripartite marginal checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("d", [3, 4, 5])
def test_tripartite_checks_with_mes(d):
    report = tripartite_marginal_checks(d)
    assert report["trivial"]["marginals_maximally_mixed"]
    assert report["trivial"]["rank"] == d ** 3
    assert report["mes"]["available"]
    assert report["mes"]["rank"] == d
    assert report["mes"]["marginals_maximally_mixed"]


def test_tripartite_checks_without_mes():
    report = tripartite_marginal_checks(2)
    assert report["trivial"]["marginals_maximally_mixed"]
    assert report["trivial"]["rank"] == 8
    assert not report["mes"]["available"]


def rho_partial_trace(rho, d, n, keep):
    """Partial trace of an n-system density matrix onto `keep` (1-based): the mixed-state oracle."""
    rest = [q for q in range(1, n + 1) if q not in keep]
    t = rho.reshape([d] * (2 * n))
    for q in reversed(rest):
        t = np.trace(t, axis1=q - 1, axis2=q - 1 + t.ndim // 2)
    k = d ** len(keep)
    return t.reshape(k, k)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_tripartite_checks_match_density_matrix_oracle(d):
    # the d^6-entry density matrices that the pure-state marginals replace
    tol = 1e-10
    report = tripartite_marginal_checks(d)
    pairs = [(1, 2), (1, 3), (2, 3)]
    mixed = np.eye(d ** 2) / d ** 2
    eye3 = np.eye(d ** 3) / d ** 3
    trivial = [float(np.max(np.abs(rho_partial_trace(eye3, d, 3, p) - mixed))) for p in pairs]
    assert report["trivial"]["marginals_maximally_mixed"] == all(dev <= tol for dev in trivial)
    assert abs(report["trivial"]["max_deviation"] - max(trivial)) < 1e-12
    built = build_mes(d)
    assert report["mes"]["available"] == built.ok
    if not built.ok:
        return
    psi = built.state.dense().reshape(d ** 3, d)  # rows: systems 1-3, columns: system 4
    rho_abc = psi @ psi.conj().T
    devs = [float(np.max(np.abs(rho_partial_trace(rho_abc, d, 3, p) - mixed))) for p in pairs]
    rank_abc = int(np.count_nonzero(np.linalg.eigvalsh(rho_abc) > tol))
    assert report["mes"]["rank"] == rank_abc
    assert report["mes"]["rank_equals_d"] == (rank_abc == d)
    assert report["mes"]["marginals_maximally_mixed"] == all(dev <= tol for dev in devs)
    assert abs(report["mes"]["max_deviation"] - max(devs)) < 1e-12


def test_tripartite_checks_guard_d3_entries():
    # every array holds at most d^3 entries, so every d that build_mes builds is answered;
    # I/d^3 itself passes the 2^24 guard up to d = 256; past d = 64 the MES part reports the d^4 guard
    import tracemalloc

    for d in (17, 32, 64):
        report = tripartite_marginal_checks(d)
        assert report["mes"]["rank"] == d
        assert report["mes"]["marginals_maximally_mixed"]
    tracemalloc.start()
    try:
        report = tripartite_marginal_checks(256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20, peak  # one byte per ket of I/d^3, no d^3-entry int64 array
    assert report["trivial"] == {"rank": 256 ** 3, "marginals_maximally_mixed": True, "max_deviation": 0.0}
    assert report["mes"] == {"available": False, "reason": "state of 256**4 amplitudes exceeds the 2^24 guard"}
    with pytest.raises(ResourceGuardError):
        tripartite_marginal_checks(257)


def test_tripartite_checks_build_no_density_matrix(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("tripartite_marginal_checks built a dense density matrix")

    for target in ("quditgraph.entangle.reduced_density_raw", "quditgraph.entangle.spectrum",
                   "quditgraph.simulator.reduced_density_raw", "quditgraph.simulator.spectrum",
                   "numpy.linalg.eigvalsh"):
        monkeypatch.setattr(target, boom)
    for d in (3, 4, 5, 12, 17, 32, 60, 64):
        report = tripartite_marginal_checks(d)
        assert report["trivial"] == {"rank": d ** 3, "marginals_maximally_mixed": True, "max_deviation": 0.0}
        mes = report["mes"]
        assert mes["rank"] == d and mes["rank_equals_d"], (d, mes)
        assert mes["marginals_maximally_mixed"] and mes["max_deviation"] < 1e-12, (d, mes)
        assert mes["decided_by"] == "diagonal-marginals"
    for d in (2, 6):
        report = tripartite_marginal_checks(d)
        assert report["trivial"]["rank"] == d ** 3 and report["trivial"]["marginals_maximally_mixed"]
        assert report["mes"]["available"] is False


# ---------------------------------------------------------------------------
# Diagonal-marginal verdicts against the dense per-bipartition path
# ---------------------------------------------------------------------------

def dense_records(state, tol=1e-10):
    """(subset, rank, flat, maximally_mixed, deviation) of every cut from the dense RDM spectrum."""
    from quditgraph.simulator import bipartition_subsets

    out = []
    for subset in bipartition_subsets(state.n):
        rho = reduced_density_raw(state.dense(), state.d, state.n, subset)
        dim = rho.shape[0]
        dev = float(np.max(np.abs(rho - np.eye(dim) / dim)))
        evals = spectrum(rho)
        r = int(np.count_nonzero(evals > tol))
        nonzero = evals[:r] if r else evals[:1]
        out.append((subset, r, bool(nonzero.max() - nonzero.min() <= tol), dev <= tol, dev))
    return out


def assert_matches_dense(state, methods):
    """The report on a SupportState agrees with the dense oracle built from it and used the expected methods."""
    report = mes_verdict(state)
    oracle = dense_records(state)
    assert [r.subset for r in report.records] == [o[0] for o in oracle]
    for rec, (_, rank, flat, mixed, dev) in zip(report.records, oracle):
        assert (rec.rank, rec.flat, rec.maximally_mixed) == (rank, flat, mixed), rec.subset
        assert abs(rec.deviation - dev) <= 1e-12, rec.subset
    assert report.verdict == all(o[3] for o in oracle)
    assert [r.method for r in report.records] == list(methods)
    want = "diagonal-marginals" if set(methods) == {"diagonal"} else "dense-spectrum"
    assert report.decided_by == want == report.to_dict()["decided_by"]
    assert [b["method"] for b in report.to_dict()["bipartitions"]] == list(methods)
    return report


def relabelled(state, rng):
    """The state with a seeded permutation of each party's basis labels (a local unitary)."""
    digits = np.stack([rng.permutation(state.d)[row] for row in state.digits])
    return SupportState(state.d, state.n, digits, state.amps)


MES_ORACLE_DIMS = [3, 4, 5, 7, 8, 9, 12, 15, 16, 20]


@pytest.mark.parametrize("d", MES_ORACLE_DIMS)
def test_build_mes_decided_by_diagonal_marginals_with_random_phases(d):
    rng = np.random.default_rng(d)
    state = build_mes(d).state
    amps = state.amps * np.exp(2j * np.pi * rng.random(d ** 2))
    report = assert_matches_dense(SupportState(d, 4, state.digits, amps), ["diagonal"] * 7)
    assert report.verdict


@pytest.mark.parametrize("d", MES_ORACLE_DIMS)
def test_build_mes_support_with_uneven_magnitudes(d):
    rng = np.random.default_rng(100 + d)
    state = build_mes(d).state
    amps = state.amps * rng.uniform(0.2, 1.8, d ** 2)
    amps /= np.linalg.norm(amps)
    report = assert_matches_dense(SupportState(d, 4, state.digits, amps), ["diagonal"] * 7)
    assert not report.verdict


@pytest.mark.parametrize("d", [7, 16])
def test_relabelled_degenerate_square_states(d):
    rng = np.random.default_rng(d)
    # twist 0 is an orthogonal array on every pair of parties but {1, 2}, and
    # each cut still projects injectively; twist 1 repeats digit 2 in digit 4,
    # so the {1, 3} cut is not injective and falls back to the spectrum
    twist0 = assert_matches_dense(relabelled(square_state(field_for(d), 0), rng), ["diagonal"] * 7)
    twist1 = assert_matches_dense(
        relabelled(square_state(field_for(d), 1), rng), ["diagonal"] * 5 + ["spectrum", "diagonal"]
    )
    assert not twist0.verdict and not twist1.verdict


@pytest.mark.parametrize("n", [2, 3, 5])
def test_random_dense_states_fall_back_to_the_spectrum(n):
    from quditgraph.simulator import bipartition_subsets

    rng = np.random.default_rng(n)
    for d in (2, 3):
        amps = rng.standard_normal(d ** n) + 1j * rng.standard_normal(d ** n)
        amps /= np.linalg.norm(amps)
        assert_matches_dense(support_of(amps, d, n), ["spectrum"] * len(bipartition_subsets(n)))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_product_states(n):
    from quditgraph.simulator import bipartition_subsets

    rng = np.random.default_rng(10 + n)
    d = 3
    for _ in range(6):
        # each factor is a basis ket or a random vector with full support
        kets = rng.random(n) < 0.5
        amps = np.ones(1, dtype=np.complex128)
        for is_ket in kets:
            if is_ket:
                factor = np.zeros(d, dtype=np.complex128)
                factor[rng.integers(d)] = np.exp(2j * np.pi * rng.random())
            else:
                factor = rng.standard_normal(d) + 1j * rng.standard_normal(d)
                factor /= np.linalg.norm(factor)
            amps = np.kron(amps, factor)
        # the support projects injectively onto B exactly when every party of A holds one ket
        methods = ["diagonal" if all(kets[q - 1] for q in subset) else "spectrum"
                   for subset in bipartition_subsets(n)]
        report = assert_matches_dense(support_of(amps, d, n), methods)
        assert not report.verdict and all(r.rank == 1 for r in report.records)


def test_support_is_exact_with_no_threshold():
    # a 1e-300 amplitude on |1000> shares every digit but the first with
    # |0000> in the support, so no cut whose side A holds party 1 projects
    # injectively; those cuts must not be read as diagonal
    state = build_mes(3).state
    tiny = SupportState(3, 4, np.hstack([state.digits, [[1], [0], [0], [0]]]), np.append(state.amps, 1e-300))
    methods = ["spectrum"] + ["diagonal"] * 3 + ["spectrum"] * 3
    assert assert_matches_dense(tiny, methods).verdict


@pytest.mark.parametrize("phases", [False, True])
def test_spectrum_fallback_builds_the_dense_state_once_in_real_arithmetic_when_real(phases, monkeypatch):
    import quditgraph.entangle

    rng = np.random.default_rng(5)
    amps = rng.standard_normal(3 ** 3)
    if phases:
        amps = amps * np.exp(2j * np.pi * rng.random(3 ** 3))
    state = support_of(amps / np.linalg.norm(amps), 3, 3)
    dtypes, builds = [], []
    raw, dense = quditgraph.entangle.reduced_density_raw, SupportState.dense

    def spy_raw(*args):
        rho = raw(*args)
        dtypes.append(rho.dtype)
        return rho

    def spy_dense(self):
        builds.append(self)
        return dense(self)

    monkeypatch.setattr(quditgraph.entangle, "reduced_density_raw", spy_raw)
    monkeypatch.setattr(SupportState, "dense", spy_dense)
    mes_verdict(state)
    assert dtypes == [np.dtype(np.complex128 if phases else np.float64)] * 3
    assert len(builds) == 1
    monkeypatch.undo()
    # the oracle cuts the complex128 dense state
    assert_matches_dense(state, ["spectrum"] * 3)


def test_make_and_verify_mes_32_run_no_eigvalsh(tmp_path, monkeypatch, capsys):
    import json

    import quditgraph.entangle
    import quditgraph.simulator
    from quditgraph.cli import main

    def boom(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    monkeypatch.setattr(quditgraph.simulator, "spectrum", boom)
    monkeypatch.setattr(quditgraph.entangle, "spectrum", boom)
    path = tmp_path / "mes32.state"
    assert main(["make-mes", "32", "--output", str(path)]) == 0
    capsys.readouterr()
    assert main(["verify-mes", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdict"] is True and report["decided_by"] == "diagonal-marginals"
    assert [b["rank"] for b in report["bipartitions"]] == [32] * 4 + [1024] * 3
