import math

import numpy as np
import pytest

from dickesynth.circuit import Circuit, gate_matrix
from dickesynth.synth import prepare_dicke
from dickesynth.verify import (basis_state, dicke_fidelities,
                               dicke_reference, fidelity, partial_trace,
                               simulate, two_qubit_separability)


def _dense_simulate(c, psi):
    """Reference oracle: the dense tensordot loop over all 2^n amplitudes."""
    n = c.num_qubits
    # view as an n-axis tensor; axis i (from the right) is qubit i
    psi = np.array(psi, dtype=complex).reshape((2,) * n)
    for g in c.gates:
        if g.kind == "cx":
            ctrl, targ = g.qubits
            # swap the target axis within the control=1 slice
            sl = [slice(None)] * n
            sl[n - 1 - ctrl] = 1
            sub = psi[tuple(sl)]
            axis = (n - 1 - targ) - (1 if targ < ctrl else 0)
            sub[...] = np.flip(sub, axis=axis).copy()
        else:
            (targ,) = g.qubits
            psi = np.tensordot(gate_matrix(g.params), psi,
                               axes=([1], [n - 1 - targ]))
            psi = np.moveaxis(psi, 0, n - 1 - targ)
    return psi.reshape(1 << n)


def _dicke_loop(n, ell):
    """Reference oracle: the per-integer popcount loop."""
    v = np.zeros(1 << n, dtype=complex)
    amp = 1.0 / math.sqrt(math.comb(n, ell))
    for idx in range(1 << n):
        if idx.bit_count() == ell:
            v[idx] = amp
    return v


def _random_circuit(n, gates, seed, hadamards=False):
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    if hadamards:
        for q in range(n):
            c.u(q, math.pi / 2, 0.0, math.pi)
    for _ in range(gates):
        if rng.random() < 0.4:
            a, b = rng.choice(n, size=2, replace=False)
            c.cx(int(a), int(b))
        else:
            c.u(int(rng.integers(n)), *rng.uniform(-math.pi, math.pi, 4))
    return c


# tolerance fixed before measuring: complex128 round-off over a few thousand
# gates stays orders of magnitude below it, the 1e-14 pruning too
ORACLE_TOL = 1e-12


@pytest.mark.parametrize("topology,dims,k", [
    ("complete", 14, 3), ("complete", 9, 4), ("complete", 12, 6),
    ("grid", (2, 7), 3), ("grid", (3, 4), 2), ("grid", (3, 3), 4),
    ("path", 14, 2), ("path", 10, 5)])
def test_sparse_matches_dense_oracle_on_dicke_unitaries(topology, dims, k):
    c = prepare_dicke(topology, dims, k)
    n = c.num_qubits
    # every weight's fidelity from one tagged sweep, taken on the support
    swept = list(dicke_fidelities(c, range(k + 1)))
    assert [ell for ell, _ in swept] == list(range(k + 1))
    for ell, f in swept:
        want = _dense_simulate(c, basis_state(n, (1 << ell) - 1))
        got = simulate(c, (1 << ell) - 1)
        assert np.max(np.abs(got - want)) <= ORACLE_TOL
        assert abs(f - fidelity(got, dicke_reference(n, ell))) <= ORACLE_TOL


def test_dicke_fidelities_refuses_bad_weights():
    c = Circuit(4)
    for ells in ([5], [-1], [1, 1]):
        with pytest.raises(ValueError, match="distinct"):
            list(dicke_fidelities(c, ells))
    # n + bit_length(ell) must stay <= 62, so the tag fits in int64
    with pytest.raises(ValueError, match="tag"):
        list(dicke_fidelities(Circuit(62), [1]))
    assert list(dicke_fidelities(Circuit(61), [1])) == [(1, 1 / 61)]
    # every C(n, ell) must stay <= C(20, 10), checked before the tag
    for n in (59, 60):
        with pytest.raises(ValueError, match=(
                rf"C\({n}, 4\) = {math.comb(n, 4)} exceeds the support "
                r"limit C\(20, 10\) = 184756")):
            list(dicke_fidelities(Circuit(n), [4]))


def test_simulate_starts_a_basis_input_from_one_index(monkeypatch):
    import dickesynth.verify as verify
    real, inputs = verify._evolve, []

    def counted(c, idx, amp):
        inputs.append(idx.tolist())
        return real(c, idx, amp)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")
    monkeypatch.setattr(verify, "_evolve", counted)
    monkeypatch.setattr(np, "unique", refuse)
    c = prepare_dicke("grid", (3, 4), 2)
    out = simulate(c)
    assert fidelity(out, dicke_reference(12, 2)) > 1 - 1e-10
    assert np.array_equal(simulate(c, "000000000101"), simulate(c, 5))
    assert inputs == [[0], [5], [5]]


def test_sparse_matches_dense_oracle_on_dense_input():
    c = prepare_dicke("complete", 8, 3)
    plus = np.full(1 << 8, 1 / 16, dtype=complex)
    assert np.max(np.abs(simulate(c, plus)
                         - _dense_simulate(c, plus))) <= ORACLE_TOL


def test_sparse_matches_dense_oracle_on_full_support():
    c = _random_circuit(10, 100, seed=7, hadamards=True)
    got = simulate(c)
    assert np.count_nonzero(got) == 1 << 10
    assert np.max(np.abs(got - _dense_simulate(c, basis_state(10, 0)))) \
        <= ORACLE_TOL


def test_dicke_reference_matches_loop():
    for n in range(13):
        for ell in range(n + 1):
            assert np.array_equal(dicke_reference(n, ell), _dicke_loop(n, ell))


def test_x_flips():
    c = Circuit(1)
    c.x(0)
    out = simulate(c, 0)
    assert abs(out[1]) > 1 - 1e-12


def test_bell_creation():
    c = Circuit(2)
    plus = np.array([1, 1, 0, 0], dtype=complex) / math.sqrt(2)  # (|00>+|01>)?
    # qubit 0 in |+>, qubit 1 in |0>: amplitudes on indices 0 and 1
    c.cx(0, 1)
    out = simulate(c, plus)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert fidelity(out, bell) > 1 - 1e-12


def test_random_circuit_preserves_norm():
    out = simulate(_random_circuit(6, 80, seed=5))
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_simulator_cap():
    with pytest.raises(ValueError):
        simulate(Circuit(21))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
def test_simulate_rejects_non_finite_state(bad):
    # a NaN norm passes abs(norm - 1) > 1e-9, so it must be refused first
    c = Circuit(2)
    c.cx(0, 1)
    with pytest.raises(ValueError, match="non-finite"):
        simulate(c, np.array([bad, 0, 0, 0]))


def test_basis_state_little_endian():
    v = basis_state(3, "011")
    assert v[0b011] == 1.0


@pytest.mark.parametrize("index", [-1, 8, 1 << 40])
def test_basis_index_out_of_range(index):
    with pytest.raises(ValueError):
        basis_state(3, index)
    with pytest.raises(ValueError):
        simulate(Circuit(3), index)


@pytest.mark.parametrize("index", [np.int64(3), np.uint8(3), np.int32(3)])
def test_simulate_numpy_integer_index(index):
    c = Circuit(3)
    c.u(0, 0.3, 0.1, 0.2, 0.0)
    c.cx(0, 2)
    assert np.array_equal(simulate(c, index), simulate(c, 3))
    with pytest.raises(ValueError):
        simulate(c, np.int64(8))


def test_dicke_reference_trivial():
    assert dicke_reference(5, 0)[0] == 1.0
    d21 = dicke_reference(2, 1)
    assert abs(d21[1] - 1 / math.sqrt(2)) < 1e-15
    assert abs(d21[2] - 1 / math.sqrt(2)) < 1e-15


def test_dicke_reference_counts():
    v = dicke_reference(10, 5)
    nz = np.flatnonzero(np.abs(v) > 0)
    assert len(nz) == 252
    assert np.allclose(np.abs(v[nz]), 1 / math.sqrt(252))
    assert all(int(i).bit_count() == 5 for i in nz)


def test_fidelity_self():
    v = dicke_reference(4, 2)
    assert fidelity(v, v) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        fidelity(v, dicke_reference(3, 1))


def test_partial_trace_product_state():
    # |0> on qubit 0, |+> on qubit 1
    v = np.zeros(4, dtype=complex)
    v[0] = v[2] = 1 / math.sqrt(2)
    rho = partial_trace(v, [1])
    plus = np.full((2, 2), 0.5)
    assert np.max(np.abs(rho - plus)) < 1e-12


def test_partial_trace_dicke_matches_block_matrix():
    # reduced state of the first and last qubit of |D^4_2>
    rho = partial_trace(dicke_reference(4, 2), [0, 3])
    ref = np.array([[1, 0, 0, 0],
                    [0, 2, 2, 0],
                    [0, 2, 2, 0],
                    [0, 0, 0, 1]]) / 6.0
    assert np.max(np.abs(rho - ref)) < 1e-12


@pytest.mark.parametrize("n", range(3, 15))
def test_reduced_dicke_matrix_all_n(n):
    for k in range(1, n // 2 + 1):
        rho = partial_trace(dicke_reference(n, k), [0, n - 1])
        a = math.comb(n - 2, k)
        b = math.comb(n - 2, k - 1)
        c = math.comb(n - 2, k - 2) if k >= 2 else 0
        ref = np.array([[a, 0, 0, 0],
                        [0, b, b, 0],
                        [0, b, b, 0],
                        [0, 0, 0, c]]) / math.comb(n, k)
        assert np.max(np.abs(rho - ref)) < 1e-12


def test_separability_product():
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    assert two_qubit_separability(rho) == "product"


def test_separability_maximally_mixed():
    # I/4 = (I/2) x (I/2) factorizes exactly, so the marginal-reconstruction
    # test classifies it as product (the strongest of the separable labels)
    assert two_qubit_separability(np.eye(4) / 4.0) == "product"


def test_separability_mixed_but_not_product():
    # equal mixture of |00> and |11>: separable but with classical correlation
    rho = np.zeros((4, 4))
    rho[0, 0] = rho[3, 3] = 0.5
    assert two_qubit_separability(rho) == "separable_mixed"


def test_separability_reduced_dicke_entangled():
    rho = partial_trace(dicke_reference(4, 2), [0, 3])
    assert two_qubit_separability(rho) == "entangled"


def test_separability_rejects_invalid():
    with pytest.raises(ValueError):
        two_qubit_separability(np.eye(4))


def test_evolve_builds_one_matrix_per_parameter_row(monkeypatch):
    import dickesynth.verify as verify
    c = prepare_dicke("complete", 16, 3)
    u_gates = sum(g.kind == "u" for g in c.gates)
    calls = [0]

    def counted(g):
        calls[0] += 1
        return gate_matrix(g)

    monkeypatch.setattr(verify, "gate_matrix", counted)
    out = simulate(c, 0)
    assert fidelity(out, dicke_reference(16, 3)) > 1 - 1e-10
    assert 0 < calls[0] <= len(c.param_rows) < u_gates


# --- the fused-run kernel against a per-gate oracle ---------------------------


def _per_gate_evolve(c, idx, amp):
    """Reference oracle: one gate at a time on a dict from Python-int basis
    index to amplitude, so any index width and any bits above the circuit's
    qubits are carried as they are."""
    state = dict(zip(idx.tolist(), amp.tolist()))
    for g in c.gates:
        if g.kind == "cx":
            ctrl, targ = g.qubits
            state = {i ^ (((i >> ctrl) & 1) << targ): a
                     for i, a in state.items()}
            continue
        (targ,) = g.qubits
        m = gate_matrix(g.params)
        out: dict = {}
        for i, a in state.items():
            bit = (i >> targ) & 1
            for new in (0, 1):
                j = (i & ~(1 << targ)) | (new << targ)
                out[j] = out.get(j, 0) + m[new, bit] * a
        state = out
    return state


def _assert_matches_oracle(c, idx, amp):
    from dickesynth.verify import _evolve
    got_idx, got_amp = _evolve(c, idx, amp)
    assert got_idx.dtype == idx.dtype
    assert len(set(got_idx.tolist())) == len(got_idx)
    got = dict(zip(got_idx.tolist(), got_amp.tolist()))
    want = _per_gate_evolve(c, idx, amp)
    for i in got.keys() | want.keys():
        assert abs(got.get(i, 0) - want.get(i, 0)) <= ORACLE_TOL
    return got


def _clustered_circuit(n, qubit_pool, seed):
    """Random gates in clusters on 2 or 3 qubits of qubit_pool (at least 6
    qubits), each opening with a CNOT on two qubits that the cluster before
    it does not touch, so the greedy split makes each cluster one run. A
    last U on a qubit outside the last 3-qubit cluster makes a 1-qubit run.
    Each U gate takes one of four parameter rows, so rows repeat."""
    rng = np.random.default_rng(seed)
    rows = [tuple(rng.uniform(-math.pi, math.pi, 4)) for _ in range(4)]
    c = Circuit(n)
    qs: list = []
    for i in range(40):
        width = 3 if i == 39 else int(rng.integers(2, 4))
        free = [q for q in qubit_pool if q not in qs]
        qs = [int(q) for q in rng.choice(free, size=width, replace=False)]
        c.cx(qs[0], qs[1])
        for q in qs:
            c.u(q, *rows[int(rng.integers(4))])
        for _ in range(int(rng.integers(5))):
            if rng.random() < 0.5:
                a, b = rng.choice(qs, size=2, replace=False)
                c.cx(int(a), int(b))
            else:
                c.u(qs[int(rng.integers(width))],
                    *rows[int(rng.integers(4))])
    c.u(next(q for q in qubit_pool if q not in qs), *rows[0])
    return c


def _sparse_input(positions, count, rng, dtype=np.int64, base=0):
    """count distinct indices with random bits at the given positions (plus
    base), and random normalized amplitudes."""
    idx = set()
    while len(idx) < count:
        idx.add(base | sum(int(rng.integers(2)) << p for p in positions))
    idx = np.array(sorted(idx), dtype=dtype)
    amp = rng.normal(size=count) + 1j * rng.normal(size=count)
    return idx, amp / np.linalg.norm(amp)


@pytest.mark.parametrize("seed", range(6))
def test_evolve_matches_per_gate_oracle(seed, monkeypatch):
    import dickesynth.verify as verify
    real, widths = verify._apply_run, set()

    def recorded(run, qubits, *args):
        widths.add(len(qubits))
        return real(run, qubits, *args)
    monkeypatch.setattr(verify, "_apply_run", recorded)
    c = _clustered_circuit(8, range(8), seed)
    assert len(c.param_rows) <= 4 < sum(g.kind == "u" for g in c.gates)
    rng = np.random.default_rng(100 + seed)
    _assert_matches_oracle(c, *_sparse_input(range(8), 20, rng))
    assert widths == {1, 2, 3}


def test_evolve_uint64_on_64_qubits_matches_oracle():
    # the gates touch the lowest and highest qubits; bits 20..39 of the
    # input are touched by none and must come out as they went in
    c = _clustered_circuit(64, [0, 1, 2, 61, 62, 63], seed=11)
    rng = np.random.default_rng(12)
    idx, amp = _sparse_input([0, 1, 2, 61, 62, 63] + list(range(20, 40)), 30,
                             rng, dtype=np.uint64)
    got = _assert_matches_oracle(c, idx, amp)
    untouched = sum(1 << p for p in range(3, 61))
    assert ({i & untouched for i in got}
            == {i & untouched for i in idx.tolist()})


def test_evolve_carries_weight_tags_above_n():
    n = 10
    c = _clustered_circuit(n, range(n), seed=21)
    rng = np.random.default_rng(22)
    parts = [_sparse_input(range(n), 6, rng, base=tag << n)
             for tag in (1, 2, 5)]
    idx = np.concatenate([p[0] for p in parts])
    amp = np.concatenate([p[1] for p in parts]) / math.sqrt(3)
    got = _assert_matches_oracle(c, idx, amp)
    assert {i >> n for i in got} == {1, 2, 5}
    for tag in (1, 2, 5):
        norm = math.sqrt(sum(abs(a) ** 2 for i, a in got.items()
                             if i >> n == tag))
        assert abs(norm - 1 / math.sqrt(3)) <= ORACLE_TOL


def test_one_angle_fault_inside_a_fused_run_is_caught(monkeypatch):
    import dickesynth.verify as verify
    from dickesynth.unary import dicke_unitary_path
    good = dicke_unitary_path(12, 3)
    assert min(f for _, f in dicke_fidelities(good, range(4))) > 1 - 1e-12
    gates = list(good.gates)
    fault = next(i for i in range(len(gates) // 2, len(gates))
                 if gates[i].kind == "u")
    theta, *rest = gates[fault].params
    bad = Circuit(12)
    for i, g in enumerate(gates):
        if i == fault:
            bad.u(g.qubits[0], theta + 1e-3, *rest)
        elif g.kind == "cx":
            bad.cx(*g.qubits)
        else:
            bad.u(g.qubits[0], *g.params)
    fault_row = bad.param_rows.index((theta + 1e-3, *rest))
    real, runs = verify._apply_run, []

    def recorded(run, *args):
        runs.append(list(run))
        return real(run, *args)
    monkeypatch.setattr(verify, "_apply_run", recorded)
    worst = min(f for _, f in dicke_fidelities(bad, range(4)))
    assert worst < 1 - 1e-8
    # the faulty gate shares its run with other gates
    (host,) = [run for run in runs if any(g[3] == fault_row for g in run)]
    assert len(host) > 1


def test_evolve_sorts_once_per_run_not_per_gate(monkeypatch):
    c = prepare_dicke("path", 16, 4)
    u_gates = sum(g.kind == "u" for g in c.gates)
    real, sorts = np.argsort, [0]

    def counted(*args, **kwargs):
        sorts[0] += kwargs.get("kind") == "stable"
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "argsort", counted)
    assert fidelity(simulate(c, 0), dicke_reference(16, 4)) > 1 - 1e-10
    # one sort per fused run: 40 for 220 U gates when this was written
    assert 0 < sorts[0] <= u_gates // 4
