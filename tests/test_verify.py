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
        list(dicke_fidelities(Circuit(60), [4]))
    assert list(dicke_fidelities(Circuit(59), [4])) == [
        (4, 1 / math.comb(59, 4))]


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
