import math

import numpy as np
import pytest

from dickesynth.circuit import ConnectivityGraph, asap_layering, grid_index
from dickesynth.primitives import (cqsp_multiplexor, fanout_copy, parity_add,
                                   toffoli)
from dickesynth.verify import fidelity, simulate


def peak(vec):
    j = int(np.argmax(np.abs(vec)))
    assert abs(vec[j]) > 1 - 1e-10
    return j


# --- pattern Toffoli ---------------------------------------------------------


def test_toffoli_single_control_is_cnot():
    c = toffoli([0], 1, "1", num_qubits=2)
    assert [g.kind for g in c.gates] == ["cx"]


def test_toffoli_two_controls():
    c = toffoli([0, 1], 2, "11", num_qubits=3)
    assert peak(simulate(c, 0b011)) == 0b111
    assert peak(simulate(c, 0b001)) == 0b001


@pytest.mark.parametrize("pattern", ["101", "111", "000"])
def test_toffoli_indicator_truth_table(pattern):
    # qubit 4 is the one spare wire the 3-control staircase borrows
    c = toffoli([0, 1, 2], 3, pattern, num_qubits=5)
    want_controls = int(pattern[::-1], 2)  # pattern[j] is qubit j's bit
    for x in range(8):
        out = peak(simulate(c, x))
        assert out == (x | 8 if x == want_controls else x)


@pytest.mark.parametrize("m", [3, 4, 5])
def test_toffoli_log_depth_matches_indicator(m):
    controls = list(range(m))
    anc = list(range(m + 1, 2 * m))
    c = toffoli(controls, m, "1" * m, ancilla=anc, num_qubits=2 * m)
    for x in range(1 << m):
        out = peak(simulate(c, x))
        want = x | (1 << m) if x == (1 << m) - 1 else x
        assert out == want  # ancilla bits zero in `out` = restored


def test_toffoli_log_depth_needs_ancilla():
    with pytest.raises(ValueError):
        toffoli([0, 1, 2], 3, "111", ancilla=[4], num_qubits=5)


def test_toffoli_rejects_overlap():
    with pytest.raises(ValueError):
        toffoli([0, 1], 1, "11", num_qubits=3)


def test_toffoli_no_ancilla_depth_linear():
    # linear-depth contract holds whenever the circuit has idle wires the
    # staircase can borrow (the situation at every call site in the library)
    ratios = []
    for m in range(2, 13):
        c = toffoli(list(range(m)), m, "1" * m, num_qubits=2 * m)
        ratios.append(asap_layering(c).depth / m)
    assert max(ratios) < 40


def test_toffoli_without_spare_wires_rejected():
    with pytest.raises(ValueError):
        toffoli([0, 1, 2], 3, "111", num_qubits=4)


def test_toffoli_log_depth_scaling():
    for m in range(2, 13):
        anc = list(range(m + 1, 2 * m))
        c = toffoli(list(range(m)), m, "1" * m, ancilla=anc, num_qubits=2 * m)
        d = asap_layering(c).depth
        assert d <= 30 * math.ceil(math.log2(m)) + 30


# --- parity adder ------------------------------------------------------------


def test_parity_single_source():
    c = parity_add([0], 1, num_qubits=2)
    assert peak(simulate(c, 0b01)) == 0b11


def test_parity_spec_example():
    # sources hold 0,1,1 -> parity 0 xor target 1 stays 1... target k=1,
    # sources x = (1,1,0): 1^1^0 = 0, target 1 ^ 0 = 1
    c = parity_add([0, 1, 2], 3, num_qubits=4)
    assert peak(simulate(c, 0b1011)) == 0b1011


@pytest.mark.parametrize("m", range(1, 7))
def test_parity_source_register_restored(m):
    c = parity_add(list(range(m)), m, num_qubits=m + 1)
    for x in range(1 << m):
        want = x | ((x.bit_count() % 2) << m)
        assert peak(simulate(c, x)) == want


def test_parity_log_depth():
    c = parity_add(list(range(16)), 16, num_qubits=17)
    assert asap_layering(c).depth <= 2 * math.ceil(math.log2(16)) + 1


def test_parity_rejects_overlap():
    with pytest.raises(ValueError):
        parity_add([0, 1], 1, num_qubits=2)


# --- fanout copy -------------------------------------------------------------


def test_fanout_single():
    c = fanout_copy([0], [[1]], num_qubits=2)
    assert len(c.gates) == 1 and c.gates[0].kind == "cx"


def test_fanout_three_copies():
    c = fanout_copy([0, 1], [[2, 3], [4, 5], [6, 7]], num_qubits=8)
    out = peak(simulate(c, 0b01))  # source holds '10' msb-first = value 1
    assert out == 0b01010101


def test_fanout_depth_doubling():
    c = fanout_copy([0], [[i] for i in range(1, 9)], num_qubits=9)
    assert asap_layering(c).depth == 4  # ceil(log2(9)) rounds for 9 holders
    c = fanout_copy([0], [[i] for i in range(1, 8)], num_qubits=8)
    assert asap_layering(c).depth == 3


def test_fanout_rejects_overlap():
    with pytest.raises(ValueError):
        fanout_copy([0, 1], [[1, 2]], num_qubits=4)


# --- grid numbering ---------------------------------------------------------


def test_grid_index_serpentine_adjacent():
    g = ConnectivityGraph.grid(3, 4)
    flat = [grid_index(r, c, 3) for c in range(4)
            for r in (range(3) if c % 2 == 0 else range(2, -1, -1))]
    assert sorted(flat) == list(range(12))
    for a, b in zip(flat, flat[1:]):
        assert g.has_edge(a, b)


# --- controlled state preparation --------------------------------------------


def test_cqsp_trivial_row_is_identity():
    table = np.zeros((1, 4))
    table[0, 0] = 1.0
    c = cqsp_multiplexor([], [0, 1], table, num_qubits=2)
    assert c.size == 0


def test_cqsp_hadamard_like():
    table = np.array([[1, 1]]) / math.sqrt(2)
    c = cqsp_multiplexor([], [0], table, num_qubits=1)
    out = simulate(c, 0)
    ref = np.array([1, 1], dtype=complex) / math.sqrt(2)
    assert fidelity(out, ref) > 1 - 1e-12


def test_cqsp_random_rows_per_control_setting():
    rng = np.random.default_rng(2)
    table = rng.uniform(0.05, 1.0, size=(4, 4))
    table /= np.linalg.norm(table, axis=1, keepdims=True)
    c = cqsp_multiplexor([0, 1], [2, 3], table, num_qubits=4)
    for x in range(4):
        out = simulate(c, x)
        ref = np.zeros(16, dtype=complex)
        for y in range(4):
            ref[(y << 2) | x] = table[x, y]
        assert fidelity(out, ref) > 1 - 1e-9


def test_cqsp_rejects_unnormalized():
    with pytest.raises(ValueError):
        cqsp_multiplexor([], [0], np.array([[1.0, 1.0]]), num_qubits=1)


# --- shared ancilla hygiene ---------------------------------------------------


def test_primitives_restore_ancilla_on_all_basis_inputs():
    # log-depth Toffoli over every basis input of its control register
    m = 4
    anc = list(range(m + 1, 2 * m))
    c = toffoli(list(range(m)), m, "1010", ancilla=anc, num_qubits=2 * m)
    for x in range(1 << (m + 1)):
        out = peak(simulate(c, x))
        assert out >> (m + 1) == 0  # ancilla bits all zero
