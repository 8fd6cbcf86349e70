import math

import numpy as np
import pytest

from dickesynth.circuit import ConnectivityGraph, asap_layering, grid_index
from dickesynth.primitives import fanout_copy, parity_add, toffoli
from dickesynth.verify import simulate


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


def test_toffoli_rejects_overlap():
    with pytest.raises(ValueError):
        toffoli([0, 1], 1, "11", num_qubits=3)


def test_toffoli_without_spare_wires_rejected():
    with pytest.raises(ValueError):
        toffoli([0, 1, 2], 3, "111", num_qubits=4)


def test_toffoli_rejects_three_controls():
    # spare wires do not help: toffoli takes at most two controls
    for m in (3, 4):
        with pytest.raises(ValueError, match="at most 2 controls"):
            toffoli(list(range(m)), m, "1" * m, num_qubits=4 * m)


@pytest.mark.parametrize("pattern", ["", "0", "1", "00", "01", "10", "11"])
def test_toffoli_indicator_up_to_two_controls(pattern):
    m = len(pattern)
    c = toffoli(list(range(m)), m, pattern, num_qubits=m + 1)
    want_controls = int(pattern[::-1] or "0", 2)  # pattern[j]: qubit j
    for x in range(1 << m):
        assert peak(simulate(c, x)) == (x | 1 << m if x == want_controls
                                        else x)


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
