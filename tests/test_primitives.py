import numpy as np
import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, asap_layering,
                                grid_index)
from dickesynth.primitives import _gray_steps, build_rccx, fanout_copy
from dickesynth.verify import simulate


def peak(vec):
    j = int(np.argmax(np.abs(vec)))
    assert abs(vec[j]) > 1 - 1e-10
    return j


# --- Toffoli -----------------------------------------------------------------


def test_build_ccx_truth_table():
    # the whole 8x8 matrix, controls a, b = qubits 0, 1 and target t = 2
    # (bit q of an index is qubit q): CCX, but for a -1 on |a=1, b=0, t=1>
    c = Circuit(3)
    build_rccx(c, 0, 1, 2)
    want = np.zeros((8, 8))
    for x in range(8):
        want[x ^ 0b100 if x & 0b11 == 0b11 else x, x] = (
            -1.0 if x == 0b101 else 1.0)
    assert np.abs(_unitary(c) - want).max() < 1e-12
    assert (c.size, asap_layering(c).depth) == (7, 7)
    assert sum(g.kind == "cx" for g in c.gates) == 3


# --- fanout copy -------------------------------------------------------------


def test_fanout_single():
    c = fanout_copy([0], [[1]])
    assert len(c.gates) == 1 and c.gates[0].kind == "cx"


def test_fanout_three_copies():
    c = fanout_copy([0, 1], [[2, 3], [4, 5], [6, 7]])
    out = peak(simulate(c, 0b01))  # source holds '10' msb-first = value 1
    assert out == 0b01010101


def test_fanout_depth_doubling():
    c = fanout_copy([0], [[i] for i in range(1, 9)])
    assert asap_layering(c).depth == 4  # ceil(log2(9)) rounds for 9 holders
    c = fanout_copy([0], [[i] for i in range(1, 8)])
    assert asap_layering(c).depth == 3


def test_fanout_rejects_overlap():
    with pytest.raises(ValueError):
        fanout_copy([0, 1], [[1, 2]])


# --- gray-code uniformly controlled Ry ---------------------------------------


def _unitary(c):
    return np.stack([simulate(c, x) for x in range(1 << c.num_qubits)], axis=1)


def _dense_gray_steps(controls, target, angles, n):
    """Reference matrix: Ry(angles[x]) on target when controls hold x."""
    u = np.zeros((1 << n, 1 << n))
    for col in range(1 << n):
        x = sum(((col >> q) & 1) << b for b, q in enumerate(controls))
        cos, sin = np.cos(angles[x] / 2), np.sin(angles[x] / 2)
        ry = np.array([[cos, -sin], [sin, cos]])
        t = (col >> target) & 1
        for t2 in (0, 1):
            u[col & ~(1 << target) | t2 << target, col] = ry[t2, t]
    return u


def _table(c, kind, rng):
    """An angle table over c controls: random, or ignoring some controls
    (bit 0, or every bit but the top), or all zero."""
    table = rng.uniform(-np.pi, np.pi, 1 << c)
    if kind == "ignores_low":
        table = table[[x & ~1 for x in range(1 << c)]]
    elif kind == "top_only":
        table = table[[x & (1 << c >> 1) for x in range(1 << c)]]
    elif kind == "zero":
        table = np.zeros(1 << c)
    return table


@pytest.mark.parametrize("c", range(1, 5))
@pytest.mark.parametrize("kind", ["random", "ignores_low", "top_only", "zero"])
def test_gray_steps_match_dense_reference(c, kind):
    rng = np.random.default_rng(c)
    angles = _table(c, kind, rng)
    # controls out of qubit order, target in the middle
    target = c // 2
    controls = [q for q in range(c, -1, -1) if q != target]
    circ = Circuit(c + 1)
    for alpha, flip in _gray_steps(angles):
        circ.ry(target, alpha)
        circ.cx(controls[flip], target)
    want = _dense_gray_steps(controls, target, angles, c + 1)
    assert np.abs(_unitary(circ) - want).max() < 1e-12
    # no control is pruned, whatever the table ignores
    assert sum(g.kind == "cx" for g in circ.gates) == 1 << c


# --- grid numbering ---------------------------------------------------------


def test_grid_index_serpentine_adjacent():
    g = ConnectivityGraph.grid(3, 4)
    flat = [grid_index(r, c, 3) for c in range(4)
            for r in (range(3) if c % 2 == 0 else range(2, -1, -1))]
    assert sorted(flat) == list(range(12))
    for a, b in zip(flat, flat[1:]):
        assert g.has_edge(a, b)
