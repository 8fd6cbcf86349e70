import numpy as np
import pytest

from dickesynth.circuit import (Circuit, ConnectivityGraph, asap_layering,
                                grid_index)
from dickesynth.primitives import build_ccx, fanout_copy
from dickesynth.verify import simulate


def peak(vec):
    j = int(np.argmax(np.abs(vec)))
    assert abs(vec[j]) > 1 - 1e-10
    return j


# --- Toffoli -----------------------------------------------------------------


def test_build_ccx_truth_table():
    c = Circuit(3)
    build_ccx(c, 0, 1, 2)
    for x in range(8):
        assert peak(simulate(c, x)) == (x ^ 0b100 if x & 0b11 == 0b11 else x)


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


# --- grid numbering ---------------------------------------------------------


def test_grid_index_serpentine_adjacent():
    g = ConnectivityGraph.grid(3, 4)
    flat = [grid_index(r, c, 3) for c in range(4)
            for r in (range(3) if c % 2 == 0 else range(2, -1, -1))]
    assert sorted(flat) == list(range(12))
    for a, b in zip(flat, flat[1:]):
        assert g.has_edge(a, b)
