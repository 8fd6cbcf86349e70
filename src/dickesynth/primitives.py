"""Reusable sub-circuits: the 6-CNOT Toffoli, the doubling fanout copy,
and the gray-code uniformly controlled Ry.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit

__all__ = [
    "build_ccx",
    "fanout_copy",
    "mux_ry",
]

_T = math.pi / 4  # T-gate phase


def _t(c: Circuit, q: int, sign: float) -> None:
    # phase-exact T / T-dagger = diag(1, e^{+-i pi/4}); using the plain Rz
    # version instead would leave every Toffoli with a global phase of
    # -pi/8, which accumulates state-dependently in controlled contexts.
    c.phase(q, sign * _T)


def _h(c: Circuit, q: int) -> None:
    c.u(q, math.pi / 2.0, 0.0, math.pi, 0.0)


def build_ccx(c: Circuit, a: int, b: int, t: int) -> None:
    """Standard 6-CNOT + 1-qubit Toffoli with controls a, b and target t."""
    _h(c, t)
    c.cx(b, t)
    _t(c, t, -1.0)
    c.cx(a, t)
    _t(c, t, +1.0)
    c.cx(b, t)
    _t(c, t, -1.0)
    c.cx(a, t)
    _t(c, b, +1.0)
    _t(c, t, +1.0)
    c.cx(a, b)
    _h(c, t)
    _t(c, a, +1.0)
    _t(c, b, -1.0)
    c.cx(a, b)


def fanout_copy(src, dst_blocks) -> Circuit:
    """CNOT-copy the w-wide source block into t disjoint zeroed blocks by
    doubling: every round, every block already holding the value copies to
    one fresh block. Depth ceil(log2(t+1)) per bit column; columns parallel.
    The circuit spans qubits 0 up to the largest index given."""
    src = list(src)
    blocks = [list(b) for b in dst_blocks]
    w = len(src)
    flat = set(src)
    for b in blocks:
        if len(b) != w:
            raise ValueError("block width mismatch")
        if flat & set(b):
            raise ValueError("blocks overlap")
        flat |= set(b)
    c = Circuit(max(flat, default=-1) + 1)
    have = [src]
    todo = list(blocks)
    while todo:
        new = []
        for holder in have:
            if not todo:
                break
            blk = todo.pop(0)
            for j in range(w):
                c.cx(holder[j], blk[j])
            new.append(blk)
        have.extend(new)
    return c


def mux_ry(controls, target: int, angles, circuit: Circuit) -> None:
    """Uniformly controlled Ry: apply Ry(angles[x]) to target when the
    control register holds basis value x (controls[0] = least significant).
    Standard gray-code multiplexor: 2^c rotations and 2^c CNOTs.
    """
    controls = list(controls)
    cbits = len(controls)
    angles = np.asarray(angles, dtype=float)
    if angles.shape != (1 << cbits,):
        raise ValueError("angle table size mismatch")
    if cbits == 0:
        if angles[0] != 0.0:
            circuit.ry(target, float(angles[0]))
        return
    _mux_ry_rec(circuit, controls, target, angles.tolist())


def _mux_ry_rec(c: Circuit, controls: list, target: int, angles: list) -> None:
    if not any(angles):
        return  # all-zero subtree: identity, nothing to emit
    if len(controls) == 0:
        c.ry(target, angles[0])
        return
    # split on the most significant control: Ry(a) controlled-on-msb
    # = Ry((a0+a1)/2) . CX(msb,t) . Ry((a0-a1)/2) . CX(msb,t)
    half = len(angles) // 2
    plus = [(angles[i] + angles[half + i]) / 2.0 for i in range(half)]
    minus = [(angles[i] - angles[half + i]) / 2.0 for i in range(half)]
    msb = controls[-1]
    if not any(minus):
        # halves agree: the msb control is irrelevant
        _mux_ry_rec(c, controls[:-1], target, plus)
        return
    _mux_ry_rec(c, controls[:-1], target, plus)
    c.cx(msb, target)
    _mux_ry_rec(c, controls[:-1], target, minus)
    c.cx(msb, target)
