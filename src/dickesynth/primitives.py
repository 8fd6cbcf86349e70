"""Reusable sub-circuits: the 3-CNOT relative-phase Toffoli, the doubling
fanout copy, and the steps of the gray-code uniformly controlled Ry.
"""

from __future__ import annotations

import math

from .circuit import Circuit

__all__ = [
    "build_rccx",
    "fanout_copy",
]


def _h(c: Circuit, q: int) -> None:
    c.u(q, math.pi / 2.0, 0.0, math.pi, 0.0)


def build_rccx(c: Circuit, a: int, b: int, t: int) -> None:
    """Relative-phase Toffoli with controls a, b and target t: 3 CNOTs and
    4 Ry, depth 7 (Barenco et al., PRA 52, 3457 (1995); Maslov, PRA 93,
    022311 (2016)). It equals CCX except for a -1 on |a=1, b=0, t=1>, so it
    stands in for CCX wherever t holds 1 only when both controls do."""
    theta = math.pi / 4
    c.ry(t, theta)
    c.cx(b, t)
    c.ry(t, theta)
    c.cx(a, t)
    c.ry(t, -theta)
    c.cx(b, t)
    c.ry(t, -theta)


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


def _gray_steps(angles) -> list:
    """The steps (alpha_j, flip_j), j < 2^c, of the gray-code uniformly
    controlled Ry of Moettoenen et al. (quant-ph/0407010), which applies
    Ry(angles[x]) to a target when its c >= 1 controls hold x (control 0
    least significant). Step j is Ry(alpha_j) on the target, then one CX
    from control flip_j, the bit that flips between gray codes g_j and
    g_{j+1}: 2^c CNOTs, the top control's only 2. Here g_j = j ^ (j >> 1)
    and alpha_j = 2^-c sum_x (-1)^popcount(x & g_j) angles[x]; the last
    step wraps to the top control, so the target ends where it started."""
    angles = list(angles)
    size = len(angles)
    # in-place Walsh-Hadamard: angles[s] <- sum_x (-1)^popcount(x & s) angles[x]
    step = 1
    while step < size:
        for lo in range(0, size, 2 * step):
            for x in range(lo, lo + step):
                u, v = angles[x], angles[x + step]
                angles[x], angles[x + step] = u + v, u - v
        step *= 2
    top = size.bit_length() - 2
    # flip_j is the lowest set bit of j + 1, wrapping to the top control on
    # the last step
    return [(angles[j ^ (j >> 1)] / size,
             min(((j + 1) & -(j + 1)).bit_length() - 1, top))
            for j in range(size)]
