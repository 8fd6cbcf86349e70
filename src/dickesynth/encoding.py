"""Unary -> one-hot basis conversion.

Value l in [k]_0 on a width-k register (list position 0 = least significant
paper position):

* unary:   qubits 0..l-1 set
* one-hot: qubit l-1 set (l = 0 is the all-zero string)

u_uo converts unary to one-hot with a depth-O(log k) CNOT network.
"""

from __future__ import annotations

from .circuit import Circuit

__all__ = [
    "u_uo",
]


def _suffix_scan_cnots(reg: list) -> list:
    """CNOT list computing in-place inclusive suffix XOR scans
    (x_j -> x_j ^ x_{j+1} ^ ... ^ x_{k-1}): Brent-Kung network over the
    reversed index order, depth O(log k), no ancilla."""
    m = len(reg)
    rev = list(reversed(reg))  # prefix scan over rev = suffix scan over reg
    cnots = []
    d = 1
    while d < m:
        for i in range(2 * d - 1, m, 2 * d):
            cnots.append((rev[i - d], rev[i]))
        d *= 2
    d //= 2
    while d >= 1:
        for i in range(3 * d - 1, m, 2 * d):
            cnots.append((rev[i - d], rev[i]))
        d //= 2
    return cnots


def u_uo(reg) -> Circuit:
    """Unary -> one-hot: the linear map s_j ^= s_{j+1}, i.e. the inverse of
    the in-place suffix-XOR scan. Realized as the reversed Brent-Kung scan
    network: depth O(log k) with no ancilla. The circuit spans qubits
    0..max(reg)."""
    reg = list(reg)
    c = Circuit(max(reg, default=-1) + 1)
    for ctrl, targ in reversed(_suffix_scan_cnots(reg)):
        c.cx(ctrl, targ)
    return c

