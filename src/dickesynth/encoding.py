"""Unary -> one-hot basis conversion.

Value l in [k]_0 on a width-k register (list position 0 = least significant
paper position):

* unary:   qubits 0..l-1 set
* one-hot: qubit l-1 set (l = 0 is the all-zero string)

u_uo converts unary to one-hot with a depth-O(log k) CNOT network.
wave_schedule is the disjoint-group schedule of the deleted one-hot
arithmetic, kept with its tests until a later change removes it.
"""

from __future__ import annotations

from .circuit import Circuit

__all__ = [
    "u_uo",
    "wave_schedule",
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


def wave_schedule(k: int, variant: str = "minus") -> list:
    """Split the pair triangle {(r,j): 1 <= r < j <= k} into 2k-3
    anti-diagonals (constant r+j), each touching pairwise-disjoint indices:
    odd sums first (k-1 groups), then even (k-2). Each entry is a 1-based
    (s, t, w) triple: minus gives (r, j, j-r), plus gives (r, j-r, j).
    No synthesizer calls it since the ancilla divide stopped subtracting."""
    if k < 2:
        raise ValueError("need k >= 2")
    if variant not in ("minus", "plus"):
        raise ValueError("variant must be 'minus' or 'plus'")
    groups = []
    # odd sums 3,5,...,2k-1 then even sums 4,6,...,2k-2
    sums = list(range(3, 2 * k, 2)) + list(range(4, 2 * k - 1, 2))
    for s in sums:
        group = []
        for r in range(max(1, s - k), (s - 1) // 2 + 1):
            j = s - r
            if variant == "minus":
                group.append((r, j, j - r))
            else:
                group.append((r, j - r, j))
        groups.append(group)
    return groups
