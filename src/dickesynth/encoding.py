"""Basis-encoding converters and one-hot arithmetic.

Value l in [k]_0 on a width-k register (list position 0 = least significant
paper position):

* unary:   qubits 0..l-1 set
* one-hot: qubit l-1 set (l = 0 is the all-zero string)

u_uo converts unary to one-hot with a depth-O(log k) CNOT network.
u_minus / u_plus subtract / add two one-hot values into a clean one-hot
register via two-control pattern-Toffoli waves: the Toffolis over index
pairs 1 <= r < j <= k partition into 2k-3 anti-diagonal groups (constant
r+j), each group touching pairwise-disjoint qubits.
"""

from __future__ import annotations

import math

from .circuit import Circuit
from .primitives import fanout_copy, parity_add, toffoli

__all__ = [
    "u_uo",
    "u_minus",
    "u_plus",
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


def u_uo(reg, circuit: Circuit | None = None,
         num_qubits: int | None = None) -> Circuit:
    """Unary -> one-hot: the linear map s_j ^= s_{j+1}, i.e. the inverse of
    the in-place suffix-XOR scan. Realized as the reversed Brent-Kung scan
    network: depth O(log k) with no ancilla."""
    reg = list(reg)
    if circuit is None:
        nq = num_qubits if num_qubits is not None else max(reg, default=-1) + 1
        circuit = Circuit(nq)
    for ctrl, targ in reversed(_suffix_scan_cnots(reg)):
        circuit.cx(ctrl, targ)
    return circuit


def wave_schedule(k: int, variant: str = "minus") -> list:
    """The 2k-3 depth-1 groups of C2 pattern Toffolis, each group an
    anti-diagonal of the pair triangle {(r,j): 1 <= r < j <= k}. Returns a
    list of groups; each entry is (s_index, t_index, w_index), 1-based, with
    control registers S and T and target register W:

      minus: controls s_r, t_j     -> target w_{j-r}
      plus:  controls s_r, t_{j-r} -> target w_j

    The first k-1 groups (odd r+j) and the last k-2 (even r+j) match the
    published wave split."""
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


def _guarded_copy(c: Circuit, guard_reg: list, src_reg: list, dst_reg: list,
                  ancilla=()) -> None:
    """C1 branch: parity of guard_reg[:-1] folded onto guard_reg[-1], then
    Tof^{guard,src_j}_{dst_j}(01) for every j, then unfold. For a one-hot
    guard register the parity-or-top-bit guard is exactly "value zero",
    so this copies src to dst iff guard_reg holds one-hot 0. The guard bit
    is fanned onto clean ancilla so the k Toffolis do not serialize on a
    single shared control."""
    k = len(guard_reg)
    parity_add(guard_reg[:-1], guard_reg[-1], circuit=c)
    copies = list(ancilla)[:k - 1]
    fan = None
    if copies:
        fan = fanout_copy([guard_reg[-1]], [[a] for a in copies],
                          num_qubits=c.num_qubits)
        c.extend(fan.gates)
    ctrls = [guard_reg[-1]] + copies
    for j in range(k):
        toffoli([ctrls[j % len(ctrls)], src_reg[j]], dst_reg[j], "01",
                circuit=c)
    if fan is not None:
        c.extend(reversed(fan.gates))
    parity_add(guard_reg[:-1], guard_reg[-1], circuit=c)


def _emit_waves(c: Circuit, S: list, T: list, W: list, groups: list,
                ancilla: list) -> None:
    """Emit the C2 wave groups; with N >= 3k clean ancilla, replicate S and
    T into floor(q/3) register triples, run each replica's share of the
    groups into its own scratch W, XOR the partial results into W, and
    uncompute (the published Steps 1-4)."""
    k = len(S)
    q = len(ancilla) // k
    # replicas beyond one per group buy no extra parallelism
    reps = min(q // 3, len(groups))
    if len(ancilla) < 3 * k or reps < 2:
        for group in groups:
            for si, ti, wi in group:
                toffoli([S[si - 1], T[ti - 1]], W[wi - 1], "11", circuit=c)
        return
    S_t = [ancilla[3 * t * k: 3 * t * k + k] for t in range(reps)]
    T_t = [ancilla[3 * t * k + k: 3 * t * k + 2 * k] for t in range(reps)]
    W_t = [ancilla[3 * t * k + 2 * k: 3 * t * k + 3 * k] for t in range(reps)]
    fan_s = fanout_copy(S, S_t, num_qubits=c.num_qubits)
    fan_t = fanout_copy(T, T_t, num_qubits=c.num_qubits)
    c.extend(fan_s.gates)
    c.extend(fan_t.gates)
    d = math.ceil(len(groups) / reps)
    assignment = []  # (replica, group)
    for gi, group in enumerate(groups):
        assignment.append((gi // d, group))
    for tau, group in assignment:
        for si, ti, wi in group:
            toffoli([S_t[tau][si - 1], T_t[tau][ti - 1]], W_t[tau][wi - 1],
                    "11", circuit=c)
    for i in range(k):
        sources = [W_t[tau][i] for tau in range(reps)]
        parity_add(sources, W[i], circuit=c)
    for tau, group in assignment:
        for si, ti, wi in group:
            toffoli([S_t[tau][si - 1], T_t[tau][ti - 1]], W_t[tau][wi - 1],
                    "11", circuit=c)
    # the doubling tree is not an involution; uncopy by running it backwards
    c.extend(reversed(fan_t.gates))
    c.extend(reversed(fan_s.gates))


def _onehot_arith(S, T, W, ancilla, variant: str,
                  circuit: Circuit | None, num_qubits: int | None) -> Circuit:
    S, T, W, anc = list(S), list(T), list(W), list(ancilla)
    k = len(S)
    if not (len(T) == k and len(W) == k):
        raise ValueError("S, T, W must share width k")
    regs = set(S) | set(T) | set(W) | set(anc)
    if len(regs) != 3 * k + len(anc):
        raise ValueError("register overlap")
    if circuit is None:
        nq = num_qubits if num_qubits is not None else max(regs) + 1
        circuit = Circuit(nq)
    c = circuit
    if k >= 2:
        _emit_waves(c, S, T, W, wave_schedule(k, variant), anc)
    # value-zero branches: S = 0 copies T into W; for addition T = 0 must
    # also copy S into W (the pair waves need both values >= 1)
    _guarded_copy(c, S, T, W, ancilla=anc)
    if variant == "plus":
        _guarded_copy(c, T, S, W, ancilla=anc)
    return c


def u_minus(S, T, W, ancilla=(), circuit: Circuit | None = None,
            num_qubits: int | None = None) -> Circuit:
    """One-hot subtraction: S = one-hot i, T = one-hot l (i <= l), clean W
    receives one-hot (l - i); S, T, ancilla unchanged."""
    return _onehot_arith(S, T, W, ancilla, "minus", circuit, num_qubits)


def u_plus(S, T, W, ancilla=(), circuit: Circuit | None = None,
           num_qubits: int | None = None) -> Circuit:
    """One-hot addition: S = one-hot i, T = one-hot j (i + j <= k), clean W
    receives one-hot (i + j); S, T, ancilla unchanged."""
    return _onehot_arith(S, T, W, ancilla, "plus", circuit, num_qubits)
