"""Reusable sub-circuits: pattern Toffolis, parity tree, fanout copy, and
multiplexed-rotation controlled state preparation.
"""

from __future__ import annotations

import math

import numpy as np

from .circuit import Circuit

__all__ = [
    "build_ccx",
    "toffoli",
    "parity_add",
    "fanout_copy",
    "mux_ry",
    "cqsp_multiplexor",
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


def _mcx_no_ancilla(c: Circuit, controls: list, t: int,
                    borrow=None) -> None:
    """Multi-controlled X using only the qubits already present in c. Three
    or more controls need m-2 spare wires, taken from `borrow` if given,
    else from any index outside the gate's support; they may hold arbitrary
    states and are restored by the linear-size dirty-ancilla staircase.
    Raises ValueError when fewer than m-2 spare wires are available."""
    m = len(controls)
    if m == 0:
        c.x(t)
    elif m == 1:
        c.cx(controls[0], t)
    elif m == 2:
        build_ccx(c, controls[0], controls[1], t)
    else:
        support = set(controls) | {t}
        pool = borrow if borrow is not None else range(c.num_qubits)
        lent = [q for q in pool if q not in support][:m - 2]
        if len(lent) < m - 2:
            raise ValueError(f"{m}-control gate needs {m - 2} spare wires, "
                             f"found {len(lent)}")
        _mcx_dirty(c, controls, t, lent)


def _mcx_dirty(c: Circuit, controls: list, t: int, anc: list) -> None:
    """Staircase of 4(m-2) Toffolis with m-2 borrowed (possibly dirty)
    qubits; borrowed values are restored exactly."""
    m = len(controls)
    down = [(controls[m - 1], anc[m - 3], t)]
    down += [(controls[j], anc[j - 2], anc[j - 1]) for j in range(m - 2, 1, -1)]
    down += [(controls[0], controls[1], anc[0])]
    up = [(controls[j], anc[j - 2], anc[j - 1]) for j in range(2, m - 1)]
    for a, b, tt in down + up + down + up:
        build_ccx(c, a, b, tt)


def toffoli(controls, target: int, pattern: str, ancilla=None,
            num_qubits: int | None = None, circuit: Circuit | None = None,
            borrow=None) -> Circuit:
    """Flip `target` iff the control register equals `pattern`.

    pattern[j] is the required value of controls[j]. Zero-controls are
    conjugated by X. Given `ancilla` (even an empty list), a balanced
    AND-tree runs over >= len(controls)-1 of those clean qubits. Without
    it no clean ancilla is needed, but m >= 3 controls borrow m-2 spare
    (possibly dirty) wires of the circuit and raise ValueError when it has
    fewer. `borrow` restricts which qubits a >=3-control gate may recruit
    for that staircase; without it any idle circuit qubit is fair game,
    which can create scheduling dependencies on registers the caller wants
    free to run in parallel.
    """
    controls = list(controls)
    if len(pattern) != len(controls):
        raise ValueError("pattern width mismatch")
    touched = set(controls) | {target}
    if len(touched) != len(controls) + 1:
        raise ValueError("overlapping index sets")
    if circuit is None:
        nq = num_qubits if num_qubits is not None else (
            max(touched | set(ancilla or [])) + 1)
        circuit = Circuit(nq)
    c = circuit
    zeros = [q for q, b in zip(controls, pattern) if b == "0"]
    for q in zeros:
        c.x(q)
    if ancilla is None:
        _mcx_no_ancilla(c, controls, target, borrow)
    else:
        anc = list(ancilla)
        if len(anc) < max(len(controls) - 1, 0):
            raise ValueError("insufficient ancilla")
        if set(anc) & touched:
            raise ValueError("overlapping index sets")
        _and_tree(c, controls, target, anc)
    for q in zeros:
        c.x(q)
    return c


def _and_tree(c: Circuit, controls: list, target: int, anc: list) -> None:
    """Balanced tree of CCX gates computing AND(controls) into an ancilla,
    CNOT onto the target, then exact uncomputation. Depth O(log |controls|)."""
    level = list(controls)
    used = []
    forward: list = []
    ai = 0
    while len(level) > 1:
        nxt = []
        for i in range(0, len(level) - 1, 2):
            a = anc[ai]
            ai += 1
            forward.append((level[i], level[i + 1], a))
            used.append(a)
            nxt.append(a)
        if len(level) % 2 == 1:
            nxt.append(level[-1])
        level = nxt
    for a, b, t in forward:
        build_ccx(c, a, b, t)
    c.cx(level[0], target)
    for a, b, t in reversed(forward):
        build_ccx(c, a, b, t)


def parity_add(sources, target: int, num_qubits: int | None = None,
               circuit: Circuit | None = None) -> Circuit:
    """target ^= XOR of sources via a balanced CNOT tree plus uncomputation;
    sources are restored. Depth O(log |sources|)."""
    src = list(sources)
    if target in src:
        raise ValueError("target overlaps sources")
    if circuit is None:
        nq = num_qubits if num_qubits is not None else max(src + [target]) + 1
        circuit = Circuit(nq)
    c = circuit
    # fold pairs: XOR accumulates leftward onto src[i] from src[i+step]
    steps: list = []
    step = 1
    while step < len(src):
        for i in range(0, len(src) - step, 2 * step):
            steps.append((src[i + step], src[i]))
        step *= 2
    for a, b in steps:
        c.cx(a, b)
    if src:
        c.cx(src[0], target)
    for a, b in reversed(steps):
        c.cx(a, b)
    return c


def fanout_copy(src, dst_blocks, num_qubits: int | None = None,
                circuit: Circuit | None = None) -> Circuit:
    """CNOT-copy the w-wide source block into t disjoint zeroed blocks by
    doubling: every round, every block already holding the value copies to
    one fresh block. Depth ceil(log2(t+1)) per bit column; columns parallel."""
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
    if circuit is None:
        nq = num_qubits if num_qubits is not None else max(flat) + 1
        circuit = Circuit(nq)
    c = circuit
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


def cqsp_multiplexor(ctrl, targets, amplitude_table, circuit: Circuit | None = None,
                     num_qubits: int | None = None) -> Circuit:
    """Controlled state preparation: |x>|0^m> -> |x>|psi_x> where psi_x is
    row x of the (2^c x 2^m) nonnegative-real amplitude table. Binary tree
    of multiplexed Y rotations (targets[0] = least significant)."""
    ctrl = list(ctrl)
    targets = list(targets)
    cbits, m = len(ctrl), len(targets)
    table = np.asarray(amplitude_table, dtype=float)
    if table.shape != (1 << cbits, 1 << m):
        raise ValueError("amplitude table shape mismatch")
    norms = np.linalg.norm(table, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("non-normalized amplitude row")
    if np.min(table) < -1e-12:
        raise ValueError("amplitudes must be nonnegative real")
    if circuit is None:
        all_q = ctrl + targets
        nq = num_qubits if num_qubits is not None else max(all_q) + 1
        circuit = Circuit(nq)
    c = circuit
    # peel target bits from most significant to least: at step with
    # prefix-bits already set, rotate the next bit by the conditional
    # probability of its subtree mass.
    for bit in range(m - 1, -1, -1):
        done = m - 1 - bit  # higher bits already prepared
        # angle table indexed by (ctrl value x, prepared high bits p)
        mux_controls = ctrl + targets[bit + 1:]
        n_idx = 1 << (cbits + done)
        angles = np.zeros(n_idx)
        for x in range(1 << cbits):
            row = table[x].reshape((1 << done, 1 << (bit + 1))) if done else \
                table[x].reshape((1, 1 << (bit + 1)))
            # row[p, low] where p = already-fixed high bits (bit order:
            # targets[m-1..bit+1]), low = remaining bits incl. current
            for p in range(1 << done):
                mass = float(np.sum(row[p] ** 2))
                hi = float(np.sum(row[p, 1 << bit:] ** 2))
                if mass < 1e-24:
                    theta = 0.0
                else:
                    ratio = min(max(hi / mass, 0.0), 1.0)
                    theta = 2.0 * math.asin(math.sqrt(ratio))
                angles[(p << cbits) | x] = theta
        mux_ry(mux_controls, targets[bit], angles, c)
    return c
