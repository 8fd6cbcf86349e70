"""State-vector verification utilities.

Sparse-support little-endian simulator, which applies a circuit in fused
runs of gates on at most 3 qubits, plus analytic reference states,
fidelity, partial trace, and a two-qubit separability test
(partial-transpose criterion, exact in dimension 2x2).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .circuit import Circuit, gate_matrix

__all__ = [
    "SIMULATOR_CAP",
    "simulate",
    "dicke_fidelities",
    "basis_state",
    "dicke_reference",
    "fidelity",
    "partial_trace",
    "two_qubit_separability",
]

SIMULATOR_CAP = 20  # 2^20 amplitudes; keeps exhaustive checks fast
# the largest Dicke support dicke_fidelities takes: the half-weight
# support at SIMULATOR_CAP qubits, so it refuses nothing at the cap or below
_SUPPORT_CAP = math.comb(SIMULATOR_CAP, SIMULATOR_CAP // 2)


def _basis_index(num_qubits: int, bits: str | int) -> int:
    """The basis index of a bit string (qubit 0 rightmost) or an integer,
    checked to lie in [0, 2^num_qubits)."""
    if isinstance(bits, str):
        if len(bits) != num_qubits:
            raise ValueError("bit string length mismatch")
        index = int(bits, 2)
    else:
        index = int(bits)
    if not 0 <= index < 1 << num_qubits:
        raise ValueError(f"basis index {index} outside [0, 2^{num_qubits})")
    return index


def basis_state(num_qubits: int, bits: str | int) -> np.ndarray:
    """|bits> as a dense vector. A string is read with qubit 0 rightmost
    (little-endian), so basis_state(3, '011') sets qubits 0 and 1."""
    v = np.zeros(1 << num_qubits, dtype=complex)
    v[_basis_index(num_qubits, bits)] = 1.0
    return v


def simulate(c: Circuit, state=None) -> np.ndarray:
    """Apply c to a basis string / index / state vector (default |0...0>)
    and return the dense output vector.

    The state is held on its support only: basis indices with their
    amplitudes. A basis input starts as one index, so only the output
    vector is dense; a state vector is reduced to its nonzero entries
    first. The gates are applied in runs on at most 3 qubits: a run of
    CNOTs relabels indices, and any other run multiplies each group of
    indices that differ only on its qubits by the run's 2^q x 2^q
    unitary, after which amplitudes with |a| <= 1e-14 are dropped. Dicke
    unitaries started from a unary input reach about C(n, k) of the 2^n
    basis states.
    """
    n = c.num_qubits
    if n > SIMULATOR_CAP:
        raise ValueError(f"{n} qubits exceeds simulator cap {SIMULATOR_CAP}")
    if state is None or isinstance(state, (str, int, np.integer)):
        idx = np.array([_basis_index(n, 0 if state is None else state)],
                       dtype=np.int64)
        amp = np.ones(1, dtype=complex)
    else:
        psi = np.array(state, dtype=complex)
        if psi.shape != (1 << n,):
            raise ValueError("state vector dimension mismatch")
        if not np.isfinite(psi).all():
            raise ValueError("non-finite state vector")
        idx = np.flatnonzero(psi).astype(np.int64)
        amp = psi[idx]
    idx, amp = _evolve(c, idx, amp)
    _check_norm(np.linalg.norm(amp))
    out = np.zeros(1 << n, dtype=complex)
    out[idx] = amp
    return out


def _check_norm(norm: float) -> None:
    if abs(norm - 1.0) > 1e-9:
        raise RuntimeError(f"simulation lost normalization: |psi| = {norm}")


# popcount of each byte value
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def dicke_fidelities(c: Circuit, ells):
    """Yield (ell, fidelity) for each weight ell in ells, in order: the
    fidelity of c applied to the unary input 1^ell (qubits 0..ell-1 set)
    with the Dicke state |D^n_ell>.

    Several weights run through _evolve as one sweep: the input for ell is
    the index (1 << ell) - 1 tagged with ell in the bits above n, which no
    gate touches, and the output is split by its tag. A sweep takes weights
    while the sum of their C(n, ell) stays within C(n, n // 2), so its
    output support is no larger than one half-weight Dicke state's. Each
    weight's output must be normalized (RuntimeError otherwise), and its
    fidelity |sum of its amplitudes on weight-ell indices|^2 / C(n, ell) is
    taken on the support, so no 2^n vector is built. Before the first
    sweep, ValueError refuses a weight whose C(n, ell) passes
    _SUPPORT_CAP, and an n that leaves no room for the tag. A sweep stops
    with ValueError once its support would pass len(batch) *
    2^SIMULATOR_CAP amplitudes: each weight's support on SIMULATOR_CAP
    qubits or fewer stays within 2^SIMULATOR_CAP, so only a larger
    circuit meets either limit, and it cannot exhaust memory."""
    n = c.num_qubits
    ells = [int(ell) for ell in ells]
    if not all(0 <= ell <= n for ell in ells) or len(set(ells)) < len(ells):
        raise ValueError("weights must be distinct and in [0, n]")
    budget = math.comb(n, n // 2)
    batches, size = [], budget
    for ell in ells:
        support = math.comb(n, ell)
        if support > _SUPPORT_CAP:
            raise ValueError(
                f"C({n}, {ell}) = {support} exceeds the support limit "
                f"C({SIMULATOR_CAP}, {SIMULATOR_CAP // 2}) = {_SUPPORT_CAP}")
        size += support
        if size > budget:
            batches.append([])
            size = support
        batches[-1].append(ell)
    if ells and n + max(ells).bit_length() > 62:
        raise ValueError(f"{n} qubits leave no room for the weight tag")
    for batch in batches:
        tags = np.array(batch, dtype=np.int64)
        idx, amp = _evolve(c, ((1 << tags) - 1) | (tags << n),
                           np.ones(len(batch), dtype=complex),
                           limit=len(batch) << SIMULATOR_CAP)
        tag = idx >> n
        weight = _POPCOUNT8[(idx & ((1 << n) - 1)).view(np.uint8)]
        weight = weight.reshape(-1, 8).sum(axis=1)
        for ell in batch:
            mine = tag == ell
            _check_norm(np.linalg.norm(amp[mine]))
            # a contiguous sum is pairwise, so its round-off stays ~1e-16
            total = amp[mine & (weight == ell)].sum()
            yield ell, abs(total) ** 2 / math.comb(n, ell)


# qubits per fused run. The Givens and split-and-shift blocks span 3
# adjacent qubits, so on Dicke circuits width 2 saves almost no rounds;
# 4 is no faster than 3, and 5 is slower, as each qubit doubles a group
_RUN_WIDTH = 3


def _evolve(c: Circuit, idx: np.ndarray, amp: np.ndarray, *,
            limit: int | None = None) -> tuple:
    """The kernel of simulate and dicke_fidelities: apply c to the state
    with amplitudes amp on the distinct basis indices idx, returning the
    new support and amplitudes in idx's integer dtype. It never builds a
    2^n vector, so it runs on up to 62 qubits with int64 indices, or 64
    with uint64, while the support stays small; bits above the circuit's
    qubits pass through untouched. It reads c's columns once and splits
    the gates, in circuit order, into runs on at most _RUN_WIDTH qubits;
    each run is applied as one small unitary by _apply_run. Each
    parameter row's matrix is built once, on the first gate that uses
    it. With a limit, a run that would spread the support past limit
    amplitudes raises ValueError before it is applied."""
    rows = c.param_rows
    mats: dict = {}
    run: list = []      # (op, a, b, row) of each gate of the open run
    qubits: list = []   # the open run's qubits, in order of first use
    for gate in zip(*c.columns().tolist()):
        op, a, b, _ = gate
        new = [q for q in ((a, b) if op else (a,)) if q not in qubits]
        if len(qubits) + len(new) > _RUN_WIDTH:
            idx, amp = _apply_run(run, qubits, idx, amp, rows, mats, limit)
            run, qubits = [], []
            new = [a, b] if op else [a]
        run.append(gate)
        qubits += new
    if run:
        idx, amp = _apply_run(run, qubits, idx, amp, rows, mats, limit)
    return idx, amp


def _apply_run(run, qubits, idx, amp, rows, mats, limit) -> tuple:
    """Apply the gates of run, on the q listed qubits, to the support. A
    run of CNOTs only relabels the indices. Otherwise the run becomes one
    2^q x 2^q unitary whose local index has bit j for qubits[j], and one
    stable argsort of the indices with the run's bits cleared gathers
    each group of up to 2^q indices that the run mixes into one row of a
    (groups, 2^q) array; one matmul applies the unitary to every group,
    and amplitudes with |a| <= 1e-14 are dropped. Raises ValueError when
    the groups hold more than limit amplitudes."""
    if all(op for op, _, _, _ in run):
        for _, a, b, _ in run:
            idx = idx ^ (((idx >> a) & 1) << b)
        return idx, amp
    local = {q: j for j, q in enumerate(qubits)}
    d = 1 << len(qubits)
    u = np.eye(d, dtype=complex)
    for op, a, b, r in run:
        if op:
            u = u[_cx_rows(d, local[a], local[b])]
            continue
        m = mats.get(r)
        if m is None:
            m = mats[r] = gate_matrix(rows[r])
        # rows of u whose local bit j is 0 and 1 meet on the middle axis
        j = local[a]
        u = np.matmul(m, u.reshape(d >> (j + 1), 2, d << j)).reshape(d, d)
    # spread[lo]: the bits local index lo sets; spread[-1] has them all
    spread = [0]
    for q in qubits:
        spread += [bits | 1 << q for bits in spread]
    spread = np.array(spread, dtype=idx.dtype)
    key = idx & ~spread[-1]
    order = np.argsort(key, kind="stable")
    key, src = key[order], idx[order]
    # new[i]: sorted entry i opens a group; its cumsum numbers the groups
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    col = np.zeros(len(src), dtype=src.dtype)
    for j, q in enumerate(qubits):
        col |= ((src >> q) & 1) << j
    groups = np.count_nonzero(new)
    if limit is not None and groups * d > limit:
        raise ValueError(f"the support would reach {groups * d} amplitudes, "
                         f"past the verifier's limit of {limit}")
    # indices are distinct, so no two entries share a (group, col) cell
    group = np.zeros((groups, d), dtype=complex)
    group[new.cumsum() - 1, col] = amp[order]
    amp = (group @ u.T).ravel()
    idx = (key[new][:, None] | spread).ravel()
    keep = np.abs(amp) > 1e-14
    return idx[keep], amp[keep]


@functools.cache
def _cx_rows(d: int, control: int, target: int) -> np.ndarray:
    """The row permutation of a CNOT on local bits of a 2^q unitary: row
    i of the product is row i ^ (bit target, when bit control is set)."""
    i = np.arange(d)
    rows = i ^ (((i >> control) & 1) << target)
    rows.flags.writeable = False   # shared by every caller
    return rows


def dicke_reference(n: int, ell: int) -> np.ndarray:
    """Uniform superposition of all weight-ell n-bit strings."""
    if not 0 <= ell <= n:
        raise ValueError("weight out of range")
    # popcount table: the upper half of each doubling is the lower half + 1
    weight = np.zeros(1 << n, dtype=np.int8)
    for q in range(n):
        weight[1 << q:2 << q] = weight[:1 << q] + 1
    v = np.zeros(1 << n, dtype=complex)
    v[weight == ell] = 1.0 / math.sqrt(math.comb(n, ell))
    return v


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    if a.shape != b.shape:
        raise ValueError("dimension mismatch")
    return abs(np.vdot(a, b)) ** 2


def partial_trace(state: np.ndarray, keep) -> np.ndarray:
    """Reduced density matrix over the kept qubits (ascending index order:
    the first kept qubit is the least significant row/column bit)."""
    keep = sorted(keep)
    if not keep:
        raise ValueError("keep set is empty")
    n = int(state.shape[0]).bit_length() - 1
    psi = state.reshape((2,) * n)
    # move kept axes (axis n-1-q holds qubit q) to the front, kept[0] last
    axes = [n - 1 - q for q in reversed(keep)]
    rest = [a for a in range(n) if a not in axes]
    psi = np.transpose(psi, axes + rest).reshape(1 << len(keep), -1)
    return psi @ psi.conj().T


def _is_density_matrix(rho: np.ndarray, tol: float = 1e-8) -> bool:
    if rho.shape != (4, 4):
        return False
    if not np.allclose(rho, rho.conj().T, atol=tol):
        return False
    if abs(np.trace(rho).real - 1.0) > tol:
        return False
    return bool(np.linalg.eigvalsh(rho).min() > -tol)


def two_qubit_separability(rho: np.ndarray, tol: float = 1e-9) -> str:
    """Classify a 4x4 density matrix: 'product', 'separable_mixed', or
    'entangled'. Product = equals the tensor product of its marginals;
    entangled = partial transpose has a negative eigenvalue (necessary and
    sufficient for two qubits)."""
    if not _is_density_matrix(rho):
        raise ValueError("not a valid two-qubit density matrix")
    r4 = rho.reshape(2, 2, 2, 2)
    rho_a = np.trace(r4, axis1=0, axis2=2)  # keep low qubit
    rho_b = np.trace(r4, axis1=1, axis2=3)  # keep high qubit
    if np.max(np.abs(rho - np.kron(rho_b, rho_a))) < tol:
        return "product"
    # partial transpose on the low qubit
    pt = np.transpose(r4, (0, 3, 2, 1)).reshape(4, 4)
    if np.linalg.eigvalsh(pt).min() < -tol:
        return "entangled"
    return "separable_mixed"
