"""State-vector verification utilities.

Sparse-support little-endian simulator plus analytic reference states,
fidelity, partial trace, and a two-qubit separability test
(partial-transpose criterion, exact in dimension 2x2).
"""

from __future__ import annotations

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
    first. A CNOT relabels indices; a single-qubit gate pairs each index
    with its partner across the target bit, and amplitudes with
    |a| <= 1e-14 are dropped. Dicke unitaries started from a unary input
    reach about C(n, k) of the 2^n basis states.
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
    taken on the support, so no 2^n vector is built."""
    n = c.num_qubits
    ells = [int(ell) for ell in ells]
    if not all(0 <= ell <= n for ell in ells) or len(set(ells)) < len(ells):
        raise ValueError("weights must be distinct and in [0, n]")
    if ells and n + max(ells).bit_length() > 62:
        raise ValueError(f"{n} qubits leave no room for the weight tag")
    budget = math.comb(n, n // 2)
    batches, size = [], budget
    for ell in ells:
        size += math.comb(n, ell)
        if size > budget:
            batches.append([])
            size = math.comb(n, ell)
        batches[-1].append(ell)
    for batch in batches:
        tags = np.array(batch, dtype=np.int64)
        idx, amp = _evolve(c, ((1 << tags) - 1) | (tags << n),
                           np.ones(len(batch), dtype=complex))
        tag = idx >> n
        weight = _POPCOUNT8[(idx & ((1 << n) - 1)).view(np.uint8)]
        weight = weight.reshape(-1, 8).sum(axis=1)
        for ell in batch:
            mine = tag == ell
            _check_norm(np.linalg.norm(amp[mine]))
            # a contiguous sum is pairwise, so its round-off stays ~1e-16
            total = amp[mine & (weight == ell)].sum()
            yield ell, abs(total) ** 2 / math.comb(n, ell)


def _evolve(c: Circuit, idx: np.ndarray, amp: np.ndarray) -> tuple:
    """The kernel of simulate and dicke_fidelities: apply c to the state
    with amplitudes amp on the distinct basis indices idx, returning the
    new support and amplitudes in idx's integer dtype. It never builds a
    2^n vector, so it runs on up to 62 qubits with int64 indices, or 64
    with uint64, while the support stays small; bits above the circuit's
    qubits pass through untouched. A single-qubit gate pairs each index
    with its partner across the target bit by one stable argsort of the
    indices with that bit cleared. It reads c's columns and builds each
    parameter row's matrix once, on the first gate that uses it."""
    rows = c.param_rows
    mats: dict = {}
    for op, a, b, r in zip(*c.columns().tolist()):
        if op:
            idx = idx ^ (((idx >> a) & 1) << b)
            continue
        m = mats.get(r)
        if m is None:
            m = mats[r] = gate_matrix(rows[r]).T
        bit = idx.dtype.type(1 << a)
        key = idx & ~bit
        order = key.argsort(kind="stable")
        key = key[order]
        # new[j]: sorted entry j opens a pair; its cumsum numbers the pairs
        new = np.empty(len(key), dtype=bool)
        new[:1] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        # column 0 holds the target-bit-0 amplitude of each pair, column 1
        # the target-bit-1 one; indices are distinct, so no two collide
        half = np.zeros((np.count_nonzero(new), 2), dtype=complex)
        half[new.cumsum() - 1, (idx[order] >> a) & 1] = amp[order]
        amp = (half @ m).ravel()
        idx = (key[new][:, None] | np.array([0, bit], dtype=idx.dtype)).ravel()
        keep = np.abs(amp) > 1e-14
        idx, amp = idx[keep], amp[keep]
    return idx, amp


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
