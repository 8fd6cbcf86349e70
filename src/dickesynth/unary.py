"""Path-constrained unary building blocks.

Three constructions, all using only nearest-neighbor CNOTs along a declared
qubit path:

* dicke_unitary_path -- the weight-preserving unitary mapping |0^{n-l}1^l>
  to the (n,l) Dicke state for every l <= k, as a ladder of split-and-shift
  sweeps (depth O(n), size O(nk)).
* divide_unitary_path -- the hypergeometric divide unitary on 2k adjacent
  qubits: a crossing conveyor in which the k "count" cells bubble through
  the k "deposit" cells, emitting one controlled Givens rotation per
  meeting (depth O(k), size O(k^2)).
* unary_amplitude_prep -- sum_l alpha_l |0^{k-l}1^l> from |0^k> via a
  rotation chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, remap_qubits
from .primitives import _h, mux_ry

__all__ = [
    "DivideSpec",
    "hyper_weights",
    "dicke_unitary_path",
    "divide_unitary_path",
    "unary_amplitude_prep",
]


@dataclass(frozen=True)
class DivideSpec:
    """Parameters of the divide unitary D^{n,m}_k acting on registers S1
    (capacity m) and S2 (capacity n-m), each k qubits wide."""

    n: int
    m: int
    k: int
    left: tuple   # S1 qubit indices, least significant first
    right: tuple  # S2 qubit indices, least significant first

    def __post_init__(self):
        if not (self.m >= self.k and self.n - self.m >= self.k):
            raise ValueError("divide requires m >= k and n-m >= k")
        s1, s2 = set(self.left), set(self.right)
        if len(self.left) != self.k or len(self.right) != self.k or s1 & s2:
            raise ValueError("S1/S2 must be disjoint width-k registers")


def hyper_weights(n: int, m: int, k: int, ell: int) -> np.ndarray:
    """w_i(ell) = sqrt(C(m,i) C(n-m,ell-i) / C(n,ell)) for i = 0..k.
    Exact integer binomials; C(s,t) = 0 outside 0 <= t <= s."""
    total = math.comb(n, ell)
    w = np.zeros(k + 1)
    for i in range(k + 1):
        if 0 <= ell - i <= n - m and i <= m:
            w[i] = math.sqrt(math.comb(m, i) * math.comb(n - m, ell - i) / total)
    return w


class _PathCircuit(Circuit):
    """Circuit whose cx() relays through intermediate path qubits so every
    emitted CNOT is nearest-neighbor (indices here are path positions)."""

    def cx(self, control, target):
        d = abs(control - target)
        if d == 1:
            super().cx(control, target)
        elif d == 2:
            mid = (control + target) // 2
            # t ^= c through a relay of arbitrary state: 4 CNOTs
            super().cx(control, mid)
            super().cx(mid, target)
            super().cx(control, mid)
            super().cx(mid, target)
        else:
            raise ValueError("only distance <= 2 CNOTs are relayed")


def _givens_block(c: Circuit, hi: int, lo: int, far: int | None,
                  theta: float) -> None:
    """One split step of the Dicke ladder on adjacent pair (hi, lo).

    Without the far control: |01> -> cos(t)|01> + sin(t)|10> on basis
    (x_hi, x_lo), identity on |00>, |11>, emitted with 2 CNOTs as
    H(lo) CX(lo, hi) Ry(t)(lo) Ry(t)(hi) CX(lo, hi) H(lo). With far = hi+1
    present, the pattern far=1 applies the pi rotation instead (moving the
    excitation block down in one step): 6 CNOTs."""
    if far is None:
        _h(c, lo)
        c.cx(lo, hi)
        c.ry(lo, theta)
        c.ry(hi, theta)
        c.cx(lo, hi)
        _h(c, lo)
        return
    c.cx(hi, lo)
    # controls (far, lo): (0,1) -> 2 theta, (1,1) -> pi
    # (index bit0 = far, bit1 = lo)
    mux_ry([far, lo], hi, (0.0, 0.0, 2.0 * theta, math.pi), c)
    c.cx(hi, lo)


def dicke_unitary_path(n: int, k: int) -> Circuit:
    """Unitary mapping |0^{n-l}1^l> -> |D^n_l> for every l in [k]_0, the
    ones occupying qubits 0..l-1. Nearest-neighbor along qubits 0..n-1."""
    if k > n:
        raise ValueError("k > n")
    if n < 2 or k == 0:
        return Circuit(n)
    c = Circuit(n)
    # sweep j acts on the top j qubits: it splits off the lowest of them
    # (amplitude sqrt(l/j) keeps the one there, sqrt((j-l)/j) shifts the
    # block up one), then the next sweep recurses on the remaining j-1
    for j in range(n, 1, -1):
        base = n - j
        kappa = min(k, j - 1)
        for a in range(kappa - 1, -1, -1):
            theta = math.acos(math.sqrt((a + 1) / j))
            far = base + a + 2 if a + 2 <= j - 1 else None
            _givens_block(c, base + a + 1, base + a, far, theta)
    return c


def divide_unitary_path(spec: DivideSpec) -> Circuit:
    """D^{n,m}_k on the 2k adjacent qubits right + left (S2 then S1 along
    the path): |0^k>_{S1} |unary l>_{S2} -> sum_i w_i(l) |unary i>_{S1}
    |unary l-i>_{S2}.

    Crossing conveyor: logical S2 cells start at path positions 0..k-1 and
    bubble upward through the S1 cells (positions k..2k-1). When S2 cell
    u-1 passes S1 cell i with u+i <= k, a controlled Givens rotation moves
    amplitude "one deposited into S1 slot i" out of "u ones still counted
    on S2"; the rotation angle is the conditional hypergeometric weight
    w_i(u+i) / sqrt(sum_{j>=i} w_j(u+i)^2). A pure-SWAP reverse conveyor
    then restores cell positions."""
    n, m, k = spec.n, spec.m, spec.k
    c = _PathCircuit(2 * k)
    # residual-mass tables: T[i][l] = sum_{j>=i} w_j(l)^2
    w2 = {ell: hyper_weights(n, m, k, ell) ** 2 for ell in range(k + 1)}
    # cells[pos] = ('s2', u-1) or ('s1', i); lockstep diamond schedule:
    # round t crosses the anti-diagonal of pairs with u - i = k + 1 - t,
    # S2 cell u-1 sitting at position 2u + t - k - 2. All of a round's
    # Givens gates are emitted before any of its SWAPs so each gate sees
    # its full four-qubit window in pre-swap positions.
    cells = [("s2", j) for j in range(k)] + [("s1", j) for j in range(k)]
    swaps_forward = []
    for t in range(1, 2 * k):
        round_pairs = []
        for u in range(1, k + 1):
            i = u - (k + 1 - t)
            if 0 <= i <= k - 1:
                pos = 2 * u + t - k - 2
                assert cells[pos] == ("s2", u - 1), (t, u, i, cells)
                assert cells[pos + 1] == ("s1", i), (t, u, i, cells)
                round_pairs.append((pos, u, i))
        for pos, u, i in round_pairs:
            if u + i <= k:
                _divide_givens(c, cells, pos, u, i, k, w2)
        for pos, _, _ in round_pairs:
            c.swap(pos, pos + 1)
            swaps_forward.append((pos, pos + 1))
            cells[pos], cells[pos + 1] = cells[pos + 1], cells[pos]
    # all S1 cells are now at 0..k-1 in order; undo the permutation with
    # the reverse pure-SWAP conveyor
    for a, b in reversed(swaps_forward):
        c.swap(a, b)
    qubits = list(spec.right) + list(spec.left)
    return remap_qubits(c, qubits, max(qubits) + 1)


def _divide_givens(c: Circuit, cells, pos: int, u: int, i: int, k: int,
                   w2: dict) -> None:
    """Controlled Givens at a conveyor meeting: S2 cell u-1 at path position
    pos, S1 cell i at pos+1. Rotates (s2,s1) = (1,0) -> cos(1,0)+sin(0,1),
    guarded by s2[u] = 0 (no higher count bit; omitted for u = k) and
    s1[i-1] = 1 (a one was already deposited in the previous slot; omitted
    for i = 0)."""
    ell = u + i
    mass = sum(w2[ell][j] for j in range(i, k + 1))
    if mass <= 0.0:
        raise AssertionError("empty residual mass; m>=k, n-m>=k violated?")
    ratio = min(w2[ell][i] / mass, 1.0)
    theta = math.acos(math.sqrt(ratio))
    lo, hi = pos, pos + 1  # B = s2 cell, A = s1 cell
    # mux controls, least significant first: s2[u], lo (= s2 xor s1 after
    # the CX), s1[i-1]. The distance-2 control s1[i-1] takes the top bit,
    # which flips least often, so it is relayed twice.
    controls = [lo]
    fire = 1  # table index of s2[u] = 0, lo = 1, s1[i-1] = 1
    if u < k:
        assert cells[pos + 2] == ("s2", u), (cells, pos, u, i)
        controls.insert(0, pos + 2)
        fire <<= 1
    if i > 0:
        assert cells[pos - 1] == ("s1", i - 1), (cells, pos, u, i)
        controls.append(pos - 1)
        fire |= 1 << (len(controls) - 1)
    angles = [0.0] * (1 << len(controls))
    angles[fire] = 2.0 * theta
    c.cx(hi, lo)
    mux_ry(controls, hi, angles, c)
    c.cx(hi, lo)


def unary_amplitude_prep(k: int, amplitudes) -> Circuit:
    """Prepare sum_l alpha_l |0^{k-l}1^l> from |0^k> (ones fill qubits
    0..l-1); rotation chain along the path, depth O(k)."""
    alpha = np.asarray(amplitudes, dtype=complex)
    if alpha.shape != (k + 1,):
        raise ValueError("need k+1 amplitudes")
    if not np.isfinite(alpha).all():
        raise ValueError("non-finite amplitudes")
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-9:
        raise ValueError("non-normalized amplitudes")
    c = Circuit(k)
    mags2 = np.abs(alpha) ** 2
    residual = np.concatenate([np.cumsum(mags2[::-1])[::-1], [0.0]])
    for j in range(k):
        # sin^2(theta/2) = P(l > j | l >= j)
        if residual[j] <= 1e-30:
            break
        ratio = min(residual[j + 1] / residual[j], 1.0)
        theta = 2.0 * math.asin(math.sqrt(ratio))
        if j == 0:
            c.ry(0, theta)
        else:
            # controlled Ry(theta), control j-1 -> target j
            c.ry(j, theta / 2.0)
            c.cx(j - 1, j)
            c.ry(j, -theta / 2.0)
            c.cx(j - 1, j)
        delta = float(np.angle(alpha[j + 1]) - np.angle(alpha[j]))
        if delta != 0.0:
            c.phase(j, delta)
    g0 = float(np.angle(alpha[0]))
    if g0 != 0.0:
        c.u(0, 0.0, 0.0, 0.0, g0)  # global phase
    return c
