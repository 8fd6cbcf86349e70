"""Path-constrained unary building blocks.

Three constructions, all using only nearest-neighbor CNOTs along a declared
qubit path, none of them relayed:

* dicke_unitary_path -- the weight-preserving unitary mapping |0^{n-l}1^l>
  to the (n,l) Dicke state for every l <= k, as a ladder of split-and-shift
  sweeps (depth O(n), size O(nk)). Each sweep's top block is the 2-CNOT
  Givens block: the far control it would add only tells counts above k.
* divide_unitary_path -- the hypergeometric divide unitary on 2k adjacent
  qubits: a crossing conveyor in which the k "count" cells bubble through
  the k "deposit" cells, emitting one controlled Givens rotation per
  meeting (depth O(k), size O(k^2)). A meeting takes at most 14 CNOTs: its
  one control two positions from the target is read through the adjacent
  cell, never relayed. Its closing CNOTs merge into the SWAP that follows
  it, so the meeting and that SWAP take at most 15 CNOTs, not 17.
* unary_amplitude_prep -- sum_l alpha_l |0^{k-l}1^l> from |0^k> via a
  rotation chain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, remap_qubits
from .primitives import _gray_steps, _h

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


def _givens_block(c: Circuit, hi: int, lo: int, far: int | None,
                  theta: float) -> None:
    """One split step of the Dicke ladder on adjacent pair (hi, lo).

    Without the far control: |01> -> cos(t)|01> + sin(t)|10> on basis
    (x_hi, x_lo), identity on |00>, |11>, emitted with 2 CNOTs as
    H(lo) CX(lo, hi) Ry(t)(lo) Ry(t)(hi) CX(lo, hi) H(lo). With far = hi+1
    present, the pattern far=1 applies the pi rotation instead (moving the
    excitation block down in one step): 6 CNOTs, CX(hi, lo), a gray-code
    multiplexor on hi and CX(hi, lo). The multiplexor's gates run in
    reverse order, so it reads far first and lo last: the same unitary,
    since its even CNOT count leaves the target where it started."""
    if far is None:
        _givens_run(c, lo, [(hi, theta)])
        return
    c.cx(hi, lo)
    # gray-code multiplexor on hi, controls (lo, far): (1,0) -> 2 theta,
    # (1,1) -> pi (index bit0 = lo, bit1 = far)
    for alpha, flip in reversed(_gray_steps((0.0, 2.0 * theta, 0.0,
                                             math.pi))):
        c.cx((lo, far)[flip], hi)
        if alpha != 0.0:
            c.ry(hi, alpha)
    c.cx(hi, lo)


def _givens_run(c: Circuit, lo: int, blocks) -> None:
    """2-CNOT Givens blocks (hi, theta) in order, all on one slot lo. Each
    is _givens_block's, but the run opens and closes H(lo) only once: the
    H(lo) H(lo) between two blocks is the identity."""
    _h(c, lo)
    for hi, theta in blocks:
        c.cx(lo, hi)
        c.ry(lo, theta)
        c.ry(hi, theta)
        c.cx(lo, hi)
    _h(c, lo)


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
            # the top block (a = k - 1) runs first in its sweep, on a unary
            # input of at most k ones, so it would find far = 0: drop it
            far = base + a + 2 if a + 2 <= min(j - 1, k) else None
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
    then restores cell positions.

    A meeting guarded by both s2[u] and s1[i-1] takes 14 CNOTs, by s1[i-1]
    alone 10 and by s2[u] alone 6; the meeting u = k, i = 0 is the 2-CNOT
    Givens block (see _divide_givens). Every meeting but that one and the
    last round's merges its closing CNOTs into its pair's SWAP: the two
    take 2 CNOTs fewer than apart where a later meeting of the round reads
    the pair's S1 cell, and 4 fewer elsewhere. Every CNOT joins adjacent
    positions."""
    n, m, k = spec.n, spec.m, spec.k
    c = Circuit(2 * k)
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
        # the last round's one SWAP would be undone at once by the reverse
        # conveyor's first, so neither is emitted
        swap = t < 2 * k - 1
        # the CNOTs of each pair's SWAP: all three, or what is left of them
        # once the pair's meeting merges into it
        rest = {pos: [(pos, pos + 1), (pos + 1, pos), (pos, pos + 1)]
                if swap else [] for pos, _, _ in round_pairs}
        for pos, u, i in round_pairs:
            if u + i <= k:
                rest[pos] = _divide_givens(c, cells, pos, u, i, k, w2, swap)
        for pos, _, _ in round_pairs:
            for a, b in rest[pos]:
                c.cx(a, b)
            if swap:
                swaps_forward.append((pos, pos + 1))
            cells[pos], cells[pos + 1] = cells[pos + 1], cells[pos]
    # all S1 cells are now at 0..k-1 in order; undo the permutation with
    # the reverse pure-SWAP conveyor
    for a, b in reversed(swaps_forward):
        c.swap(a, b)
    qubits = list(spec.right) + list(spec.left)
    return remap_qubits(c, qubits, max(qubits) + 1)


def _divide_givens(c: Circuit, cells, pos: int, u: int, i: int, k: int,
                   w2: dict, swap: bool = False) -> list:
    """Controlled Givens at a conveyor meeting: S2 cell u-1 at path position
    pos, S1 cell i at pos+1. Rotates (s2,s1) = (1,0) -> cos(1,0)+sin(0,1),
    guarded by s2[u] = 0 (no higher count bit) and s1[i-1] = 1 (a one was
    already deposited in the previous slot; omitted for i = 0). The s2[u]
    guard is omitted where u + i = k: s2[u] = 1 there means a count above
    k, which no input holds.

    Without swap the meeting is emitted whole. With swap, the round swaps
    the pair once all its meetings are emitted, and the meeting's closing
    CX(hi, lo) merges into that SWAP, written CX(hi, lo) CX(lo, hi)
    CX(hi, lo): the two CX(hi, lo) cancel, which leaves CX(lo, hi)
    CX(hi, lo). The closing CX may wait for the SWAP, as the round's later
    meetings touch hi only as a control and lo not at all. Where no later
    meeting touches hi (u + i >= k - 1), the multiplexor's last CX(lo, hi)
    cancels the SWAP's too, so neither is emitted, which leaves CX(hi, lo).
    Returns the CNOTs left of the SWAP (none without swap), for the caller
    to emit in its place."""
    ell = u + i
    mass = sum(w2[ell][j] for j in range(i, k + 1))
    if mass <= 0.0:
        raise AssertionError("empty residual mass; m>=k, n-m>=k violated?")
    ratio = min(w2[ell][i] / mass, 1.0)
    theta = math.acos(math.sqrt(ratio))
    lo, hi = pos, pos + 1  # B = s2 cell, A = s1 cell
    if u == k and i == 0:
        _givens_block(c, hi, lo, None, theta)
        return [(lo, hi), (hi, lo), (lo, hi)] if swap else []
    # Gray-code multiplexor on hi. Its controls, least significant first:
    # s2[u] (while u + i < k), lo' ^ s1[i-1] (for i > 0) and lo', where lo'
    # = s2 xor s1 is lo after the first CX. The last two are both read
    # through CX(lo, hi): CX(pos - 1, lo) toggles lo between them (where
    # s2[u] is a control, in the layers where it flips hi), so no CNOT
    # spans two positions. The rotation fires where lo' = 1 and every other
    # control reads 0: on the top bit alone.
    near = u + i < k  # s2[u], at pos + 2, is a control
    if near:
        assert cells[pos + 2] == ("s2", u), (cells, pos, u, i)
    if i > 0:
        assert cells[pos - 1] == ("s1", i - 1), (cells, pos, u, i)
    toggled = [False] * near + [True] * (i > 0) + [False]
    angles = [0.0] * (1 << len(toggled))
    angles[len(angles) >> 1] = 2.0 * theta
    state = False  # whether lo holds lo' ^ s1[i-1]
    # no later meeting touches hi: the multiplexor's last CX(lo, hi)
    # cancels the SWAP's
    cancel = swap and u + i >= k - 1
    steps = _gray_steps(angles)
    c.cx(hi, lo)
    for j, (alpha, flip) in enumerate(steps):
        if alpha != 0.0:
            c.ry(hi, alpha)
        if near and flip == 0:
            c.cx(pos + 2, hi)
            continue
        if state != toggled[flip]:
            c.cx(pos - 1, lo)
            state = not state
        if not (cancel and j == len(steps) - 1):
            c.cx(lo, hi)
    if not swap:
        c.cx(hi, lo)
        return []
    return [(hi, lo)] if cancel else [(lo, hi), (hi, lo)]


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
