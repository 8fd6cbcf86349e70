"""Top-level Dicke-state synthesizers.

Three synthesis strategies share one functional contract — the produced
circuit maps |0^{n-l}1^l> -> |D^n_l> for every l in [k]_0, with the l input
ones occupying qubits 0..l-1:

* ``synth_alltoall``: recursive halving on unrestricted connectivity. A
  block takes the ancilla-accelerated divide, run on its own idle qubits,
  while it has the max(k - 1, 1) of them that divide needs, and the
  ladder otherwise.
* ``synth_grid``: 2D nearest-neighbor synthesis; a slab-register bisection
  with the conveyor divide when the grid is tall enough (k >= n2/n1) and a
  left-to-right column-group sweep otherwise. The sweep's g groups balance
  the chain of g conveyor steps against the last group's ladder, both
  priced in closed form (``_conveyor_depth``, ``_ladder_slope``), and the
  widths differ by at most one.
* ``dicke_unitary_path`` (in :mod:`.unary`): the linear-depth ladder both of
  the above fall back to on small blocks.

``prepare_dicke`` / ``prepare_symmetric`` wrap the synthesizers with the
input-loading gates.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import (Circuit, ConnectivityGraph, asap_layering, compose,
                      grid_index, inverse, remap_qubits)
from .encoding import u_uo
from .primitives import build_rccx, fanout_copy
from .unary import (DivideSpec, _givens_run, dicke_unitary_path,
                    divide_unitary_path, hyper_weights, unary_amplitude_prep)

__all__ = [
    "PlanNode",
    "PlanConversion",
    "SynthesisPlan",
    "divide_unitary_ancilla",
    "synth_alltoall",
    "synth_grid",
    "prepare_dicke",
    "prepare_symmetric",
]


@dataclass(frozen=True)
class PlanNode:
    """One divide step of a synthesis recursion. ``variant`` names the
    divide that ran: "ancilla" (``divide_unitary_ancilla`` on the node's
    idle qubits; every all-to-all node) or "path" (the nearest-neighbor
    conveyor; every grid node). ``depth``, ``size`` and ``cx`` are the ASAP
    depth, gate count and CNOT count of the template placed at the node; a
    grid node's cover the divide and the slab route that follows it."""

    layer: int
    n_node: int
    m_node: int
    s1: tuple
    s2: tuple
    variant: str
    depth: int
    size: int
    cx: int

    def line(self) -> str:
        return (f"layer={self.layer} n={self.n_node} m={self.m_node} "
                f"s1={list(self.s1)} s2={list(self.s2)} "
                f"variant={self.variant} depth={self.depth} "
                f"size={self.size} cx={self.cx}")


@dataclass(frozen=True)
class PlanConversion:
    """A unary <-> one-hot conversion of a count register that the
    all-to-all recursion places outside its divide nodes: ``u_uo`` before
    a root ancilla divide, ``inverse(u_uo)`` before a ladder under an
    ancilla divide. ``depth``, ``size`` and ``cx`` are its ASAP
    depth, gate count and CNOT count."""

    name: str
    qubits: tuple
    depth: int
    size: int
    cx: int

    def line(self) -> str:
        return (f"{self.name} qubits={list(self.qubits)} depth={self.depth} "
                f"size={self.size} cx={self.cx}")


@dataclass
class SynthesisPlan:
    """Audit record of a synthesis run: one entry per divide node, per
    count conversion placed between them, and per qubit block that ends on
    a ladder Dicke unitary. The circuit is exactly these pieces' gates."""

    topology: ConnectivityGraph
    n: int
    k: int
    recursion_tree: list = field(default_factory=list)
    conversions: list = field(default_factory=list)
    tail_units: list = field(default_factory=list)

    def report(self) -> str:
        lines = [f"plan topology={self.topology.topology_tag} n={self.n} k={self.k}"]
        for node in self.recursion_tree:
            lines.append("  divide " + node.line())
        for conv in self.conversions:
            lines.append("  convert " + conv.line())
        for unit in self.tail_units:
            lines.append(f"  tail qubits={list(unit)}")
        return "\n".join(lines) + "\n"


def _stats(t: Circuit) -> tuple:
    """A template's (ASAP depth, size, CNOT count) for its plan record."""
    return (asap_layering(t).depth, t.size,
            int(np.count_nonzero(t.columns()[0])))


# --- ancilla-accelerated divide --------------------------------------------


def _onehot_load(c: Circuit, slots: list, weights) -> None:
    """Spread a one on slots[0] to sum_i weights[i] |e_i> over the slots:
    a balanced tree of Givens rotations, each moving the mass of the upper
    half of a range from its first slot to the first slot of that half.
    Depth ceil(log2(len(slots))) rotations. Givens rotations keep Hamming
    weight, so an all-zero block stays all-zero with no control.

    The rotations out of one slot run back to back, so each such run
    opens and closes its 2-CNOT Givens blocks' H on that slot only once."""
    mass = np.concatenate([[0.0], np.cumsum(np.asarray(weights) ** 2)])

    def split(lo: int, hi: int) -> None:
        # halve [lo, hi) down to slot lo, rotating each upper half's mass
        # out of lo, then split the upper halves, innermost first
        run, uppers = [], []
        while hi - lo >= 2:
            mid = (lo + hi + 1) // 2
            upper = mass[hi] - mass[mid]
            if upper > 0.0:
                run.append((slots[mid], math.atan2(
                    math.sqrt(upper),
                    math.sqrt(max(mass[mid] - mass[lo], 0.0)))))
            uppers.append((mid, hi))
            hi = mid
        if run:
            _givens_run(c, slots[lo], run)
        for upper_lo, upper_hi in reversed(uppers):
            split(upper_lo, upper_hi)

    split(0, len(slots))


def _fold_into(c: Circuit, regs: list, target: list) -> None:
    """target[t] ^= XOR over the registers of regs[r][t], where at most one
    register is nonzero and each is at most as long as the last: fold them
    pairwise into the last, CX that into target, unfold. Depth
    2 ceil(log2 len(regs)) + 1."""
    fold = []
    step = 1
    while step < len(regs):
        for a in range(len(regs) - 1, step - 1, -2 * step):
            fold.extend(zip(regs[a - step], regs[a]))
        step *= 2
    for a, b in fold:
        c.cx(a, b)
    for a, b in zip(regs[-1], target):
        c.cx(a, b)
    for a, b in reversed(fold):
        c.cx(a, b)


def _pack_rows(k: int, anc: list, s1: list, s2: list) -> list:
    """Slot allocation of divide_unitary_ancilla: batches of rows (l, its
    l-1 middle slots, the S1 and S2 its erase Toffolis read) in increasing
    l. The last row of a batch reads s1 and s2 themselves; every other row
    reads its own fanout copies of them, so the batch's erase Toffolis all
    run at once. A copy holds what the fold left in s1 or s2, which is
    what the relative-phase erase needs: its middle slot a holds 1 only
    when both qubits it reads do.
    Each batch takes every row's middle slots, then the copies, from a
    cursor that wraps around the pool."""
    pool = itertools.cycle(anc)
    batches = []
    lo = 1
    while lo <= k:
        batch = [lo]
        while (batch[-1] < k and
               batch[-1] + 3 * sum(ell - 1 for ell in batch) <= len(anc)):
            batch.append(batch[-1] + 1)
        lo = batch[-1] + 1
        mids = [list(itertools.islice(pool, ell - 1)) for ell in batch]
        rows = [(ell, mid, list(itertools.islice(pool, ell - 1)),
                 list(itertools.islice(pool, ell - 1)))
                for ell, mid in zip(batch[:-1], mids)]
        batches.append(rows + [(batch[-1], mids[-1], s1, s2)])
    return batches


def divide_unitary_ancilla(spec: DivideSpec, ancilla,
                           num_qubits: int) -> Circuit:
    """One-hot divide unitary D^{n,m}_k using N >= max(k - 1, 1) clean
    ancilla, restored on exit; fewer raise ValueError. A batch that holds
    row k alone takes its k - 1 middle slots, so the floor is the
    narrowest batch that fits.

    The count l <= k arrives one-hot on S2: flag qubit s2[l-1] (no flag
    for l = 0). The divide leaves sum_i w_i(l) |e_i>_S1 |e_{l-i}>_S2,
    with w_i(l) = hyper_weights(n, m, k, l)[i] and |e_0> all-zero. Per
    count l, in batches of parallel rows, a Givens tree spreads the one on
    the block [s2[l-1], l-1 middle slots, s1[l-1]] to sum_i w_i(l) |e_i>;
    middle slot a is XOR-folded into s1[a-1] and s2[l-a-1], then erased by
    a Toffoli on those two qubits (or copies of them), since the pair
    (a, l-a) names the row.

    The erase is build_rccx, the relative-phase Toffoli: it equals CCX
    except for a -1 on |s1=1, s2=0, slot=1>, so it is exact as long as
    that state is never reached, and it never is: slot a of row l holds 1
    only in the branch where the count is l and the one landed in slot a,
    and in that branch the fold has set both s1[a-1] and s2[l-a-1] (and
    the fanout their copies). In every other branch the slot holds 0.

    Rows run in increasing l, so a row's block is all-zero when its tree
    runs unless that row holds the count; Givens rotations keep Hamming
    weight, so an all-zero block needs no control. Rows are packed by
    their own width: row l takes l-1 middle slots. A batch's widest (last)
    row reads S1 and S2 directly; every other row also holds its own
    (l-1)-wide copies of both. A batch grows in increasing l while
    (l_max - 1) + 3 sum_{other rows} (l - 1) fits in the N ancilla. Each
    batch is O(log k) deep.

    Each batch takes its slots from a cursor that continues, modulo the
    pool, from where the last batch stopped. The next batch's trees touch
    s2[l-1], s1[l-1] and their own slots; this batch's erase reads only
    s1 and s2 below its widest count and its own slots. So ASAP layering
    overlaps the two wherever their slots are disjoint, with no extra
    gates.
    """
    anc = list(ancilla)
    k = spec.k
    if (set(spec.left) | set(spec.right)) & set(anc):
        raise ValueError("ancilla overlaps data registers")
    if len(set(anc)) != len(anc):
        raise ValueError("duplicate ancilla index")
    if len(anc) < max(k - 1, 1):
        raise ValueError(f"need {max(k - 1, 1)} ancilla, got {len(anc)}")
    s1 = list(spec.left)
    s2 = list(spec.right)
    c = Circuit(num_qubits)
    for rows in _pack_rows(k, anc, s1, s2):
        mids = [mid for _, mid, _, _ in rows]
        for ell, mid, _, _ in rows:
            _onehot_load(c, [s2[ell - 1], *mid, s1[ell - 1]],
                         hyper_weights(spec.n, spec.m, k, ell)[:ell + 1])
        # at most one block is nonzero; slot a of row l goes to s1[a-1]
        # and to s2[l-a-1]
        _fold_into(c, mids, s1)
        _fold_into(c, [mid[::-1] for mid in mids], s2)
        fan = Circuit(num_qubits)
        for t in range(rows[-1][0] - 1):
            fan.extend(fanout_copy([s1[t], s2[t]],
                                   [[c1[t], c2[t]]
                                    for _, _, c1, c2 in rows[:-1]
                                    if t < len(c1)]))
        c.extend(fan)
        for ell, mid, c1, c2 in rows:
            for a in range(1, ell):
                build_rccx(c, c1[a - 1], c2[ell - a - 1], mid[a - 1])
        c.extend(inverse(fan))   # CNOTs only: the gates in reverse
    return c


# --- all-to-all recursion ---------------------------------------------------


def _ladder_slope(k: int) -> int:
    """Layers per qubit of dicke_unitary_path(nn, k): for nn > k its depth
    is this times nn, plus a constant of k."""
    return (4, 11, 16)[min(k, 3) - 1]


def _conveyor_depth(k: int) -> int:
    """ASAP depth of divide_unitary_path at count width k, whatever its
    (n, m). DivideSpec keeps m >= k and n - m >= k, so every meeting's
    angle lies strictly between 0 and pi/2 and no rotation drops out: the
    conveyor's gate list depends on (n, m) only through its angles, and
    its depth on k alone."""
    return (5, 34, 75, 131, 201, 279)[k - 1] if k <= 6 else 83 * k - 219


def synth_alltoall(n: int, k: int) -> tuple:
    """Dicke unitary on unrestricted connectivity.

    Recursively halves the qubit block: a divide unitary hands the upper
    half its share of the count, then each half recurses; a block may
    instead finish on the linear ladder. The blocks of a layer are
    identical, so one template is built per block size and placed on
    every block of that size. A block of nn qubits takes the
    ancilla-accelerated divide when its nn - 2k idle qubits hold the
    max(k - 1, 1) ancilla divide_unitary_ancilla needs, and the ladder
    otherwise. Depth is O(log k log(n/k) + k).

    The ancilla divide takes and leaves the count one-hot; the ladder
    takes it in unary. So u_uo runs once on qubits 0..k-1 before a root
    ancilla divide, and each ladder under an ancilla divide gets
    inverse(u_uo) on its count register just before it. The plan records
    each conversion as a PlanConversion."""
    if not 1 <= k <= n // 2:
        raise ValueError("require 1 <= k <= n/2")
    g = ConnectivityGraph.complete(n)
    plan = SynthesisPlan(g, n, k)
    c = Circuit(n)
    to_onehot = u_uo(range(k))
    from_onehot = inverse(to_onehot)
    conv_stats = _stats(to_onehot)
    # block size -> (variant, placed template, its depth, size, CNOTs);
    # variant "ancilla" divides, "ladder" ends the block
    chosen: dict = {}

    def choose(nn: int) -> tuple:
        if nn not in chosen:
            half = nn // 2
            if nn - 2 * k >= max(k - 1, 1):   # the divide's ancilla fit
                spec = DivideSpec(n=nn, m=nn - half, k=k,
                                  left=tuple(range(half, half + k)),
                                  right=tuple(range(k)))
                idle = tuple(range(k, half)) + tuple(range(half + k, nn))
                template = divide_unitary_ancilla(spec, idle, num_qubits=nn)
                chosen[nn] = ("ancilla", template, *_stats(template))
            else:
                chosen[nn] = ("ladder", dicke_unitary_path(nn, k))
        return chosen[nn]

    def rec(base: int, nn: int, layer: int) -> None:
        variant, placed, *stats = choose(nn)
        # remap_qubits checks the offset map once, then gathers the
        # template's qubit columns through it
        shift = range(base, base + nn)
        # the count arrives in unary at the root, one-hot under a divide
        onehot = layer > 1
        if onehot != (variant == "ancilla"):
            # convert the count to the form the block's variant takes
            name, conv = (("inverse(u_uo)", from_onehot) if onehot
                          else ("u_uo", to_onehot))
            c.extend(remap_qubits(conv, shift[:k], n))
            plan.conversions.append(PlanConversion(
                name, tuple(shift[:k]), *conv_stats))
        c.extend(remap_qubits(placed, shift, n))
        if variant == "ladder":
            plan.tail_units.append(tuple(shift))
            return
        half = nn // 2            # low half keeps the count (S2 side)
        s2 = tuple(range(base, base + k))
        s1 = tuple(range(base + half, base + half + k))
        plan.recursion_tree.append(PlanNode(layer, nn, nn - half, s1, s2,
                                            variant, *stats))
        rec(base, half, layer + 1)
        rec(base + half, nn - half, layer + 1)

    rec(0, n, 1)
    return c, plan


# --- grid synthesis ---------------------------------------------------------


def _slab_serpentine(c0: int, width: int, n1: int) -> list:
    """Vertices of columns c0..c0+width-1, serpentine order anchored at c0
    (first column top-down). Consecutive entries are grid-adjacent."""
    out = []
    for t in range(width):
        rows = range(n1) if t % 2 == 0 else range(n1 - 1, -1, -1)
        out.extend(grid_index(r, c0 + t, n1) for r in rows)
    return out


def _permute_on_path(c: Circuit, path: list, dest: list, live: list) -> None:
    """Realize the permutation sending the content of path[i] to
    path[dest[i]] by nearest-neighbor transpositions: odd-even
    transposition sort of the destination labels, at most len(path) rounds.

    live[i] is False when path[i] is known to hold |0>; the flags travel
    with the content. Two live cells trade places by a SWAP (3 CNOTs). A
    live and a zero cell take a 2-CNOT move, CX(live, zero) then
    CX(zero, live), which copies the content into the zero cell and then
    clears the one it left. Two zero cells trade places with no gate."""
    dest, live = list(dest), list(live)
    length = len(dest)
    if sorted(dest) != list(range(length)):
        raise ValueError("dest is not a permutation")
    for rnd in range(length):
        if dest == sorted(dest):
            break
        for i in range(rnd % 2, length - 1, 2):
            if dest[i] > dest[i + 1]:
                a, b = path[i], path[i + 1]
                if live[i] and live[i + 1]:
                    c.swap(a, b)
                elif live[i] or live[i + 1]:
                    if live[i + 1]:
                        a, b = b, a
                    c.cx(a, b)
                    c.cx(b, a)
                dest[i], dest[i + 1] = dest[i + 1], dest[i]
                live[i], live[i + 1] = live[i + 1], live[i]


def _embed_moves(path: list, moves: dict) -> list:
    """Destination labels for _permute_on_path from a sparse position map
    {src_pos: dst_pos}; unconstrained positions fill the remaining slots in
    order. So those below every constrained source and destination keep
    their place (in _route_block, the group's count); the rest carry |0>,
    so their placement is immaterial."""
    length = len(path)
    dest = [-1] * length
    used = set(moves.values())
    for s, d in moves.items():
        dest[s] = d
    free = iter(i for i in range(length) if i not in used)
    for i in range(length):
        if dest[i] < 0:
            dest[i] = next(free)
    return dest


def _route_block(c: Circuit, cdst: int, w: int, k: int, n1: int) -> None:
    """Move the k-cell count share from qubits k..2k-1 of the double slab
    at columns [0, 2w) onto the slab-register prefix at columns
    [cdst, cdst+w), cdst >= w: a divide node's local frame, whose
    grid_index order is the serpentine anchored at column 0.

    Two phases: a local rearrangement inside the double slab placing the
    share on the second slab's own serpentine prefix, then a horizontal
    per-row translation of that slab (rows move in parallel).

    On the unary inputs of the Dicke-unitary contract a region holds ones
    only on its count register, and the divide before the route writes
    only qubits 0..2k-1. So every other cell is |0> and each phase passes
    _permute_on_path the cells that may be live: a move into a zero cell
    takes 2 CNOTs, and cells that are both zero trade places with none."""
    strip = range(2 * w * n1)
    slab2 = _slab_serpentine(w, w, n1)
    moves = {k + t: slab2[t] for t in range(k)}
    if any(s != d for s, d in moves.items()):
        if 2 * w * n1 <= 6 * k:
            _permute_on_path(c, strip, _embed_moves(strip, moves),
                             [i < 2 * k for i in strip])
        else:
            # thin slab (w == 1, n1 > 2k): share sits in column 0 rows
            # k..2k-1; one horizontal move per row into the empty column
            # 1, then a vertical rotation confined to its top 2k cells.
            for r in range(k, 2 * k):
                right = grid_index(r, 1, n1)
                c.cx(r, right)
                c.cx(right, r)
            col = [grid_index(r, 1, n1) for r in range(2 * k)]
            dest = [(i + k) % (2 * k) for i in range(2 * k)]
            _permute_on_path(c, col, dest, [i >= k for i in range(2 * k)])
    delta = cdst - w
    if delta > 0:
        # shift the whole slab delta columns right, zeros backfilling left
        share = set(slab2[:k])
        span = delta + w
        for r in range(n1):
            row = [grid_index(r, w + t, n1) for t in range(span)]
            dest = [t + delta if t < w else t - w for t in range(span)]
            _permute_on_path(c, row, dest, [q in share for q in row])


def synth_grid(n1: int, n2: int, k: int) -> tuple:
    """Dicke unitary with all gates on edges of the n1 x n2 grid.

    The count register of a column region is the k-cell prefix of the
    region's serpentine (column-major boustrophedon), which for the whole
    grid coincides with qubits 0..k-1. Tall case (k >= n2/n1): balanced
    column bisection, one nearest-neighbor divide per node followed by a
    horizontal slab move of the right share, depth O(k log(n/k) + n2).

    Wide case (k < n2/n1): a left-to-right chain over g column groups.
    Step i divides the count of columns [c_i, n2) between group i and the
    rest and routes the rest's share onto the next group's slab register;
    group i's ladder then runs beside the later steps. So the depth is
    about g conveyors (D_k = _conveyor_depth(k) layers each) plus the last
    group's ladder, L_k = _ladder_slope(k) layers per qubit. Minimising
    g D_k + L_k n / g gives g = round(sqrt(L_k n / D_k)), clamped to
    [1, n2 // max(k, 2w)] so each group holds the slab register
    (w = ceil(k/n1) columns) and the route fits. The columns split into g
    groups whose widths differ by at most one, wider groups last. The last
    group is the widest and its ladder sets the tail of the depth, so g
    then drops to the fewest groups no wider than it: more groups would
    only lengthen the chain. A grid where only one group fits is one
    ladder.

    Blocks of one shape differ only in their qubits, so each ladder length
    and each divide node's (n, m) is built once per call as a template and
    placed on a block's serpentine by remap_qubits; a node's template, and
    so its plan depth, size and CNOT count, cover the divide and its route."""
    if n1 > n2:
        raise ValueError("require n1 <= n2")
    n = n1 * n2
    if not 1 <= k <= n // 2:
        raise ValueError("require 1 <= k <= n1*n2/2")
    g = ConnectivityGraph.grid(n1, n2)
    plan = SynthesisPlan(g, n, k)
    if n1 == 1:
        plan.tail_units.append(tuple(range(n)))
        return dicke_unitary_path(n2, k), plan

    c = Circuit(n)
    w = math.ceil(k / n1)
    ladders: dict = {}    # ladder length -> template on 0..length-1
    divides: dict = {}    # (n, m) -> (divide + route template, its stats)

    def tail(c0: int, width: int) -> None:
        snake = _slab_serpentine(c0, width, n1)
        length = len(snake)
        if length not in ladders:
            ladders[length] = dicke_unitary_path(length, min(k, length))
        c.extend(remap_qubits(ladders[length], snake, n))
        plan.tail_units.append(tuple(snake))

    def divide_step(c0: int, c1: int, cmid: int, layer: int) -> None:
        """Divide the count of region [c0,c1) between [c0,cmid) and
        [cmid,c1); the right share lands on the slab register at cmid."""
        shape = (n1 * (c1 - c0), n1 * (c1 - cmid))
        span = cmid - c0 + w
        if shape not in divides:
            t = Circuit(n1 * span)
            t.extend(divide_unitary_path(DivideSpec(
                n=shape[0], m=shape[1], k=k, left=tuple(range(k, 2 * k)),
                right=tuple(range(k)))))
            _route_block(t, span - w, w, k, n1)
            divides[shape] = (t, *_stats(t))
        template, *stats = divides[shape]
        # local grid_index order is the serpentine: rows stay put
        snake = _slab_serpentine(c0, span, n1)
        c.extend(remap_qubits(template, snake, n))
        plan.recursion_tree.append(PlanNode(
            layer, *shape, tuple(snake[k:2 * k]), tuple(snake[:k]), "path",
            *stats))

    if k * n1 >= n2:
        # tall case: balanced bisection over column intervals
        def rec(c0: int, c1: int, layer: int) -> None:
            width = c1 - c0
            if width < 2 * w or n1 * width <= 2 * k:
                tail(c0, width)
                return
            cmid = c0 + width // 2
            divide_step(c0, c1, cmid, layer)
            rec(c0, cmid, layer + 1)
            rec(cmid, c1, layer + 1)

        rec(0, n2, 1)
    else:
        # wide case: g column groups, sized by the rule in the docstring
        g = round(math.sqrt(_ladder_slope(k) * n / _conveyor_depth(k)))
        g = max(1, min(g, n2 // max(k, 2 * w)))
        widest = -(-n2 // g)
        g = -(-n2 // widest)     # fewest groups no wider than widest
        q, r = divmod(n2, g)
        widths = [q] * (g - r) + [q + 1] * r
        c0 = 0
        for layer, gw in enumerate(widths[:-1], 1):
            divide_step(c0, n2, c0 + gw, layer)
            tail(c0, gw)
            c0 += gw
        tail(c0, widths[-1])
    return c, plan


# --- state preparation wrappers ---------------------------------------------


def _synthesize(topology: str, dims, k: int) -> tuple:
    if topology == "complete":
        return synth_alltoall(int(dims), k)
    if topology == "path":
        n = int(dims)
        return synth_grid(1, n, k)
    if topology == "grid":
        n1, n2 = dims
        return synth_grid(n1, n2, k)
    raise ValueError(f"unknown topology {topology!r}")


def prepare_dicke(topology: str, dims, k: int) -> Circuit:
    """Circuit preparing |D^n_k> from |0^n>: X gates load the k input ones
    onto qubits 0..k-1, then the topology's Dicke unitary runs."""
    unitary, _ = _synthesize(topology, dims, k)
    load = Circuit(unitary.num_qubits)
    for q in range(k):
        load.x(q)
    return compose(load, unitary)


def _prepare_symmetric(topology: str, dims, k: int, amplitudes) -> tuple:
    """prepare_symmetric's circuit together with the synthesis plan."""
    # refuses bad amplitudes before the synthesis runs
    prep = unary_amplitude_prep(k, amplitudes)
    unitary, plan = _synthesize(topology, dims, k)
    load = remap_qubits(prep, range(k), unitary.num_qubits)
    return compose(load, unitary), plan


def prepare_symmetric(topology: str, dims, k: int, amplitudes) -> Circuit:
    """Circuit preparing the symmetric state sum_l alpha_l |D^n_l> from
    |0^n>: amplitude loading on the k input qubits (adjacent rotation
    chain), then the topology's Dicke unitary."""
    return _prepare_symmetric(topology, dims, k, amplitudes)[0]
