"""Light-cone depth lower-bound auditing.

A circuit is normalized into alternating single-qubit / CNOT layers and
mapped to a layered directed graph whose columns are qubit snapshots in
time. Walking the graph backwards from one output qubit yields its light
cone: the set of earlier qubits that can causally influence it. Two
qubits whose cones never meet are necessarily unentangled at the output,
so any circuit claiming an entangled target state admits a depth floor
from how fast cones can grow under the connectivity graph. The audit reads
its extremal qubits, growth caps and floor from the graph's shape: on a
grid they are the opposite corners, the counts of cells within s steps of
a corner, and half the corner-to-corner distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate

import numpy as np

from .circuit import (_BLOCK, _CX, Circuit, ConnectivityGraph, _distinct,
                      asap_layering, grid_index)

__all__ = [
    "LightConeGraph",
    "ReachableSets",
    "AuditReport",
    "build_lightcone",
    "reachable",
    "audit_lower_bound",
]


@dataclass(frozen=True, eq=False)
class LightConeGraph:
    """Layered directed graph of a normalized circuit.

    Layers L_1..L_d alternate kinds 'u' (single-qubit) and 'cx'. Columns
    of vertices S_1..S_{d+1} sit between the layers; every edge points
    from column i+1 to column i. A CNOT in layer L_i contributes the four
    edges between its two qubits' vertices; a single-qubit gate on qubit
    j contributes pass-through edges (v_{i'+1}^j -> v_{i'}^j) for every
    i' >= i (identity placeholders make the pass-through universal, so
    cones never shrink on idle wires).

    The layers are stored as arrays: ``cnots`` holds one column (i,
    control, target) per CNOT of layer L_i, latest layer first, and
    ``touched`` one column (i, q) per qubit q acted on in L_i, each pair
    once.
    """

    num_qubits: int
    depth: int                 # d: number of normalized layers
    raw_depth: int             # greedy layering depth before normalization
    kinds: tuple               # kinds[i] in {'u', 'cx'} for layer L_{i+1}
    cnots: np.ndarray          # (3, #CNOTs) int64: layer i, control, target
    touched: np.ndarray        # (2, #pairs) int64: layer i, qubit


@dataclass(frozen=True)
class ReachableSets:
    """Per-column sizes of one output qubit's backward light cone.

    ``sizes[i]`` is |S'_{i+1}|: the vertices reachable from the origin at
    column d+1 and touched by a gate in layer L_{i+1}. ``cone_sizes[i]``
    is the size of the full reachable set at column i+1, regardless of
    gate activity. Index 0 corresponds to column 1, whose full reachable
    set is ``first_cone``.
    """

    origin: int
    sizes: tuple
    cone_sizes: tuple
    first_cone: frozenset


def build_lightcone(c: Circuit) -> LightConeGraph:
    """Normalize a circuit into the alternating-layer form and build its
    layered graph. Each greedy layer splits into at most one single-qubit
    layer and one CNOT layer (so normalization at most doubles depth);
    adjacent single-qubit layers merge, since composed 1q gates are one
    gate. Reads the circuit's columns: each gate's normalized layer is its
    greedy layer's slot, renumbered over the slots that hold a gate."""
    report = asap_layering(c)
    raw_depth = report.depth
    op, q0, q1, _ = c.columns()
    # slot 2 l holds greedy layer l's single-qubit gates, slot 2 l + 1 its
    # CNOTs
    slot = 2 * report.levels + op
    used = np.flatnonzero(np.bincount(slot, minlength=2 * raw_depth))
    is_u = used % 2 == 0
    # a single-qubit slot right after another merges into it
    opens = np.ones(len(used), dtype=bool)
    opens[1:] = ~(is_u[1:] & is_u[:-1])
    layer_of_slot = np.zeros(2 * raw_depth, dtype=np.int64)
    layer_of_slot[used] = np.cumsum(opens)
    layer = layer_of_slot[slot]           # L_i of each gate, i from 1
    kinds = ["u" if u else "cx" for u in is_u[opens].tolist()]
    cx = op == _CX
    latest_first = np.argsort(-layer[cx], kind="stable")
    cnots = np.stack([layer[cx], q0[cx], q1[cx]])[:, latest_first]
    # a merged single-qubit layer may act on a qubit more than once; the
    # keys span the qubits the gates touch, as asap_layering's frontier
    # does, not the header's count
    width = int(q0.max(initial=0)) + 1
    u_keys = _distinct(layer[~cx] * width + q0[~cx])
    touched = np.concatenate([np.stack([u_keys // width, u_keys % width]),
                              cnots[[0, 1]], cnots[[0, 2]]], axis=1)
    return LightConeGraph(
        num_qubits=c.num_qubits,
        depth=len(kinds),
        raw_depth=raw_depth,
        kinds=tuple(kinds),
        cnots=cnots,
        touched=touched,
    )


def reachable(g: LightConeGraph, origin: int) -> ReachableSets:
    """Backward cone walk from ``origin`` at column d+1 down to column 1.

    joined[q] is the last column whose cone holds q (0: none). Crossing
    L_i from column i+1 to column i, a CNOT with one endpoint in the cone
    pulls the other in at column i. The CNOTs of a layer share no qubit,
    so one pass over them, latest layer first, walks the whole cone.
    joined spans the origin and the qubits the gates touch, not the
    header's count."""
    if not 0 <= origin < g.num_qubits:
        raise ValueError("origin out of range")
    d = g.depth
    joined = [0] * (max(int(g.touched[1].max(initial=0)), origin) + 1)
    joined[origin] = d + 1
    for start in range(0, g.cnots.shape[1], _BLOCK):
        for i, a, b in zip(*g.cnots[:, start:start + _BLOCK].tolist()):
            if joined[a]:
                if not joined[b]:
                    joined[b] = i
            elif joined[b]:
                joined[a] = i
    joined = np.array(joined, dtype=np.int64)
    # column c's cone: the qubits with joined >= c
    cone_sizes = np.cumsum(np.bincount(joined, minlength=d + 2)[::-1])[::-1]
    layer, q = g.touched
    sizes = np.bincount(layer[joined[q] >= layer], minlength=d + 1)
    return ReachableSets(origin=origin,
                         sizes=tuple(sizes[1:].tolist()) + (1,),
                         cone_sizes=tuple(cone_sizes[1:].tolist()),
                         first_cone=frozenset(np.flatnonzero(joined).tolist()))


@dataclass
class AuditReport:
    """Light-cone audit of a circuit against a claimed entangled target."""

    topology_tag: str
    num_qubits: int
    raw_depth: int
    normalized_depth: int
    origins: tuple
    cone_sizes: dict            # origin -> tuple |S'_i| for columns 1..d+1
    cones_intersect: bool
    growth_ok: bool             # cap obeyed at every column for both origins
    floor: int
    depth_ok: bool
    passed: bool = field(init=False)

    def __post_init__(self):
        self.passed = self.cones_intersect and self.growth_ok and self.depth_ok

    def text(self) -> str:
        lines = [
            f"light-cone audit: topology={self.topology_tag} "
            f"n={self.num_qubits}",
            f"depth raw={self.raw_depth} normalized={self.normalized_depth} "
            f"floor={self.floor} -> {'ok' if self.depth_ok else 'BELOW FLOOR'}",
            f"extremal origins {self.origins[0]} and {self.origins[1]}: cones "
            f"{'intersect' if self.cones_intersect else 'DISJOINT'}",
            f"cone growth caps: {'ok' if self.growth_ok else 'VIOLATED'}",
        ]
        for origin in self.origins:
            sizes = self.cone_sizes[origin]
            lines.append(f"origin {origin} |S'_i| per column: "
                         + " ".join(str(s) for s in sizes))
        lines.append("audit " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _shape_bounds(topology: ConnectivityGraph) -> tuple:
    """(origins, cap, floor) of the audit, read from the graph's shape.

    On a complete graph the extremal qubits are 1 and 0, a cone at most
    doubles per layer and the floor is ceil(log2 n) - 1. On an n1 x n2
    grid (a path when n1 = 1) they are the opposite corners, a cone s
    layers back holds at most the cells within s steps of its corner (the
    same count from either corner), and the floor is ceil((n1 + n2 - 2) /
    2): half the corner-to-corner distance, since a cone's radius grows by
    at most one per layer. cap[s] bounds the cone s layers back from the
    output; past its last entry the cap stays at that entry.
    """
    n, n1 = topology.num_vertices, topology.rows
    if n1 is None:
        origins = (1, 0) if n > 1 else (0, 0)
        cap = [min(2 << s, n) for s in range(max(n.bit_length(), 1))]
        floor = max(1, math.ceil(math.log2(n)) - 1) if n > 1 else 0
        return origins, cap, floor
    n2 = n // n1
    # cells with r + c = t, summed over t <= s
    cap = list(accumulate(min(t, n1 - 1, n2 - 1, n1 + n2 - 2 - t) + 1
                          for t in range(n1 + n2 - 1)))
    return ((grid_index(n1 - 1, n2 - 1, n1), 0), cap,
            math.ceil((n1 + n2 - 2) / 2))


def audit_lower_bound(c: Circuit, topology: ConnectivityGraph) -> AuditReport:
    """Audit a circuit claiming an entangled target (e.g. a Dicke state).

    Checks that (a) the light cones of two extremal qubits intersect,
    (b) per-column reachable-set sizes respect the connectivity growth
    caps, and (c) the normalized depth meets the implied floor; see
    _shape_bounds for the three on each topology. Raises ValueError when
    the topology's vertex count is not the circuit's qubit count.
    """
    if topology.num_vertices != c.num_qubits:
        raise ValueError(f"topology has {topology.num_vertices} vertices, "
                         f"circuit has {c.num_qubits} qubits")
    g = build_lightcone(c)
    d = g.depth
    origins, cap, floor = _shape_bounds(topology)
    reach = {origin: reachable(g, origin) for origin in origins}
    # sizes[i] sits d - i layers back from column d+1
    growth_ok = all(size <= cap[min(d - i, len(cap) - 1)]
                    for r in reach.values()
                    for i, size in enumerate(r.sizes))
    cones_intersect = bool(reach[origins[0]].first_cone
                           & reach[origins[1]].first_cone)
    depth_ok = g.depth >= floor
    return AuditReport(
        topology_tag=topology.topology_tag,
        num_qubits=g.num_qubits,
        raw_depth=g.raw_depth,
        normalized_depth=d,
        origins=origins,
        cone_sizes={o: r.sizes for o, r in reach.items()},
        cones_intersect=cones_intersect,
        growth_ok=growth_ok,
        floor=floor,
        depth_ok=depth_ok,
    )
