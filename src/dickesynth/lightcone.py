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

from .circuit import Circuit, ConnectivityGraph, asap_layering, grid_index

__all__ = [
    "LightConeGraph",
    "ReachableSets",
    "AuditReport",
    "build_lightcone",
    "reachable",
    "audit_lower_bound",
]


@dataclass(frozen=True)
class LightConeGraph:
    """Layered directed graph of a normalized circuit.

    Layers L_1..L_d alternate kinds 'u' (single-qubit) and 'cx'. Columns
    of vertices S_1..S_{d+1} sit between the layers; every edge points
    from column i+1 to column i. A CNOT in layer L_i contributes the four
    edges between its two qubits' vertices; a single-qubit gate on qubit
    j contributes pass-through edges (v_{i'+1}^j -> v_{i'}^j) for every
    i' >= i (identity placeholders make the pass-through universal, so
    cones never shrink on idle wires).
    """

    num_qubits: int
    depth: int                 # d: number of normalized layers
    raw_depth: int             # greedy layering depth before normalization
    kinds: tuple               # kinds[i] in {'u', 'cx'} for layer L_{i+1}
    touched: tuple             # touched[i]: frozenset of qubits acted on in L_{i+1}
    cnot_pairs: tuple          # cnot_pairs[i]: tuple of (control, target) pairs


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
    gate."""
    report = asap_layering(c)
    kinds: list = []
    touched: list = []
    pairs: list = []

    def emit(kind, qubits, cx_pairs):
        if kind == "u" and kinds and kinds[-1] == "u":
            touched[-1] = touched[-1] | qubits
            return
        kinds.append(kind)
        touched.append(frozenset(qubits))
        pairs.append(tuple(cx_pairs))

    for layer in report.layers:
        uq, cxq, cxp = set(), set(), []
        for idx in layer:
            g = c.gates[idx]
            if g.kind == "cx":
                cxq.update(g.qubits)
                cxp.append(tuple(g.qubits))
            else:
                uq.add(g.qubits[0])
        if uq:
            emit("u", uq, ())
        if cxq:
            emit("cx", frozenset(cxq), cxp)
    return LightConeGraph(
        num_qubits=c.num_qubits,
        depth=len(kinds),
        raw_depth=report.depth,
        kinds=tuple(kinds),
        touched=tuple(touched),
        cnot_pairs=tuple(pairs),
    )


def reachable(g: LightConeGraph, origin: int) -> ReachableSets:
    """Backward cone walk from ``origin`` at column d+1 down to column 1."""
    if not 0 <= origin < g.num_qubits:
        raise ValueError("origin out of range")
    d = g.depth
    cone = {origin}
    sizes = [1] * (d + 1)
    cone_sizes = [1] * (d + 1)
    for i in range(d, 0, -1):      # crossing layer L_i: column i+1 -> i
        for a, b in g.cnot_pairs[i - 1]:
            if a in cone or b in cone:
                cone.add(a)
                cone.add(b)
        cone_sizes[i - 1] = len(cone)
        sizes[i - 1] = len(cone & g.touched[i - 1])
    return ReachableSets(origin=origin, sizes=tuple(sizes),
                         cone_sizes=tuple(cone_sizes),
                         first_cone=frozenset(cone))


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
