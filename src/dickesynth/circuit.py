"""Gate-level intermediate representation.

Circuits are flat ordered lists of gates over integer qubit indices
(little-endian: qubit 0 is the least significant bit of a basis index).
Single-qubit gates are kept symbolic as (theta, phi, lam, gamma) parameter
quadruples with matrix

    e^{i gamma} * [[cos(theta/2),              -e^{i lam} sin(theta/2)],
                   [e^{i phi} sin(theta/2),  e^{i(phi+lam)} cos(theta/2)]]

so that inverses are exact at the parameter level; matrices are only
materialized by the verifier.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Gate",
    "Circuit",
    "ConnectivityGraph",
    "DepthReport",
    "u_gate",
    "cx_gate",
    "x_gate",
    "ry_gate",
    "phase_gate",
    "gate_matrix",
    "asap_layering",
    "validate_connectivity",
    "compose",
    "inverse",
    "remap_qubits",
    "dumps",
    "loads",
]


class Gate(namedtuple("GateFields", "kind qubits params")):
    """One gate: kind 'u' (single-qubit) or 'cx' (CNOT).

    For 'u', qubits = (target,) and params = (theta, phi, lam, gamma).
    For 'cx', qubits = (control, target) and params = ().
    An immutable tuple, checked once when built.
    """

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple, params: tuple = ()):
        self = tuple.__new__(cls, (kind, qubits, params))
        if kind == "cx":
            c, t = qubits
            if c == t:
                raise ValueError("cnot control equals target")
        elif kind == "u":
            if len(qubits) != 1 or len(params) != 4:
                raise ValueError(f"u gate takes 1 qubit and 4 parameters: "
                                 f"{self!r}")
        else:
            raise ValueError(f"unknown gate kind {kind!r}")
        return self


def u_gate(target: int, theta: float, phi: float = 0.0,
           lam: float = 0.0, gamma: float = 0.0) -> Gate:
    return Gate("u", (target,), (float(theta), float(phi), float(lam), float(gamma)))


def cx_gate(control: int, target: int) -> Gate:
    return Gate("cx", (control, target))


def x_gate(target: int) -> Gate:
    # X = e^{i pi/2} Ry(pi) Rz(pi) up to parameterization; as a u-quadruple:
    return u_gate(target, math.pi, 0.0, math.pi, 0.0)


def ry_gate(target: int, theta: float) -> Gate:
    return u_gate(target, theta, 0.0, 0.0, 0.0)


def phase_gate(target: int, delta: float) -> Gate:
    # diag(1, e^{i delta})
    return u_gate(target, 0.0, 0.0, delta, 0.0)


def gate_matrix(g: Gate) -> np.ndarray:
    """2x2 matrix of a single-qubit gate."""
    theta, phi, lam, gamma = g.params
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    # two phases, not e^{i(phi+lam)}: phi + lam can overflow to inf
    e_phi, e_lam = cmath.exp(1j * phi), cmath.exp(1j * lam)
    m = np.array([[c, -e_lam * s], [e_phi * s, e_phi * e_lam * c]],
                 dtype=complex)
    return cmath.exp(1j * gamma) * m


def _inverse_gate(g: Gate) -> Gate:
    if g.kind == "cx":
        return g
    theta, phi, lam, gamma = g.params
    # U(theta,phi,lam,gamma)^dagger = U(-theta, -lam, -phi, -gamma)
    return Gate("u", g.qubits, (-theta, -lam, -phi, -gamma))


@dataclass
class Circuit:
    """Ordered gate list over num_qubits qubits."""

    num_qubits: int
    gates: list = field(default_factory=list)

    def append(self, gate: Gate) -> None:
        for q in gate.qubits:
            if not (0 <= q < self.num_qubits):
                raise ValueError(f"gate index {q} out of range")
        self.gates.append(gate)

    def extend(self, gates) -> None:
        for g in gates:
            self.append(g)

    @property
    def size(self) -> int:
        return len(self.gates)

    def u(self, target, theta, phi=0.0, lam=0.0, gamma=0.0):
        self.append(u_gate(target, theta, phi, lam, gamma))

    def x(self, target):
        self.append(x_gate(target))

    def ry(self, target, theta):
        self.append(ry_gate(target, theta))

    def phase(self, target, delta):
        self.append(phase_gate(target, delta))

    def cx(self, control, target):
        self.append(cx_gate(control, target))

    def swap(self, a, b):
        # SWAP = 3 CNOTs
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)


@dataclass(frozen=True)
class ConnectivityGraph:
    """Qubit connectivity restricting 2-qubit gate placement, stored as its
    shape: the complete graph on ``num_vertices`` vertices (``rows`` is
    None), or a grid with ``rows`` = n1 rows under grid_index numbering (a
    path is the one-row grid). Edges follow from the shape in has_edge."""

    num_vertices: int
    rows: int | None = None

    @staticmethod
    def complete(n: int) -> "ConnectivityGraph":
        if n < 1:
            raise ValueError(f"vertex count must be positive, got {n}")
        return ConnectivityGraph(n)

    @staticmethod
    def grid(n1: int, n2: int) -> "ConnectivityGraph":
        """n1 x n2 grid (n1 rows, n2 columns), numbered by grid_index."""
        if n1 < 1 or n2 < 1:
            raise ValueError(f"grid dimensions must be positive, got "
                             f"{n1}x{n2}")
        return ConnectivityGraph(n1 * n2, n1)

    @staticmethod
    def path(n: int) -> "ConnectivityGraph":
        return ConnectivityGraph.grid(1, n)

    @property
    def topology_tag(self) -> str:
        if self.rows is None:
            return "complete"
        if self.rows == 1:
            return "path"
        return f"grid({self.rows},{self.num_vertices // self.rows})"

    def has_edge(self, a: int, b: int) -> bool:
        if a > b:
            a, b = b, a
        if a < 0 or a == b or b >= self.num_vertices:
            return False
        n1 = self.rows
        # consecutive numbers are adjacent (the numbering is a Hamiltonian
        # path); otherwise only a cell in column c and its same-row
        # neighbour in column c + 1, whose numbers sum to 2 (c + 1) n1 - 1
        return (n1 is None or b == a + 1
                or a + b == 2 * (a // n1 + 1) * n1 - 1)


def grid_index(row: int, col: int, n1: int) -> int:
    """Vertex number of grid cell (row, col) on a grid with n1 rows:
    boustrophedon column-major, so column 0 runs top-to-bottom, column 1
    bottom-to-top, etc., and consecutive numbers are always grid-adjacent
    (the numbering is a Hamiltonian path)."""
    if col % 2 == 0:
        return col * n1 + row
    return col * n1 + (n1 - 1 - row)


@dataclass
class DepthReport:
    depth: int
    size: int
    layers: list


def asap_layering(c: Circuit) -> DepthReport:
    """Greedy earliest-slot layering: each gate goes in the first layer after
    every earlier gate sharing one of its qubits. O(size) via per-qubit
    frontier levels."""
    frontier = [0] * c.num_qubits
    layers: list = []
    for idx, g in enumerate(c.gates):
        if g.kind == "cx":
            a, b = g.qubits
            level = frontier[a]
            if frontier[b] > level:
                level = frontier[b]
            frontier[a] = frontier[b] = level + 1
        else:
            q, = g.qubits
            level = frontier[q]
            frontier[q] = level + 1
        if level == len(layers):
            layers.append([idx])
        else:
            layers[level].append(idx)
    return DepthReport(depth=len(layers), size=len(c.gates), layers=layers)


def validate_connectivity(c: Circuit, g: ConnectivityGraph) -> list:
    """Every CNOT whose endpoints are not an edge of g, as (gate_index, gate)."""
    if c.num_qubits != g.num_vertices:
        raise ValueError("qubit count mismatch")
    out = []
    for idx, gate in enumerate(c.gates):
        if gate.kind == "cx" and not g.has_edge(*gate.qubits):
            out.append((idx, gate))
    return out


def compose(a: Circuit, b: Circuit) -> Circuit:
    if a.num_qubits != b.num_qubits:
        raise ValueError("incompatible qubit counts")
    return Circuit(a.num_qubits, [*a.gates, *b.gates])


def inverse(c: Circuit) -> Circuit:
    return Circuit(c.num_qubits, [_inverse_gate(g) for g in reversed(c.gates)])


def remap_qubits(c: Circuit, perm, num_qubits: int | None = None) -> Circuit:
    """Relabel qubit q of c as perm[q]. perm is any indexable map (dict,
    list or range); it is checked once to map every qubit of c, injectively,
    into [0, num_qubits), so the per-gate work is only the lookups."""
    pairs = list(perm.items() if isinstance(perm, dict) else enumerate(perm))
    images = [p for _, p in pairs]
    if len(set(images)) != len(images):
        raise ValueError("qubit map is not injective")
    nq = num_qubits if num_qubits is not None else c.num_qubits
    if images and not (0 <= min(images) and max(images) < nq):
        raise ValueError("qubit map image out of range")
    if not set(range(c.num_qubits)) <= {q for q, _ in pairs}:
        raise ValueError("qubit map leaves a qubit of the circuit unmapped")
    if pairs == [(q, q) for q in range(c.num_qubits)]:
        gates = list(c.gates)  # identity: gates are immutable, share them
    else:
        # The map was checked above to be injective, in range and total, so
        # a relabelled gate keeps its kind, its parameter count and
        # control != target: every check Gate.__new__ makes still holds,
        # and the tuple is built without re-running them.
        new = tuple.__new__
        gates = [new(Gate, (kind, (perm[qs[0]],) if len(qs) == 1
                            else (perm[qs[0]], perm[qs[1]]), params))
                 for kind, qs, params in c.gates]
    return Circuit(nq, gates)


# --- text format -----------------------------------------------------------
# Header line QUBITS n, then one gate per line:
#   U q theta phi lam gamma
#   CX c t
# Floats use 17 significant digits so the round trip is bit-exact.


def dumps(c: Circuit) -> str:
    """The text format of c. A circuit placed from block templates holds
    few distinct U parameter tuples, so each tuple's text is formatted once
    per call. The memo is keyed on the tuple's id, not its value: a value
    key would merge 0.0 with -0.0 (they compare equal) and write one sign
    for both. The ids stay valid because c.gates keeps every tuple alive
    for the call."""
    lines = [f"QUBITS {c.num_qubits}"]
    params_text: dict = {}
    for g in c.gates:
        q = g.qubits
        if g.kind == "cx":
            lines.append(f"CX {q[0]} {q[1]}")
            continue
        p = params_text.get(id(g.params))
        if p is None:
            p = "%.17g %.17g %.17g %.17g" % g.params
            params_text[id(g.params)] = p
        lines.append(f"U {q[0]} {p}")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Circuit:
    """Parse the text format. Raises ValueError on a malformed line: a
    wrong operand count, a qubit outside [0, QUBITS), a non-finite U
    parameter, or a QUBITS header that is missing, repeated or not
    positive. Each distinct gate line is parsed and checked once per call,
    and its repeats share that one immutable Gate. The memo is keyed on the
    exact line, so every spelling that differs in any character (a sign of
    zero included) is parsed and checked on its own."""
    num_qubits = None
    gates = []
    parsed: dict = {}
    for raw in text.splitlines():
        g = parsed.get(raw)
        if g is not None:
            gates.append(g)
            continue
        tok = raw.split()
        if not tok or tok[0].startswith("#"):
            continue
        head = tok[0]
        if head == "U":
            if len(tok) != 6:
                raise ValueError(f"U takes a qubit and 4 parameters: {raw!r}")
            params = (float(tok[2]), float(tok[3]), float(tok[4]),
                      float(tok[5]))
            if not all(map(math.isfinite, params)):
                raise ValueError(f"non-finite U parameter: {raw!r}")
            g = Gate("u", (int(tok[1]),), params)
        elif head == "CX":
            if len(tok) != 3:
                raise ValueError(f"CX takes two qubits: {raw!r}")
            g = Gate("cx", (int(tok[1]), int(tok[2])))
        elif head == "QUBITS":
            if num_qubits is not None:
                raise ValueError("repeated QUBITS header")
            if len(tok) != 2 or int(tok[1]) < 1:
                raise ValueError(f"QUBITS needs one positive count: {raw!r}")
            num_qubits = int(tok[1])
            continue
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
        parsed[raw] = g
        gates.append(g)
    if num_qubits is None:
        raise ValueError("missing QUBITS header")
    qubits = [q for g in parsed.values() for q in g.qubits]
    if qubits and (min(qubits) < 0 or max(qubits) >= num_qubits):
        raise ValueError(f"gate qubit outside [0, {num_qubits})")
    return Circuit(num_qubits, gates)
