"""Gate-level intermediate representation.

A circuit is stored as four parallel integer columns over qubit indices
(little-endian: qubit 0 is the least significant bit of a basis index).
Gate i is op[i] (0 for a single-qubit gate, 1 for a CNOT), q0[i] (the
single-qubit gate's target, or the CNOT's control), q1[i] (the CNOT's
target; -1 otherwise) and row[i], an index into the circuit's table of
distinct single-qubit parameter rows (-1 for a CNOT). Single-qubit gates
are kept symbolic as (theta, phi, lam, gamma) rows with matrix

    e^{i gamma} * [[cos(theta/2),              -e^{i lam} sin(theta/2)],
                   [e^{i phi} sin(theta/2),  e^{i(phi+lam)} cos(theta/2)]]

so that inverses are exact at the parameter level; matrices are only
materialized by the verifier, once per row. Relabelling a template onto a
block is one gather of its qubit columns, and text I/O, layering and the
audits read the columns. The emitters, extend, remap_qubits, inverse,
compose and loads are the only ways to fill a circuit; a Gate tuple is
built only when a caller reads Circuit.gates.
"""

from __future__ import annotations

import array
import cmath
import math
import operator
import struct
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Gate",
    "GateView",
    "Circuit",
    "ConnectivityGraph",
    "DepthReport",
    "gate_matrix",
    "asap_layering",
    "validate_connectivity",
    "compose",
    "inverse",
    "remap_qubits",
    "dumps",
    "loads",
]

_U, _CX = 0, 1                       # op codes
_row_bits = struct.Struct("4d").pack  # a parameter row's identity


class Gate(namedtuple("GateFields", "kind qubits params")):
    """One gate as read from Circuit.gates: kind 'u' (single-qubit) or
    'cx' (CNOT). For 'u', qubits = (target,) and params = (theta, phi,
    lam, gamma); for 'cx', qubits = (control, target) and params = ()."""

    __slots__ = ()


def gate_matrix(row) -> np.ndarray:
    """2x2 matrix of a single-qubit gate's (theta, phi, lam, gamma) row."""
    theta, phi, lam, gamma = row
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    # two phases, not e^{i(phi+lam)}: phi + lam can overflow to inf
    e_phi, e_lam = cmath.exp(1j * phi), cmath.exp(1j * lam)
    m = np.array([[c, -e_lam * s], [e_phi * s, e_phi * e_lam * c]],
                 dtype=complex)
    return cmath.exp(1j * gamma) * m


class _ParamTable:
    """Append-only table of the distinct (theta, phi, lam, gamma) rows a
    circuit's single-qubit gates point into. Rows are told apart by their
    bits, never by ==, which would merge 0.0 with -0.0 and write one sign
    for both. A row is checked to be finite when it is first stored, so
    every row dumps as text that loads accepts. Circuits may share a
    table: rows are only ever appended, so a row index never changes its
    meaning."""

    __slots__ = ("rows", "_index", "_merged")

    def __init__(self, rows=()):
        self.rows: list = []
        self._index: dict = {}
        self._merged: dict = {}
        for p in rows:
            self.add(p)

    def add(self, p: tuple) -> int:
        key = _row_bits(*p)
        r = self._index.get(key)
        if r is None:
            if not all(map(math.isfinite, p)):
                raise ValueError(f"non-finite U parameter: {p}")
            r = self._index[key] = len(self.rows)
            self.rows.append(p)
        return r

    def merge(self, other: "_ParamTable") -> np.ndarray:
        """Map other's row indices to this table's, adding the rows it
        lacks, as an array whose last entry maps -1 (a CNOT) to -1.
        Remembered per table, so placing one template on many blocks
        merges its rows once."""
        # the entry holds other, so its id stays its own
        memo = self._merged.setdefault(id(other), [other, [], None])
        _, mapped, rows = memo
        if rows is None or len(mapped) < len(other.rows):
            mapped.extend(map(self.add, other.rows[len(mapped):]))
            rows = memo[2] = np.array(mapped + [-1], dtype=np.int64)
        return rows


class Circuit:
    """Ordered gates over num_qubits qubits, stored as columns (see the
    module docstring). Emitters append to a list buffer, so building a
    small circuit makes no per-gate numpy call; columns() joins the buffer
    and any placed blocks into one array when a reader asks for it."""

    __slots__ = ("num_qubits", "_params", "_chunks", "_buf")

    def __init__(self, num_qubits: int):
        self.num_qubits = num_qubits
        self._params = _ParamTable()
        self._chunks: list = []   # (4, m) int64 column blocks, read-only
        self._buf: list = []      # op, q0, q1, row of each gate emitted since

    @classmethod
    def _from_columns(cls, num_qubits: int, cols: np.ndarray,
                      params: _ParamTable) -> "Circuit":
        c = cls(num_qubits)
        c._params = params
        c._chunks = [cols]
        return c

    def _check_range(self, cols: np.ndarray) -> None:
        n = self.num_qubits
        op, q0, q1 = cols[0], cols[1], cols[2]
        out0 = (q0 < 0) | (q0 >= n)
        bad = np.flatnonzero(out0 | ((op == _CX) & ((q1 < 0) | (q1 >= n))))
        if len(bad):
            i = bad[0]
            q = q0[i] if out0[i] else q1[i]
            raise ValueError(f"gate index {int(q)} out of range")

    def _flush(self) -> None:
        if self._buf:
            self._chunks.append(
                np.array(self._buf, dtype=np.int64).reshape(-1, 4).T.copy())
            self._buf = []

    def columns(self) -> np.ndarray:
        """The read-only (4, size) int64 array of the op, q0, q1 and row
        columns."""
        self._flush()
        if len(self._chunks) != 1:
            self._chunks = [np.concatenate(self._chunks, axis=1)
                            if self._chunks
                            else np.empty((4, 0), dtype=np.int64)]
        cols = self._chunks[0]
        cols.flags.writeable = False
        return cols

    @property
    def param_rows(self) -> tuple:
        """The distinct (theta, phi, lam, gamma) rows the row column
        indexes."""
        return tuple(self._params.rows)

    @property
    def gates(self) -> "GateView":
        return GateView(self)

    @property
    def size(self) -> int:
        return sum(ch.shape[1] for ch in self._chunks) + len(self._buf) // 4

    def __eq__(self, other):
        """Column by column; parameters by value, as Gate tuples compare."""
        if not isinstance(other, Circuit):
            return NotImplemented
        ca, cb = self.columns(), other.columns()
        if (self.num_qubits != other.num_qubits or ca.shape != cb.shape
                or not np.array_equal(ca[:3], cb[:3])):
            return False
        u = ca[0] == _U
        pa = np.array(self._params.rows, dtype=float).reshape(-1, 4)
        pb = np.array(other._params.rows, dtype=float).reshape(-1, 4)
        return bool(np.array_equal(pa[ca[3, u]], pb[cb[3, u]]))

    __hash__ = None

    def __repr__(self) -> str:
        return f"Circuit({self.num_qubits}, size={self.size})"

    def extend(self, other: "Circuit") -> None:
        """Append other's gates: its columns are copied, not its gates."""
        cols = other.columns()
        if other.num_qubits > self.num_qubits:
            self._check_range(cols)
        rows = self._params.merge(other._params)
        cols = np.concatenate([cols[:3], rows[cols[3:]]])
        self._flush()
        self._chunks.append(cols)

    def u(self, target, theta, phi=0.0, lam=0.0, gamma=0.0):
        # operator.index refuses a float qubit instead of truncating it
        target = operator.index(target)
        if not 0 <= target < self.num_qubits:
            raise ValueError(f"gate index {target} out of range")
        self._buf.extend((_U, target, -1, self._params.add(
            (float(theta), float(phi), float(lam), float(gamma)))))

    def x(self, target):
        self.u(target, math.pi, 0.0, math.pi, 0.0)

    def ry(self, target, theta):
        self.u(target, theta)

    def phase(self, target, delta):
        self.u(target, 0.0, 0.0, delta)

    def cx(self, control, target):
        control, target = operator.index(control), operator.index(target)
        if control == target:
            raise ValueError("cnot control equals target")
        for q in (control, target):
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"gate index {q} out of range")
        self._buf.extend((_CX, control, target, -1))

    def swap(self, a, b):
        # SWAP = 3 CNOTs
        self.cx(a, b)
        self.cx(b, a)
        self.cx(a, b)


def _distinct(a: np.ndarray) -> np.ndarray:
    """The distinct values of a 1-D array, sorted. (np.unique would do,
    but its first call in a process imports numpy.ma.)"""
    a = np.sort(a)
    return a[np.concatenate(([True], a[1:] != a[:-1]))] if len(a) else a


_BLOCK = 4096   # gates whose columns are converted to Python ints at a time


def _gates(cols: np.ndarray, rows: list):
    for start in range(0, cols.shape[1], _BLOCK):
        block = cols[:, start:start + _BLOCK].tolist()
        for op, a, b, r in zip(*block):
            yield Gate("cx", (a, b), ()) if op else Gate("u", (a,), rows[r])


class GateView:
    """Read-only view of a circuit's gates as Gate tuples, each built as it
    is read. Two views compare as their circuits do."""

    __slots__ = ("_circuit",)

    def __init__(self, circuit: Circuit):
        self._circuit = circuit

    def __len__(self) -> int:
        return self._circuit.size

    def __getitem__(self, i: int) -> Gate:
        return next(_gates(self._circuit.columns()[:, [i]],
                           self._circuit._params.rows))

    def __iter__(self):
        return _gates(self._circuit.columns(), self._circuit._params.rows)

    def __eq__(self, other):
        if isinstance(other, GateView):
            return self._circuit == other._circuit
        return NotImplemented

    __hash__ = None


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
        return self.rows is None or _grid_edge(a, b, self.rows)


def _grid_edge(a, b, n1):
    """Whether vertices a < b (in range) of a grid with n1 rows are
    adjacent, on ints or elementwise on arrays. Consecutive numbers are
    adjacent (the numbering is a Hamiltonian path); otherwise only a cell
    in column c and its same-row neighbour in column c + 1, whose numbers
    sum to 2 (c + 1) n1 - 1."""
    return (b == a + 1) | (a + b == 2 * (a // n1 + 1) * n1 - 1)


def grid_index(row: int, col: int, n1: int) -> int:
    """Vertex number of grid cell (row, col) on a grid with n1 rows:
    boustrophedon column-major, so column 0 runs top-to-bottom, column 1
    bottom-to-top, etc., and consecutive numbers are always grid-adjacent
    (the numbering is a Hamiltonian path)."""
    if col % 2 == 0:
        return col * n1 + row
    return col * n1 + (n1 - 1 - row)


@dataclass(eq=False)
class DepthReport:
    """Greedy earliest-slot layering of a circuit: levels[i] is the layer
    of gate i."""

    depth: int
    size: int
    levels: np.ndarray

    @property
    def layers(self) -> list:
        """layers[l] lists, in gate order, the indices of the gates in
        layer l."""
        layers: list = [[] for _ in range(self.depth)]
        for idx, level in enumerate(self.levels.tolist()):
            layers[level].append(idx)
        return layers


def asap_layering(c: Circuit) -> DepthReport:
    """Greedy earliest-slot layering: each gate goes in the first layer
    after every earlier gate sharing one of its qubits. O(size) via
    per-qubit frontier levels, read from the qubit columns a block at a
    time. The frontier spans the qubits the gates touch, not the header's
    count, which may be far larger."""
    cols = c.columns()
    frontier = [0] * (int(cols[1:3].max(initial=-1)) + 1)
    levels = array.array("q")
    put = levels.append
    for start in range(0, cols.shape[1], _BLOCK):
        block = cols[1:3, start:start + _BLOCK].tolist()
        for a, b in zip(*block):
            level = frontier[a]
            if b >= 0:
                if frontier[b] > level:
                    level = frontier[b]
                frontier[b] = level + 1
            frontier[a] = level + 1
            put(level)
    return DepthReport(depth=max(frontier, default=0), size=len(levels),
                       levels=np.frombuffer(levels, dtype=np.int64))


def validate_connectivity(c: Circuit, g: ConnectivityGraph) -> list:
    """The gate indices of the CNOTs whose endpoints are not an edge of g,
    from has_edge's closed form evaluated on the CNOT columns at once."""
    if c.num_qubits != g.num_vertices:
        raise ValueError("qubit count mismatch")
    if g.rows is None:
        # a circuit's CNOTs join two distinct qubits in range: all edges
        return []
    cols = c.columns()
    cx = np.flatnonzero(cols[0] == _CX)
    a = np.minimum(cols[1, cx], cols[2, cx])
    b = np.maximum(cols[1, cx], cols[2, cx])
    return cx[~_grid_edge(a, b, g.rows)].tolist()


def compose(a: Circuit, b: Circuit) -> Circuit:
    if a.num_qubits != b.num_qubits:
        raise ValueError("incompatible qubit counts")
    out = Circuit(a.num_qubits)
    out.extend(a)
    out.extend(b)
    return out


def inverse(c: Circuit) -> Circuit:
    # U(theta,phi,lam,gamma)^dagger = U(-theta, -lam, -phi, -gamma): a
    # bijection on rows, so each row keeps its index
    params = _ParamTable((-theta, -lam, -phi, -gamma)
                         for theta, phi, lam, gamma in c._params.rows)
    return Circuit._from_columns(c.num_qubits, c.columns()[:, ::-1].copy(),
                                 params)


def remap_qubits(c: Circuit, perm, num_qubits: int | None = None) -> Circuit:
    """Relabel qubit q of c as perm[q]. perm is any indexable map (dict,
    list or range); it is checked once to map every qubit of c, injectively,
    into [0, num_qubits), so the relabelling is one gather of the qubit
    columns. The result shares c's parameter table."""
    n = c.num_qubits
    if isinstance(perm, dict):
        image_of = [perm.get(q, -1) for q in range(n)]
        perm = list(perm.values())
    else:
        image_of = perm[:n]
    ranked = np.sort(np.asarray(perm, dtype=np.int64).reshape(-1))
    if (ranked[1:] == ranked[:-1]).any():
        raise ValueError("qubit map is not injective")
    nq = num_qubits if num_qubits is not None else n
    if len(ranked) and not (0 <= ranked[0] and ranked[-1] < nq):
        raise ValueError("qubit map image out of range")
    # the images are in range now, so -1 marks a qubit without one; the
    # last entry maps the -1 of a single-qubit gate's q1 to itself
    table = np.append(np.asarray(image_of, dtype=np.int64), -1)
    if len(table) <= n or (table[:-1] < 0).any():
        raise ValueError("qubit map leaves a qubit of the circuit unmapped")
    cols = c.columns()
    out = np.empty_like(cols)
    out[0], out[3] = cols[0], cols[3]
    np.take(table, cols[1:3], out=out[1:3])
    return Circuit._from_columns(nq, out, c._params)


# --- text format -----------------------------------------------------------
# Header line QUBITS n, then one gate per line:
#   U q theta phi lam gamma
#   CX c t
# Floats use 17 significant digits so the round trip is bit-exact.


def dumps(c: Circuit) -> str:
    """The text format of c. Each qubit number and each parameter row is
    formatted once per call, and each gate's line joins two of those
    texts, a block of gates at a time."""
    cols = c.columns()
    qubits = _distinct(cols[1:3].ravel())
    qubits = qubits[qubits >= 0]
    # texts by position in qubits; a qubit's position is its searchsorted
    cx_head = np.array([f"CX {q} " for q in qubits.tolist()], dtype=object)
    u_head = np.array([f"U {q} " for q in qubits.tolist()], dtype=object)
    q_text = np.array([str(q) for q in qubits.tolist()], dtype=object)
    p_text = np.array(["%.17g %.17g %.17g %.17g" % p
                       for p in c._params.rows], dtype=object)
    blocks = [f"QUBITS {c.num_qubits}"]
    for start in range(0, cols.shape[1], _BLOCK):
        op, q0, q1, row = cols[:, start:start + _BLOCK]
        lines = np.empty(len(op), dtype=object)
        cx = op == _CX
        u = ~cx
        lines[cx] = (cx_head[np.searchsorted(qubits, q0[cx])]
                     + q_text[np.searchsorted(qubits, q1[cx])])
        lines[u] = u_head[np.searchsorted(qubits, q0[u])] + p_text[row[u]]
        blocks.append("\n".join(lines.tolist()))
    return "\n".join(blocks) + "\n"


def _text_blocks(text: str):
    """text in blocks of about _TEXT_BLOCK characters, each cut just after
    a newline, so no line (and no \\r\\n pair) spans two blocks."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _TEXT_BLOCK) + 1 or len(text)
        yield text[start:end]
        start = end


_TEXT_BLOCK = 1 << 18
_INT64 = range(-1 << 63, 1 << 63)
# the longest parameter text dumps writes: four %.17g words of at most 24
# characters ("-1.2345678901234567e-308") and the three spaces between them
_PARAM_WIDTH = 4 * 24 + 3


class _LineReader:
    """loads' line-by-line lane: the QUBITS header, comments, blank lines,
    and every line that is not in dumps' spelling or holds a fault, read
    with all of loads' checks but the final qubit range. It also parses
    each new parameter text of the bulk lane, in text order, so every
    error is the one a line-by-line reading raises first."""

    def __init__(self):
        self.num_qubits = None
        self.params = _ParamTable()
        self.row_of: dict = {}  # U parameter words, joined by spaces -> row

    def row(self, spelled: str) -> int:
        """The parameter row of a U line's four words, parsed and checked
        once per spelling."""
        row = self.row_of.get(spelled)
        if row is None:
            row = self.row_of[spelled] = self.params.add(
                tuple(map(float, spelled.split())))
        return row

    def gates(self, segment: str) -> list:
        """(op, q0, q1, row) of each gate line of segment, in order."""
        out = []
        for raw in segment.splitlines():
            tok = raw.split()
            head = tok[0] if tok else "#"
            if head == "U":
                if len(tok) != 6:
                    raise ValueError(
                        f"U takes a qubit and 4 parameters: {raw!r}")
                row = self.row(" ".join(tok[2:]))
                gate = (_U, int(tok[1]), -1, row)
            elif head == "CX":
                if len(tok) != 3:
                    raise ValueError(f"CX takes two qubits: {raw!r}")
                a, b = int(tok[1]), int(tok[2])
                if a == b:
                    raise ValueError("cnot control equals target")
                gate = (_CX, a, b, -1)
            elif head == "QUBITS":
                if self.num_qubits is not None:
                    raise ValueError("repeated QUBITS header")
                if len(tok) != 2 or int(tok[1]) < 1:
                    raise ValueError(
                        f"QUBITS needs one positive count: {raw!r}")
                self.num_qubits = int(tok[1])
                if self.num_qubits >> 63:
                    raise ValueError(f"QUBITS count outside int64: {raw!r}")
                continue
            elif head.startswith("#"):
                continue
            else:
                raise ValueError(f"unrecognized line: {raw!r}")
            if gate[1] not in _INT64 or gate[2] not in _INT64:
                raise ValueError(f"gate qubit outside int64: {raw!r}")
            out.append(gate)
        return out


def _digits(buf: np.ndarray, start: np.ndarray, end: np.ndarray) -> tuple:
    """The value of each nonempty field buf[start:end], and whether the
    field is at most 18 ASCII digits (so its value fits int64), read digit
    by digit from the right over all fields at once. Bytes left of a field
    read as 0; a negative index wraps into the end of buf, which is
    padding."""
    size = end - start
    j = np.arange(min(int(size.max(initial=0)), 18))[:, None]
    digit = (buf[end - 1 - j] - np.uint8(48)) * (j < size)
    ok = (size <= 18) & (digit <= 9).all(axis=0)
    return (digit * _POW10[:len(j)]).sum(axis=0), ok


_POW10 = 10 ** np.arange(18, dtype=np.int64)[:, None]
# _TEXT_MASK[s] keeps the first s bytes of a parameter text read as
# _PARAM_WORDS uint64 words
_PARAM_WORDS = -(-_PARAM_WIDTH // 8)
_TEXT_MASK = np.frombuffer(
    b"".join(b"\xff" * s + bytes(8 * _PARAM_WORDS - s)
             for s in range(_PARAM_WIDTH + 1)),
    dtype=np.uint64).reshape(_PARAM_WIDTH + 1, _PARAM_WORDS)


def _read_block(reader: _LineReader, data: bytes) -> np.ndarray:
    """The (4, m) columns of the gates in data, a block of text in UTF-8
    cut just after a newline. numpy reads the lines in dumps' spelling: U
    q theta phi lam gamma or CX c t, single spaces, printable ASCII, qubits
    of 1 to 18 digits, a parameter text of at most _PARAM_WIDTH bytes and
    a CNOT's control not its target. Their distinct parameter texts go to
    reader.row once each, and every other line to reader.gates, in text
    order."""
    size = len(data)
    # the padding ends the last line at buf[size] and keeps each line's
    # head and parameter window in bounds
    padded = data + b"\n" * (8 * _PARAM_WORDS)
    buf = np.frombuffer(padded, dtype=np.uint8)
    # every byte outside "!".."~": the spaces, the line ends and any other
    sep = np.flatnonzero(np.subtract(buf[:size + 1], 33, dtype=np.uint8) > 93)
    kind = buf[sep]
    eol = np.flatnonzero(kind == 10)     # the sep index of each line's end
    first = np.concatenate(([0], eol[:-1] + 1))   # ... and of its first
    ends = sep[eol]                      # line i is buf[starts[i]:ends[i]]
    starts = np.concatenate(([0], ends[:-1] + 1))
    # a line's words are nonempty and split by single spaces unless it
    # holds a separator other than a space or its end, or two adjacent
    # separators one of which is a space
    space = kind == 32
    odd = ~space & (kind != 10)
    odd[1:] |= (sep[1:] - sep[:-1] == 1) & (space[1:] | space[:-1])
    plain = np.ones(len(ends), dtype=bool)
    plain[np.searchsorted(eol, np.flatnonzero(odd))] = False
    spaces = eol - first
    u = np.flatnonzero(plain & (spaces == 5) & (buf[starts] == ord("U"))
                       & (buf[starts + 1] == 32))
    cx = np.flatnonzero(plain & (spaces == 2) & (buf[starts] == ord("C"))
                        & (buf[starts + 1] == ord("X"))
                        & (buf[starts + 2] == 32))
    # the end of the second word: a U line's qubit, a CNOT's control
    u_mid, cx_mid = sep[first[u] + 1], sep[first[cx] + 1]
    nu, ncx = len(u), len(cx)
    value, digits = _digits(
        buf, np.concatenate([starts[u] + 2, starts[cx] + 3, cx_mid + 1]),
        np.concatenate([u_mid, cx_mid, ends[cx]]))
    target, control, cx_target = (value[:nu], value[nu:nu + ncx],
                                  value[nu + ncx:])
    keep = digits[:nu] & (ends[u] - u_mid <= _PARAM_WIDTH + 1)
    u, target, u_mid = u[keep], target[keep], u_mid[keep]
    keep = (digits[nu:nu + ncx] & digits[nu + ncx:]
            & (control != cx_target))
    cx, control, cx_target = cx[keep], control[keep], cx_target[keep]
    # each parameter text as uint64 words, zeroed past its end, sorted
    # stably, so the first line of each distinct text opens its group
    p_start = u_mid + 1
    p_size = ends[u] - p_start
    words = -(-int(p_size.max(initial=1)) // 8)
    windows = np.ndarray((size + 1, 8 * words), np.uint8, padded,
                         strides=(1, 1))
    key = windows[p_start].view(np.uint64) & _TEXT_MASK[p_size, :words]
    order = np.lexsort(key.T)
    key = key[order]
    opens = np.ones(len(order), dtype=bool)
    opens[1:] = (key[1:] != key[:-1]).any(axis=1)
    text_id = np.empty(len(order), dtype=np.int64)
    text_id[order] = np.cumsum(opens) - 1
    firsts = order[opens]
    texts = [data[s:e].decode() for s, e in zip(p_start[firsts].tolist(),
                                                ends[u[firsts]].tolist())]
    bulk = np.zeros(len(ends), dtype=bool)
    bulk[u] = True
    bulk[cx] = True
    # the other lines, and the first line of each parameter text not read
    # before, in text order
    todo = sorted([*((i, None) for i in np.flatnonzero(~bulk).tolist()),
                   *((i, t) for i, t in zip(u[firsts].tolist(), texts)
                     if t not in reader.row_of)])
    count = bulk.astype(np.int64)   # gates per line
    read = {}
    for i, spelled in todo:
        if spelled is None:
            read[i] = reader.gates(
                data[starts[i]:ends[i]].decode("utf-8", "surrogatepass"))
            count[i] = len(read[i])
        else:
            reader.row(spelled)
    rows = np.array([reader.row_of[t] for t in texts], dtype=np.int64)
    at = np.cumsum(count) - count   # each line's first gate
    cols = np.full((4, int(count.sum())), -1, dtype=np.int64)
    pu, pc = at[u], at[cx]
    cols[0, pu], cols[1, pu], cols[3, pu] = _U, target, rows[text_id]
    cols[0, pc], cols[1, pc], cols[2, pc] = _CX, control, cx_target
    for i, gates in read.items():
        if gates:
            cols[:, at[i]:at[i] + len(gates)] = np.array(gates).T
    return cols


def loads(text: str) -> Circuit:
    """Parse the text format. Raises ValueError on a malformed line: a
    wrong operand count, a qubit outside [0, QUBITS) (or past int64), a
    non-finite U parameter, or a QUBITS header that is missing, repeated
    or not a positive int64. The text is read in blocks of about
    _TEXT_BLOCK characters. numpy reads a block's lines in dumps'
    spelling at once (_read_block), parsing each distinct parameter text
    once; every other line is read one by one, in text order, with the
    same checks (_LineReader), so any error is the one a line-by-line
    reading raises first."""
    reader = _LineReader()
    chunks = [_read_block(reader, block.encode("utf-8", "surrogatepass"))
              for block in _text_blocks(text)]
    if reader.num_qubits is None:
        raise ValueError("missing QUBITS header")
    num_qubits = reader.num_qubits
    cols = (np.concatenate(chunks, axis=1) if chunks
            else np.empty((4, 0), dtype=np.int64))
    qubits = np.concatenate([cols[1], cols[2, cols[0] == _CX]])
    if len(qubits) and (qubits.min() < 0 or qubits.max() >= num_qubits):
        raise ValueError(f"gate qubit outside [0, {num_qubits})")
    return Circuit._from_columns(num_qubits, cols, reader.params)
