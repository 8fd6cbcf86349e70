import array
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from dickesynth import circuit, cli
from dickesynth.circuit import (Circuit, ConnectivityGraph, Gate,
                                asap_layering, compose, dumps, gate_matrix,
                                grid_index, inverse, loads, remap_qubits,
                                validate_connectivity)
from dickesynth.synth import synth_alltoall, synth_grid
from dickesynth.verify import fidelity, simulate


def test_asap_empty():
    rep = asap_layering(Circuit(3))
    assert rep.depth == 0 and rep.size == 0


def test_asap_disjoint_supports_share_layer():
    c = Circuit(4)
    c.cx(0, 1)
    c.cx(2, 3)
    rep = asap_layering(c)
    assert rep.depth == 1 and rep.size == 2


def test_asap_hand_schedule():
    c = Circuit(4)
    c.cx(0, 1)
    c.cx(1, 2)
    c.cx(0, 3)
    rep = asap_layering(c)
    assert rep.depth == 2
    assert rep.layers == [[0], [1, 2]]


def _earliest_slot_layers(c):
    """O(size^2) oracle: a gate's level is 1 + the highest level of any
    earlier gate sharing a qubit with it."""
    level = []
    for i, g in enumerate(c.gates):
        level.append(1 + max((level[j] for j in range(i)
                              if set(g.qubits) & set(c.gates[j].qubits)),
                             default=0))
    layers = [[] for _ in range(max(level, default=0))]
    for i, lv in enumerate(level):
        layers[lv - 1].append(i)
    return layers


def test_asap_layers_cover_all_gates():
    rng = np.random.default_rng(7)
    c = Circuit(6)
    for _ in range(80):
        if rng.random() < 0.5:
            a, b = rng.choice(6, size=2, replace=False)
            c.cx(int(a), int(b))
        else:
            c.u(int(rng.integers(6)), *rng.uniform(-math.pi, math.pi, 4))
    rep = asap_layering(c)
    assert rep.layers == _earliest_slot_layers(c)
    assert rep.depth == len(rep.layers) and rep.size == 80


def test_layering_preserves_semantics():
    rng = np.random.default_rng(3)
    c = Circuit(6)
    for _ in range(60):
        if rng.random() < 0.5:
            a, b = rng.choice(6, size=2, replace=False)
            c.cx(int(a), int(b))
        else:
            c.u(int(rng.integers(6)), *rng.uniform(-math.pi, math.pi, 4))
    rep = asap_layering(c)
    # the gates' text lines, layer by layer
    lines = dumps(c).splitlines()
    relay = loads("\n".join([lines[0], *(lines[i + 1] for layer in rep.layers
                                         for i in layer)]))
    assert relay.size == c.size
    assert fidelity(simulate(c), simulate(relay)) > 1 - 1e-12


def test_validate_connectivity_path():
    g = ConnectivityGraph.path(3)
    ok = Circuit(3)
    ok.cx(0, 1)
    assert validate_connectivity(ok, g) == []
    bad = Circuit(3)
    bad.cx(0, 2)
    violations = validate_connectivity(bad, g)
    assert violations == [0] and len(violations) == 1


def test_single_qubit_gates_always_legal():
    g = ConnectivityGraph.path(3)
    c = Circuit(3)
    c.x(0)
    c.ry(2, 0.3)
    assert validate_connectivity(c, g) == []


def test_validate_connectivity_size_mismatch():
    with pytest.raises(ValueError):
        validate_connectivity(Circuit(3), ConnectivityGraph.path(4))


def test_grid_graph_structure():
    g = ConnectivityGraph.grid(2, 3)
    assert g.num_vertices == 6
    # each vertex degree 2 or 3 on a 2x3 grid; 7 edges total
    assert sum(g.has_edge(a, b)
               for a in range(6) for b in range(a + 1, 6)) == 7
    assert ConnectivityGraph.path(5).topology_tag == "path"
    kn = ConnectivityGraph.complete(5)
    assert all(kn.has_edge(i, j) for i in range(5) for j in range(5) if i != j)
    assert not kn.has_edge(2, 2)
    assert not kn.has_edge(0, 5)


def _grid_edges(n1, n2):
    """Oracle: the explicit edge set of an n1 x n2 grid, one edge per pair
    of row or column neighbours, numbered by grid_index."""
    edges = set()
    for r in range(n1):
        for c in range(n2):
            v = grid_index(r, c, n1)
            if c + 1 < n2:
                edges.add(frozenset((v, grid_index(r, c + 1, n1))))
            if r + 1 < n1:
                edges.add(frozenset((v, grid_index(r + 1, c, n1))))
    return edges


def _assert_edges(g, edges):
    # every ordered pair, self pairs and one step out of range included
    n = g.num_vertices
    for a in range(-1, n + 1):
        for b in range(-1, n + 1):
            assert g.has_edge(a, b) == (frozenset((a, b)) in edges), (a, b)


def test_has_edge_matches_grid_edge_set():
    for n1 in range(1, 7):
        for n2 in range(n1, 11):
            g = ConnectivityGraph.grid(n1, n2)
            assert g.num_vertices == n1 * n2
            _assert_edges(g, _grid_edges(n1, n2))


def test_has_edge_matches_path_edge_set():
    for n in range(1, 17):
        _assert_edges(ConnectivityGraph.path(n), _grid_edges(1, n))


def test_has_edge_matches_complete_edge_set():
    for n in range(1, 9):
        edges = {frozenset((a, b)) for a in range(n) for b in range(a + 1, n)}
        _assert_edges(ConnectivityGraph.complete(n), edges)


@pytest.mark.parametrize("make", [
    lambda: ConnectivityGraph.grid(0, 5),
    lambda: ConnectivityGraph.grid(5, 0),
    lambda: ConnectivityGraph.grid(-1, 3),
    lambda: ConnectivityGraph.path(0),
    lambda: ConnectivityGraph.complete(0),
    lambda: ConnectivityGraph.complete(-2),
], ids=["grid-0x5", "grid-5x0", "grid-neg", "path-0", "complete-0",
        "complete-neg"])
def test_constructors_refuse_empty_shapes(make):
    with pytest.raises(ValueError):
        make()


def test_gate_matrix_finite_unitary_at_huge_parameters():
    # phi + lam overflows to inf here; each phase alone stays finite
    big = 1.7e308
    for signs in np.ndindex(2, 2, 2, 2):
        params = [big if s else -big for s in signs]
        m = gate_matrix(params)
        assert np.isfinite(m).all(), params
        assert np.allclose(m @ m.conj().T, np.eye(2)), params


def test_cnot_self_inverse():
    c = Circuit(2)
    c.cx(0, 1)
    inv = inverse(c)
    assert list(inv.gates) == [("cx", (0, 1), ())]


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(11)
    c = Circuit(4)
    for _ in range(25):
        if rng.random() < 0.5:
            a, b = rng.choice(4, size=2, replace=False)
            c.cx(int(a), int(b))
        else:
            c.u(int(rng.integers(4)), *rng.uniform(-math.pi, math.pi, 4))
    roundtrip = compose(c, inverse(c))
    out = simulate(roundtrip)
    ref = np.zeros(16, dtype=complex)
    ref[0] = 1.0
    assert fidelity(out, ref) > 1 - 1e-12


def test_double_inverse_gate_equivalent():
    c = Circuit(2)
    c.u(0, 0.3, 0.5, -0.2, 0.1)
    c.cx(0, 1)
    again = inverse(inverse(c))
    assert fidelity(simulate(c, 2), simulate(again, 2)) > 1 - 1e-12


def test_remap_qubits():
    c = Circuit(2)
    c.cx(0, 1)
    out = remap_qubits(c, {0: 2, 1: 5}, num_qubits=6)
    assert list(out.gates) == [("cx", (2, 5), ())]
    for perm, n, want in [([3, 1], 4, (3, 1)), (range(4, 6), 6, (4, 5)),
                          ({0: 1, 1: 0}, None, (1, 0))]:
        assert list(remap_qubits(c, perm, n).gates) == [("cx", want, ())]
    # relabelled gates read as immutable Gate values, equal to plain tuples
    c.u(1, 0.5, 0.25, -0.5, 0.0)
    out = remap_qubits(c, [4, 2], num_qubits=5)
    direct = [("cx", (4, 2), ()), ("u", (2,), (0.5, 0.25, -0.5, 0.0))]
    assert list(out.gates) == direct
    for g, d in zip(out.gates, direct):
        assert type(g) is Gate and hash(g) == hash(d)
        with pytest.raises(AttributeError):
            g.kind = "u"
    with pytest.raises(ValueError):
        remap_qubits(c, {0: 1, 1: 1})
    with pytest.raises(ValueError):
        remap_qubits(c, range(1, 3))  # image 2 outside a 2-qubit circuit
    with pytest.raises(ValueError, match="unmapped"):
        remap_qubits(c, {0: 1})  # qubit 1 has no image
    with pytest.raises(ValueError, match="unmapped"):
        remap_qubits(c, [1])


def test_gate_invariants():
    # the emitters write no gate that would dump as a line loads rejects
    c = Circuit(2)
    with pytest.raises(ValueError, match="control equals target"):
        c.cx(1, 1)
    with pytest.raises(ValueError):
        c.cx(0, 5)
    with pytest.raises(ValueError):
        c.swap(1, 2)
    assert c.size == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_emitters_refuse_non_finite_parameters(bad):
    # dumps would write such a row as text that loads refuses
    c = Circuit(2)
    c.u(0, 0.5)
    for emit in (lambda: c.u(1, 0.5, bad), lambda: c.ry(0, bad),
                 lambda: c.phase(1, bad), lambda: c.u(0, 0.5, 0, 0, bad)):
        with pytest.raises(ValueError, match="non-finite"):
            emit()
    assert c.size == 1 and c.param_rows == ((0.5, 0.0, 0.0, 0.0),)


def test_huge_finite_parameters_round_trip():
    big = 1.7e308
    c = Circuit(1)
    c.u(0, big, -big, big, -big)
    c.u(0, big, -big, big, -big)
    text = dumps(c)
    back = loads(text)
    assert back.gates == c.gates and dumps(back) == text


def test_text_format_roundtrip_bit_exact():
    c = Circuit(3)
    c.u(0, 0.1234567890123456789, -2.5, math.pi, 1e-17)
    c.cx(0, 2)
    c.x(1)
    text = dumps(c)
    back = loads(text)
    assert back.num_qubits == 3
    assert back.gates == c.gates
    assert dumps(back) == text


def test_loads_rejects_garbage():
    with pytest.raises(ValueError):
        loads("QUBITS 2\nBOGUS 1 2\n")
    with pytest.raises(ValueError):
        loads("CX 0 1\n")  # missing header
    with pytest.raises(ValueError):
        loads("QUBITS 0\n")
    with pytest.raises(ValueError):
        loads("QUBITS 2\nQUBITS 2\nCX 0 1\n")


def test_dumps_keeps_signed_zeros():
    c = Circuit(1)
    c.u(0, 0.0)
    c.extend(inverse(c))
    text = dumps(c)
    assert text == "QUBITS 1\nU 0 0 0 0 0\nU 0 -0 -0 -0 -0\n"
    back = loads(text)
    assert back.gates == c.gates
    assert dumps(back) == text  # == cannot tell 0.0 from -0.0; the text can


def test_loads_checks_every_distinct_line_and_shares_repeats():
    with pytest.raises(ValueError, match="U takes a qubit"):
        loads("QUBITS 2\nU 0 1 2 3\nU 0 1 2 3\n")
    with pytest.raises(ValueError, match="outside"):
        loads("QUBITS 2\nCX 0 9\nCX 0 9\n")
    back = loads("QUBITS 2\nCX 0 1\nU 1 0.5 0 0 0\nCX 0 1\nU 1 0.5 0 0 0\n")
    # the one distinct U line is one parameter row, and both its gates
    # point at it
    assert back.param_rows == ((0.5, 0.0, 0.0, 0.0),)
    assert back.columns()[3].tolist() == [-1, 0, -1, 0]
    assert list(back.gates) == [("cx", (0, 1), ()),
                                ("u", (1,), (0.5, 0.0, 0.0, 0.0))] * 2


def test_constructor_checks_qubit_range():
    # a gate outside [0, n) would dump as text that loads refuses
    c = Circuit(2)
    with pytest.raises(ValueError, match="gate index 5 out of range"):
        c.cx(0, 5)
    with pytest.raises(ValueError, match="gate index -1 out of range"):
        c.u(-1, 0.5)
    wide = Circuit(6)
    wide.cx(0, 5)
    with pytest.raises(ValueError, match="gate index 5 out of range"):
        c.extend(wide)
    # a wider circuit whose gates all lie in range is taken whole
    narrow = Circuit(6)
    narrow.cx(1, 0)
    narrow.u(1, 0.5)
    c.extend(narrow)
    assert c.size == 2 and loads(dumps(c)).gates == c.gates


@pytest.mark.parametrize("emit", [lambda c: c.u(1.5, 0.3),
                                  lambda c: c.cx(0.7, 2),
                                  lambda c: c.cx(0, 2.0),
                                  lambda c: c.x(np.float64(1.0))])
def test_emitters_refuse_float_qubits(emit):
    # int64 columns would truncate a float qubit to a different gate
    c = Circuit(3)
    with pytest.raises(TypeError):
        emit(c)
    assert c.size == 0


def test_emitters_take_numpy_integer_qubits():
    c = Circuit(3)
    c.u(np.int64(1), 0.5)
    c.cx(np.int32(0), np.uint8(2))
    assert dumps(c) == "QUBITS 3\nU 1 0.5 0 0 0\nCX 0 2\n"


def _random_circuit(n, size, seed):
    rng = np.random.default_rng(seed)
    c = Circuit(n)
    for _ in range(size):
        if rng.random() < 0.5:
            a, b = rng.choice(n, size=2, replace=False)
            c.cx(int(a), int(b))
        else:
            # a few parameter rows, so lines repeat as in placed templates
            c.u(int(rng.integers(n)), *rng.choice([0.5, -1.25, math.pi], 4))
    return c


@pytest.mark.parametrize("bad,message", [
    ("U 0 1 2 3", "U takes a qubit and 4 parameters"),
    ("U 0 1 2 3 4 5", "U takes a qubit and 4 parameters"),
    ("U", "U takes a qubit and 4 parameters"),
    ("CX 0", "CX takes two qubits"),
    ("CX 0 1 2", "CX takes two qubits"),
    ("U 4 0.5 0 0 0", "gate qubit outside [0, 4)"),
    ("CX 0 9", "gate qubit outside [0, 4)"),
    ("CX -1 2", "gate qubit outside [0, 4)"),
    ("U 0 inf 0 0 0", "non-finite U parameter"),
    ("U 0 0.5 0 nan 0", "non-finite U parameter"),
    ("QUBITS 4", "repeated QUBITS header"),
    ("BOGUS 1 2", "unrecognized line"),
])
def test_loads_error_does_not_depend_on_the_lines_before(bad, message):
    valid = dumps(_random_circuit(4, 5000, 1)).splitlines()
    assert valid[0] == "QUBITS 4" and len(valid) == 5001

    def error(text):
        with pytest.raises(ValueError) as info:
            loads(text)
        return str(info.value)

    alone = error("\n".join(["QUBITS 4", bad]))
    assert message in alone
    assert error("\n".join([*valid, bad])) == alone


@pytest.mark.parametrize("header,message", [
    (None, "missing QUBITS header"),
    ("QUBITS 0", "QUBITS needs one positive count"),
    ("QUBITS -3", "QUBITS needs one positive count"),
    ("QUBITS", "QUBITS needs one positive count"),
])
def test_loads_header_error_does_not_depend_on_the_lines_before(header,
                                                                message):
    # the gate lines come first: a header may stand anywhere
    gates = dumps(_random_circuit(4, 5000, 2)).splitlines()[1:]
    tail = [] if header is None else [header]
    errors = []
    for before in ([gates[0]], gates):
        with pytest.raises(ValueError) as info:
            loads("\n".join([*before, *tail]))
        errors.append(str(info.value))
    assert message in errors[0] and errors[1] == errors[0]


def test_placed_signed_zeros_keep_their_spelling():
    # two templates differ only in the sign of a zero in one parameter
    # slot: the parameter table tells them apart by bits, not by ==
    plus, minus = Circuit(1), Circuit(1)
    plus.u(0, 0.0, 0.25)
    minus.u(0, -0.0, 0.25)
    c = Circuit(2)
    c.extend(remap_qubits(plus, [0], 2))
    c.extend(remap_qubits(minus, [1], 2))
    c.extend(remap_qubits(plus, [1], 2))
    assert len(c.param_rows) == 2
    text = dumps(c)
    assert text == ("QUBITS 2\nU 0 0 0.25 0 0\nU 1 -0 0.25 0 0\n"
                    "U 1 0 0.25 0 0\n")
    back = loads(text)
    assert len(back.param_rows) == 2
    assert dumps(back) == text


@pytest.mark.parametrize("graph", [
    ConnectivityGraph.complete(7), ConnectivityGraph.path(9),
    ConnectivityGraph.grid(3, 5), ConnectivityGraph.grid(4, 4),
    ConnectivityGraph.grid(2, 9)], ids=lambda g: g.topology_tag)
def test_validate_connectivity_matches_has_edge(graph):
    n = graph.num_vertices
    rng = np.random.default_rng(n)
    c = Circuit(n)
    want = []
    for i in range(300):
        if rng.random() < 0.2:
            c.u(int(rng.integers(n)), 0.5)
            continue
        a, b = (int(q) for q in rng.choice(n, size=2, replace=False))
        if rng.random() < 0.5 and graph.rows is not None:
            # half of the grid CNOTs on a neighbour, so both verdicts occur
            b = a + 1 if a + 1 < n else a - 1
        c.cx(a, b)
        if not graph.has_edge(a, b):
            want.append(i)
    got = validate_connectivity(c, graph)
    assert got == want
    if graph.rows is not None:
        assert 0 < len(want) < c.size


@pytest.mark.parametrize("make,graph", [
    (lambda: synth_alltoall(64, 4)[0], ConnectivityGraph.complete(64)),
    (lambda: synth_grid(4, 6, 3)[0], ConnectivityGraph.grid(4, 6))],
    ids=["complete", "grid"])
def test_gates_view_reader_contract(make, graph):
    # what the benchmark pipeline reads from a circuit: the gates' kinds
    # and count, view equality across a text round trip, and the result
    # of validate_connectivity under len() and == []
    c = make()
    kinds = [g.kind for g in c.gates]
    assert set(kinds) == {"u", "cx"} and len(kinds) == c.size == len(c.gates)
    text = dumps(c)
    assert loads(text).gates == c.gates
    off = validate_connectivity(c, graph)
    assert off == [] and len(off) == 0
    # one edited parameter row, then one edited qubit
    lines = text.splitlines()
    at = next(i for i, line in enumerate(lines) if line.startswith("U "))
    words = lines[at].split()
    words[2] = repr(float(words[2]) + 0.5)
    other_row = [*lines[:at], " ".join(words), *lines[at + 1:]]
    at = next(i for i, line in enumerate(lines) if line.startswith("CX "))
    a, b = map(int, lines[at].split()[1:])
    q = max(set(range(c.num_qubits)) - {a, b})
    other_qubit = [*lines[:at], f"CX {a} {q}", *lines[at + 1:]]
    for edited in (other_row, other_qubit):
        assert loads("\n".join(edited)).gates != c.gates
    off = validate_connectivity(loads("\n".join(other_qubit)), graph)
    assert len(off) == (not graph.has_edge(a, q))
    assert (off == []) == graph.has_edge(a, q)


# --- loads against a line-by-line reference ----------------------------------

def _reference_loads(text: str) -> Circuit:
    """loads as it was before the bulk lane: one Python step per line and
    a memo of the distinct lines. (It read the text in blocks of lines,
    which bounds its memory and changes no result.)"""
    num_qubits = None
    params = circuit._ParamTable()
    row_of: dict = {}    # the four parameter words of a U line -> its row
    code_of: dict = {}   # distinct gate line -> its index in distinct
    distinct = array.array("q")  # op, q0, q1, row of each distinct line
    codes = array.array("q")
    put = codes.append
    for raw in text.splitlines():
        code = code_of.get(raw)
        if code is not None:
            put(code)
            continue
        tok = raw.split()
        head = tok[0] if tok else "#"
        if head == "U":
            if len(tok) != 6:
                raise ValueError(f"U takes a qubit and 4 parameters: {raw!r}")
            spelled = tuple(tok[2:])
            row = row_of.get(spelled)
            if row is None:
                row = row_of[spelled] = params.add(tuple(map(float, spelled)))
            gate = (circuit._U, int(tok[1]), -1, row)
        elif head == "CX":
            if len(tok) != 3:
                raise ValueError(f"CX takes two qubits: {raw!r}")
            a, b = int(tok[1]), int(tok[2])
            if a == b:
                raise ValueError("cnot control equals target")
            gate = (circuit._CX, a, b, -1)
        elif head == "QUBITS":
            if num_qubits is not None:
                raise ValueError("repeated QUBITS header")
            if len(tok) != 2 or int(tok[1]) < 1:
                raise ValueError(f"QUBITS needs one positive count: {raw!r}")
            num_qubits = int(tok[1])
            if num_qubits >> 63:
                raise ValueError(f"QUBITS count outside int64: {raw!r}")
            continue
        elif head.startswith("#"):
            continue
        else:
            raise ValueError(f"unrecognized line: {raw!r}")
        try:
            distinct.extend(gate)
        except OverflowError as e:
            raise ValueError(f"gate qubit outside int64: {raw!r}") from e
        code = code_of[raw] = len(code_of)
        put(code)
    if num_qubits is None:
        raise ValueError("missing QUBITS header")
    table = np.frombuffer(distinct, dtype=np.int64).reshape(-1, 4).T
    qubits = np.concatenate([table[1], table[2, table[0] == circuit._CX]])
    if len(qubits) and (qubits.min() < 0 or qubits.max() >= num_qubits):
        raise ValueError(f"gate qubit outside [0, {num_qubits})")
    return Circuit._from_columns(
        num_qubits, table[:, np.frombuffer(codes, dtype=np.int64)], params)


def _read_both(text: str):
    """loads and _reference_loads on text: each one's circuit, or its
    ValueError's message."""
    out = []
    for read in (loads, _reference_loads):
        try:
            out.append(read(text))
        except ValueError as e:
            out.append(str(e))
    return out


def _assert_same_circuit(got: Circuit, want: Circuit) -> None:
    assert got.num_qubits == want.num_qubits
    assert np.array_equal(got.columns(), want.columns())
    # bit for bit, so 0.0 and -0.0 differ
    assert (np.array(got.param_rows, dtype=float).tobytes()
            == np.array(want.param_rows, dtype=float).tobytes())
    assert dumps(got) == dumps(want)


def _pinned_builders() -> dict:
    """The builders of the circuits whose dumps sha256 test_synth.py pins,
    read from that file by path, so the two lists cannot drift apart."""
    spec = importlib.util.spec_from_file_location(
        "_pinned_dumps", Path(__file__).with_name("test_synth.py"))
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    return {case: build for case, (build, _) in
            [*pins.DUMPS_SHA256.items(), *pins.UNARY_DIVIDE_SHA256.items()]}


PINNED_BUILDERS = _pinned_builders()


@pytest.mark.parametrize("case", list(PINNED_BUILDERS))
def test_loads_matches_reference_on_pinned_texts(case):
    text = dumps(PINNED_BUILDERS[case]())
    got, want = loads(text), _reference_loads(text)
    _assert_same_circuit(got, want)
    assert dumps(got) == text


def _assert_numpy_reads(monkeypatch, text):
    """loads(text), checking that the line reader read only its first
    line: numpy read every block after it."""
    read, gates = [], circuit._LineReader.gates

    def spy(reader, segment):
        read.append(segment)
        return gates(reader, segment)

    monkeypatch.setattr(circuit._LineReader, "gates", spy)
    loads(text)
    assert read == [text[:text.index("\n") + 1]]


@pytest.mark.parametrize("case", list(PINNED_BUILDERS))
def test_loads_reads_pinned_texts_with_numpy(monkeypatch, case):
    _assert_numpy_reads(monkeypatch, dumps(PINNED_BUILDERS[case]()))


def test_loads_reads_synth_stdout_with_numpy(monkeypatch, capsys):
    # stdout ends in the plan report as # comments with doubled spaces
    assert cli.main(["synth", "--topology", "complete", "--n", "1024",
                     "--k", "8"]) == 0
    text = capsys.readouterr().out
    assert "\n# " in text and len(list(circuit._text_blocks(text))) > 2
    _assert_numpy_reads(monkeypatch, text)


def test_loads_parses_each_parameter_text_once(monkeypatch):
    # (1024,8) repeats most of its parameter texts across blocks: a text an
    # earlier block parsed is looked up, not handed to reader.row again
    text = dumps(synth_alltoall(1024, 8)[0])
    assert len(list(circuit._text_blocks(text))) > 2
    parsed, row = [], circuit._LineReader.row

    def spy(reader, spelled):
        parsed.append(spelled)
        return row(reader, spelled)

    monkeypatch.setattr(circuit._LineReader, "row", spy)
    got = loads(text)
    assert len(parsed) == len(set(parsed)) == len(got.param_rows)


def _qubit_edit(respell):
    """An edit that respells the qubit of a U line."""
    def edit(lines, i):
        words = lines[i].split(" ")
        words[1] = respell(words[1])
        lines[i] = " ".join(words)
    edit.head = "U"
    return edit


def _word_edit(at, word, head="U"):
    """An edit that replaces word number at of a line starting with head."""
    def edit(lines, i):
        words = lines[i].split(" ")
        words[at] = word
        lines[i] = " ".join(words)
    edit.head = head
    return edit


def _line_edit(change, head=""):
    """An edit that replaces line i (a gate line starting with head) by
    the lines change(line) returns."""
    def edit(lines, i):
        lines[i:i + 1] = change(lines[i])
    edit.head = head
    return edit


def _join_edit(sep):
    """An edit that joins line i and the next with sep instead of \\n."""
    def edit(lines, i):
        lines[i:i + 2] = [lines[i] + sep + lines[i + 1]]
    edit.head = ""
    return edit


def _move_header(lines, i):
    lines.insert(i, lines.pop(0))


_move_header.head = ""

_ARABIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
LOADS_EDITS = {
    "tab": _line_edit(lambda s: [s.replace(" ", "\t", 1)]),
    "doubled space": _line_edit(lambda s: [s.replace(" ", "  ", 1)]),
    "leading space": _line_edit(lambda s: [" " + s]),
    "trailing space": _line_edit(lambda s: [s + " "]),
    "crlf": _line_edit(lambda s: [s + "\r"]),
    "cr": _join_edit("\r"),
    "vertical tab": _join_edit("\x0b"),
    "form feed": _join_edit("\x0c"),
    "plus sign": _qubit_edit(lambda q: "+" + q),
    "leading zeros": _qubit_edit(lambda q: "00" + q),
    "underscore": _qubit_edit(lambda q: q[0] + "_" + q[1:] if len(q) > 1
                              else "0_" + q),
    "arabic digits": _qubit_edit(lambda q: q.translate(_ARABIC)),
    "18 digits": _qubit_edit(lambda q: q.zfill(18)),
    "19 digits": _qubit_edit(lambda q: q.zfill(19)),
    "19-digit qubit": _qubit_edit(lambda q: "1" + "0" * 18),
    "qubit past int64": _qubit_edit(lambda q: "9" * 20),
    "negative qubit": _qubit_edit(lambda q: "-" + q),
    "inf": _word_edit(2, "inf"),
    "nan": _word_edit(4, "nan"),
    "1e999": _word_edit(5, "1e999"),
    "bad float": _word_edit(3, "0.5x"),
    "non-ASCII float": _word_edit(3, "٣.٥"),
    "unicode minus": _word_edit(2, "−0.5"),
    "fullwidth digit": _word_edit(5, "１"),
    "long float": _word_edit(2, "0." + "0" * 120 + "1"),
    "U operand count": _line_edit(lambda s: [s + " 0"], "U"),
    "cnot on one qubit": _line_edit(lambda s: ["CX 2 2"]),
    "cnot past int64": _word_edit(2, "9" * 19, "CX"),
    "cnot with letters": _word_edit(1, "1a", "CX"),
    "lower case": _line_edit(lambda s: [s.lower()], "CX"),
    "comment line": _line_edit(lambda s: ["# a comment", s]),
    "commented gate": _line_edit(lambda s: ["#" + s]),
    "trailing comment": _line_edit(lambda s: [s + " # note"]),
    "blank lines": _line_edit(lambda s: ["", s, "   ", ""]),
    "header mid-text": _move_header,
    "repeated header": _line_edit(lambda s: [s, "QUBITS 256"]),
    "nul byte": _line_edit(lambda s: [s.replace(" ", "\0", 1)]),
    "lone surrogate": _line_edit(lambda s: [s + " \udc80"]),
    "odd comment": _line_edit(lambda s: ["#  plan  é", s]),
    "cr for a space": _line_edit(lambda s: ["\r".join(s.rsplit(" ", 1))]),
    # the operand count of a gate line, but one operand empty
    "empty word": _line_edit(lambda s: [s.rsplit(" ", 1)[0].replace(
        " ", "  ", 1)]),
}


def _loads_corpus_base():
    text = dumps(synth_grid(16, 16, 8)[0])
    lines = text.splitlines()
    # the first line of each block but the first
    cuts = np.cumsum([len(block.splitlines())
                      for block in circuit._text_blocks(text)])[:-1]
    return lines, cuts.tolist()


@pytest.mark.parametrize("name", list(LOADS_EDITS))
def test_loads_matches_reference_on_edited_texts(name):
    lines, cuts = _loads_corpus_base()
    assert len(cuts) >= 2   # the text spans at least three blocks
    edit = LOADS_EDITS[name]
    rng = np.random.default_rng(sum(map(ord, name)))
    fits = [i for i, line in enumerate(lines[:-1])
            if i and line.startswith(edit.head)]
    # a line at random, and the lines on each side of each block cut
    near = [i for c in cuts for i in (c - 1, c) if i in set(fits)]
    for i in [int(rng.choice(fits)), *near]:
        edited = list(lines)
        edit(edited, i)
        got, want = _read_both("\n".join(edited) + "\n")
        if isinstance(want, str):
            assert got == want
        else:
            _assert_same_circuit(got, want)


@pytest.mark.parametrize("first,second", [
    ("inf", "cnot on one qubit"), ("repeated header", "bad float"),
    ("qubit past int64", "negative qubit"), ("negative qubit", "nan"),
    ("cr", "commented gate")])
def test_loads_reports_the_first_fault_in_text_order(first, second):
    lines, cuts = _loads_corpus_base()
    rng = np.random.default_rng(7)
    edits = []
    for name, (lo, hi) in ((second, (cuts[-1], len(lines) - 1)),
                           (first, (1, cuts[0]))):
        edit = LOADS_EDITS[name]
        edits.append((edit, int(rng.choice(
            [i for i in range(lo, hi) if lines[i].startswith(edit.head)]))))
    edited = list(lines)
    for edit, i in edits:   # the later edit first, so i stays valid
        edit(edited, i)
    got, want = _read_both("\n".join(edited))
    if isinstance(want, str):
        assert got == want
    else:
        _assert_same_circuit(got, want)
