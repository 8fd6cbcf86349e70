import math
import time

import numpy as np
import pytest

from dickesynth import cli as cli_module
from dickesynth import synth as synth_module
from dickesynth.circuit import ConnectivityGraph, loads, validate_connectivity
from dickesynth.cli import main
from dickesynth.lightcone import audit_lower_bound
from dickesynth.verify import dicke_reference, fidelity, simulate


def run(argv):
    return main(argv)


# --- synth ----------------------------------------------------------------------


def test_synth_writes_circuit_and_plan(tmp_path):
    out = tmp_path / "c.qc"
    assert run(["synth", "--topology", "complete", "--n", "8", "--k", "2",
                "--out", str(out)]) == 0
    circuit = loads(out.read_text())
    assert circuit.num_qubits == 8
    assert (tmp_path / "c.qc.plan").read_text().startswith("plan topology=")


def test_synth_stdout_with_plan_comments(capsys):
    assert run(["synth", "--topology", "grid", "3x4", "--k", "2"]) == 0
    text = capsys.readouterr().out
    assert text.startswith("QUBITS 12")
    assert "# plan topology=grid" in text


def test_synth_rejects_large_k():
    assert run(["synth", "--topology", "complete", "--n", "8", "--k", "7"]) == 2


def test_synth_unwritable_out_is_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.qc"
    assert run(["synth", "--topology", "complete", "--n", "8", "--k", "2",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "internal" not in err


def test_synth_rejects_contradictory_n():
    assert run(["synth", "--topology", "grid", "2x3", "--n", "7",
                "--k", "1"]) == 2


def test_synth_symmetric(tmp_path, monkeypatch):
    calls = []
    real = synth_module._synthesize

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(synth_module, "_synthesize", counting)
    monkeypatch.setattr(cli_module, "_synthesize", counting)
    amp = tmp_path / "alpha.txt"
    a = 1 / math.sqrt(3)
    amp.write_text(f"{a} 0\n{a} 0\n{a} 0\n")
    out = tmp_path / "s.qc"
    assert run(["synth", "--topology", "complete", "--n", "6", "--k", "2",
                "--symmetric", str(amp), "--out", str(out)]) == 0
    assert len(calls) == 1  # circuit and plan come from one synthesis
    circuit = loads(out.read_text())
    state = simulate(circuit, 0)
    target = sum(a * dicke_reference(6, ell) for ell in range(3))
    assert fidelity(state, target) > 1 - 1e-8


def test_synth_symmetric_rejects_unnormalized(tmp_path):
    amp = tmp_path / "alpha.txt"
    amp.write_text("1 0\n1 0\n1 0\n")
    assert run(["synth", "--topology", "complete", "--n", "6", "--k", "2",
                "--symmetric", str(amp)]) == 2


@pytest.mark.parametrize("text", ["0.5 abc\n0.5 0\n0.5 0\n", None,
                                  b"\xff 0\n0.5 0\n0.5 0\n"])
def test_synth_symmetric_unreadable_amplitudes(tmp_path, capsys, text):
    amp = tmp_path / "alpha.txt"  # None: the file does not exist
    if isinstance(text, bytes):
        amp.write_bytes(text)     # not UTF-8
    elif text is not None:
        amp.write_text(text)
    assert run(["synth", "--topology", "complete", "--n", "6", "--k", "2",
                "--symmetric", str(amp)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("text", ["nan 0\n1 0\n0 0\n", "1 0\n0 nan\n0 0\n",
                                  "inf 0\n0 0\n0 0\n", "0 0\n0 -inf\n1 0\n"])
def test_synth_symmetric_rejects_non_finite(tmp_path, capsys, text):
    # NaN slips past a plain |norm - 1| > tol test
    amp = tmp_path / "alpha.txt"
    amp.write_text(text)
    out = tmp_path / "s.qc"
    assert run(["synth", "--topology", "complete", "--n", "6", "--k", "2",
                "--symmetric", str(amp), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: non-finite amplitude")
    assert not out.exists()


# --- verify ---------------------------------------------------------------------


def synth_file(tmp_path, topology, n, k):
    out = tmp_path / "c.qc"
    args = ["synth", "--topology"] + topology + ["--k", str(k),
                                                 "--out", str(out)]
    if topology[0] != "grid":
        args += ["--n", str(n)]
    assert run(args) == 0
    return out


def test_verify_roundtrip(tmp_path):
    out = synth_file(tmp_path, ["complete"], 10, 3)
    assert run(["verify", "--circuit", str(out), "--n", "10", "--k", "3",
                "--all-ell"]) == 0


def test_verify_grid_roundtrip(tmp_path):
    out = synth_file(tmp_path, ["grid", "2x3"], 6, 2)
    assert run(["verify", "--circuit", str(out), "--n", "6", "--k", "2",
                "--all-ell"]) == 0


def test_verify_reports_fidelity_lines(tmp_path, capsys):
    out = synth_file(tmp_path, ["complete"], 6, 2)
    assert run(["verify", "--circuit", str(out), "--n", "6", "--k", "2",
                "--all-ell"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [l.split()[0] for l in lines] == ["ell=0", "ell=1", "ell=2"]
    assert all("ok" in l for l in lines)


def _corrupt_first_angle(path):
    """Add 0.5 to the theta of the first U line of a circuit file."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("U "))
    parts = lines[i].split()
    parts[2] = repr(float(parts[2]) + 0.5)
    lines[i] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")


def test_verify_corrupted_circuit_fails(tmp_path):
    out = synth_file(tmp_path, ["complete"], 8, 2)
    _corrupt_first_angle(out)
    assert run(["verify", "--circuit", str(out), "--n", "8", "--k", "2"]) == 3


def test_verify_all_ell_fault_matches_dense_per_weight(tmp_path, capsys):
    # one angle off: every weight runs in the same sweep, so each printed
    # fidelity must still be its own weight's dense value on that circuit
    out = synth_file(tmp_path, ["complete"], 10, 3)
    _corrupt_first_angle(out)
    assert run(["verify", "--circuit", str(out), "--n", "10", "--k", "3",
                "--all-ell"]) == 3
    faulty = loads(out.read_text())
    printed = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in printed] == [
        f"ell={ell}" for ell in range(4)]
    fids = [float(line.split("fidelity=")[1].split()[0]) for line in printed]
    dense = [fidelity(simulate(faulty, (1 << ell) - 1),
                      dicke_reference(10, ell)) for ell in range(4)]
    # printed with 12 decimals, so within 5e-13 of the value it rounds
    assert np.max(np.abs(np.subtract(fids, dense))) <= 1e-12
    assert any(f < 1 - 1e-8 for f in fids)
    assert [line.endswith("FAIL") for line in printed] == [
        f < 1 - 1e-8 for f in dense]


def test_verify_without_np_unique(tmp_path, monkeypatch, capsys):
    out = synth_file(tmp_path, ["grid", "2x4"], 8, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("np.unique called")
    monkeypatch.setattr(np, "unique", refuse)
    assert run(["verify", "--circuit", str(out), "--n", "8", "--k", "2",
                "--all-ell"]) == 0
    assert capsys.readouterr().out.count(" ok") == 3


def _sweeps(monkeypatch, tmp_path, n, k):
    """The weights of each _evolve call that verify --all-ell makes."""
    import dickesynth.verify as verify
    real, sweeps = verify._evolve, []

    def counted(c, idx, amp, **kwargs):
        sweeps.append(sorted((idx >> n).tolist()))
        return real(c, idx, amp, **kwargs)
    out = synth_file(tmp_path, ["complete"], n, k)
    monkeypatch.setattr(verify, "_evolve", counted)
    assert run(["verify", "--circuit", str(out), "--n", str(n),
                "--k", str(k), "--all-ell"]) == 0
    return sweeps


def test_verify_all_ell_is_one_sweep(tmp_path, monkeypatch):
    assert _sweeps(monkeypatch, tmp_path, 16, 2) == [[0, 1, 2]]


def test_verify_all_ell_sweeps_stay_within_half_weight_support(
        tmp_path, monkeypatch):
    sweeps = _sweeps(monkeypatch, tmp_path, 20, 10)
    assert len(sweeps) > 1
    assert sorted(ell for sweep in sweeps for ell in sweep) == list(range(11))
    for sweep in sweeps:
        assert sum(math.comb(20, ell) for ell in sweep) <= math.comb(20, 10)


def test_verify_vacuous_tolerance(tmp_path, capsys):
    # a tolerance outside [0, 1) would pass any circuit, so it is refused
    f = tmp_path / "c.qc"
    f.write_text("QUBITS 4\n")
    for tol in ["2", "-1", "nan", "inf", "1"]:
        assert run(["verify", "--circuit", str(f), "--n", "4", "--k", "2",
                    "--tol", tol]) == 2
    assert capsys.readouterr().out == ""
    assert run(["verify", "--circuit", str(f), "--n", "4", "--k", "0",
                "--tol", "0"]) == 0


@pytest.mark.parametrize("k_args", [["--k", "5"], ["--k", "-1"],
                                    ["--k", "-1", "--all-ell"]])
def test_verify_k_out_of_range_is_usage_error(tmp_path, capsys, k_args):
    f = tmp_path / "c.qc"
    f.write_text("QUBITS 4\nCX 0 1\n")
    assert run(["verify", "--circuit", str(f), "--n", "4"] + k_args) == 2
    assert capsys.readouterr().out == ""


def test_verify_huge_finite_parameters_are_not_internal_error(tmp_path,
                                                             capsys):
    # phi + lam overflows to inf, but every parameter is finite: the
    # circuit is well formed, so verify must judge it, not crash
    f = tmp_path / "c.qc"
    f.write_text("QUBITS 2\nU 0 1e308 1e308 1e308 1e308\n")
    assert run(["verify", "--circuit", str(f), "--n", "2",
                "--k", "1"]) in (0, 3)
    assert "internal error" not in capsys.readouterr().err


def test_verify_missing_file():
    assert run(["verify", "--circuit", "/nonexistent.qc", "--n", "4",
                "--k", "1"]) == 2


@pytest.mark.parametrize("n,k", [(24, 3), (40, 4), (48, 3)])
def test_verify_above_the_simulator_cap(tmp_path, capsys, n, k):
    out = synth_file(tmp_path, ["complete"], n, k)
    assert run(["verify", "--circuit", str(out), "--n", str(n),
                "--k", str(k), "--all-ell"]) == 0
    printed = capsys.readouterr().out.splitlines()
    fids = [float(line.split("fidelity=")[1].split()[0]) for line in printed]
    assert len(fids) == k + 1 and min(fids) >= 1 - 1e-8


@pytest.mark.parametrize("n,k,limit", [
    (64, 2, "no room for the weight tag"),
    (1024, 8, "exceeds the support limit C(20, 10) = 184756")])
def test_verify_refuses_what_the_sparse_kernel_cannot_hold(tmp_path, capsys,
                                                           n, k, limit):
    out = synth_file(tmp_path, ["complete"], n, k)
    assert run(["verify", "--circuit", str(out), "--n", str(n),
                "--k", str(k), "--all-ell"]) == 2
    assert limit in capsys.readouterr().err


def test_verify_stops_a_support_that_outgrows_its_limit(tmp_path, capsys):
    # 30 Hadamards spread |0..01> over 2^30 states; the sweep stops at its
    # limit of 2^20 amplitudes instead of filling memory
    f = tmp_path / "h.qc"
    f.write_text("QUBITS 30\n" + "".join(
        f"U {q} {math.pi / 2!r} 0 {math.pi!r} 0\n" for q in range(30)))
    start = time.perf_counter()
    assert run(["verify", "--circuit", str(f), "--n", "30", "--k", "1"]) == 2
    assert time.perf_counter() - start < 10
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "past the verifier's limit of 1048576" in captured.err


# --- bench ----------------------------------------------------------------------


def test_bench_csv_schema(tmp_path):
    csv = tmp_path / "bench.csv"
    assert run(["bench", "--topology", "complete", "--n-range", "16..64",
                "--k-range", "2,4", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "topology,n1,n2,k,depth,size,bound,ratio"
    assert len(lines) == 1 + 3 * 2  # n in {16,32,64} x k in {2,4}
    for line in lines[1:]:
        fields = line.split(",")
        assert fields[0] == "complete"
        assert float(fields[7]) > 0


def test_bench_empty_range_header_only(capsys):
    assert run(["bench", "--topology", "complete"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["topology,n1,n2,k,depth,size,bound,ratio"]


def test_bench_grid_rows(tmp_path):
    csv = tmp_path / "g.csv"
    assert run(["bench", "--topology", "grid", "--rows", "2", "--n-range",
                "8,16", "--k-range", "2", "--csv", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    assert len(lines) == 3
    assert all(line.split(",")[1] == "2" for line in lines[1:])


def test_bench_grid_one_row_equals_path(capsys):
    assert run(["bench", "--topology", "grid", "--rows", "1", "--n-range",
                "8,16", "--k-range", "2"]) == 0
    grid_out = capsys.readouterr().out.splitlines()[1:]
    assert run(["bench", "--topology", "path", "--n-range", "8,16",
                "--k-range", "2"]) == 0
    path_out = capsys.readouterr().out.splitlines()[1:]
    assert [l.split(",")[4] for l in grid_out] == \
        [l.split(",")[4] for l in path_out]


def test_bench_unwritable_csv_is_usage_error(tmp_path, capsys):
    csv = tmp_path / "missing" / "x.csv"
    assert run(["bench", "--topology", "complete", "--n-range", "8",
                "--k-range", "2", "--csv", str(csv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write") and "internal" not in err


@pytest.mark.parametrize("tokens", [["complete", "extra"], ["grid", "4x8"],
                                    ["path", "8"]])
def test_bench_topology_takes_only_a_name(tokens, capsys):
    assert run(["bench", "--topology", *tokens, "--n-range", "8",
                "--k-range", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--rows" in captured.err


@pytest.mark.parametrize("topology", ["complete", "path"])
def test_bench_rows_only_for_grid(topology, capsys):
    assert run(["bench", "--topology", topology, "--rows", "4",
                "--n-range", "8", "--k-range", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--rows" in captured.err


def test_bench_grid_without_rows_is_one_row(capsys):
    argv = ["bench", "--topology", "grid", "--n-range", "8,16",
            "--k-range", "2"]
    assert run(argv) == 0
    default_out = capsys.readouterr().out
    assert run(argv + ["--rows", "1"]) == 0
    assert capsys.readouterr().out == default_out
    assert all(line.split(",")[1] == "1"
               for line in default_out.splitlines()[1:])


def test_bench_builds_each_grid_once(monkeypatch, capsys):
    calls = []
    real = ConnectivityGraph.grid

    def counting(n1, n2):
        calls.append((n1, n2))
        return real(n1, n2)

    monkeypatch.setattr(ConnectivityGraph, "grid", staticmethod(counting))
    assert run(["bench", "--topology", "grid", "--rows", "2", "--n-range",
                "8,16", "--k-range", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    # the connectivity check reuses the synthesis plan's graph
    assert calls == [(2, 4), (2, 8)]


def test_bench_bad_range():
    for text in ["abc", "4..x", "x..8", "1..2..4"]:
        assert run(["bench", "--topology", "complete", "--n-range",
                    text]) == 2


# --- lightcone ------------------------------------------------------------------


def test_lightcone_pass_on_synth_output(tmp_path, capsys):
    out = synth_file(tmp_path, ["grid", "2x4"], 8, 1)
    assert run(["lightcone", "--circuit", str(out), "--topology", "grid",
                "2x4"]) == 0
    assert "audit PASS" in capsys.readouterr().out


def test_lightcone_text_is_the_audit_on_own_topology(tmp_path, capsys):
    out = synth_file(tmp_path, ["grid", "4x4"], 16, 2)
    capsys.readouterr()
    assert run(["lightcone", "--circuit", str(out), "--topology", "grid",
                "4x4"]) == 0
    report = audit_lower_bound(loads(out.read_text()),
                               ConnectivityGraph.grid(4, 4))
    assert capsys.readouterr() == (report.text() + "\n", "")


def test_lightcone_fails_on_grid_of_other_shape(tmp_path, capsys):
    # a 4x4-grid circuit read on the 2x8 grid: the light-cone floor
    # assumes every CNOT is on an edge, so off-edge CNOTs must fail; the
    # fixture must have some, or the audit passes and proves nothing
    out = synth_file(tmp_path, ["grid", "4x4"], 16, 4)
    capsys.readouterr()
    off_edge = validate_connectivity(loads(out.read_text()),
                                     ConnectivityGraph.grid(2, 8))
    assert len(off_edge) == 4
    assert run(["lightcone", "--circuit", str(out), "--topology", "grid",
                "2x8"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "audit FAIL: 4 CNOT(s) off the topology's edges\n"


def test_lightcone_fails_on_off_edge_cnot_of_path(tmp_path, capsys):
    f = tmp_path / "far.qc"
    f.write_text("QUBITS 16\nCX 0 15\n")
    assert run(["lightcone", "--circuit", str(f), "--topology",
                "path"]) == 3
    assert "1 CNOT(s) off the topology's edges" in capsys.readouterr().err


def test_lightcone_fails_on_trivial_circuit(tmp_path, capsys):
    f = tmp_path / "idle.qc"
    f.write_text("QUBITS 4\nU 0 "
                 "0.10000000000000000 0.0 0.0 0.0\n")
    assert run(["lightcone", "--circuit", str(f), "--topology",
                "complete"]) == 3
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("text", [
    *(pytest.param(f"QUBITS 2\n{line}\n", id=line)
      for line in ["CX -1 0", "CX 0 7", "CX 0", "U 0 1.0", "U 5 0 0 0 0",
                   "U 0 nan 0 0 0", "QUBITS 2", "DATA 0 1", "ANCILLA 1",
                   "CX 0 99999999999999999999"]),
    # a count past int64 in the header itself
    pytest.param("QUBITS 100000000000000000000\nCX 0 1\n",
                 id="QUBITS 100000000000000000000")])
@pytest.mark.parametrize("command", [["verify", "--n", "2", "--k", "1"],
                                     ["lightcone", "--topology", "complete"]])
def test_malformed_circuit_is_usage_error(tmp_path, text, command):
    f = tmp_path / "bad.qc"
    f.write_text(text)
    assert run(command + ["--circuit", str(f)]) == 2


@pytest.mark.parametrize("count,gates,depth,floor", [
    (1 << 62, ["CX 0 1"], 1, 61),
    (1 << 62, ["CX 0 1", "U 1 0.5 0 0 0", "CX 1 0", "U 0 0.5 0 0 0"], 4, 61),
    (10 ** 12, ["CX 0 1"], 1, 39),
    (1 << 62, ["CX 0 4611686018427387903", "CX 1 0"], 2, 61)])
def test_lightcone_sizes_by_the_touched_qubits(tmp_path, capsys, count,
                                               gates, depth, floor):
    # a header far larger than memory: the audit's arrays span the qubits
    # the gates touch, so the file is audited, and is below its floor
    f = tmp_path / "huge.qc"
    f.write_text("\n".join([f"QUBITS {count}", *gates]) + "\n")
    assert run(["lightcone", "--circuit", str(f), "--topology",
                "complete"]) == 3
    text = capsys.readouterr().out
    assert text.startswith(f"light-cone audit: topology=complete n={count}\n"
                           f"depth raw={depth} normalized={depth} "
                           f"floor={floor} -> BELOW FLOOR\n")
    assert "cones intersect" in text and text.endswith("audit FAIL\n")


def test_lightcone_sizes_by_the_gates_not_the_largest_label(tmp_path,
                                                           capsys):
    # the layering frontier and the cone walk rank the labels, so a label
    # near the header's count costs no more than a small one
    f = tmp_path / "far.qc"
    f.write_text("QUBITS 4611686018427387904\nCX 0 4611686018427387903\n")
    assert run(["lightcone", "--circuit", str(f), "--topology",
                "complete"]) == 3
    assert capsys.readouterr().out == (
        "light-cone audit: topology=complete n=4611686018427387904\n"
        "depth raw=1 normalized=1 floor=61 -> BELOW FLOOR\n"
        "extremal origins 1 and 0: cones DISJOINT\n"
        "cone growth caps: ok\n"
        "origin 1 |S'_i| per column: 0 1\n"
        "origin 0 |S'_i| per column: 2 1\n"
        "audit FAIL\n")


def test_lightcone_topology_size_mismatch(tmp_path):
    out = synth_file(tmp_path, ["complete"], 4, 1)
    assert run(["lightcone", "--circuit", str(out), "--topology", "grid",
                "2x3"]) == 2


def test_lightcone_grid_size_checked_before_build(tmp_path, monkeypatch,
                                                  capsys):
    out = synth_file(tmp_path, ["complete"], 4, 1)

    def refuse(n1, n2):
        raise AssertionError(f"grid {n1}x{n2} built for a 4-qubit circuit")

    monkeypatch.setattr(ConnectivityGraph, "grid", staticmethod(refuse))
    assert run(["lightcone", "--circuit", str(out), "--topology", "grid",
                "3x5"]) == 2
    assert capsys.readouterr().err == (
        "error: topology has 15 vertices, circuit has 4 qubits\n")


def test_lightcone_unknown_topology(tmp_path):
    out = synth_file(tmp_path, ["complete"], 4, 1)
    assert run(["lightcone", "--circuit", str(out), "--topology",
                "torus"]) == 2


def test_missing_subcommand_usage_error():
    assert run([]) == 2


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    real, calls = cli_module.build_parser, [0]

    def counted():
        calls[0] += 1
        return real()
    monkeypatch.setattr(cli_module, "build_parser", counted)
    monkeypatch.setattr(cli_module, "_parser", None)
    out = synth_file(tmp_path, ["complete"], 4, 1)
    assert run(["verify", "--circuit", str(out), "--n", "4"]) == 2
    assert "--k" in capsys.readouterr().err
    assert run(["verify", "--circuit", str(out), "--n", "4", "--k", "1"]) == 0
    assert capsys.readouterr().out == "ell=1 fidelity=1.000000000000 ok\n"
    assert calls[0] == 1
