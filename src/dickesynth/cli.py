"""Batch command-line front end.

Subcommands: synth (compile a Dicke/symmetric circuit to the text format),
verify (run a circuit file on the unary inputs of all requested weights in
one sparse sweep and take each weight's fidelity with the analytic Dicke
state on the output's support), bench (structural depth/size sweeps to
CSV), lightcone (depth lower-bound audit).

Exit codes: 0 ok, 2 usage/argument error, 3 verification or audit failure,
1 internal failure.
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

import numpy as np

from .circuit import (ConnectivityGraph, asap_layering, dumps, loads,
                      validate_connectivity)
from .lightcone import audit_lower_bound
from .synth import _prepare_symmetric, _synthesize
from .verify import SIMULATOR_CAP, dicke_fidelities


class _UsageError(Exception):
    pass


def _parse_topology(tokens):
    """['complete'] / ['path'] / ['grid', 'N1xN2'] -> (name, dims_or_None)."""
    if not tokens:
        raise _UsageError("missing topology")
    name = tokens[0]
    if name in ("complete", "path"):
        if len(tokens) != 1:
            raise _UsageError(f"topology {name} takes no dimensions")
        return name, None
    if name == "grid":
        if len(tokens) != 2 or "x" not in tokens[1]:
            raise _UsageError("grid topology needs dimensions N1xN2")
        try:
            n1, n2 = (int(t) for t in tokens[1].split("x"))
        except ValueError as e:
            raise _UsageError(f"bad grid dimensions {tokens[1]!r}") from e
        if n1 < 1 or n2 < 1:
            raise _UsageError("grid dimensions must be positive")
        return "grid", (min(n1, n2), max(n1, n2))
    raise _UsageError(f"unknown topology {name!r}")


def _connectivity(topology, dims, n):
    if topology == "complete":
        return ConnectivityGraph.complete(n)
    if topology == "path":
        return ConnectivityGraph.path(n)
    return ConnectivityGraph.grid(*dims)


def _load_amplitudes(path):
    """One finite complex per line as `re im`; normalized within 1e-9."""
    values = []
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise _UsageError(f"cannot read amplitude file: {e}") from e
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _UsageError(f"bad amplitude line {line!r}")
        try:
            values.append(complex(float(parts[0]), float(parts[1])))
        except ValueError as e:
            raise _UsageError(f"bad amplitude line {line!r}") from e
        if not cmath.isfinite(values[-1]):
            raise _UsageError(f"non-finite amplitude line {line!r}")
    alpha = np.asarray(values, dtype=complex)
    if abs(np.linalg.norm(alpha) - 1.0) > 1e-9:
        raise _UsageError("amplitude file is not normalized")
    return alpha


def _write_text(path, text):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e}") from e


def cmd_synth(args) -> int:
    topology, dims = _parse_topology(args.topology)
    if topology == "grid":
        n = dims[0] * dims[1]
        if args.n is not None and args.n != n:
            raise _UsageError(f"--n {args.n} contradicts grid {dims}")
    else:
        if args.n is None:
            raise _UsageError("--n is required")
        n = args.n
        dims = n
    if not 1 <= args.k <= n // 2:
        raise _UsageError(f"require 1 <= k <= n/2 (n={n}, k={args.k})")
    if args.symmetric:
        alpha = _load_amplitudes(args.symmetric)
        if alpha.shape != (args.k + 1,):
            raise _UsageError(f"expected {args.k + 1} amplitudes")
        circuit, plan = _prepare_symmetric(topology, dims, args.k, alpha)
    else:
        circuit, plan = _synthesize(topology, dims, args.k)
    text = dumps(circuit)
    if args.out:
        _write_text(args.out, text)
        _write_text(args.out + ".plan", plan.report())
    else:
        sys.stdout.write(text)
        for line in plan.report().splitlines():
            sys.stdout.write(f"# {line}\n")
    return 0


def cmd_verify(args) -> int:
    try:
        with open(args.circuit) as fh:
            circuit = loads(fh.read())
    except (OSError, ValueError) as e:
        raise _UsageError(f"cannot read circuit: {e}") from e
    n, k = args.n, args.k
    if circuit.num_qubits != n:
        raise _UsageError(f"circuit has {circuit.num_qubits} qubits, --n {n}")
    if not 0 <= k <= n:
        raise _UsageError(f"require 0 <= k <= n (n={n}, k={k})")
    ells = range(k + 1) if args.all_ell else [k]
    if n > SIMULATOR_CAP:
        _check_support(n, k, ells)
    # NaN fails the comparison too
    if not 0.0 <= args.tol < 1.0:
        raise _UsageError(f"--tol must be in [0, 1), got {args.tol}")
    ok = True
    try:
        for ell, f in dicke_fidelities(circuit, ells):
            good = f >= 1.0 - args.tol
            ok &= good
            print(f"ell={ell} fidelity={f:.12f} {'ok' if good else 'FAIL'}")
    except ValueError as e:   # the sweep's support passed its limit
        raise _UsageError(str(e)) from e
    return 0 if ok else 3


# the largest Dicke support verify takes above SIMULATOR_CAP qubits: the
# half-weight support at the cap
_SUPPORT_CAP = math.comb(SIMULATOR_CAP, SIMULATOR_CAP // 2)


def _check_support(n, k, ells):
    """Refuse a verify above SIMULATOR_CAP qubits that the sparse kernel
    cannot hold: each requested weight's Dicke support must be within
    _SUPPORT_CAP, and the weight tag must fit beside n qubits in an int64
    index."""
    worst = max(ells, key=lambda ell: math.comb(n, ell))
    if math.comb(n, worst) > _SUPPORT_CAP:
        raise _UsageError(
            f"C({n}, {worst}) = {math.comb(n, worst)} exceeds the support "
            f"limit C({SIMULATOR_CAP}, {SIMULATOR_CAP // 2}) = {_SUPPORT_CAP} "
            f"above {SIMULATOR_CAP} qubits")
    if n + k.bit_length() > 62:
        raise _UsageError(f"n={n} and k={k} leave no room for the weight "
                          f"tag: n + bit length of k must be at most 62")


def _parse_range(text):
    """'' -> []; 'a,b,c' -> values; 'lo..hi' -> doubling sweep."""
    if not text:
        return []
    if ".." in text:
        try:
            lo, hi = (int(t) for t in text.split(".."))
        except ValueError as e:
            raise _UsageError(f"bad range {text!r}") from e
        if lo < 1 or hi < lo:
            raise _UsageError(f"bad range {text!r}")
        out = []
        v = lo
        while v <= hi:
            out.append(v)
            v *= 2
        return out
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as e:
        raise _UsageError(f"bad range {text!r}") from e


def _bench_bound(topology, n1, n2, k):
    n = n1 * n2
    if topology == "complete":
        return max(math.log2(k) * math.log2(n / k) + k, 1.0)
    if n1 == 1:
        return float(n2)
    if k >= n2 / n1:
        return k * math.log2(n / k) + n2
    return float(n2)


def cmd_bench(args) -> int:
    if len(args.topology) != 1 or args.topology[0] not in ("complete",
                                                           "path", "grid"):
        raise _UsageError("bench --topology takes one name: complete, path "
                          "or grid (give grid rows with --rows)")
    topology = args.topology[0]
    if topology != "grid" and args.rows is not None:
        raise _UsageError("--rows applies only to grid benches, "
                          f"not {topology}")
    n_rows = 1 if args.rows is None else args.rows
    if n_rows < 1:
        raise _UsageError("--rows must be positive for grid benches")
    ns = _parse_range(args.n_range)
    ks = _parse_range(args.k_range)
    if any(v < 1 for v in ns + ks):
        raise _UsageError("ranges must be positive")
    rows = ["topology,n1,n2,k,depth,size,bound,ratio"]
    for n in sorted(ns):
        for k in sorted(ks):
            if k > n // 2:
                continue
            n1, n2, dims = 1, n, n
            if topology == "grid":
                if n % n_rows:
                    continue
                n1, n2 = n_rows, n // n_rows
                if n1 > n2:
                    continue
                dims = (n1, n2)
            circuit, plan = _synthesize(topology, dims, k)
            report = asap_layering(circuit)
            if topology in ("grid", "path"):
                if validate_connectivity(circuit, plan.topology):
                    print(f"connectivity violation at n={n} k={k}",
                          file=sys.stderr)
                    return 1
            bound = _bench_bound(topology, n1, n2, k)
            rows.append(f"{topology},{n1},{n2},{k},{report.depth},"
                        f"{report.size},{bound:.6g},"
                        f"{report.depth / bound:.6g}")
    text = "\n".join(rows) + "\n"
    if args.csv:
        _write_text(args.csv, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_lightcone(args) -> int:
    try:
        with open(args.circuit) as fh:
            circuit = loads(fh.read())
    except (OSError, ValueError) as e:
        raise _UsageError(f"cannot read circuit: {e}") from e
    topology, dims = _parse_topology(args.topology)
    n = circuit.num_qubits
    if dims is not None and dims[0] * dims[1] != n:
        raise _UsageError(f"topology has {dims[0] * dims[1]} vertices, "
                          f"circuit has {n} qubits")
    graph = _connectivity(topology, dims, n)
    # the light-cone floor holds only for CNOTs on the graph's edges
    off_edge = len(validate_connectivity(circuit, graph))
    if off_edge:
        print(f"audit FAIL: {off_edge} CNOT(s) off the topology's edges",
              file=sys.stderr)
        return 3
    report = audit_lower_bound(circuit, graph)
    print(report.text())
    return 0 if report.passed else 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dickesynth",
        description="Dicke/symmetric-state circuit synthesis and auditing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="compile a circuit")
    p.add_argument("--topology", nargs="+", required=True,
                   metavar=("NAME", "N1xN2"))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--symmetric", metavar="AMPFILE")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("verify", help="check a circuit file against the "
                                      "analytic Dicke state")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--all-ell", action="store_true")
    p.add_argument("--tol", type=float, default=1e-8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="structural depth/size sweep to CSV")
    p.add_argument("--topology", nargs="+", required=True)
    p.add_argument("--n-range", default="", metavar="LO..HI|A,B,C")
    p.add_argument("--k-range", default="", metavar="LO..HI|A,B,C")
    p.add_argument("--rows", type=int,
                   help="row count n1 for grid benches (n2 = n / n1; "
                        "default 1)")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("lightcone", help="light-cone lower-bound audit")
    p.add_argument("--circuit", required=True)
    p.add_argument("--topology", nargs="+", required=True)
    p.set_defaults(func=cmd_lightcone)
    return parser


_parser = None   # built on the first main call, then reused


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal failure
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
