"""Benchmark of the dickesynth pipeline; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the package from its
``src`` directory. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a full
record of the run (per-case results, and with ``--trace 1`` the spans and
plan records) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 7   # this process plus six fresh ones; setup_s is the median
SETUP_REFERENCE = 25  # reference-loop timings that rescale one setup sample


def _setup(workload: str):
    """Import the package from the checkout and warm it up. Returns the
    module and the time this took, raw and divided by the reference loop's
    median slowdown (one setup_s sample)."""
    t0 = time.perf_counter()
    src = ROOT / "src"
    if not (src / "dickesynth" / "__init__.py").is_file():
        raise SystemExit(f"error: no dickesynth sources under {src}")
    sys.path.insert(0, str(src))
    import pipeline
    if workload not in pipeline.WORKLOADS:
        raise SystemExit(f"error: unknown workload {workload!r}; choose "
                         f"from {', '.join(pipeline.WORKLOADS)}")
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        pipeline.warm_up(workload, workdir)
    raw = time.perf_counter() - t0
    from spans import python_reference
    slowdown = statistics.median(python_reference()
                                 for _ in range(SETUP_REFERENCE))
    return pipeline, {"raw_s": raw, "norm_s": raw / slowdown}


def _probe_setup(workload: str) -> dict:
    cmd = [sys.executable, __file__, "--workload", workload,
           "--probe-setup"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         cwd=ROOT, timeout=120).stdout
    return json.loads(out.splitlines()[-1])


def _units(spec_key: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[spec_key]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny case matrix; finishes in seconds")
    ap.add_argument("--probe-setup", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    # numpy's own thread pools stay within the two cores the workloads
    # are sized for
    threads = str(min(2, os.cpu_count() or 1))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = threads

    pipeline, own_setup = _setup(args.workload)
    if args.probe_setup:
        print(json.dumps(own_setup))
        return 0
    traced = bool(args.trace)
    samples = [own_setup]
    if not traced:  # setup_s is an end-to-end metric only
        samples += [_probe_setup(args.workload)
                    for _ in range(SETUP_SAMPLES - 1)]
    from spans import Tracer

    cases = pipeline.cases_for(args.workload, args.smoke)
    inputs = pipeline.make_inputs(args.workload, args.seed, args.smoke)
    checks = pipeline.Checks()
    passes = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
        deadline = time.perf_counter() + args.seconds
        while True:
            tr = Tracer(traced, pipeline.WORKLOADS[args.workload].reference)
            records = pipeline.run_pass(inputs, tr, checks, workdir)
            if passes:  # same inputs, so the same circuit text
                for cid, rec in records.items():
                    if "sha256" in rec:
                        checks.expect(rec["sha256"]
                                      == passes[0][1][cid].get("sha256"),
                                      cid, "dumps text differs between "
                                           "passes")
            passes.append((tr, records))
            if time.perf_counter() >= deadline:
                break
        first_tr, first = passes[0]
        crosscheck = pipeline.cross_check(cases, first, first_tr, checks,
                                          workdir)

    if traced:
        layer = [pipeline.per_layer(tr, recs) for tr, recs in passes]
        values = {name: statistics.median(p[name] for p in layer)
                  for name in layer[0]}
        units = _units("per_layer")
    else:
        values = pipeline.end_to_end(first, cases)
        values.update(
            setup_s=statistics.median(s["norm_s"] for s in samples),
            pipeline_norm_s=statistics.median(tr.pipeline_norm_s()
                                              for tr, _ in passes),
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            pass_share=(checks.attempted - len(checks.failures))
            / checks.attempted)
        units = _units("end_to_end")
    if set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "disagree with BENCHMARK.json")

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "passes": len(passes),
        "setup_samples": samples,
        "pass_pipeline_s": [tr.pipeline_s() for tr, _ in passes],
        "pass_slowdown": [statistics.median(tr.slowdowns)
                          for tr, _ in passes],
        "metrics": values, "failures": checks.failures,
        "cases": first, "crosscheck": crosscheck,
        "span_summary": [tr.self_times() for tr, _ in passes],
    }
    if traced:
        report["spans"] = [tr.records for tr, _ in passes]
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-smoke' if args.smoke else ''}.json")
    (OUT_DIR / name).write_text(json.dumps(report, indent=1, default=str))

    for failure in checks.failures:
        print(f"FAIL {failure}", file=sys.stderr)
    for metric, value in values.items():
        print(f"{metric} {value:.6g} {units[metric]}")
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
