#!/usr/bin/env python3
"""Seeded benchmark of the entrobell command line.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and driven in-process through
``entrobell.cli.main(argv)`` by one closed-loop client (the next request is
sent when the previous one returns).  Every request's output is checked; see
``workloads.py`` for the request streams and the checks.

``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` replays a fixed amount of the same request stream twice per
request, once plain and once with every layer's public functions wrapped by
``tracer.Tracer``; it prints the per-layer metrics, checks that both outputs
are bitwise equal, reports the tracing overhead and writes the spans to
``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record, with
sample counts and provenance, is appended to ``bench/out/results.jsonl`` (or
to ``--out``), which is what ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import stats  # noqa: E402
from workloads import WORKLOADS, WrongOutput, check_output  # noqa: E402

SETUP_PROBES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# The metrics of the final JSON line; the others are printed and recorded.
# failed_ratio is left out because it is 0 on a correct run, and the line
# carries `failed`.
E2E_METRICS = ("setup_s", "throughput", "req_p50_ms", "req_tail_ms", "peak_rss_mib")

# name -> (traced function, field).  Fields are those of Tracer.summary(),
# except per_dqm: joints built per d_qm value delivered.
PER_LAYER = {
    "coarse_grain.binned_joint.calls": ("coarse_grain.binned_joint", "calls"),
    "coarse_grain.binned_joint.self_s": ("coarse_grain.binned_joint", "self_s"),
    "coarse_grain.binned_joint.cells": ("coarse_grain.binned_joint", "cells"),
    "coarse_grain.binned_joint.p50_ms": ("coarse_grain.binned_joint", "p50_ms"),
    "coarse_grain.binned_joint.per_dqm": ("coarse_grain.binned_joint", "per_dqm"),
    "coarse_grain.make_grid.self_s": ("coarse_grain.make_grid", "self_s"),
    "gaussian_core.coefficients.calls": ("gaussian_core.coefficients", "calls"),
    "gaussian_core.coefficients.self_s": ("gaussian_core.coefficients", "self_s"),
    "gaussian_core.marginal_pdf.calls": ("gaussian_core.marginal_pdf", "calls"),
    "gaussian_core.marginal_pdf.self_s": ("gaussian_core.marginal_pdf", "self_s"),
    "entropy.conditional_entropy.calls": ("entropy.conditional_entropy", "calls"),
    "entropy.shannon.self_s": ("entropy.shannon", "self_s"),
    "entropy.shannon.entries": ("entropy.shannon", "entries"),
    "bell.scan.self_s": ("bell.scan", "self_s"),
    "bell.minimize.self_s": ("bell.minimize", "self_s"),
    "bell.minimize.nfev": ("bell.minimize", "nfev"),
    "bell.d_qm_value.calls": ("bell.d_qm_value", "calls"),
    "bell.evaluate.calls": ("bell.evaluate", "calls"),
    "bell.evaluate_mutual_info.calls": ("bell.evaluate_mutual_info", "calls"),
    "experiment_sim.sample_pairs.self_s": ("experiment_sim.sample_pairs", "self_s"),
    "experiment_sim.sample_pairs.shots": ("experiment_sim.sample_pairs", "shots"),
    "experiment_sim.bin_counts.self_s": ("experiment_sim.bin_counts", "self_s"),
    "experiment_sim.bin_counts.cells": ("experiment_sim.bin_counts", "cells"),
    "experiment_sim.plugin_entropies.calls": ("experiment_sim.plugin_entropies", "calls"),
    "experiment_sim.plugin_entropies.self_s": ("experiment_sim.plugin_entropies", "self_s"),
    "experiment_sim.empirical_d_qm.self_s": ("experiment_sim.empirical_d_qm", "self_s"),
    "cli.main.self_s": ("cli.main", "self_s"),
}
LAYER_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "per_dqm": "ratio"}


def _metric(value, unit: str, samples: int, note: str = "") -> dict:
    return {"value": value, "unit": unit, "samples": samples, "note": note}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no sources, no reference outputs)."""


def pin_threads() -> dict:
    """Unset ENTROBELL_THREADS and cap BLAS pools at nproc; returns what was set before."""
    before = {k: os.environ.get(k) for k in ("ENTROBELL_THREADS",) + THREAD_VARS}
    os.environ.pop("ENTROBELL_THREADS", None)
    nproc = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ.setdefault(var, nproc)
    return before


def import_cli():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from entrobell import cli
    except ImportError as exc:
        raise SetupError(f"cannot import entrobell from {src}: {exc}") from None
    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SetupError(f"entrobell was imported from {cli.__file__}, not from {src}")
    return cli


def call(cli, argv) -> tuple[int, str, str, float]:
    """Run one request in-process; (exit code, standard output, standard error, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crashing request is a failed request, not a crashed run
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = -1
        elapsed = time.perf_counter() - t0
    return rc, out.getvalue(), err.getvalue(), elapsed


def _probe(workload) -> int:
    """Body of one set-up measurement: import the package, run the warm-up request."""
    cli = import_cli()
    return call(cli, workload.warmup.argv)[0]


def _setup_seconds(workload) -> list[float]:
    """Wall times of fresh processes that import the package and run the warm-up request."""
    argv = [sys.executable, str(BENCH / "run.py"), "--probe", "--workload", workload.name]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=120, check=False)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SetupError("set-up probe failed: " + proc.stderr.decode(errors="replace"))
    return times


def _check_all(workload, requests, results, reference) -> tuple[list[float], list[str]]:
    units, errors = [], []
    for i, (req, (rc, text, err)) in enumerate(zip(requests, results)):
        try:
            units.append(check_output(workload, req, rc, text, reference))
        except (WrongOutput, KeyError, TypeError, IndexError) as exc:
            units.append(0.0)
            errors.append(f"request {i} ({' '.join(req.argv)}): {exc!r} {err.strip()}")
    return units, errors


def measure(cli, workload, seed: int, seconds: float, reference: dict) -> dict:
    """Closed loop over whole cycles until `seconds` of requests and min_requests are reached.

    The plain metric names hold times rescaled to the reference machine speed
    (see calibrate.py); the `_wall` names hold the times as measured.
    """
    import calibrate

    requests, results, latencies, segment_of = [], [], [], []
    kernel = [calibrate.kernel_seconds()]
    since_kernel = 0.0
    for cycle in workload.stream(seed):
        for req in cycle:
            *result, dt = call(cli, req.argv)
            requests.append(req)
            results.append(result)
            latencies.append(dt)
            segment_of.append(len(kernel) - 1)
            since_kernel += dt
            if since_kernel >= calibrate.EVERY_S:
                kernel.append(calibrate.kernel_seconds())
                since_kernel = 0.0
        if sum(latencies) >= seconds and len(requests) >= workload.min_requests:
            break
    if since_kernel:
        kernel.append(calibrate.kernel_seconds())
    units, errors = _check_all(workload, requests, results, reference)
    tail = stats.tail_percentile(workload.min_requests)
    n = len(requests)
    metrics = {}
    for suffix, times in (("", calibrate.rescale(latencies, segment_of, kernel)),
                          ("_wall", latencies)):
        metrics.update({
            f"throughput{suffix}": _metric(sum(units) / sum(times), "1/s", n,
                                           f"{workload.unit} per second"),
            f"req_p50{suffix}_ms": _metric(stats.percentile(times, 50) * 1e3, "ms", n, "p50"),
            f"req_tail{suffix}_ms": _metric(stats.percentile(times, tail) * 1e3, "ms", n,
                                            f"p{tail}"),
        })
    metrics["calibration_ms"] = _metric(stats.percentile(kernel, 50) * 1e3, "ms", len(kernel),
                                        f"p50; reference {calibrate.REFERENCE_S * 1e3:g} ms")
    metrics["failed_ratio"] = _metric(len(errors) / n, "ratio", n, "failed or wrong / attempted")
    return {
        "attempted": n, "errors": errors, "metrics": metrics,
        "latencies_ms": [round(t * 1e3, 3) for t in latencies],
        "calibration_ms": [round(t * 1e3, 3) for t in kernel],
    }


def measure_traced(cli, workload, seed: int, seconds: float, reference: dict) -> dict:
    """Fixed work: each request of the first cycles runs plain and traced.

    Even requests run plain first, odd ones traced first, so that neither pass
    always meets the caches and allocator the other one warmed.
    """
    from tracer import Tracer

    # Each request runs twice, so this takes about `seconds` at the baseline; the
    # work does not depend on the speed of the code, so counts repeat exactly.
    n_cycles = max(1, round(seconds / (2 * workload.cycle_s)))
    stream = workload.stream(seed)
    requests = [req for _ in range(n_cycles) for req in next(stream)]
    tracer = Tracer()
    results, mismatches = [], []
    times = {True: [0.0, 0.0], False: [0.0, 0.0]}    # plain first? -> [plain s, traced s]
    for i, req in enumerate(requests):
        plain_first = i % 2 == 0
        for traced_pass in ((False, True) if plain_first else (True, False)):
            if traced_pass:
                tracer.request_id = i
                with tracer:
                    *traced, dt = call(cli, req.argv)
            else:
                *plain, dt = call(cli, req.argv)
            times[plain_first][traced_pass] += dt
        results.append(plain)
        if traced[:2] != plain[:2]:
            mismatches.append(f"request {i} ({' '.join(req.argv)}): traced output differs")
    units, errors = _check_all(workload, requests, results, reference)
    summary = tracer.summary()
    total_units = sum(units)
    metrics = {}
    for name, (fn, field) in PER_LAYER.items():
        row = summary.get(fn, {})
        if field == "per_dqm":
            value = row.get("calls", 0) / total_units if workload.unit == "d_qm values" else 0.0
        else:
            value = row.get(field, 0)
        metrics[name] = _metric(value, LAYER_UNITS.get(field, "count"), row.get("calls", 0))
    plain_s = times[True][0] + times[False][0]
    traced_s = times[True][1] + times[False][1]
    metrics["trace.overhead"] = _metric(1.0 - plain_s / traced_s, "ratio", len(requests),
                                        "1 - plain time / traced time, same requests")
    by_order = {f"{'plain' if first else 'traced'}_first": 1.0 - p / t
                for first, (p, t) in times.items() if t > 0}
    out = BENCH / "out" / f"trace-{workload.name}-seed{seed}.npz"
    tracer.write(out, {"workload": workload.name, "seed": seed,
                       "requests": [" ".join(r.argv) for r in requests]})
    return {
        "attempted": len(requests), "errors": errors + mismatches,
        "metrics": metrics, "functions": summary, "trace_file": str(out.relative_to(ROOT)),
        "throughput_plain": total_units / plain_s, "throughput_traced": total_units / traced_s,
        "overhead_by_order": by_order, "spans": len(tracer.t0),
    }


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "entrobell").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(seed: int, env_before: dict) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
        "env_before": env_before,
        "env_used": {k: os.environ.get(k) for k in ("ENTROBELL_THREADS",) + THREAD_VARS},
        "machine": platform.machine(),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def run_one(workload, seed: int, seconds: float, trace: bool, env_before: dict) -> dict:
    reference_path = BENCH / "reference.json"
    cli = import_cli()
    if not reference_path.is_file():
        raise SetupError(f"missing {reference_path}")
    reference = json.loads(reference_path.read_text())
    rc, _, err, _ = call(cli, workload.warmup.argv)
    if rc != 0:
        raise SetupError(f"warm-up request failed with exit code {rc}: {err}")
    if trace:
        result = measure_traced(cli, workload, seed, seconds, reference)
    else:
        setup = _setup_seconds(workload)
        result = measure(cli, workload, seed, seconds, reference)
        result["metrics"]["setup_s"] = _metric(stats.percentile(setup, 50), "s", len(setup),
                                               "median of fresh processes, not rescaled")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"]["peak_rss_mib"] = _metric(peak, "MiB", 1, "this process")
        result["setup_samples"] = setup
    result.update(workload=workload.name, seed=seed, seconds=seconds, trace=trace,
                  provenance=provenance(seed, env_before))
    return result


def report(result: dict, out_path: Path) -> dict:
    """Print the table and the provenance, append the record; returns the final object."""
    print(f"workload {result['workload']}, seed {result['seed']}, "
          f"trace {int(result['trace'])}, {result['attempted']} requests")
    print("provenance " + json.dumps(result["provenance"], sort_keys=True))
    print(f"{'metric':42s} {'value':>14s} {'unit':6s} {'samples':>8s}  note")
    for name, m in result["metrics"].items():
        print(f"{name:42s} {m['value']:14.6g} {m['unit']:6s} {m['samples']:8d}  {m['note']}")
    if result["trace"]:
        print(f"tracing overhead: throughput {result['throughput_plain']:.6g}/s plain, "
              f"{result['throughput_traced']:.6g}/s traced ({result['spans']} spans, "
              f"{result['trace_file']}); overhead by order "
              + ", ".join(f"{k} {v:+.4f}" for k, v in result["overhead_by_order"].items()))
    for err in result["errors"]:
        print("FAILED " + err)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with out_path.open("a", encoding="utf-8") as fh:
        record = {k: v for k, v in result.items() if k != "functions"}
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    names = list(PER_LAYER) + ["trace.overhead"] if result["trace"] else E2E_METRICS
    return {
        "correct": not result["errors"],
        "attempted": result["attempted"],
        "failed": len(result["errors"]),
        "metrics": {name: {"value": result["metrics"][name]["value"],
                           "unit": result["metrics"][name]["unit"]} for name in names},
    }


def _run_all(args) -> int:
    """Each workload in a fresh process, so set-up and memory are measured per workload."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", args.out]
        status |= subprocess.run(argv, cwd=ROOT, check=False).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="append the full record here (default bench/out/results.jsonl)")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env_before = pin_threads()
    if args.workload == "all":
        return _run_all(args)
    workload = WORKLOADS[args.workload]
    try:
        if args.probe:
            return _probe(workload)
        result = run_one(workload, args.seed, args.seconds, bool(args.trace), env_before)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else BENCH / "out" / "results.jsonl"
    print(json.dumps(report(result, out_path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
