#!/usr/bin/env python3
"""Check that rescaling by the calibration kernel keeps a change's ratio.

    python3 bench/check_calibration.py [--cycles 40] [--workload scan ...]

A change to the package should move the rescaled times by the same ratio as
the wall times.  That fails if the work of the requests reaches the kernel
timings, for example when a request leaves the caches cold.  For each
workload this runs the seeded request stream cycle by cycle, each cycle twice:
once as is and once with a fixed amount of extra work added inside every
timed request.  The extra work writes and reads 64 MiB, far more than the
caches hold, as a request with larger matrices would.  The order of the two
passes alternates from cycle to cycle, and the kernel is timed after every
pass, as ``run.py`` times it between requests.

For each workload it prints the ratio of total request time with the extra
work to without it, as wall times and as rescaled times, and the ratio of the
median kernel timings after the two kinds of pass.  The two ratios also
differ by noise in the kernel timings, so the check estimates the difference
cycle by cycle: it prints the mean of log(rescaled ratio / wall ratio) with
twice its standard error.  It exits with 1 if even the end of that interval
nearer to 0 is further than TOLERANCE from 0, which shows a bias.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

import numpy as np

import calibrate
import run
from workloads import WORKLOADS

# Largest bias of the rescaled ratio that the check lets pass, beyond twice
# the standard error of its per-cycle estimate.
TOLERANCE = 0.02

_LARGE = np.empty(8 << 20)            # 64 MiB of float64


def extra_work() -> None:
    for k in range(3):
        _LARGE.fill(float(k))
        _LARGE.sum()


class _WithExtra:
    """Stands in for the cli module: runs the request, then the extra work."""

    def __init__(self, cli):
        self._cli = cli

    def main(self, argv):
        try:
            return self._cli.main(argv)
        finally:
            extra_work()


def check(cli, workload, cycles: int, seed: int) -> dict:
    shim = _WithExtra(cli)
    kernel = [calibrate.kernel_seconds()]
    # Per cycle and kind of pass (extra or not): wall seconds, rescaled seconds.
    wall = {False: [], True: []}
    scaled = {False: [], True: []}
    after = {False: [], True: []}
    for c, cycle in zip(range(cycles), workload.stream(seed)):
        for extra in ((False, True) if c % 2 == 0 else (True, False)):
            times = []
            for req in cycle:
                rc, _, err, dt = run.call(shim if extra else cli, req.argv)
                if rc != 0:
                    raise RuntimeError(f"{' '.join(req.argv)} failed: {err}")
                times.append(dt)
            kernel.append(calibrate.kernel_seconds())
            after[extra].append(kernel[-1])
            wall[extra].append(sum(times))
            scaled[extra].append(sum(calibrate.rescale(times, [0] * len(times), kernel[-2:])))
    wall_ratio = sum(wall[True]) / sum(wall[False])
    scaled_ratio = sum(scaled[True]) / sum(scaled[False])
    # Per cycle: log(rescaled ratio) - log(wall ratio), from the kernel timings alone.
    diffs = [math.log((se / sp) / (we / wp)) for se, sp, we, wp in
             zip(scaled[True], scaled[False], wall[True], wall[False])]
    return {
        "workload": workload.name, "cycles": cycles,
        "wall_ratio": wall_ratio, "rescaled_ratio": scaled_ratio,
        "difference": scaled_ratio / wall_ratio - 1.0,
        "per_cycle_mean": statistics.fmean(diffs),
        "per_cycle_se": statistics.stdev(diffs) / math.sqrt(len(diffs)),
        "kernel_after_extra_over_plain": (statistics.median(after[True])
                                          / statistics.median(after[False])),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cycles", type=int, default=40)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", default=sorted(WORKLOADS),
                        choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run.pin_threads()
    cli = run.import_cli()
    status = 0
    for name in args.workload:
        workload = WORKLOADS[name]
        run.call(cli, workload.warmup.argv)
        row = check(cli, workload, args.cycles, args.seed)
        mean, se = row["per_cycle_mean"], row["per_cycle_se"]
        ok = abs(mean) - 2 * se <= TOLERANCE
        status |= not ok
        print(f"{name:10s} extra/plain: wall {row['wall_ratio']:.4f}, "
              f"rescaled {row['rescaled_ratio']:.4f} ({row['difference']:+.4f}); per cycle "
              f"{mean:+.4f} +- {2 * se:.4f}; kernel after extra / after plain "
              f"{row['kernel_after_extra_over_plain']:.4f}; {args.cycles} cycles "
              f"{'ok' if ok else 'FAILED'}", flush=True)
        print(json.dumps(row), file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
