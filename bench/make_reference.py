#!/usr/bin/env python3
"""Record the outputs that the benchmark checks requests against.

    python3 bench/make_reference.py          # writes bench/reference.json

Runs every request each workload's stream can produce (and the full fig1
panel that the scan slices are cut from) through ``entrobell.cli.main`` and
stores the checked fields.  Run it only on a commit whose outputs are
trusted: the benchmark treats any later disagreement as a wrong answer.
"""

from __future__ import annotations

import json
import sys
import time

from run import BENCH, pin_threads, call, import_cli, provenance
from workloads import WORKLOADS, Request, eval_fields

FIELDS = {
    "minimize": lambda p: {k: p[k] for k in ("d_min", "coarse_d_min", "r_star",
                                             "delta_star", "converged")},
    "eval-fine": eval_fields,
    "sample": lambda p: {k: p[k] for k in ("d_qm_estimate", "std_error")},
}
FIG1 = Request(("scan", "--Delta", "1.5", "--format", "json"))


def _run(cli, req: Request) -> dict:
    rc, text, _, _ = call(cli, req.argv)
    if rc != 0:
        raise SystemExit(f"{' '.join(req.argv)} exited with {rc}")
    return json.loads(text)


def main() -> int:
    env_before = pin_threads()
    cli = import_cli()
    t0 = time.perf_counter()
    panel = _run(cli, FIG1)
    requests = {}
    for name, pick in FIELDS.items():
        for req in WORKLOADS[name].pool():
            requests[" ".join(req.argv)] = pick(_run(cli, req))
        print(f"{name}: {len(WORKLOADS[name].pool())} requests", file=sys.stderr)
    reference = {
        "provenance": provenance(seed=None, env_before=env_before),
        "scan_fig1": {"argv": " ".join(FIG1.argv), "d_qm": panel["d_qm"]},
        "requests": requests,
    }
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(requests)} requests and the fig1 panel in "
          f"{time.perf_counter() - t0:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
