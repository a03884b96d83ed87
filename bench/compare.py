#!/usr/bin/env python3
"""Verdict of a change against its parent, per workload and metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records that ``run.py`` appends (``--out``), from runs
made alternately on the parent and on the change with the same benchmark
code, seeds and ``--seconds``.  Within a workload (and trace setting) the
i-th parent record is paired with the i-th change record; both must have the
same seed and ``--seconds``.  A workload with fewer than ``stats.MIN_PAIRS``
pairs gets no verdicts.  Bounds and better directions come from BENCHMARK.json; the rule is in
``stats.verdict``.  A change with more failed requests than its parent is
never called improved.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path

import stats

ROOT = Path(__file__).resolve().parent.parent


def load_records(path: Path) -> dict[tuple[str, bool], list[dict]]:
    groups = defaultdict(list)
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                groups[(rec["workload"], bool(rec["trace"]))].append(rec)
    return groups


def metric_specs(benchmark: dict) -> dict[str, dict]:
    specs = {m["name"]: dict(m) for m in benchmark["end_to_end"]}
    specs.update({m["name"]: {**m, "bound": None} for m in benchmark["per_layer"]})
    return specs


class PairingError(ValueError):
    """The two record sets cannot be paired run by run."""


def _pairs(workload: str, p_recs: list[dict], c_recs: list[dict]) -> int:
    if len(p_recs) != len(c_recs):
        raise PairingError(f"{workload}: {len(p_recs)} parent runs against "
                           f"{len(c_recs)} change runs")
    for i, (p, c) in enumerate(zip(p_recs, c_recs)):
        for key in ("seed", "seconds"):
            if p[key] != c[key]:
                raise PairingError(f"{workload}: pair {i} has {key} {p[key]} on the parent "
                                   f"and {c[key]} on the change")
    return len(p_recs)


def failed(records: list[dict]) -> int:
    """Failed or wrong requests over a set of runs."""
    return sum(len(r["errors"]) for r in records)


def compare(parent: dict, change: dict, specs: dict) -> tuple[list[dict], list[str]]:
    """Verdict rows, and a note for each workload left out for too few pairs."""
    rows, skipped = [], []
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        p_recs, c_recs = parent[key], change[key]
        n = _pairs(workload, p_recs, c_recs)
        if n < stats.MIN_PAIRS:
            skipped.append(f"{workload} (trace {int(trace)}): {n} pairs, at least "
                           f"{stats.MIN_PAIRS} are needed; no verdicts")
            continue
        p_failed, c_failed = failed(p_recs), failed(c_recs)
        for name, spec in specs.items():
            if name not in p_recs[0]["metrics"] or name not in c_recs[0]["metrics"]:
                continue
            p = [r["metrics"][name]["value"] for r in p_recs[:n]]
            c = [r["metrics"][name]["value"] for r in c_recs[:n]]
            p_q1, p_med, p_q3 = stats.quartiles(p)
            c_q1, c_med, c_q3 = stats.quartiles(c)
            sign = 1 if spec["better"] == "higher" else -1
            verdict = stats.verdict(p, c, spec["better"], spec["bound"])
            if verdict == "improved" and c_failed > p_failed:
                verdict = "unresolved"
            rows.append({
                "workload": workload, "trace": trace, "metric": name, "unit": spec["unit"],
                "pairs": n, "wins": sum(sign * (y - x) > 0 for x, y in zip(p, c)),
                "parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
                "ratio": c_med / p_med if p_med else None, "bound": spec["bound"],
                "failed": (p_failed, c_failed), "verdict": verdict,
            })
    return rows, skipped


def _fmt(row: dict) -> str:
    p_q1, p_med, p_q3 = row["parent"]
    c_q1, c_med, c_q3 = row["change"]
    unit = row["unit"]
    ratio = ("ratio n/a (parent median 0)" if row["ratio"] is None else
             f"ratio {row['ratio']:.4f} of parent median {p_med:.6g} {unit}")
    bound = "" if row["bound"] is None else f", bound {row['bound']:g} of parent median"
    p_failed, c_failed = row["failed"]
    return (f"{row['workload']:10s} {row['metric']:42s} {row['verdict']:10s} "
            f"change {c_med:.6g} [{c_q1:.6g}, {c_q3:.6g}] vs parent {p_med:.6g} "
            f"[{p_q1:.6g}, {p_q3:.6g}] {unit}; {ratio}; change won {row['wins']}/"
            f"{row['pairs']} pairs{bound}; failed requests {c_failed} change, "
            f"{p_failed} parent")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    specs = metric_specs(json.loads(args.benchmark.read_text()))
    try:
        rows, skipped = compare(load_records(args.parent), load_records(args.change), specs)
    except PairingError as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    for note in skipped:
        print(f"compare: skipped {note}", file=sys.stderr)
    if not rows:
        print("no workload has records in both files", file=sys.stderr)
        return 2
    for row in rows:
        print(_fmt(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
