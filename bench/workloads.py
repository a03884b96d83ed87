"""Seeded request streams for the benchmark workloads, and their output checks.

Every workload is a stream of *cycles*.  A cycle is a short, fixed mix of
request shapes; the seed shuffles the order inside the cycle and draws each
request's parameters from a small discrete pool.  Runs always stop at a cycle
boundary, so every run sees the same mix of shapes whatever the seed, and the
spread between seeds comes from the parameters, not from the mix.  The pools
are discrete so that every request the stream can produce has an output
recorded in ``reference.json`` (see ``make_reference.py``).

This module uses only the standard library: the set-up probe imports it
before timing the import of the package itself.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

# The fig1 panel of the package: 41 squeezing rows over [0, 2] and 65 angle
# columns over [0, pi] at bin width 1.5.
FIG1_DELTA_BIN = 1.5
FIG1_R_STEP = 0.05
FIG1_R_ROWS = 41
FIG1_ANGLE_STEP = math.pi / 64
FIG1_ANGLE_COLS = 65

# Tolerances of the output checks.
QUADRATURE_ATOL = 1e-10      # quadrature outputs against the recorded values
ARGMIN_ATOL = 1e-6           # location of a recorded minimum
NEGATIVE_D_TOL = -1e-12      # D >= 0 is a theorem; below this is a bug
# README: "the located minima sit on the r = 0 / delta = 0 boundary at small
# positive values (e.g. +5.5e-4 for Delta = 6, r <= 2)".
README_D_MIN_DELTA6 = 5.484e-4


@dataclass(frozen=True)
class Request:
    """One CLI invocation, as the argument list given to entrobell.cli.main."""

    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str                       # what `throughput` counts
    min_requests: int               # a run never measures fewer requests
    cycle_s: float                  # seconds per cycle at the baseline; sizes traced runs
    warmup: Request                 # small request run before timing
    cycle: Callable[[random.Random], list[Request]]
    check: Callable[[Request, dict, dict], float]   # returns work units
    pool: Callable[[], list[Request]]               # every request the stream can make

    def stream(self, seed: int):
        """Endless sequence of cycles; the same seed gives the same requests."""
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            yield self.cycle(rng)


class WrongOutput(Exception):
    """A request's output fails a check."""


def _f(x: float) -> str:
    return repr(float(x))


def _walk_floats(obj):
    if isinstance(obj, float):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _walk_floats(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _walk_floats(v)


def parse_output(text: str) -> dict:
    """JSON payload of a request; rejects NaN and infinities anywhere in it."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise WrongOutput(f"output is not JSON: {exc}") from None
    if not all(math.isfinite(x) for x in _walk_floats(payload)):
        raise WrongOutput("output holds NaN or infinity")
    return payload


def _nonnegative(name: str, value: float) -> None:
    if value < NEGATIVE_D_TOL:
        raise WrongOutput(f"{name} = {value!r} < 0 breaks the D >= 0 theorem")


def _close(name: str, got: float, want: float, atol: float) -> None:
    if not abs(got - want) <= atol:
        raise WrongOutput(f"{name} = {got!r}, recorded {want!r} (atol {atol:g})")


def _recorded(req: Request, reference: dict) -> dict:
    try:
        return reference["requests"][" ".join(req.argv)]
    except KeyError:
        raise WrongOutput("no recorded output for this request") from None


# --- scan ------------------------------------------------------------------
# Each request is a 5 x 4 slice of the fig1 panel: five squeezing rows eight
# rows apart (so every slice spans the whole r axis and costs about the same)
# and four angle columns at a seeded stride.  A cycle holds the nine row
# offsets once each.

def _scan_request(offset: int, col0: int, stride: int) -> Request:
    return Request((
        "scan", "--Delta", _f(FIG1_DELTA_BIN),
        "--r-range", _f(offset * FIG1_R_STEP), _f((offset + 32) * FIG1_R_STEP),
        "--r-points", "5",
        "--delta-range", _f(col0 * FIG1_ANGLE_STEP),
        _f((col0 + 3 * stride) * FIG1_ANGLE_STEP),
        "--delta-points", "4",
        "--format", "json",
    ))


def _scan_cycle(rng: random.Random) -> list[Request]:
    offsets = list(range(9))
    rng.shuffle(offsets)
    out = []
    for offset in offsets:
        stride = rng.randint(1, 4)
        out.append(_scan_request(offset, rng.randint(0, 64 - 3 * stride), stride))
    return out


def _panel_index(value: float, step: float, count: int, axis: str) -> int:
    i = round(value / step)
    if not (0 <= i < count and abs(value - i * step) <= 1e-12):
        raise WrongOutput(f"{axis} = {value!r} is not on the fig1 panel")
    return i


def _check_scan(req: Request, payload: dict, reference: dict) -> float:
    panel = reference["scan_fig1"]["d_qm"]
    d = payload["d_qm"]
    r_values, d_values = payload["r_values"], payload["delta_values"]
    if (len(d), len(d[0])) != (len(r_values), len(d_values)):
        raise WrongOutput("d_qm matrix shape does not match its axes")
    for i, r in enumerate(r_values):
        ri = _panel_index(r, FIG1_R_STEP, FIG1_R_ROWS, "r")
        for j, delta in enumerate(d_values):
            dj = _panel_index(delta, FIG1_ANGLE_STEP, FIG1_ANGLE_COLS, "delta")
            _nonnegative("d_qm", d[i][j])
            _close(f"d_qm[r={r:.3g}, delta={delta:.3g}]", d[i][j], panel[ri][dj],
                   QUADRATURE_ATOL)
    return float(len(r_values) * len(d_values))


# --- minimize --------------------------------------------------------------
# The coarse-bin boxes of scripts/minima_survey.py at its default squeezing
# cap r <= 2.  The survey's r <= 3 and r <= 4 boxes are left out: one request
# there costs 2-5 s on the large-r ridge, which eval-fine already covers.
# The coarse-point count moves a request's cost by 40 % and the box by 80 %,
# so a cycle holds every box once with each coarse-point count, and gives
# each box the refine-start counts in a seeded order: every cycle has the
# same mix of costs, and the seed picks only the order and the pairing of
# coarse points with refine starts.

MIN_BOX_DELTAS = (3.5, 6.0, 30.0, 50.0, 100.0)
MIN_COARSE_POINTS = (6, 7, 8)
MIN_REFINE_STARTS = (1, 2, 3)


def _min_request(delta_bin: float, coarse: int, starts: int) -> Request:
    return Request((
        "minimize", "--Delta", f"{delta_bin:g}", "--r-range", "0", "2",
        "--coarse-points", str(coarse), "--refine-starts", str(starts),
        "--format", "json",
    ))


def _min_cycle(rng: random.Random) -> list[Request]:
    out = []
    for db in MIN_BOX_DELTAS:
        starts = list(MIN_REFINE_STARTS)
        rng.shuffle(starts)
        out += [_min_request(db, c, s) for c, s in zip(MIN_COARSE_POINTS, starts)]
    rng.shuffle(out)
    return out


def _min_pool() -> list[Request]:
    return [_min_request(db, c, s) for db in MIN_BOX_DELTAS
            for c in MIN_COARSE_POINTS for s in MIN_REFINE_STARTS]


def _check_minimize(req: Request, payload: dict, reference: dict) -> float:
    want = _recorded(req, reference)
    for key in ("d_min", "coarse_d_min"):
        _nonnegative(key, payload[key])
        _close(key, payload[key], want[key], QUADRATURE_ATOL)
    for key in ("r_star", "delta_star"):
        _close(key, payload[key], want[key], ARGMIN_ATOL)
    if payload["converged"] != want["converged"]:
        raise WrongOutput(f"converged = {payload['converged']}, recorded {want['converged']}")
    if payload["Delta"] == 6.0:
        if round(payload["d_min"], 7) != README_D_MIN_DELTA6 or \
                payload["r_star"] != 0.0 or payload["delta_star"] != 0.0:
            raise WrongOutput("Delta = 6 box does not give README's d_min = +5.484e-4 at (0, 0)")
    return float(payload["n_evaluations"])


# --- eval-fine -------------------------------------------------------------
# `eval --mutual-info` at fine bins.  The bin width is tied to r so that every
# fine grid has 101 bins per axis (L = 50) and every fine request costs about
# the same; spreading the bin count instead would make the latency percentiles
# depend on which grids a seed happens to draw.  A cycle is three fine-bin
# points and the large-r ridge point, which has few bins but many panels and
# takes about twice as long as a fine point.  Both latency percentiles (p50
# and p58) therefore fall among the fine points; the ridge, about 40 % of the
# time, shows in `throughput` only.  Putting the tail on the ridge would need
# either half the requests there, which puts p50 on the gap between the two
# shapes, or about 60 requests a run, which is 45 s.

FINE_BIN_FOR_R = {   # r -> Delta giving a 101 x 101 grid at tail_epsilon 1e-12
    "0": "0.1022", "0.2": "0.1062", "0.4": "0.1182",
    "0.6": "0.1375", "0.8": "0.164", "1": "0.1982",
}
FINE_DELTA_PI = ("0.05", "0.1", "0.2", "0.3", "0.4", "0.5")
RIDGE = Request(("eval", "--r", "3", "--delta", "3e-3", "--Delta", "1.5",
                 "--mutual-info", "--format", "json"))


def _eval_request(r: str, delta_pi: str) -> Request:
    return Request(("eval", "--r", r, "--delta-pi", delta_pi, "--Delta", FINE_BIN_FOR_R[r],
                    "--mutual-info", "--format", "json"))


def _eval_cycle(rng: random.Random) -> list[Request]:
    rs = sorted(FINE_BIN_FOR_R)
    out = [_eval_request(rng.choice(rs), rng.choice(FINE_DELTA_PI)) for _ in range(3)]
    out.append(RIDGE)
    rng.shuffle(out)
    return out


def _eval_pool() -> list[Request]:
    return [_eval_request(r, dp) for r in FINE_BIN_FOR_R for dp in FINE_DELTA_PI] + [RIDGE]


def eval_fields(payload: dict) -> dict:
    out = {"d_qm": payload["d_qm"], "mutual_info_margin": payload["mutual_info_margin"]}
    out.update(payload["terms"])
    return out


def _check_eval(req: Request, payload: dict, reference: dict) -> float:
    want = _recorded(req, reference)
    got = eval_fields(payload)
    _nonnegative("d_qm", got["d_qm"])
    for key, value in want.items():
        _close(key, got[key], value, QUADRATURE_ATOL)
    return 1.0


# --- sample ----------------------------------------------------------------
# Alternates a sampler-bound shape (1e6 shots per setting, coarse bins) with a
# bootstrap-bound one (1e5 shots, fine bins, so the contingency tables are
# large).  Both run at the README's headline squeezing.

SAMPLE_SHAPES = (("1000000", "6"), ("100000", "0.25"))
SAMPLE_DELTA_PI = ("0.1", "0.15", "0.213", "0.25", "0.3", "0.35")
SAMPLE_SEEDS = tuple(str(s) for s in range(1, 9))


def _sample_request(shape: tuple[str, str], delta_pi: str, seed: str) -> Request:
    n, delta_bin = shape
    return Request(("sample", "--r", "1.817", "--delta-pi", delta_pi, "--Delta", delta_bin,
                    "--n", n, "--seed", seed, "--format", "json"))


def _sample_cycle(rng: random.Random) -> list[Request]:
    return [_sample_request(shape, rng.choice(SAMPLE_DELTA_PI), rng.choice(SAMPLE_SEEDS))
            for shape in SAMPLE_SHAPES]


def _sample_pool() -> list[Request]:
    return [_sample_request(shape, dp, s) for shape in SAMPLE_SHAPES
            for dp in SAMPLE_DELTA_PI for s in SAMPLE_SEEDS]


def _check_sample(req: Request, payload: dict, reference: dict) -> float:
    want = _recorded(req, reference)
    for key in ("d_qm_estimate", "std_error"):
        if payload[key] != want[key]:     # seeded sampling is bitwise reproducible
            raise WrongOutput(f"{key} = {payload[key]!r}, recorded {want[key]!r} (bitwise)")
    return 4.0 * payload["n_per_setting"]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="scan", unit="d_qm values", min_requests=80, cycle_s=1.3,
            warmup=Request(("scan", "--Delta", "1.5", "--r-points", "2",
                            "--delta-points", "2", "--format", "json")),
            cycle=_scan_cycle, check=_check_scan, pool=lambda: [],
        ),
        Workload(
            name="minimize", unit="d_qm values", min_requests=45, cycle_s=6.8,
            warmup=Request(("minimize", "--Delta", "6", "--coarse-points", "2",
                            "--refine-starts", "1", "--format", "json")),
            cycle=_min_cycle, check=_check_minimize, pool=_min_pool,
        ),
        Workload(
            name="eval-fine", unit="d_qm values", min_requests=24, cycle_s=2.6,
            warmup=Request(("eval", "--r", "0.5", "--delta", "0.5", "--Delta", "0.5",
                            "--mutual-info", "--format", "json")),
            cycle=_eval_cycle, check=_check_eval, pool=_eval_pool,
        ),
        Workload(
            name="sample", unit="shots", min_requests=30, cycle_s=1.0,
            warmup=Request(("sample", "--r", "1.817", "--delta-pi", "0.213", "--Delta", "6",
                            "--n", "1000", "--bootstrap", "20", "--seed", "1",
                            "--format", "json")),
            cycle=_sample_cycle, check=_check_sample, pool=_sample_pool,
        ),
    )
}


def check_output(workload: Workload, req: Request, rc: int, text: str,
                 reference: dict) -> float:
    """Work units the request delivered; raises WrongOutput if it failed."""
    if rc != 0:
        raise WrongOutput(f"exit code {rc}")
    return workload.check(req, parse_output(text), reference)
