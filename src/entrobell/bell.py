"""Entropic Bell functional for coarse-grained homodyne measurements.

Alice measures quadratures at phases theta or theta', Bob at phi or phi'.
For the one-parameter family

    theta' = theta - 2 delta / 3,   phi = -theta + delta,   phi' = -theta + delta / 3,

the chained entropic inequality

    0 <= S(A|B') + S(B'|A') + S(A'|B) - S(A|B)

reduces, because each term depends only on the phase sum of its setting
pair, to  d_qm = 3 S_qm(delta/3) - S_qm(delta).  A negative value
certifies that no noncontextual joint assignment reproduces the binned
statistics.  This module evaluates the functional, scans it over parameter
grids, and minimises it over (r, delta).  It only lists the phase sums each
value reads; entropy._joint_terms decides which of them share a joint.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from ._version import __version__
from .coarse_grain import DEFAULT_TAIL_EPSILON, PANEL_QUADRATURE, make_grid
# the benchmark's tracer test reads binned_joint here and in entropy
from .coarse_grain import binned_joint  # noqa: F401
from .entropy import EntropyTerms, _joint_terms, _s_qm_values
from .gaussian_core import TmsvParams

SCAN_CSV_HEADER = "r,delta,Delta,d_qm"

# Most points that one scan, scan_zero_delta or minimize coarse stage
# evaluates: 37 times the 41 x 65 fig1 panel and 32 times minimize's default
# 48 x (48 + 16) coarse grid.  A request holds about 2 KB a point: a 100 x 1000
# scan at Delta = 6 took 22 s and peaked at 270 MiB RSS on a 2-vCPU host.
_MAX_POINTS = 100_000


def _check_points(n: int) -> None:
    """Reject a request of no points, or of more than _MAX_POINTS, before any is listed."""
    if not 1 <= n <= _MAX_POINTS:
        raise ValueError(f"need between 1 and {_MAX_POINTS} grid points, got {n}")


def _provenance(tail_epsilon: float) -> dict:
    """Keys that say which code made a result."""
    return {"version": __version__, "method": PANEL_QUADRATURE, "tail_epsilon": tail_epsilon}


def _write_scan_csv(fh, rows) -> None:
    """SCAN_CSV_HEADER, then one row per (r, delta, Delta, d_qm) tuple."""
    fh.write(SCAN_CSV_HEADER + "\n")
    for row in rows:
        fh.write(",".join(f"{v:.12g}" for v in row) + "\n")


def _pair_sums(theta: float, theta_prime: float,
               phi: float, phi_prime: float) -> tuple[float, float, float, float]:
    """Phase sums of the pairs (A,B'), (A',B'), (A',B), (A,B)."""
    return (theta + phi_prime, theta_prime + phi_prime, theta_prime + phi, theta + phi)


def _chained(terms: tuple[EntropyTerms, EntropyTerms, EntropyTerms, EntropyTerms]) -> float:
    """S(A|B') + S(B'|A') + S(A'|B) - S(A|B) from the terms of (A,B'), (A',B'), (A',B), (A,B)."""
    ab_prime, apbp, aprime_b, ab = terms
    return (ab_prime.s_conditional + apbp.s_b_given_a
            + aprime_b.s_conditional - ab.s_conditional)


@dataclass(frozen=True)
class AngleGeometry:
    """Measurement angles of the chained inequality, parametrised by delta.

    theta is the free base angle; the functional is invariant under it and
    it is exposed only so that invariance can be tested.
    """

    delta: float
    theta: float = 0.0

    @property
    def theta_prime(self) -> float:
        return self.theta - 2.0 * self.delta / 3.0

    @property
    def phi(self) -> float:
        return -self.theta + self.delta

    @property
    def phi_prime(self) -> float:
        return -self.theta + self.delta / 3.0

    def pair_sums(self) -> tuple[float, float, float, float]:
        """Phase sums of the pairs (A,B'), (A',B'), (A',B), (A,B)."""
        return _pair_sums(self.theta, self.theta_prime, self.phi, self.phi_prime)


@dataclass(frozen=True)
class BellEvaluation:
    """The four conditional-entropy terms and their chained combination.

    `terms` holds the entropies of the joints of the pairs (A,B'), (A',B'),
    (A',B) and (A,B), in that order; every other quantity derives from them.
    """

    r: float
    delta_bin: float
    tail_epsilon: float
    theta: float
    theta_prime: float
    phi: float
    phi_prime: float
    terms: tuple[EntropyTerms, EntropyTerms, EntropyTerms, EntropyTerms]
    grid_l_max: int
    delta: float | None = None

    @property
    def term_a_given_bprime(self) -> float:
        return self.terms[0].s_conditional

    @property
    def term_bprime_given_aprime(self) -> float:
        return self.terms[1].s_b_given_a

    @property
    def term_aprime_given_b(self) -> float:
        return self.terms[2].s_conditional

    @property
    def term_a_given_b(self) -> float:
        return self.terms[3].s_conditional

    @property
    def d_qm(self) -> float:
        return _chained(self.terms)

    @property
    def mutual_info_margin(self) -> float:
        """Violation margin of the mutual-information form of the inequality.

        Returns LHS - RHS of
            I(A;B') + I(A';B') + I(A';B) - I(A;B) <= S(A') + S(B'),
        so positive values signal violation.  Equals -d_qm up to the
        numerical agreement of the (phase-independent) marginal entropies
        across settings.
        """
        ab_prime, apbp, aprime_b, ab = self.terms
        lhs = (ab_prime.mutual_information + apbp.mutual_information
               + aprime_b.mutual_information - ab.mutual_information)
        rhs = apbp.s_marginal_a + ab_prime.s_marginal_b
        return lhs - rhs

    def to_dict(self) -> dict:
        return {
            **_provenance(self.tail_epsilon),
            "r": self.r,
            "delta": self.delta,
            "Delta": self.delta_bin,
            "theta": self.theta,
            "theta_prime": self.theta_prime,
            "phi": self.phi,
            "phi_prime": self.phi_prime,
            "terms": {
                "S(A|B')": self.term_a_given_bprime,
                "S(B'|A')": self.term_bprime_given_aprime,
                "S(A'|B)": self.term_aprime_given_b,
                "S(A|B)": self.term_a_given_b,
            },
            "d_qm": self.d_qm,
            "grid_l_max": self.grid_l_max,
        }


def _evaluate_with_joints(state: TmsvParams, theta: float, theta_prime: float,
                          phi: float, phi_prime: float, delta_bin: float,
                          tail_epsilon: float, delta: float | None = None,
                          joints: list | None = None) -> BellEvaluation:
    """`evaluate_general`, with the four pair joints in one _joint_terms call.

    If `joints` is a list, it receives the joints of (A,B'), (A',B'),
    (A',B) and (A,B), each carrying its own phase sum.
    """
    sums = _pair_sums(theta, theta_prime, phi, phi_prime)
    return BellEvaluation(
        r=state.r, delta_bin=delta_bin, tail_epsilon=tail_epsilon,
        theta=theta, theta_prime=theta_prime, phi=phi, phi_prime=phi_prime,
        terms=tuple(_joint_terms([(state, s) for s in sums], delta_bin, tail_epsilon, joints)),
        grid_l_max=make_grid(state, delta_bin, tail_epsilon).l_max, delta=delta,
    )


def evaluate_general(state: TmsvParams, theta: float, theta_prime: float,
                     phi: float, phi_prime: float, delta_bin: float,
                     tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> BellEvaluation:
    """Chained combination for four arbitrary angles.

    Builds the joint of each setting pair from its own phase sum; the only
    joints shared are bitwise identical ones, a pair at -phi taking the
    joint at phi.  The reduction identity of the one-parameter geometry is
    not used, so it can be verified against this rather than being baked in.
    """
    return _evaluate_with_joints(state, theta, theta_prime, phi, phi_prime,
                                 delta_bin, tail_epsilon)


def evaluate(state: TmsvParams, geometry: AngleGeometry, delta_bin: float,
             tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> BellEvaluation:
    """Chained combination for the one-parameter angle family."""
    g = geometry
    return _evaluate_with_joints(state, g.theta, g.theta_prime, g.phi, g.phi_prime,
                                 delta_bin, tail_epsilon, g.delta)


def evaluate_mutual_info(state: TmsvParams, geometry: AngleGeometry, delta_bin: float,
                         tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> float:
    """`BellEvaluation.mutual_info_margin` of the one-parameter angle family."""
    return evaluate(state, geometry, delta_bin, tail_epsilon).mutual_info_margin


def d_qm_value(state: TmsvParams, delta: float, delta_bin: float,
               tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> float:
    """d_qm = 3 S_qm(delta/3) - S_qm(delta), the reduced two-entropy form.

    S_qm at a phase sum phi is taken at |phi|, where it has the same value
    bit for bit, and at pi - |phi| for |phi| in (pi/2, pi], where it has the
    same value up to roundoff.
    """
    return _d_qm_values([(state.r, delta)], delta_bin, tail_epsilon)[0]


def _folded(phase: float) -> float:
    """|phase|, or pi - |phase| for |phase| in (pi/2, pi].

    S(-phi) = S(phi) bit for bit, as the joint is bitwise even in the phase
    sum.  S(phi) = S(pi - phi): the density at pi - phi is the one at phi
    with b -> -b, and the grid is symmetric, so the joint at pi - phi is the
    one at phi with its columns reversed, up to roundoff (S moves by at most
    a few 1e-15).
    """
    phase = abs(phase)
    return math.pi - phase if math.pi / 2 < phase <= math.pi else phase


def _d_qm_values(points, delta_bin: float, tail_epsilon: float) -> list[float]:
    """d_qm_value at each (r, delta) of `points`, in one _s_qm_values call.

    Phase sums are folded into [0, pi/2] first, so that S(phi), S(-phi) and
    S(pi - phi) share one joint.
    """
    s = _s_qm_values([(TmsvParams(r), _folded(phase))
                      for r, delta in points for phase in (delta / 3.0, delta)],
                     delta_bin, tail_epsilon)
    return [3.0 * s_third - s_full for s_third, s_full in zip(s[::2], s[1::2])]


@dataclass(frozen=True)
class ScanResult:
    """d_qm on an (r, delta) grid at fixed bin width."""

    r_values: np.ndarray
    delta_values: np.ndarray
    delta_bin: float
    d_qm: np.ndarray
    tail_epsilon: float
    grid_l_range: tuple[int, int]

    def min_entry(self) -> tuple[float, float, float]:
        """(d_min, r, delta) of the most negative grid cell."""
        i, j = np.unravel_index(np.argmin(self.d_qm), self.d_qm.shape)
        return float(self.d_qm[i, j]), float(self.r_values[i]), float(self.delta_values[j])

    def _csv_rows(self):
        for i, r in enumerate(self.r_values):
            for j, d in enumerate(self.delta_values):
                yield r, d, self.delta_bin, self.d_qm[i, j]

    def to_csv(self, fh) -> None:
        _write_scan_csv(fh, self._csv_rows())

    def to_dict(self) -> dict:
        return {
            **_provenance(self.tail_epsilon),
            "kind": "scan",
            "delta_bin": self.delta_bin,
            "grid_l_range": list(self.grid_l_range),
            "r_values": self.r_values.tolist(),
            "delta_values": self.delta_values.tolist(),
            "d_qm": self.d_qm.tolist(),
        }


def scan(state_values, delta_values, delta_bin: float,
         tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> ScanResult:
    """Dense d_qm matrix over squeezing values (rows) and angle offsets (columns)."""
    r_values = np.asarray(state_values, dtype=float)
    d_values = np.asarray(delta_values, dtype=float)
    _check_points(r_values.size * d_values.size)
    mat = np.array(_d_qm_values([(r, d) for r in r_values for d in d_values],
                                delta_bin, tail_epsilon), dtype=float).reshape(len(r_values), len(d_values))
    l_lo = make_grid(TmsvParams(float(r_values.min())), delta_bin, tail_epsilon).l_max
    l_hi = make_grid(TmsvParams(float(r_values.max())), delta_bin, tail_epsilon).l_max
    return ScanResult(
        r_values=r_values, delta_values=d_values, delta_bin=delta_bin,
        d_qm=mat, tail_epsilon=tail_epsilon, grid_l_range=(l_lo, l_hi),
    )


@dataclass(frozen=True)
class ZeroOffsetScanResult:
    """d_qm at delta = 0 (equal to 2 S_qm(0), hence never negative) over (r, Delta)."""

    r_values: np.ndarray
    delta_bin_values: np.ndarray
    d_qm: np.ndarray
    tail_epsilon: float

    def to_csv(self, fh) -> None:
        _write_scan_csv(fh, ((r, 0.0, db, self.d_qm[i, j])
                             for i, r in enumerate(self.r_values)
                             for j, db in enumerate(self.delta_bin_values)))

    def to_dict(self) -> dict:
        return {
            **_provenance(self.tail_epsilon),
            "kind": "zero-offset-scan",
            "r_values": self.r_values.tolist(),
            "delta_bin_values": self.delta_bin_values.tolist(),
            "d_qm": self.d_qm.tolist(),
        }


def scan_zero_delta(state_values, delta_bin_values,
                    tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> ZeroOffsetScanResult:
    """Map of the delta = 0 boundary value 2 S_qm(0) over (r, Delta).

    At delta = 0 all four setting pairs coincide, so the chained combination
    degenerates to 2 S_qm(0) >= 0: the inequality cannot be violated on this
    axis, whatever the bin width.  The map documents how far from zero the
    boundary value sits.
    """
    r_values = np.asarray(state_values, dtype=float)
    db_values = np.asarray(delta_bin_values, dtype=float)
    _check_points(r_values.size * db_values.size)
    # one batch per bin-width column
    columns = [_s_qm_values([(TmsvParams(r), 0.0) for r in r_values], db, tail_epsilon)
               for db in db_values]
    mat = 2.0 * np.array(columns, dtype=float).reshape(len(db_values), len(r_values)).T
    return ZeroOffsetScanResult(
        r_values=r_values, delta_bin_values=db_values, d_qm=mat,
        tail_epsilon=tail_epsilon,
    )


@dataclass(frozen=True)
class MinimizeOptions:
    """Multi-start simplex search configuration.

    The coarse stage samples ``coarse_points`` values of r and of delta, plus
    16 log-spaced delta columns accumulating at the lower delta bound, where
    the landscape develops very sharp minima for large r.  Nelder-Mead then
    refines from the ``refine_starts`` best coarse points.  The coarse grid
    may hold at most _MAX_POINTS points.
    """

    coarse_points: int = 48
    refine_starts: int = 8

    def __post_init__(self):
        if self.coarse_points < 1 or self.refine_starts < 0:
            raise ValueError("need coarse_points >= 1 and refine_starts >= 0, got "
                             f"{self.coarse_points} and {self.refine_starts}")
        _check_points(self.coarse_points * (self.coarse_points + 16))


@dataclass(frozen=True)
class MinimizationResult:
    r_star: float
    delta_star: float
    d_min: float
    delta_bin: float
    converged: bool
    n_evaluations: int
    coarse_d_min: float
    r_bounds: tuple[float, float]
    delta_bounds: tuple[float, float]
    tail_epsilon: float

    def to_dict(self) -> dict:
        return {
            **_provenance(self.tail_epsilon),
            "kind": "minimize",
            "r_star": self.r_star,
            "delta_star": self.delta_star,
            "delta_star_over_pi": self.delta_star / math.pi,
            "d_min": self.d_min,
            "Delta": self.delta_bin,
            "converged": self.converged,
            "n_evaluations": self.n_evaluations,
            "coarse_d_min": self.coarse_d_min,
            "r_bounds": list(self.r_bounds),
            "delta_bounds": list(self.delta_bounds),
        }


def _coarse_deltas(lo: float, hi: float, n: int) -> np.ndarray:
    linear = np.linspace(lo, hi, n)
    if hi > lo:
        log_part = lo + (hi - lo) * np.geomspace(1e-5, 0.2, 16)
        return np.unique(np.concatenate([linear, log_part]))
    return linear


def minimize(r_bounds: tuple[float, float], delta_bounds: tuple[float, float],
             delta_bin: float, tail_epsilon: float = DEFAULT_TAIL_EPSILON,
             options: MinimizeOptions = MinimizeOptions()) -> MinimizationResult:
    """Global minimum of d_qm over (r, delta) within bounds.

    Coarse grid enumeration followed by Nelder-Mead refinement from the
    best cells.  Fully deterministic; if no simplex run converges within
    budget the best point seen is still returned, flagged converged=False.
    """
    r_lo, r_hi = map(float, r_bounds)
    d_lo, d_hi = map(float, delta_bounds)
    if not (r_hi >= r_lo >= 0.0) or not (d_hi >= d_lo):
        raise ValueError("bounds must be ordered and squeezing non-negative")

    r_grid = np.linspace(r_lo, r_hi, options.coarse_points)
    d_grid = _coarse_deltas(d_lo, d_hi, options.coarse_points)
    jobs = [(r, d) for r in r_grid for d in d_grid]

    flat = np.array(_d_qm_values(jobs, delta_bin, tail_epsilon))
    n_evals = len(jobs)
    coarse_d_min = float(flat.min())

    order = np.argsort(flat, kind="stable")
    best = {"x": jobs[int(order[0])], "f": float(flat[order[0]])}

    def objective(x) -> float:
        r, d = float(x[0]), float(x[1])  # Nelder-Mead clips every point into bounds
        val = d_qm_value(TmsvParams(r), d, delta_bin, tail_epsilon)
        if val < best["f"]:
            best["x"], best["f"] = (r, d), val
        return val

    converged = False
    for s in order[: options.refine_starts]:
        x0 = np.array(jobs[int(s)])
        res = optimize.minimize(
            objective, x0, method="Nelder-Mead",
            bounds=[(r_lo, r_hi), (d_lo, d_hi)],
            options={"xatol": 1e-4, "fatol": 1e-5, "maxiter": 400, "disp": False},
        )
        n_evals += res.nfev
        converged = converged or bool(res.success)

    r_star, delta_star = best["x"]
    return MinimizationResult(
        r_star=float(r_star), delta_star=float(delta_star), d_min=float(best["f"]),
        delta_bin=delta_bin, converged=converged, n_evaluations=n_evals,
        coarse_d_min=coarse_d_min, r_bounds=(r_lo, r_hi), delta_bounds=(d_lo, d_hi),
        tail_epsilon=tail_epsilon,
    )


def write_json(obj, fh) -> None:
    json.dump(obj.to_dict() if hasattr(obj, "to_dict") else obj, fh, indent=2, sort_keys=True)
    fh.write("\n")
