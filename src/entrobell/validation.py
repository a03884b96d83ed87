"""Self-check suite behind the `validate` command.

Each check re-derives an exact property of the pipeline from scratch and
reports pass/fail with a measured worst case.  The suite exists so a
miscompiled dependency, an aggressive BLAS, or a source regression shows
up as a named failure rather than as silently wrong physics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .bell import AngleGeometry, evaluate, evaluate_general, scan_zero_delta
from .coarse_grain import (
    PANEL_QUADRATURE,
    RECTANGLE_CDF,
    binned_joint,
    binned_marginal,
)
from .entropy import conditional_entropy, s_qm
from .gaussian_core import (
    PhaseSettings,
    TmsvParams,
    closed_form_amplitude,
    coefficients,
    fock_amplitude,
    joint_pdf,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def check_normalization(quick: bool = False) -> tuple[bool, str]:
    """Coefficient identity pi/sqrt(v^2-w^2) = norm_z and captured mass near 1."""
    worst_id = 0.0
    for r in np.linspace(0.0, 4.0, 9 if quick else 41):
        for ph in np.linspace(0.0, 2.0 * np.pi, 9 if quick else 25):
            c = coefficients(TmsvParams(float(r)), PhaseSettings(0.0, float(ph)))
            lhs = np.pi / np.sqrt(c.v_minus_w * c.v_plus_w)
            worst_id = max(worst_id, abs(lhs / c.norm_z - 1.0))

    cases = [(0.7, 0.3, 1.0), (1.817, 0.669, 6.0)]
    if not quick:
        cases += [(3.0, 0.05, 10.0), (0.0, 1.0, 2.0), (2.4, 2.9, 0.8)]
    worst_mass = 0.0
    for r, ph, db in cases:
        dist = binned_joint(TmsvParams(r), ph, db)
        worst_mass = max(worst_mass, abs(dist.captured_mass - 1.0))
    return (worst_id <= 1e-12 and worst_mass <= 2e-11,
            f"coefficient identity off by {worst_id:.2e}, "
            f"captured mass off by {worst_mass:.2e}")


def check_fock_oracle(quick: bool = False) -> tuple[bool, str]:
    """Number-basis summation against the closed-form Gaussian density.

    Where the density falls below 1e-18 the summation sits at its float64
    roundoff floor (the partial sums telescope), so only absolute agreement
    is meaningful there; above it the comparison is relative.
    """
    xs = np.linspace(-3.0, 3.0, 5 if quick else 9)
    aa, bb = np.meshgrid(xs, xs)
    worst_rel = 0.0
    worst_abs = 0.0
    worst_amp = 0.0
    for r in (0.5, 1.0):
        for theta, phi in ((0.0, 0.0), (0.3, 0.4)):
            state = TmsvParams(r)
            amp = fock_amplitude(state, theta, phi, aa, bb, n_max=400)
            closed = closed_form_amplitude(state, theta, phi, aa, bb)
            pdf = joint_pdf(coefficients(state, PhaseSettings(theta, phi)), aa, bb)
            diff = np.abs(np.abs(amp) ** 2 - pdf)
            deep = pdf < 1e-18
            if not np.all(deep):
                worst_rel = max(worst_rel, float(np.max(diff[~deep] / pdf[~deep])))
            if np.any(deep):
                worst_abs = max(worst_abs, float(np.max(diff[deep])))
            worst_amp = max(worst_amp, float(np.max(np.abs(amp - closed))))
    return (worst_rel <= 1e-8 and worst_abs <= 1e-18 and worst_amp <= 1e-8,
            f"|amp|^2 vs pdf relative {worst_rel:.2e} "
            f"(absolute {worst_abs:.2e} below the floor), "
            f"amp vs closed form {worst_amp:.2e}")


def check_method_agreement(quick: bool = False) -> tuple[bool, str]:
    """Panel quadrature against the rectangle-CDF route, matrix against matrix.

    The full suite adds three points on the ridge phi_sum = 0, at r = 6, 8
    and 10, where the panels are sized by the conditional slab edge, not by
    sigma_a.  At (10, 0, 100) the uniform panels, over a million per window,
    would pass the panel cap; the edge-adapted ones the kernel takes do not.
    """
    rng = np.random.default_rng(20260817)
    n_sets = 6 if quick else 20
    draws = [(float(rng.uniform(0.0, 4.0)), float(rng.uniform(0.0, 2.0 * np.pi)),
              float(np.exp(rng.uniform(np.log(0.5), np.log(100.0))))) for _ in range(n_sets)]
    if not quick:
        draws += [(6.0, 0.0, 10.0), (8.0, 0.0, 30.0), (10.0, 0.0, 100.0)]
    worst = 0.0
    for r, ph, db in draws:
        state = TmsvParams(r)
        p1 = binned_joint(state, ph, db, method=PANEL_QUADRATURE).probs
        p2 = binned_joint(state, ph, db, method=RECTANGLE_CDF).probs
        worst = max(worst, float(np.max(np.abs(p1 - p2))))
    return worst <= 1e-10, (f"worst |panel - rectangle| = {worst:.2e} "
                            f"over {n_sets} parameter draws"
                            + ("" if quick else " and 3 ridge points"))


def check_entropy_bounds(quick: bool = False) -> tuple[bool, str]:
    """S(A,B) >= S(A) >= S(A|B) >= 0 plus subadditivity on sampled joints."""
    cases = [(0.0, 0.0, 1.0), (1.0, 0.0, 1.0), (1.817, 0.669, 6.0)]
    if not quick:
        cases += [(2.0, 1.2, 3.0), (0.5, 2.8, 0.7), (3.0, 0.4, 12.0)]
    margin = 0.0
    for r, ph, db in cases:
        terms = conditional_entropy(binned_joint(TmsvParams(r), ph, db))
        checks = [
            terms.s_joint - terms.s_marginal_a,
            terms.s_joint - terms.s_marginal_b,
            terms.s_conditional,
            terms.s_marginal_a - terms.s_conditional,
            terms.s_marginal_a + terms.s_marginal_b - terms.s_joint,
        ]
        margin = min(margin, min(checks))
    return margin >= -1e-10, f"worst inequality margin {margin:.2e} (>= -1e-10 required)"


def check_symmetries(quick: bool = False) -> tuple[bool, str]:
    """Phase-sum evenness and periodicity of the conditional entropy."""
    worst = 0.0
    phases = (0.5,) if quick else (0.1, 0.5, 2.0)
    for ph in phases:
        state = TmsvParams(1.817)
        base = s_qm(state, ph, 6.0)
        worst = max(worst, abs(base - s_qm(state, -ph, 6.0)))
        worst = max(worst, abs(base - s_qm(state, 2.0 * np.pi - ph, 6.0)))
    return worst <= 1e-10, f"worst S(phi) asymmetry {worst:.2e}"


def check_base_angle_invariance(quick: bool = False) -> tuple[bool, str]:
    """d_qm depends on the angles only through their pairwise sums."""
    delta = 0.6
    db = 2.0 if quick else 4.0
    state = TmsvParams(1.5)
    ref = evaluate(state, AngleGeometry(delta=delta, theta=0.0), db).d_qm
    alt = evaluate(state, AngleGeometry(delta=delta, theta=1.1), db).d_qm
    g = AngleGeometry(delta=delta, theta=0.3)
    gen = evaluate_general(state, g.theta, g.theta_prime, g.phi, g.phi_prime, db).d_qm
    worst = max(abs(ref - alt), abs(ref - gen))
    return worst <= 1e-10, f"worst base-angle dependence {worst:.2e}"


def check_boundary_nonnegativity(quick: bool = False) -> tuple[bool, str]:
    """Zero-offset value 2 S_qm(0) is never negative."""
    n = 3 if quick else 5
    res = scan_zero_delta(np.linspace(0.0, 2.5, n), np.linspace(0.8, 8.0, n))
    low = float(res.d_qm.min())
    return low >= 0.0, f"minimum zero-offset value {low:.3e}"


def check_marginal_consistency(quick: bool = False) -> tuple[bool, str]:
    """Rows of the binned joint sum to the directly binned marginal."""
    cases = [(1.0, 0.0, 1.0)] if quick else [(1.0, 0.0, 1.0), (2.0, 0.9, 3.0),
                                             (0.3, 2.2, 0.6)]
    worst = 0.0
    for r, ph, db in cases:
        state = TmsvParams(r)
        dist = binned_joint(state, ph, db)
        direct = binned_marginal(state, dist.grid)
        worst = max(worst, float(np.max(np.abs(dist.marginal_b() - direct.probs))))
        worst = max(worst, float(np.max(np.abs(dist.marginal_a() - direct.probs))))
    return worst <= 1e-9, f"worst row-sum vs direct-bin gap {worst:.2e}"


# The suite, in report order: each check takes `quick` and returns (passed, detail).
_CHECKS = (
    ("normalization", check_normalization),
    ("fock-oracle", check_fock_oracle),
    ("method-cross-validation", check_method_agreement),
    ("entropy-bounds", check_entropy_bounds),
    ("phase-symmetry", check_symmetries),
    ("base-angle-invariance", check_base_angle_invariance),
    ("boundary-nonnegativity", check_boundary_nonnegativity),
    ("marginal-consistency", check_marginal_consistency),
)


def run_checks(quick: bool = False) -> list[CheckResult]:
    """Run the suite, timing each check; quick mode trims sample counts to finish in seconds.

    A check that raises is recorded as failed, with the exception as its
    detail, and the rest still run.
    """
    results = []
    for name, check in _CHECKS:
        t0 = time.perf_counter()
        try:
            passed, detail = check(quick)
        except Exception as exc:  # a check that cannot finish has failed
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, time.perf_counter() - t0))
    return results
