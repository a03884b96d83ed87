"""Quadrature statistics of the two-mode squeezed vacuum state.

Both modes are probed by homodyne measurements of the rotated quadratures
x_theta = (x cos(theta) + p sin(theta)), normalised so that the vacuum
variance is 1/2.  For a squeezing parameter r the joint outcome density of
the two homodyne records (a, b) is a centred bivariate Gaussian

    p(a, b) = exp(-(a^2 + b^2) v + 2 a b w) / Z,

whose coefficients v, w depend on r and on the measured phases only through
their sum phi_sum = theta + phi.  This module provides the closed-form
coefficients, the joint and single-mode densities, their differential
entropies, and a number-basis (Fock) series for the joint amplitude that
serves as an independent cross-check of the Gaussian closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class TruncationNotConverged(Exception):
    """Fock series truncated before the requested relative tolerance."""


_SQRT_PI = math.sqrt(math.pi)
# Probabilities and series terms below this scale are treated as zero.
_TINY = 1e-300


@dataclass(frozen=True)
class TmsvParams:
    """Two-mode squeezed vacuum with squeezing parameter r >= 0."""

    r: float

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing parameter must be finite and >= 0, got {self.r}")

    @property
    def cosh_2r(self) -> float:
        return math.cosh(2.0 * self.r)

    @property
    def marginal_sigma(self) -> float:
        """Standard deviation of either homodyne record, sqrt(cosh(2r)/2)."""
        return math.sqrt(0.5 * self.cosh_2r)


@dataclass(frozen=True)
class PhaseSettings:
    """Local oscillator phases (theta on mode A, phi on mode B).

    The joint statistics depend on the pair only through phi_sum.
    """

    theta: float
    phi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError(f"phases must be finite, got theta={self.theta}, phi={self.phi}")

    @property
    def phi_sum(self) -> float:
        return self.theta + self.phi


@dataclass(frozen=True)
class JointGaussianCoefficients:
    """Coefficients of the joint quadrature density exp(-(a^2+b^2)v + 2abw)/norm_z.

    v_minus_w and v_plus_w are carried separately because v - w underflows
    catastrophically when formed by subtraction at large r and phi_sum near
    0 (v and w both grow like cosh(2r) while their difference shrinks like
    exp(-2r)).
    """

    v: float
    w: float
    norm_z: float
    r: float
    phi_sum: float
    v_minus_w: float
    v_plus_w: float

    @property
    def det_quadratic_form(self) -> float:
        """v^2 - w^2, evaluated without cancellation."""
        return self.v_minus_w * self.v_plus_w

    @property
    def correlation(self) -> float:
        """Pearson correlation of the two records, w/v = tanh(2r) cos(phi_sum)."""
        return self.w / self.v

    @property
    def sigma_marginal(self) -> float:
        """Per-record standard deviation sqrt(v / (2 (v^2 - w^2)))."""
        return math.sqrt(self.v / (2.0 * self.det_quadratic_form))

    @property
    def sigma_conditional(self) -> float:
        """Std deviation of one record given the other, 1/sqrt(2v)."""
        return 1.0 / math.sqrt(2.0 * self.v)


def coefficients(state: TmsvParams, settings: PhaseSettings) -> JointGaussianCoefficients:
    """Closed-form coefficients of the joint homodyne density.

    With t = tanh(r) exp(-i phi_sum):

        |1 - t^2|^2 = 1 + tanh(r)^4 - 2 tanh(r)^2 cos(2 phi_sum)
        v = (1 - tanh(r)^4) / |1 - t^2|^2
        w = 2 tanh(r) cos(phi_sum) (1 - tanh(r)^2) / |1 - t^2|^2
        norm_z = pi |1 - t^2| cosh(r)^2

    Everything is assembled from exp(-2r) so the results stay accurate to a
    few ulp even where naive tanh-polynomial differences would cancel.
    """
    r = state.r
    phi = settings.phi_sum
    em = math.exp(-2.0 * r)
    th = (1.0 - em) / (1.0 + em)          # tanh(r)
    th2 = th * th
    one_minus_th2 = 4.0 * em / (1.0 + em) ** 2   # 1 - tanh(r)^2 = sech(r)^2
    sin_phi = math.sin(phi)
    # |1 - t^2|^2 written as (1 - th^2)^2 + 4 th^2 sin(phi)^2: no cancellation.
    abs2 = one_minus_th2 ** 2 + 4.0 * th2 * sin_phi ** 2
    v = one_minus_th2 * (1.0 + th2) / abs2
    w = 2.0 * th * math.cos(phi) * one_minus_th2 / abs2
    # 1 + th^2 -+ 2 th cos(phi) = (1 - th)^2 + 2 th (1 -+ cos(phi)); with
    # half-angle forms both are sums of positives, so v -+ w never cancels,
    # neither at phi ~ 0 (correlated ridge) nor at phi ~ pi (anti-ridge).
    one_minus_th_sq = (2.0 * em / (1.0 + em)) ** 2
    q_minus = one_minus_th_sq + 4.0 * th * math.sin(0.5 * phi) ** 2
    q_plus = one_minus_th_sq + 4.0 * th * math.cos(0.5 * phi) ** 2
    v_minus_w = one_minus_th2 * q_minus / abs2
    v_plus_w = one_minus_th2 * q_plus / abs2
    norm_z = math.pi * math.sqrt(abs2) * math.cosh(r) ** 2
    return JointGaussianCoefficients(
        v=v, w=w, norm_z=norm_z,
        r=r, phi_sum=phi, v_minus_w=v_minus_w, v_plus_w=v_plus_w,
    )


def joint_pdf(coeffs: JointGaussianCoefficients, a, b):
    """Joint density of the two homodyne records; broadcasts over a, b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    expo = -(a * a + b * b) * coeffs.v + 2.0 * a * b * coeffs.w
    return np.exp(expo) / coeffs.norm_z


def marginal_pdf(state: TmsvParams, b):
    """Single-record density exp(-b^2/cosh(2r)) / sqrt(pi cosh(2r)).

    Independent of the measured phases.
    """
    return _marginal_density(np.asarray(b, dtype=float), state.cosh_2r)


def _marginal_density(b: np.ndarray, cosh_2r):
    """marginal_pdf at b for cosh(2r) = cosh_2r, a number or an array broadcast against b."""
    return np.exp(-b * b / cosh_2r) / np.sqrt(math.pi * cosh_2r)


def differential_entropies(state: TmsvParams, settings: PhaseSettings) -> tuple[float, float, float]:
    """Differential entropies (s_joint, s_marginal, s_conditional) in nats.

    Diagnostic quantities for the fine-grained limit: a width-Delta
    discretisation of the marginal approaches s_marginal - ln(Delta), and
    the joint approaches s_joint - 2 ln(Delta), as Delta -> 0.
    """
    c = coefficients(state, settings)
    s_marginal = 0.5 * math.log(math.pi * math.e * state.cosh_2r)
    s_joint = 1.0 + math.log(math.pi) - 0.5 * (math.log(c.v_minus_w) + math.log(c.v_plus_w))
    return s_joint, s_marginal, s_joint - s_marginal


def _hermite_stream(n_max: int, x: np.ndarray):
    """Yield psi_0(x), ..., psi_n_max(x) by the recurrence, keeping only the last two."""
    prev, cur = np.zeros_like(x), math.pi ** -0.25 * np.exp(-0.5 * x * x)
    yield cur
    for n in range(n_max):
        prev, cur = cur, math.sqrt(2.0 / (n + 1)) * x * cur - math.sqrt(n / (n + 1)) * prev
        yield cur


def hermite_functions(n_max: int, x) -> np.ndarray:
    """Orthonormal Hermite functions psi_0..psi_n_max evaluated at x.

    psi_n(x) = H_n(x) exp(-x^2/2) / sqrt(sqrt(pi) 2^n n!), generated by the
    stabilised recurrence

        psi_{n+1} = sqrt(2/(n+1)) x psi_n - sqrt(n/(n+1)) psi_{n-1},

    which keeps every entry O(1) instead of letting H_n overflow.
    Returns an array of shape (n_max + 1,) + shape(x).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    return np.array(list(_hermite_stream(n_max, np.asarray(x, dtype=float))))


def fock_amplitude(state: TmsvParams, theta: float, phi: float, a, b,
                   n_max: int = 300, rel_tol: float = 1e-12):
    """Joint amplitude <a_theta| <b_phi| TMSV> by direct number-basis summation.

    Sums (1/cosh r) sum_n tanh(r)^n exp(-i n (theta + phi)) psi_n(a) psi_n(b)
    up to n_max.  This is the independent route against which the Gaussian
    closed form is validated: |amplitude|^2 must reproduce joint_pdf.

    Raises TruncationNotConverged when the last included term still exceeds
    rel_tol of the accumulated sum at any evaluation point.  Points where the
    sum has cancelled down to the accumulation roundoff floor are considered
    converged: no truncation order can resolve them further.
    """
    r = state.r
    if r > 5.0:
        raise ValueError("Fock summation supported for r <= 5 only")
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a, b = np.broadcast_arrays(a, b)
    out_shape = a.shape
    # 0-d arrays decay to scalars under arithmetic, which breaks the in-place
    # peak tracking below; work on 1-d views and restore the shape at the end.
    a = np.atleast_1d(a)
    b = np.atleast_1d(b)
    th = math.tanh(r)
    phase = np.exp(-1j * (theta + phi))

    psi_a, psi_b = _hermite_stream(n_max, a), _hermite_stream(n_max, b)
    total = next(psi_a) * next(psi_b) + 0j
    peak = np.abs(total)
    last = np.zeros_like(peak)
    coef = 1.0 + 0j
    for pa, pb in zip(psi_a, psi_b):
        coef = coef * (th * phase)
        term = coef * (pa * pb)
        total = total + term
        np.maximum(peak, np.abs(total), out=peak)
        last = np.abs(term)

    if n_max >= 1:
        # The resolvable scale is the sum itself or, where it has cancelled
        # away, the roundoff floor left behind by the largest partial sum.
        scale = np.maximum(np.abs(total), np.maximum(peak * np.finfo(float).eps, _TINY))
        bad = last > rel_tol * scale
        if np.any(bad):
            worst = float(np.max(last / scale))
            raise TruncationNotConverged(
                f"last Fock term is {worst:.3e} of the running sum at n_max={n_max} "
                f"(required {rel_tol:.1e}); increase n_max"
            )
    result = total / math.cosh(r)
    return result.reshape(out_shape) if out_shape else result[0]


def closed_form_amplitude(state: TmsvParams, theta: float, phi: float, a, b):
    """Joint amplitude via the bilinear generating function of the Hermite series.

    Equivalent to summing fock_amplitude to infinite order:

        amp = exp(-(a^2+b^2)/2) exp([2abt - (a^2+b^2)t^2]/(1-t^2))
              / (sqrt(pi) sqrt(1-t^2) cosh r),   t = tanh(r) exp(-i (theta+phi)).

    The principal branch of sqrt(1-t^2) applies; Re(1-t^2) > 0 for all r.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    t = math.tanh(state.r) * np.exp(-1j * (theta + phi))
    one_minus_t2 = 1.0 - t * t
    s2 = a * a + b * b
    expo = -0.5 * s2 + (2.0 * a * b * t - s2 * t * t) / one_minus_t2
    return np.exp(expo) / (_SQRT_PI * np.sqrt(one_minus_t2) * math.cosh(state.r))
