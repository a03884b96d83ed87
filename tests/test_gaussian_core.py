import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate

from conftest import mp_coefficients
from entrobell import (
    PhaseSettings,
    TmsvParams,
    TruncationNotConverged,
    closed_form_amplitude,
    coefficients,
    differential_entropies,
    fock_amplitude,
    hermite_functions,
    joint_pdf,
    marginal_pdf,
)

_r = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_phi = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)


def test_state_validation():
    with pytest.raises(ValueError):
        TmsvParams(-0.1)
    with pytest.raises(ValueError):
        TmsvParams(float("nan"))
    assert TmsvParams(0.0).r == 0.0


@pytest.mark.parametrize("theta,phi", [(float("nan"), 0.0), (0.0, float("inf")),
                                       (float("-inf"), 0.3)])
def test_phase_settings_must_be_finite(theta, phi):
    with pytest.raises(ValueError, match="finite"):
        PhaseSettings(theta, phi)


def test_coefficients_frozen_point():
    # r=1, phi_sum=0: v = cosh(2), w = sinh(2), v - w = e^{-2}, norm = pi.
    c = coefficients(TmsvParams(1.0), PhaseSettings(0.0, 0.0))
    assert c.v == pytest.approx(math.cosh(2.0), rel=1e-15)
    assert c.w == pytest.approx(math.sinh(2.0), rel=1e-15)
    assert c.v_minus_w == pytest.approx(math.exp(-2.0), rel=1e-14)
    assert c.v_plus_w == pytest.approx(math.exp(2.0), rel=1e-14)
    assert c.norm_z == pytest.approx(math.pi, rel=1e-15)


def test_coefficients_against_mp_reference():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(60):
        r = float(rng.uniform(0.0, 4.0))
        ph = float(rng.uniform(0.0, 2.0 * math.pi))
        c = coefficients(TmsvParams(r), PhaseSettings(0.0, ph))
        v_mp, w_mp, norm_mp = mp_coefficients(r, ph)
        worst = max(worst, abs(c.v / float(v_mp) - 1.0))
        # w passes through zero so compare on the scale of v
        worst = max(worst, abs(c.w - float(w_mp)) / float(v_mp))
        worst = max(worst, abs(c.norm_z / float(norm_mp) - 1.0))
    assert worst < 5e-14


def test_stable_difference_forms():
    # v -+ w must stay accurate where the naive forms cancel: phi near 0
    # at large r for v - w, phi near pi for v + w.
    for r, ph in [(4.0, 1e-9), (4.0, math.pi - 1e-9), (3.0, 0.0), (3.0, math.pi)]:
        c = coefficients(TmsvParams(r), PhaseSettings(0.0, ph))
        v_mp, w_mp, _ = mp_coefficients(r, ph)
        assert c.v_minus_w == pytest.approx(float(v_mp - w_mp), rel=2e-14)
        assert c.v_plus_w == pytest.approx(float(v_mp + w_mp), rel=2e-14)


@given(r=_r, ph=_phi)
def test_normalization_identity(r, ph):
    c = coefficients(TmsvParams(r), PhaseSettings(0.0, ph))
    lhs = math.pi / math.sqrt(c.v_minus_w * c.v_plus_w)
    assert lhs == pytest.approx(c.norm_z, rel=1e-12)


@given(r=_r, ph=_phi)
def test_coefficient_positivity(r, ph):
    c = coefficients(TmsvParams(r), PhaseSettings(0.0, ph))
    assert c.v_minus_w > 0.0
    assert c.v_plus_w > 0.0
    assert c.norm_z > 0.0
    assert abs(c.correlation) < 1.0


@given(r=_r, ph=_phi)
@example(r=4.0, ph=3.140625)
def test_phase_symmetry(r, ph):
    def at(phase):
        return coefficients(TmsvParams(r), PhaseSettings(0.0, phase))

    plus, minus, wrap = at(ph), at(-ph), at(2.0 * math.pi - ph)
    assert plus.v == pytest.approx(minus.v, rel=1e-13)
    assert plus.w == pytest.approx(minus.w, abs=1e-13 * plus.v)
    # The float 2*math.pi - ph is off the exact wrap by up to ulp(2 pi), and
    # near the anti-ridge at large r v and w amplify that input error about
    # 1000-fold.  The wrap bounds (pytest.approx's, rel 1e-13 with its default
    # abs 1e-12, and abs 1e-13 v) add its first-order effect |d/dphi| ulp(2 pi).
    h = 1e-6
    hi, lo = at(ph + h), at(ph - h)
    ulp = math.ulp(2.0 * math.pi)
    slack_v = abs(hi.v - lo.v) / (2.0 * h) * ulp
    slack_w = abs(hi.w - lo.w) / (2.0 * h) * ulp
    assert abs(plus.v - wrap.v) <= max(1e-13 * abs(wrap.v), 1e-12) + slack_v
    assert abs(plus.w - wrap.w) <= 1e-13 * plus.v + slack_w


@given(r=_r, x=st.floats(min_value=0.0, max_value=math.pi, allow_nan=False))
def test_reflection_negates_w(r, x):
    direct = coefficients(TmsvParams(r), PhaseSettings(0.0, x))
    mirror = coefficients(TmsvParams(r), PhaseSettings(0.0, math.pi - x))
    assert mirror.v == pytest.approx(direct.v, rel=1e-12)
    assert mirror.w == pytest.approx(-direct.w, abs=1e-12 * direct.v)


def test_reflection_flips_one_argument():
    state = TmsvParams(1.3)
    x = 0.47
    c = coefficients(state, PhaseSettings(0.0, x))
    c_ref = coefficients(state, PhaseSettings(0.0, math.pi - x))
    pts = np.array([0.2, -1.1, 2.5])
    assert joint_pdf(c_ref, pts, pts) == pytest.approx(
        joint_pdf(c, pts, -pts), rel=1e-12)


def test_joint_pdf_frozen_value():
    # exp(-2(v - w))/pi with v - w = e^{-2} at r=1, phi_sum=0, a=b=1
    c = coefficients(TmsvParams(1.0), PhaseSettings(0.0, 0.0))
    expected = math.exp(-2.0 * math.exp(-2.0)) / math.pi
    assert joint_pdf(c, 1.0, 1.0) == pytest.approx(expected, rel=1e-14)


def test_factorization_at_zero_squeezing():
    state = TmsvParams(0.0)
    c = coefficients(state, PhaseSettings(0.3, 1.1))
    assert c.w == 0.0
    assert c.v == 1.0
    a = np.linspace(-3, 3, 7)
    b = np.linspace(-2, 2, 7)
    assert np.allclose(joint_pdf(c, a, b),
                       marginal_pdf(state, a) * marginal_pdf(state, b),
                       rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("r", [0.0, 1.0, 2.0])
@pytest.mark.parametrize("b", [0.0, 1.0, 3.0])
def test_marginalization(r, b):
    state = TmsvParams(r)
    c = coefficients(state, PhaseSettings(0.0, 0.7))
    sigma = c.sigma_marginal
    ridge = c.correlation * b  # conditional mean of a given b
    val, err = integrate.quad(lambda a: joint_pdf(c, a, b),
                              -12.0 * sigma, 12.0 * sigma,
                              points=[ridge], limit=200)
    assert err < 1e-7  # quad's estimate is conservative on the ridge
    assert abs(val - marginal_pdf(state, b)) < 1e-9


def test_fock_amplitude_vacuum():
    # r=0 keeps only the n=0 term
    amp = fock_amplitude(TmsvParams(0.0), 0.4, 1.2, 0.7, -0.3)
    expected = math.exp(-(0.7 ** 2 + 0.3 ** 2) / 2.0) / math.sqrt(math.pi)
    assert amp == pytest.approx(expected, rel=1e-15)
    assert amp.imag == 0.0


def test_fock_matches_closed_form_complex():
    rng = np.random.default_rng(5)
    for _ in range(40):
        r = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.0, 2 * math.pi))
        phi = float(rng.uniform(0.0, 2 * math.pi))
        a, b = rng.uniform(-3, 3, size=2)
        s = fock_amplitude(TmsvParams(r), theta, phi, float(a), float(b))
        cf = closed_form_amplitude(TmsvParams(r), theta, phi, float(a), float(b))
        assert abs(s - cf) < 1e-12


def test_fock_oracle_equivalence_float_regime():
    # |amplitude|^2 equals the density wherever float64 can resolve it;
    # cells below 1e-18 sit at the summation roundoff floor and are
    # covered by the high-precision comparison in the acceptance suite.
    xs = np.linspace(-4.0, 4.0, 10)
    aa, bb = np.meshgrid(xs, xs)
    n_max = {0.5: 400, 1.0: 700, 2.0: 2000}
    for r in (0.5, 1.0, 2.0):
        for phs in (0.0, 0.1, math.pi / 2, math.pi):
            state = TmsvParams(r)
            amp = fock_amplitude(state, 0.25, phs - 0.25, aa, bb, n_max=n_max[r])
            pdf = joint_pdf(coefficients(state, PhaseSettings(0.25, phs - 0.25)), aa, bb)
            ok = pdf >= 1e-18
            rel = np.abs(np.abs(amp[ok]) ** 2 - pdf[ok]) / pdf[ok]
            assert rel.max() < 1e-8


@pytest.mark.parametrize("r, phs, n_max", [(0.5, 0.1, 400), (2.0, math.pi / 2, 2000)])
def test_fock_amplitude_is_the_hermite_functions_sum(r, phs, n_max):
    # one recurrence: the Fock sum is bitwise the sequential sum built from
    # hermite_functions
    xs = np.linspace(-4.0, 4.0, 10)
    aa, bb = np.meshgrid(xs, xs)
    psi_a, psi_b = hermite_functions(n_max, aa), hermite_functions(n_max, bb)
    step = math.tanh(r) * np.exp(-1j * phs)
    coef, total = 1.0 + 0j, psi_a[0] * psi_b[0] + 0j
    for n in range(1, n_max + 1):
        coef = coef * step
        total = total + coef * (psi_a[n] * psi_b[n])
    amp = fock_amplitude(TmsvParams(r), 0.0, phs, aa, bb, n_max=n_max)
    assert np.array_equal(amp, total / math.cosh(r))


def test_fock_depends_on_phase_sum_only():
    state = TmsvParams(0.9)
    one = fock_amplitude(state, 0.2, 0.5, 1.1, -0.4)
    two = fock_amplitude(state, 0.7, 0.0, 1.1, -0.4)
    assert one == pytest.approx(two, rel=1e-14)


def test_truncation_error_is_raised():
    # tanh(2)^300 ~ 1.7e-5, far above the 1e-12 tail criterion
    with pytest.raises(TruncationNotConverged):
        fock_amplitude(TmsvParams(2.0), 0.0, 0.0, 0.5, 0.5, n_max=300)
    with pytest.raises(ValueError):
        fock_amplitude(TmsvParams(5.2), 0.0, 0.0, 0.0, 0.0)


def test_hermite_functions_known_values():
    h = hermite_functions(4, 0.0)
    pi4 = math.pi ** -0.25
    assert h[0] == pytest.approx(pi4, rel=1e-15)
    assert h[1] == 0.0
    assert h[2] == pytest.approx(-pi4 / math.sqrt(2.0), rel=1e-14)


def test_hermite_functions_orthonormal():
    x = np.linspace(-12.0, 12.0, 4001)
    h = hermite_functions(6, x)
    gram = np.trapezoid(h[:, None, :] * h[None, :, :], x, axis=-1)
    assert np.allclose(gram, np.eye(7), atol=1e-7)


def test_hermite_functions_stay_finite_high_order():
    h = hermite_functions(1000, np.array([-10.0, 0.0, 10.0]))
    assert np.all(np.isfinite(h))
    assert np.max(np.abs(h)) < 1.0


def test_differential_entropies_identities():
    state = TmsvParams(1.0)
    s_joint, s_marg, s_cond = differential_entropies(state, PhaseSettings(0.0, 0.4))
    assert s_cond == pytest.approx(s_joint - s_marg, abs=1e-14)
    assert s_marg == pytest.approx(0.5 * math.log(math.pi * math.e * math.cosh(2.0)),
                                   rel=1e-14)
    # marginal entropy must not depend on the phase sum
    _, s_marg2, _ = differential_entropies(state, PhaseSettings(0.0, 2.1))
    assert s_marg2 == s_marg


@settings(max_examples=15)
@given(r=st.floats(min_value=0.05, max_value=3.0), ph=_phi)
def test_differential_conditional_below_marginal(r, ph):
    # conditioning can only reduce entropy
    s_joint, s_marg, s_cond = differential_entropies(
        TmsvParams(r), PhaseSettings(0.0, ph))
    assert s_cond <= s_marg + 1e-12
