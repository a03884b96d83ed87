import io
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from entrobell import coarse_grain
from entrobell import (
    PANEL_QUADRATURE,
    RECTANGLE_CDF,
    CoarseGrid,
    GridTooLarge,
    PhaseSettings,
    QuadratureBudgetExceeded,
    TmsvParams,
    bin_prob_1d,
    bin_prob_2d,
    binned_joint,
    binned_marginal,
    bvn_rectangle,
    bvn_upper,
    coefficients,
    make_grid,
)

_r = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_phi = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
_delta = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)


# -- grid construction -------------------------------------------------------

def test_make_grid_frozen_examples():
    # smallest L with (L + 1/2) Delta >= k sigma, k = sqrt(2) erfcinv(eps/2)
    assert make_grid(TmsvParams(0.0), 1.0, 1e-12).l_max == 5
    assert make_grid(TmsvParams(2.0), 6.0, 1e-12).l_max == 4
    assert make_grid(TmsvParams(4.0), 100.0, 1e-12).l_max == 2


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 0.0)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), -2.0)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 1.0, tail_epsilon=1e-5)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 1.0, tail_epsilon=0.0)


def test_make_grid_budget(monkeypatch):
    with pytest.raises(GridTooLarge):
        make_grid(TmsvParams(2.0), 5e-4)
    # same grid passes with a raised budget
    monkeypatch.setattr(coarse_grain, "CELL_BUDGET", 10 ** 12)
    g = make_grid(TmsvParams(2.0), 5e-4)
    assert g.l_max > 10 ** 4


@given(r=_r, delta=_delta,
       eps=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_make_grid_is_smallest(r, delta, eps):
    grid = make_grid(TmsvParams(r), delta, eps)
    k = math.sqrt(2.0) * float(special.erfcinv(0.5 * eps))
    sigma = math.sqrt(math.cosh(2.0 * r) / 2.0)
    assert (grid.l_max + 0.5) * delta >= k * sigma - 1e-9
    if grid.l_max > 0:
        assert (grid.l_max - 0.5) * delta < k * sigma


def test_grid_geometry():
    g = make_grid(TmsvParams(0.0), 1.0, 1e-12)
    assert g.n_bins == 2 * g.l_max + 1
    c = g.centers()
    assert c[0] == -c[-1]
    assert np.allclose(np.diff(c), g.delta)
    e = g.edges()
    assert len(e) == g.n_bins + 1
    assert e[0] == pytest.approx(-g.half_extent)


# -- 1D probabilities ---------------------------------------------------------

def test_bin_prob_1d_frozen():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0, 1e-12)
    # marginal variance 1/2 at r=0, so the centre window is erf(0.5)
    assert bin_prob_1d(state, grid, 0) == pytest.approx(
        0.5204998778130465, rel=1e-14)


@pytest.mark.parametrize("r, delta", [(0.0, 0.8), (0.3, 6.0), (1.3, 0.05), (1.3, 1.0),
                                      (3.0, 1.0), (3.0, 20.0)])
def test_bin_prob_1d_outermost_windows_match_mpmath(r, delta):
    # both tails keep full relative precision; a naive Phi(hi) - Phi(lo)
    # cancels in the upper window
    state = TmsvParams(r)
    grid = make_grid(state, delta)
    sigma = state.marginal_sigma
    for m in (-grid.l_max, grid.l_max):
        lo = (m * delta - 0.5 * delta) / sigma
        hi = (m * delta + 0.5 * delta) / sigma
        with mp.workdps(50):
            exact = float(mp.ncdf(mp.mpf(hi)) - mp.ncdf(mp.mpf(lo)))
        assert bin_prob_1d(state, grid, m) == pytest.approx(exact, rel=1e-12, abs=0)


def test_bin_prob_1d_whole_line():
    state = TmsvParams(0.0)
    grid = make_grid(state, 20.0, 1e-12)
    assert bin_prob_1d(state, grid, 0) == pytest.approx(1.0, abs=1e-15)


def test_bin_prob_1d_symmetry_and_sum():
    state = TmsvParams(1.3)
    grid = make_grid(state, 0.8)
    probs = np.array([bin_prob_1d(state, grid, m)
                      for m in range(-grid.l_max, grid.l_max + 1)])
    assert np.all(probs >= 0.0)
    assert np.allclose(probs, probs[::-1], rtol=0, atol=1e-16)
    assert probs.sum() >= 1.0 - grid.tail_epsilon
    assert probs.sum() <= 1.0 + 1e-13


def test_binned_marginal_matches_pointwise():
    state = TmsvParams(0.9)
    grid = make_grid(state, 1.1)
    dist = binned_marginal(state, grid)
    assert dist.probs.shape == (grid.n_bins,)
    assert dist.probs[grid.l_max] == pytest.approx(
        bin_prob_1d(state, grid, 0), abs=0)
    assert dist.captured_mass == pytest.approx(dist.probs.sum(), abs=1e-15)


# -- 2D probabilities ---------------------------------------------------------

def test_bin_prob_2d_against_adaptive_integration():
    # dblquad oracle, epsabs 1e-14 (error estimates ~5e-15)
    c = coefficients(TmsvParams(1.0), PhaseSettings(0.0, 0.0))
    grid = make_grid(TmsvParams(1.0), 2.0)
    assert bin_prob_2d(c, grid, 0, 0) == pytest.approx(
        0.46852438359539705, rel=1e-12)
    assert bin_prob_2d(c, grid, 1, -1) == pytest.approx(
        5.076682649672179e-10, rel=1e-10)


def test_bin_prob_2d_factorizes_at_zero_squeezing():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    one_d = 0.5204998778130465  # erf(0.5)
    assert bin_prob_2d(c, grid, 0, 0) == pytest.approx(one_d ** 2, rel=1e-10)


@given(r=_r, ph=_phi, delta=_delta)
def test_methods_agree(r, ph, delta):
    state = TmsvParams(r)
    grid = make_grid(state, delta)
    c = coefficients(state, PhaseSettings(0.0, ph))
    lm = min(grid.l_max, 2)
    for l in range(-lm, lm + 1):
        p1 = bin_prob_2d(c, grid, l, 0, method=PANEL_QUADRATURE)
        p2 = bin_prob_2d(c, grid, l, 0, method=RECTANGLE_CDF)
        assert abs(p1 - p2) < 1e-10
        assert -1e-15 <= p1 <= 1.0 + 1e-14  # ulp-level overshoot is roundoff


def test_bin_prob_2d_out_of_grid():
    state = TmsvParams(1.0)
    grid = make_grid(state, 2.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    with pytest.raises(ValueError):
        bin_prob_2d(c, grid, grid.l_max + 1, 0)


def test_quadrature_budget_error(monkeypatch):
    # a 50-wide cell at r=0 needs hundreds of panels
    state = TmsvParams(0.0)
    grid = make_grid(state, 50.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 2)
    with pytest.raises(QuadratureBudgetExceeded):
        bin_prob_2d(c, grid, 0, 0)
    # the cap applies to the full window (283 panels), though only the part
    # within 9 sigma of it is integrated
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 282)
    with pytest.raises(QuadratureBudgetExceeded):
        binned_joint(state, 0.0, 50.0)
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 283)
    assert binned_joint(state, 0.0, 50.0).probs[0, 0] \
        == pytest.approx(1.0, abs=1e-15)


def test_unknown_method_rejected():
    state = TmsvParams(1.0)
    grid = make_grid(state, 2.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    with pytest.raises(ValueError):
        bin_prob_2d(c, grid, 0, 0, method="simpson")
    with pytest.raises(ValueError):
        binned_joint(state, 0.0, 2.0, method="simpson")


# -- full joint matrices ------------------------------------------------------

def test_joint_matrix_symmetries():
    # density is symmetric under (a,b) swap and under global sign flip; the
    # matrix is unfolded from one wedge, so both hold exactly
    for r, phi_sum, delta in [(1.2, 0.9, 1.5), (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5),
                              (0.5, 0.2, 50.0), (2.0, 0.1, 50.0)]:
        d = binned_joint(TmsvParams(r), phi_sum, delta)
        assert np.array_equal(d.probs, d.probs.T)
        assert np.array_equal(d.probs, d.probs[::-1, ::-1])


def test_joint_integrates_only_the_wedge_rows(monkeypatch):
    calls = []
    panel_rows = coarse_grain._panel_rows

    def counted(state, coeffs, grid, windows):
        calls.append(list(windows))
        return panel_rows(state, coeffs, grid, windows)

    monkeypatch.setattr(coarse_grain, "_panel_rows", counted)
    joint = binned_joint(TmsvParams(1.0), 0.5, 0.5)
    assert joint.grid.l_max > 5
    assert calls == [list(range(-joint.grid.l_max, 1))]


# (3, 1e-3, 1.5): narrow bands; (2, 0.1, 50): a clipped outer window, so two
# panel counts; (1, 0.05, 0.2): 51 one-panel rows
@pytest.mark.parametrize("r, phi_sum, delta", [(3.0, 1e-3, 1.5), (2.0, 0.1, 50.0),
                                               (1.0, 0.05, 0.2)])
def test_panel_rows_block_size_invariant(monkeypatch, r, phi_sum, delta):
    state = TmsvParams(r)
    default = binned_joint(state, phi_sum, delta)
    monkeypatch.setattr(coarse_grain, "_BLOCK_ELEMENTS", 1)  # one row per block
    one_row = binned_joint(state, phi_sum, delta)
    assert np.array_equal(one_row.probs, default.probs)
    assert one_row.captured_mass == default.captured_mass


def test_panel_count_follows_the_integrand():
    # panels are at most min(sigma_a, 8 sigma_c/|rho|)/4 wide, whatever Delta
    def n_panels(r, phi_sum, delta):
        c = coefficients(TmsvParams(r), PhaseSettings(0.0, phi_sum))
        return coarse_grain._panel_count(delta, c)

    assert n_panels(0.6, 0.5, 0.3) == 2
    assert n_panels(1.0, 0.05, 0.2) == 1
    assert n_panels(0.0, 0.0, 50.0) == 283


def test_joint_matrix_reflection():
    # phi_sum -> pi - phi_sum negates the correlation, flipping one axis
    state = TmsvParams(1.2)
    x = 0.35
    direct = binned_joint(state, x, 1.5)
    mirror = binned_joint(state, math.pi - x, 1.5)
    assert np.allclose(mirror.probs, np.flip(direct.probs, axis=1),
                       rtol=0, atol=1e-14)


def test_joint_factorizes_at_zero_squeezing():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0)
    joint = binned_joint(state, 0.7, 1.0)
    marg = binned_marginal(state, grid).probs
    assert np.allclose(joint.probs, np.outer(marg, marg), rtol=0, atol=1e-12)


def test_marginal_consistency():
    state = TmsvParams(1.817)
    grid = make_grid(state, 6.0)
    joint = binned_joint(state, 0.669, 6.0)
    direct = binned_marginal(state, grid).probs
    assert np.max(np.abs(joint.marginal_a() - direct)) < 1e-9
    assert np.max(np.abs(joint.marginal_b() - direct)) < 1e-9


def test_captured_mass_monotone_in_grid_size():
    state = TmsvParams(1.5)
    masses = []
    sizes = []
    for eps in (1e-6, 1e-9, 1e-12):
        d = binned_joint(state, 0.4, 1.0, tail_epsilon=eps)
        masses.append(d.captured_mass)
        sizes.append(d.grid.l_max)
        assert d.captured_mass >= 1.0 - 2.0 * eps
        assert d.captured_mass <= 1.0 + 1e-10
    assert sizes == sorted(sizes)
    assert masses == sorted(masses)


def test_joint_deterministic():
    state = TmsvParams(2.0)
    one = binned_joint(state, 1.1, 2.0)
    two = binned_joint(state, 1.1, 2.0)
    assert np.array_equal(one.probs, two.probs)
    assert one.captured_mass == two.captured_mass


# (3, 1e-3, 1.5): the b-band of each row is a few of 97 windows; (0.5, 0.2, 50)
# and (2, 0.1, 50): the single or outer windows reach far beyond K sigma_a;
# (0.6, 0.5, 0.3) and (1, 0.05, 0.2): windows narrower than sigma_a take 2 and
# 1 panels.
@pytest.mark.parametrize("r, phi_sum, delta", [
    (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5), (0.5, 0.2, 50.0), (2.0, 0.1, 50.0),
    (0.6, 0.5, 0.3), (1.0, 0.05, 0.2),
])
def test_joint_methods_agree_matrixwise(r, phi_sum, delta):
    state = TmsvParams(r)
    p = binned_joint(state, phi_sum, delta, method=PANEL_QUADRATURE)
    q = binned_joint(state, phi_sum, delta, method=RECTANGLE_CDF)
    assert np.max(np.abs(p.probs - q.probs)) < 1e-10
    assert p.method == PANEL_QUADRATURE
    assert q.method == RECTANGLE_CDF
    marg = binned_marginal(state, p.grid).probs
    assert np.max(np.abs(p.marginal_a() - marg)) < 1e-12


@pytest.mark.parametrize("r, phi_sum, delta", [
    (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5), (0.5, 0.2, 50.0), (2.0, 0.1, 50.0),
    (0.6, 0.5, 0.3), (1.0, 0.05, 0.2),
])
def test_captured_mass_is_the_full_fsum(r, phi_sum, delta):
    # the mass is summed over the wedge with orbit sizes; fsum is correctly
    # rounded, so it equals the sum over every cell
    joint = binned_joint(TmsvParams(r), phi_sum, delta)
    assert joint.captured_mass == math.fsum(joint.probs.ravel().tolist())


@pytest.mark.parametrize("r, phi_sum, delta", [(3.0, 1e-3, 1.5), (2.0, 0.1, 50.0)])
def test_bin_prob_2d_is_the_binned_joint_entry(r, phi_sum, delta):
    state = TmsvParams(r)
    joint = binned_joint(state, phi_sum, delta)
    c = coefficients(state, PhaseSettings(0.0, phi_sum))
    lm = joint.grid.l_max
    # the centre, the outermost windows and their neighbours
    idx = sorted({i for i in (-lm, 1 - lm, -2, -1, 0, 1, 2, lm - 1, lm) if abs(i) <= lm})
    maps = {"identity": lambda l, m: (l, m), "swap": lambda l, m: (m, l),
            "flip": lambda l, m: (-l, -m), "swap-flip": lambda l, m: (-m, -l)}
    used = set()
    for l in idx:
        for m in idx:
            # the first of the four maps that takes (l, m) into the wedge l <= -|m|
            used.add(next(name for name, f in maps.items()
                          if f(l, m)[0] <= -abs(f(l, m)[1])))
            assert bin_prob_2d(c, joint.grid, l, m, method=PANEL_QUADRATURE) \
                == joint.probs[l + lm, m + lm]
    assert used == set(maps)


def test_bin_prob_2d_is_the_binned_joint_entry_on_long_rows():
    # 43680 nodes per row, more than numpy's buffer: the contraction is
    # chunked so that a one-row call sums exactly as the joint's block does
    state = TmsvParams(4.0)
    joint = binned_joint(state, 0.0, 100.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    lm = joint.grid.l_max
    for l in range(-lm, lm + 1):
        for m in range(-lm, lm + 1):
            assert bin_prob_2d(c, joint.grid, l, m) == joint.probs[l + lm, m + lm]


def test_windows_beyond_the_cut_are_zero():
    # a hand-built grid reaching 15 sigma: windows past 9 sigma carry no mass
    state = TmsvParams(0.0)
    grid = CoarseGrid(delta=1.0, l_max=10, tail_epsilon=1e-12)
    c = coefficients(state, PhaseSettings(0.0, 0.3))
    assert bin_prob_2d(c, grid, 7, 0) == 0.0
    assert bin_prob_2d(c, grid, -7, 0) == 0.0
    assert bin_prob_2d(c, grid, 6, 0) > 0.0


def test_to_csv_round_trip():
    d = binned_joint(TmsvParams(1.0), 0.0, 4.0)
    buf = io.StringIO()
    d.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "l,m,p"
    assert len(lines) == 1 + d.grid.n_bins ** 2
    total = sum(float(row.split(",")[2]) for row in lines[1:])
    assert total == pytest.approx(d.captured_mass, abs=1e-12)


# -- bivariate normal building block -----------------------------------------

def test_bvn_zero_correlation_factorizes():
    # P(X > h, Y > k) = Q(h) Q(k) when independent
    for h, k in [(0.0, 0.0), (1.0, -0.5), (2.5, 2.5)]:
        q = 0.5 * special.erfc(np.array([h, k]) / math.sqrt(2.0))
        assert bvn_upper(h, k, 0.0) == pytest.approx(q[0] * q[1], rel=1e-13)


def test_bvn_high_correlation_limits():
    def q(x):
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    # rho -> 1: P(X > h, Y > k) -> Q(max(h, k))
    assert bvn_upper(0.3, 1.1, 0.9999999) == pytest.approx(q(1.1), rel=1e-5)
    # rho -> -1: P(X > h, Y > k) -> max(0, Q(h) - Phi(k))
    assert bvn_upper(-0.4, 0.2, -0.9999999) == pytest.approx(
        q(-0.4) - (1.0 - q(0.2)), rel=1e-5)


def test_bvn_rectangle_consistency():
    # rectangle assembled from four orthant calls must match a 1D special
    # case: y-slab over the whole x line is a difference of normal CDFs
    val = bvn_rectangle(-30.0, 30.0, -0.7, 1.2, 0.6)
    expected = 0.5 * (special.erf(1.2 / math.sqrt(2.0))
                      - special.erf(-0.7 / math.sqrt(2.0)))
    assert val == pytest.approx(expected, rel=1e-12)


@given(rho=st.floats(min_value=-0.99, max_value=0.99),
       h=st.floats(min_value=-3.0, max_value=3.0),
       k=st.floats(min_value=-3.0, max_value=3.0))
def test_bvn_upper_in_unit_interval(rho, h, k):
    p = bvn_upper(h, k, rho)
    assert -1e-15 <= p <= 1.0 + 1e-15
