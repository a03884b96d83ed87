import io
import math

import numpy as np
import pytest

from conftest import (
    HEADLINE_D,
    HEADLINE_DELTA,
    HEADLINE_DELTA_BIN,
    HEADLINE_R,
)
from entrobell import experiment_sim
from entrobell import (
    AngleGeometry,
    GridTooLarge,
    TmsvParams,
    bin_counts,
    binned_joint,
    conditional_entropy,
    empirical_d_qm,
    plugin_entropies,
    sample_pairs,
)


# -- sampling -------------------------------------------------------------------

def test_sampling_is_deterministic():
    state = TmsvParams(1.0)
    one = sample_pairs(state, 0.3, 5000, seed=7)
    two = sample_pairs(state, 0.3, 5000, seed=7)
    other = sample_pairs(state, 0.3, 5000, seed=8)
    assert np.array_equal(one.pairs, two.pairs)
    assert not np.array_equal(one.pairs, other.pairs)
    assert one.n == 5000
    assert one.r == 1.0
    assert one.phi_sum == 0.3


def test_setting_streams_are_independent():
    state = TmsvParams(1.0)
    a = sample_pairs(state, 0.3, 2000, seed=7, setting_index=0)
    b = sample_pairs(state, 0.3, 2000, seed=7, setting_index=1)
    assert not np.array_equal(a.pairs, b.pairs)


def test_block_structure_invisible_to_caller():
    # draws must not depend on how many blocks the count spans
    state = TmsvParams(0.8)
    short = sample_pairs(state, 0.1, 1000, seed=3)
    long = sample_pairs(state, 0.1, (1 << 16) + 1000, seed=3)
    assert np.array_equal(short.pairs, long.pairs[:1000])


def test_sample_moments_zero_squeezing():
    n = 200_000
    batch = sample_pairs(TmsvParams(0.0), 0.9, n, seed=11)
    a, b = batch.pairs[:, 0], batch.pairs[:, 1]
    sigma = math.sqrt(0.5)
    bound = 4.0 / math.sqrt(n)
    assert abs(np.mean(a)) < 4.0 * sigma / math.sqrt(n)
    assert abs(np.corrcoef(a, b)[0, 1]) < bound
    assert np.var(a) == pytest.approx(0.5, rel=0.03)


def test_sample_correlation_tracks_squeezing():
    n = 200_000
    batch = sample_pairs(TmsvParams(1.0), 0.0, n, seed=19)
    a, b = batch.pairs[:, 0], batch.pairs[:, 1]
    rho = math.tanh(2.0)  # 0.9640...
    got = np.corrcoef(a, b)[0, 1]
    assert got == pytest.approx(rho, abs=4.0 * (1.0 - rho ** 2) / math.sqrt(n))
    assert np.var(a) == pytest.approx(math.cosh(2.0) / 2.0, rel=0.03)
    assert np.var(b) == pytest.approx(math.cosh(2.0) / 2.0, rel=0.03)


def test_shot_csv():
    batch = sample_pairs(TmsvParams(0.5), 0.0, 3, seed=1)
    buf = io.StringIO()
    batch.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "a,b"
    assert len(lines) == 4
    a0, b0 = map(float, lines[1].split(","))
    assert a0 == batch.pairs[0, 0]
    assert b0 == batch.pairs[0, 1]


# -- binning and entropy estimation ----------------------------------------------

def test_bin_counts_matches_manual_binning():
    batch = sample_pairs(TmsvParams(1.0), 0.2, 4000, seed=5)
    counts = bin_counts(batch, 1.5)
    assert counts.sum() == 4000
    la = np.rint(batch.pairs[:, 0] / 1.5).astype(int)
    lb = np.rint(batch.pairs[:, 1] / 1.5).astype(int)
    # densest cell must match
    i, j = np.unravel_index(np.argmax(counts), counts.shape)
    manual_mode = np.max(np.unique(la * 10_000 + lb, return_counts=True)[1])
    assert counts[i, j] == manual_mode


def test_plugin_entropy_exact_uniform():
    counts = np.full((2, 2), 250)
    s_joint, s_a, s_b = plugin_entropies(counts, miller_madow=False)
    assert s_joint == pytest.approx(math.log(4.0), rel=1e-12)
    assert s_a == pytest.approx(math.log(2.0), rel=1e-12)
    corrected, _, _ = plugin_entropies(counts)
    assert corrected == pytest.approx(math.log(4.0) + 3.0 / 2000.0, rel=1e-12)


def test_miller_madow_reduces_bias():
    # the estimator mean over many fixed seeds resolves the O(K/n) bias,
    # which per-seed noise (sd ~ 0.008) would otherwise swamp
    analytic = conditional_entropy(binned_joint(TmsvParams(1.0), 0.0, 1.0)).s_joint
    raw, mm = [], []
    for seed in range(100):
        counts = bin_counts(sample_pairs(TmsvParams(1.0), 0.0, 10_000, seed=seed), 1.0)
        raw.append(plugin_entropies(counts, miller_madow=False)[0])
        mm.append(plugin_entropies(counts, miller_madow=True)[0])
    raw_bias = float(np.mean(raw)) - analytic
    mm_bias = float(np.mean(mm)) - analytic
    assert raw_bias < 0.0  # plug-in is biased low
    assert abs(mm_bias) < abs(raw_bias)


# -- the finite-shot estimator ----------------------------------------------------

def test_empirical_estimate_near_analytic():
    state = TmsvParams(HEADLINE_R)
    geometry = AngleGeometry(HEADLINE_DELTA)
    est, se = empirical_d_qm(state, geometry, HEADLINE_DELTA_BIN,
                             n_per_setting=100_000, seed=7)
    assert se > 0.0
    assert abs(est - HEADLINE_D) < 4.0 * se


def test_empirical_estimate_frozen():
    # bitwise: seeded sampling, binning and the chained combination of the
    # plug-in entropies
    assert empirical_d_qm(TmsvParams(1.0), AngleGeometry(0.6), 2.0, 2000, seed=7,
                          n_bootstrap=20) == (0.8485466460655242, 0.029782423212195683)


def test_empirical_requires_enough_shots():
    with pytest.raises(ValueError):
        empirical_d_qm(TmsvParams(1.0), AngleGeometry(0.5), 1.0,
                       n_per_setting=500, seed=1)


@pytest.mark.parametrize("n_bootstrap", [1, 0, -3])
def test_empirical_requires_two_bootstrap_resamples(n_bootstrap):
    # one resample has no spread: the error bar would be NaN
    with pytest.raises(ValueError, match="bootstrap"):
        empirical_d_qm(TmsvParams(1.0), AngleGeometry(0.5), 1.0,
                       n_per_setting=1000, seed=1, n_bootstrap=n_bootstrap)


@pytest.mark.parametrize("delta_bin", [0.0, -1.0, float("nan"), float("inf")])
def test_bin_counts_needs_a_positive_finite_width(delta_bin):
    batch = sample_pairs(TmsvParams(0.5), 0.3, 10, seed=1)
    with pytest.raises(ValueError, match="positive and finite"):
        bin_counts(batch, delta_bin)


def test_sample_pairs_caps_the_shot_count():
    # ten times the largest count in use; checked before the shots are allocated
    assert experiment_sim._MAX_SHOTS >= 10 * 10 ** 6
    with pytest.raises(ValueError, match="shots"):
        sample_pairs(TmsvParams(1.0), 0.3, experiment_sim._MAX_SHOTS + 1, seed=1)


@pytest.mark.parametrize("r", [12.0, 30.0])
def test_bin_counts_box_over_the_cell_budget_raises(r):
    # r = 12: a dense table of 2.9e11 windows; r = 30: the box passes the int64 range
    batch = sample_pairs(TmsvParams(r), 0.3, 2000, seed=1)
    with pytest.raises(GridTooLarge, match="budget"):
        bin_counts(batch, 1.0)


def test_estimator_consistency():
    # estimate error shrinks when shots grow 100x
    state = TmsvParams(1.0)
    geometry = AngleGeometry(0.9)
    analytic = 1.4559982228290766  # quadrature value at (r=1, delta=0.9, width 1)
    analytic_err = {}
    for n in (10_000, 1_000_000):
        errs = []
        for seed in range(5):
            est, _ = empirical_d_qm(state, geometry, 1.0, n, seed=seed,
                                    n_bootstrap=10)
            errs.append(abs(est - analytic))
        analytic_err[n] = float(np.median(errs))
    assert analytic_err[1_000_000] < analytic_err[10_000]


def test_bootstrap_coverage():
    # analytic value inside +-2 SE in at least 90% of 50 seeded trials
    state = TmsvParams(HEADLINE_R)
    geometry = AngleGeometry(HEADLINE_DELTA)
    hits = 0
    for seed in range(50):
        est, se = empirical_d_qm(state, geometry, HEADLINE_DELTA_BIN,
                                 n_per_setting=100_000, seed=seed)
        if abs(est - HEADLINE_D) <= 2.0 * se:
            hits += 1
    assert hits >= 45
