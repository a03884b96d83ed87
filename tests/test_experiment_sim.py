import io
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import (
    HEADLINE_D,
    HEADLINE_DELTA,
    HEADLINE_DELTA_BIN,
    HEADLINE_R,
)
from entrobell import experiment_sim
from entrobell.bell import _chained
from entrobell.gaussian_core import PhaseSettings, coefficients
from entrobell import (
    AngleGeometry,
    EntropyTerms,
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


# -- blocks on every CPU, against the serial block loop ------------------------------

def _serial_pairs(state, phi_sum, n, seed, setting_index):
    """The shots of sample_pairs as one block after another on one thread."""
    c = coefficients(state, PhaseSettings(theta=0.0, phi=phi_sum))
    sigma, rho = c.sigma_marginal, c.correlation
    root = math.sqrt(c.v_minus_w * c.v_plus_w) / c.v
    out = np.empty((n, 2), dtype=float)
    block = experiment_sim._BLOCK
    for start in range(0, n, block):
        stop = min(start + block, n)
        z = experiment_sim._stream(seed, setting_index, start // block).standard_normal(
            (stop - start, 2))
        out[start:stop, 0] = sigma * z[:, 0]
        out[start:stop, 1] = sigma * (rho * z[:, 0] + root * z[:, 1])
    return out


def _serial_counts(pairs, delta_bin):
    """The table of bin_counts from whole columns of window indices."""
    a, b = (np.rint(col / delta_bin) for col in pairs.T)
    a_lo, b_lo = a.min(), b.min()
    rows, cols = int(a.max() - a_lo) + 1, int(b.max() - b_lo) + 1
    flat = ((a - a_lo) * cols + (b - b_lo)).astype(np.int64)
    return np.bincount(flat, minlength=rows * cols).reshape(rows, cols)


@pytest.mark.parametrize("setting_index", [0, 3])
@pytest.mark.parametrize("n", [1, 999, experiment_sim._BLOCK, experiment_sim._BLOCK + 1,
                               3 * experiment_sim._BLOCK + 5])
def test_blocks_on_four_cpus_match_the_serial_loop(monkeypatch, n, setting_index):
    # four workers, more than this machine may have cores, switching threads
    # as often as the interpreter allows
    shares, on_every_cpu = [], experiment_sim._on_every_cpu

    def recording(run, weights):
        shares.append([])
        return on_every_cpu(lambda i, j, runs=shares[-1]: runs.append((i, j)) or run(i, j),
                            weights)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    monkeypatch.setattr(experiment_sim, "_on_every_cpu", recording)
    state, phi_sum = TmsvParams(HEADLINE_R), 0.4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        batch = sample_pairs(state, phi_sum, n, seed=5, setting_index=setting_index)
        tables = {delta_bin: bin_counts(batch, delta_bin) for delta_bin in (6.0, 0.25)}
    finally:
        sys.setswitchinterval(interval)
    blocks = -(-n // experiment_sim._BLOCK)
    assert [sorted(runs) for runs in shares] == [[(j, j + 1) for j in range(blocks)]] * 5
    pairs = _serial_pairs(state, phi_sum, n, 5, setting_index)
    assert np.array_equal(batch.pairs, pairs)
    for delta_bin, table in tables.items():
        assert np.array_equal(table, _serial_counts(pairs, delta_bin))


def test_bin_counts_peak_memory():
    # two arrays of n indices, the flat one holding the B column's until it
    # replaces them: the parent's whole-column temporaries took 2.0x
    batch = sample_pairs(TmsvParams(HEADLINE_R), 0.4, 10 ** 6, seed=7)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        bin_counts(batch, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 1.5 * batch.pairs.nbytes


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


def test_empirical_estimate_without_miller_madow_frozen():
    # bitwise, as recorded before the bootstrap drew over the occupied cells only
    assert empirical_d_qm(TmsvParams(1.0), AngleGeometry(0.6), 2.0, 2000, seed=7,
                          miller_madow=False, n_bootstrap=20) == (
        0.845296646065524, 0.029803071333867642)


# -- the bootstrap over the occupied cells, against a multinomial over the whole box --

def _box_resample(table, rng):
    """Multinomial bootstrap draw over every cell of the box, largest cell last."""
    flat = table.ravel()
    n = int(flat.sum())
    p = flat / n
    k = int(np.argmax(p))
    order = np.arange(p.size)
    order[k], order[-1] = order[-1], order[k]
    drawn = rng.multinomial(n, p[order])
    out = np.empty_like(drawn)
    out[order] = drawn
    return out.reshape(table.shape)


def _box_estimate(tables, seed, miller_madow, n_bootstrap):
    """The estimate and error bar from plugin_entropies of whole-box resamples."""
    def d(ts):
        return _chained(tuple(EntropyTerms(*plugin_entropies(t, miller_madow)) for t in ts))

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(97,))))
    boot = [d([_box_resample(t, rng) for t in tables]) for _ in range(n_bootstrap)]
    return d(tables), float(np.std(boot, ddof=1))


_ENDS_EMPTY = np.array([[0, 3, 5, 0], [2, 9, 1, 4], [4, 0, 6, 0]])
_LAST_OCCUPIED = np.array([[1, 0, 7], [0, 12, 0], [3, 0, 2]])
_TIED_LARGEST = np.array([[6, 0, 6], [2, 6, 1]])
_SINGLE_CELL = np.array([[0, 0, 0], [0, 25, 0]])
_SPARSE = np.random.default_rng(5).poisson(0.4, size=(9, 13)) * (
    np.random.default_rng(6).random((9, 13)) < 0.5)
_SPARSE[0, 0] = _SPARSE[-1, -1] = 0

_TABLE_SETS = {
    "empty-ends": (_ENDS_EMPTY, _ENDS_EMPTY.T, _ENDS_EMPTY[::-1], _SPARSE),
    "last-occupied": (_LAST_OCCUPIED, _LAST_OCCUPIED.T, _SPARSE.T, _LAST_OCCUPIED * 3),
    "tied-largest": (_TIED_LARGEST, _TIED_LARGEST.T, _TIED_LARGEST * 2, _ENDS_EMPTY),
    "single-cell": (_SINGLE_CELL, _SINGLE_CELL.T, np.array([[40]]), _LAST_OCCUPIED),
}


@pytest.mark.parametrize("miller_madow", [True, False])
@pytest.mark.parametrize("name", sorted(_TABLE_SETS))
def test_occupied_cell_bootstrap_matches_the_whole_box(name, miller_madow):
    tables = _TABLE_SETS[name]
    got = experiment_sim._estimate(tables, 11, miller_madow, 30)
    assert got == _box_estimate(tables, 11, miller_madow, 30)


@pytest.mark.parametrize("miller_madow", [True, False])
def test_empirical_estimate_matches_the_whole_box(miller_madow):
    # fine bins: most of each table's box is empty
    state, geometry = TmsvParams(HEADLINE_R), AngleGeometry(HEADLINE_DELTA)
    tables = [bin_counts(sample_pairs(state, phs, 20_000, 3, setting_index=i), 0.25)
              for i, phs in enumerate(geometry.pair_sums())]
    assert min(np.count_nonzero(t) / t.size for t in tables) < 0.5
    assert empirical_d_qm(state, geometry, 0.25, 20_000, seed=3, miller_madow=miller_madow,
                          n_bootstrap=20) == _box_estimate(tables, 3, miller_madow, 20)


def test_bootstrap_draws_only_the_occupied_cells(monkeypatch):
    calls = []

    class Recording(np.random.Generator):
        def multinomial(self, n, pvals, size=None):
            calls.append(np.asarray(pvals))
            return super().multinomial(n, pvals, size)

    monkeypatch.setattr(np.random, "Generator", Recording)
    state, geometry = TmsvParams(1.0), AngleGeometry(0.6)
    occupied = [np.count_nonzero(bin_counts(sample_pairs(state, phs, 2000, 7, setting_index=i),
                                            0.5))
                for i, phs in enumerate(geometry.pair_sums())]
    empirical_d_qm(state, geometry, 0.5, 2000, seed=7, n_bootstrap=5)
    assert len(calls) == 4 * 5
    for k, pvals in enumerate(calls):
        assert pvals.size == occupied[k % 4]
        assert np.all(pvals > 0.0)


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


@pytest.mark.parametrize("delta_bin", [1e-310, 5e-324, 3e-308])
def test_bin_counts_box_too_wide_to_count_raises(delta_bin):
    # the window indices, or at 3e-308 their span, pass the float64 range;
    # the suite turns warnings into errors, so none may be raised on the way
    batch = sample_pairs(TmsvParams(1.0), 0.3, 2000, seed=1)
    with pytest.raises(GridTooLarge, match="too many windows to count"):
        bin_counts(batch, delta_bin)


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
