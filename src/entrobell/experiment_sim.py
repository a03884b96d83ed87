"""Finite-shot simulation of the coarse-grained homodyne Bell test.

Draws quadrature pairs from the exact joint Gaussian for each of the four
setting pairs, bins them, and estimates the chained entropy combination
with a bootstrap error bar.  Detection is ideal: no loss, no dark noise,
no phase jitter, matching the idealisation of the analytic pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import AngleGeometry, _chained
from .coarse_grain import CELL_BUDGET, GridTooLarge, _check_bin_width
from .entropy import EntropyTerms, _dot
from .gaussian_core import PhaseSettings, TmsvParams, coefficients

# Shots are generated in fixed-size blocks with one counter-based stream
# per (setting, block), so any parallel decomposition reproduces the same
# batch bit for bit.
_BLOCK = 1 << 16

# Bootstrap resample count; entropy estimators have no usable closed-form
# variance at small occupancy, resampling the contingency table does.
DEFAULT_BOOTSTRAP = 200

# Most bootstrap resamples, 50 times the default: the estimates are held in
# one array, and each resample redraws all four tables.
_MAX_BOOTSTRAP = 10_000

# Most shots per setting that sample_pairs draws, ten times the largest count
# that README's shot ladder and the benchmark use (1e6): at 16 bytes a shot,
# one batch is 160 MB.
_MAX_SHOTS = 10_000_000


@dataclass(frozen=True)
class ShotBatch:
    """Quadrature pair samples for one setting pair.

    pairs has shape (n, 2); column 0 is the A-side outcome, column 1 the
    B-side outcome.
    """

    pairs: np.ndarray
    r: float
    phi_sum: float
    seed: int

    @property
    def n(self) -> int:
        return self.pairs.shape[0]

    def to_csv(self, fh) -> None:
        fh.write("a,b\n")
        for a, b in self.pairs:
            fh.write(f"{a:.17g},{b:.17g}\n")


def _stream(seed: int, setting_index: int, block_index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(seed, spawn_key=(setting_index, block_index))
    return np.random.Generator(np.random.Philox(ss))


def sample_pairs(state: TmsvParams, phi_sum: float, n: int, seed: int,
                 setting_index: int = 0) -> ShotBatch:
    """n i.i.d. draws from the joint quadrature distribution.

    The joint is the bivariate normal with equal per-axis variance
    sigma^2 = v / (2 (v^2 - w^2)) and correlation rho = w / v, sampled
    through its Cholesky factor.  Deterministic for fixed (seed,
    setting_index), independent of block scheduling.
    """
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"need between 1 and {_MAX_SHOTS} shots, got {n}")
    c = coefficients(state, PhaseSettings(theta=0.0, phi=phi_sum))
    sigma = c.sigma_marginal
    rho = c.correlation
    # sqrt(1 - rho^2) through the cancellation-free v -+ w factors.
    root = math.sqrt(c.v_minus_w * c.v_plus_w) / c.v

    out = np.empty((n, 2), dtype=float)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        rng = _stream(seed, setting_index, start // _BLOCK)
        z = rng.standard_normal((stop - start, 2))
        out[start:stop, 0] = sigma * z[:, 0]
        out[start:stop, 1] = sigma * (rho * z[:, 0] + root * z[:, 1])
    return ShotBatch(pairs=out, r=state.r, phi_sum=phi_sum, seed=seed)


def bin_counts(batch: ShotBatch, delta_bin: float) -> np.ndarray:
    """Contingency table of window indices over the observed support.

    Windows are centred at integer multiples of delta_bin, exactly as in
    the analytic pipeline; the table spans the smallest index box holding
    every shot.  A box of more than CELL_BUDGET cells raises GridTooLarge.
    """
    _check_bin_width(delta_bin)
    # window indices per column, in float64: a wide record's pass the int64 range
    a, b = (np.rint(col / delta_bin) for col in batch.pairs.T)
    a_lo, b_lo = a.min(), b.min()
    rows, cols = int(a.max() - a_lo) + 1, int(b.max() - b_lo) + 1
    if rows * cols > CELL_BUDGET:
        raise GridTooLarge(f"shots span {rows}x{cols} = {rows * cols} windows, budget is "
                           f"{CELL_BUDGET} (delta_bin={delta_bin}, r={batch.r})")
    # exact in float64: every flat index is below CELL_BUDGET < 2**53
    flat = ((a - a_lo) * cols + (b - b_lo)).astype(np.int64)
    return np.bincount(flat, minlength=rows * cols).reshape(rows, cols)


def plugin_entropies(counts: np.ndarray, miller_madow: bool = True
                     ) -> tuple[float, float, float]:
    """(joint, A-marginal, B-marginal) entropy estimates from a count table.

    The plug-in estimator is biased low by roughly (occupied cells - 1) /
    (2 n); the Miller-Madow term adds that back.
    """
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty count table")

    def one(c: np.ndarray) -> float:
        c = c[c > 0].astype(float)
        s = math.log(n) - _dot(c, np.log(c)) / n
        if miller_madow:
            s += (c.size - 1) / (2.0 * n)
        return s

    return one(counts.ravel()), one(counts.sum(axis=1)), one(counts.sum(axis=0))


def _d_from_tables(tables, miller_madow: bool) -> float:
    """Chained combination from the four setting-pair count tables."""
    return _chained(tuple(EntropyTerms(*plugin_entropies(t, miller_madow)) for t in tables))


def _resample(table: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Multinomial bootstrap draw holding the shot count fixed."""
    flat = table.ravel()
    n = int(flat.sum())
    p = flat / n
    # multinomial rejects pvals whose head sums above 1 at roundoff; park
    # the largest cell last so it absorbs the float remainder.
    k = int(np.argmax(p))
    order = np.arange(p.size)
    order[k], order[-1] = order[-1], order[k]
    drawn = rng.multinomial(n, p[order])
    out = np.empty_like(drawn)
    out[order] = drawn
    return out.reshape(table.shape)


def empirical_d_qm(state: TmsvParams, geometry: AngleGeometry, delta_bin: float,
                   n_per_setting: int, seed: int, miller_madow: bool = True,
                   n_bootstrap: int = DEFAULT_BOOTSTRAP) -> tuple[float, float]:
    """Finite-shot estimate of the chained combination with a bootstrap error.

    Each of the four setting pairs gets its own n_per_setting shots on an
    independent stream.  The error bar is the standard deviation of the
    estimate over multinomial resamples of the four contingency tables.
    """
    if n_per_setting < 10 ** 3 or not 2 <= n_bootstrap <= _MAX_BOOTSTRAP:
        raise ValueError("need at least 1000 shots per setting and between 2 and "
                         f"{_MAX_BOOTSTRAP} bootstrap resamples")
    sums = geometry.pair_sums()
    tables = [
        bin_counts(sample_pairs(state, phs, n_per_setting, seed, setting_index=i),
                   delta_bin)
        for i, phs in enumerate(sums)
    ]
    estimate = _d_from_tables(tables, miller_madow)

    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(97,))))
    boot = np.empty(n_bootstrap)
    for bi in range(n_bootstrap):
        boot[bi] = _d_from_tables([_resample(t, rng) for t in tables], miller_madow)
    return estimate, float(np.std(boot, ddof=1))
