"""Finite-shot simulation of the coarse-grained homodyne Bell test.

Draws quadrature pairs from the exact joint Gaussian for each of the four
setting pairs, bins them, and estimates the chained entropy combination
with a bootstrap error bar.  Detection is ideal: no loss, no dark noise,
no phase jitter, matching the idealisation of the analytic pipeline.

Shots are drawn and binned block by block on every CPU available to the
process (_map_blocks): each CPU takes every k-th block, the caller one share
and the kernel's kept workers (coarse_grain._on_every_cpu) the others, and
each block writes its own slice of arrays the caller allocated.  A block's
bits depend on the seed, the setting and the block alone, so the output does
not depend on the CPU count.

Each count table spans the box of windows its shots reach, and most of
that box is empty at fine bins.  The table is laid out once per request
over its occupied cells (_Cells), and every bootstrap resample draws and
sums those alone.  The bits are those of a multinomial over the whole box:
numpy's binomial returns 0 for an empty cell without touching the stream,
and the entropies see the same positive counts in the same order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import AngleGeometry, _chained
from .coarse_grain import CELL_BUDGET, GridTooLarge, _check_bin_width, _cpu_count, _on_every_cpu
from .entropy import EntropyTerms, _dot
from .gaussian_core import PhaseSettings, TmsvParams, coefficients

# Shots are generated and binned in fixed-size blocks with one counter-based
# stream per (setting, block), so the blocks run on every available CPU
# (_map_blocks) and reproduce the same batch bit for bit on any number of them.
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


def _map_blocks(fn, n: int) -> list:
    """[fn(start, stop) for each _BLOCK-sized slice of range(n)], on the available CPUs.

    Serial with one CPU or one block; otherwise the k = min(CPUs, blocks)
    shares blocks[i::k] run through _on_every_cpu, which raises a share's
    exception here.
    """
    blocks = [(start, min(start + _BLOCK, n)) for start in range(0, n, _BLOCK)]
    k = min(_cpu_count(), len(blocks))
    if k <= 1:
        return [fn(*block) for block in blocks]
    done = _on_every_cpu([lambda i=i: [fn(*block) for block in blocks[i::k]]
                          for i in range(k)])
    return [done[j % k][j // k] for j in range(len(blocks))]


def sample_pairs(state: TmsvParams, phi_sum: float, n: int, seed: int,
                 setting_index: int = 0) -> ShotBatch:
    """n i.i.d. draws from the joint quadrature distribution.

    The joint is the bivariate normal with equal per-axis variance
    sigma^2 = v / (2 (v^2 - w^2)) and correlation rho = w / v, sampled
    through its Cholesky factor.  Each block draws its normals into its own
    rows of the batch and transforms them there, on every available CPU.
    Deterministic for fixed (seed, setting_index), independent of block
    scheduling and of the CPU count.
    """
    if not 1 <= n <= _MAX_SHOTS:
        raise ValueError(f"need between 1 and {_MAX_SHOTS} shots, got {n}")
    c = coefficients(state, PhaseSettings(theta=0.0, phi=phi_sum))
    sigma = c.sigma_marginal
    rho = c.correlation
    # sqrt(1 - rho^2) through the cancellation-free v -+ w factors.
    root = math.sqrt(c.v_minus_w * c.v_plus_w) / c.v

    out = np.empty((n, 2), dtype=float)

    def draw(start: int, stop: int) -> None:
        z = out[start:stop]
        _stream(seed, setting_index, start // _BLOCK).standard_normal(out=z)
        # sigma z0 and sigma (rho z0 + root z1), in place: IEEE + and * commute
        a, b = z.T
        b *= root
        b += rho * a
        b *= sigma
        a *= sigma

    _map_blocks(draw, n)
    return ShotBatch(pairs=out, r=state.r, phi_sum=phi_sum, seed=seed)


def bin_counts(batch: ShotBatch, delta_bin: float) -> np.ndarray:
    """Contingency table of window indices over the observed support.

    Windows are centred at integer multiples of delta_bin, exactly as in
    the analytic pipeline; the table spans the smallest index box holding
    every shot.  A box of more than CELL_BUDGET cells raises GridTooLarge.
    The window and flat indices are formed block by block on every
    available CPU, in two arrays allocated here: n float64 A indices and n
    int64 flat indices, whose buffer holds the B indices until each flat
    index replaces its own.  The counts do not depend on the CPU count.
    """
    _check_bin_width(delta_bin)
    # window indices per column, kept in float64: a wide record's indices can
    # pass the int64 range, and the box check below must see them first
    flat = np.empty(batch.n, dtype=np.int64)
    index = np.empty(batch.n), flat.view(float)

    def window(start: int, stop: int) -> list[tuple[float, float]]:
        spans = []
        for col, whole in zip(batch.pairs[start:stop].T, index):
            z = whole[start:stop]
            np.divide(col, delta_bin, out=z)
            np.rint(z, out=z)
            spans.append((z.min(), z.max()))
        return spans

    spans = np.array(_map_blocks(window, batch.n))  # block, column, (min, max)
    (a_lo, b_lo), (a_hi, b_hi) = spans[..., 0].min(axis=0), spans[..., 1].max(axis=0)
    rows, cols = int(a_hi - a_lo) + 1, int(b_hi - b_lo) + 1
    if rows * cols > CELL_BUDGET:
        raise GridTooLarge(f"shots span {rows}x{cols} = {rows * cols} windows, budget is "
                           f"{CELL_BUDGET} (delta_bin={delta_bin}, r={batch.r})")

    def ravel(start: int, stop: int) -> None:
        # exact in float64: every flat index is below CELL_BUDGET < 2**53
        a, b = (z[start:stop] for z in index)
        a -= a_lo
        a *= cols
        b -= b_lo
        a += b
        flat[start:stop] = a  # over this block's B indices, already read

    _map_blocks(ravel, batch.n)
    del index
    return np.bincount(flat, minlength=rows * cols).reshape(rows, cols)


def _plugin_entropy(counts: np.ndarray, n: int, miller_madow: bool) -> float:
    """log n - sum c ln c / n over the positive counts c of n shots.

    The plug-in estimator is biased low by roughly (occupied cells - 1) /
    (2 n); the Miller-Madow term adds that back.
    """
    c = counts[counts > 0].astype(float, copy=False)
    s = math.log(n) - _dot(c, np.log(c)) / n
    if miller_madow:
        s += (c.size - 1) / (2.0 * n)
    return s


def plugin_entropies(counts: np.ndarray, miller_madow: bool = True
                     ) -> tuple[float, float, float]:
    """(joint, A-marginal, B-marginal) entropy estimates from a count table.

    Plug-in estimates, each with the Miller-Madow term unless miller_madow
    is False (_plugin_entropy).
    """
    n = int(counts.sum())
    if n < 1:
        raise ValueError("empty count table")
    return tuple(_plugin_entropy(c, n, miller_madow)
                 for c in (counts.ravel(), counts.sum(axis=1), counts.sum(axis=0)))


@dataclass(frozen=True)
class _Cells:
    """The occupied cells of a count table of n shots, laid out once.

    counts, row and col hold each occupied cell's count and indices, in
    ravel order.  p holds their probabilities in the multinomial's draw
    order, and back maps that order to ravel order.
    """

    n: int
    counts: np.ndarray
    row: np.ndarray
    col: np.ndarray
    p: np.ndarray
    back: np.ndarray

    @classmethod
    def of(cls, table: np.ndarray) -> "_Cells":
        flat = table.ravel()
        n = int(flat.sum())
        p = flat / n
        # multinomial rejects pvals whose head sums above 1 at roundoff; park
        # the largest cell last so it absorbs the float remainder.  An empty
        # cell's binomial is 0 without a draw from the stream, and it leaves
        # the remaining mass as it was, so the occupied cells alone, kept in
        # this order, draw the same counts.
        k = int(np.argmax(p))
        order = np.arange(p.size)
        order[k], order[-1] = order[-1], order[k]
        order = order[p[order] > 0]
        back = np.argsort(order)
        cell = order[back]
        return cls(n, flat[cell], *np.divmod(cell, table.shape[1]), p[order], back)

    def resample(self, rng: np.random.Generator) -> np.ndarray:
        """Multinomial bootstrap draw of the occupied cells' counts, n fixed."""
        return rng.multinomial(self.n, self.p)[self.back]

    def terms(self, counts: np.ndarray, miller_madow: bool) -> EntropyTerms:
        """plugin_entropies of the table whose occupied cells hold `counts`, bitwise.

        The joint sees the same positive counts in ravel order; each
        marginal is an exact integer sum in float64 (n < 2**53).
        """
        counts = counts.astype(float)  # once, for the joint and both weighted sums
        return EntropyTerms(*(_plugin_entropy(c, self.n, miller_madow) for c in (
            counts, np.bincount(self.row, weights=counts),
            np.bincount(self.col, weights=counts))))


def _estimate(tables, seed: int, miller_madow: bool, n_bootstrap: int
              ) -> tuple[float, float]:
    """Chained combination of four count tables, and its bootstrap error.

    Each resample redraws the four tables in order over their occupied
    cells; nothing is held across resamples but the estimates.
    """
    cells = [_Cells.of(t) for t in tables]
    estimate = _chained(tuple(c.terms(c.counts, miller_madow) for c in cells))
    rng = np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(97,))))
    boot = np.empty(n_bootstrap)
    for bi in range(n_bootstrap):
        boot[bi] = _chained(tuple(c.terms(c.resample(rng), miller_madow) for c in cells))
    return estimate, float(np.std(boot, ddof=1))


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
    return _estimate(tables, seed, miller_madow, n_bootstrap)
