"""Coarse-grained (binned) outcome distributions of the homodyne records.

Each record is discretised into windows of width Delta centred on l*Delta,
l = -L..L, i.e. window l covers [l*Delta - Delta/2, l*Delta + Delta/2].
The grid half-extent L is chosen from the marginal standard deviation so
that the neglected two-sided tail mass stays below tail_epsilon.

Two independent routes compute the probability of a 2D cell:

* panel quadrature: the inner integral over b is the exact Gaussian slab
  probability of the conditional law b|a ~ N((w/v) a, 1/(2v)); the outer
  integral over a uses fixed-order Gauss-Legendre panels.  The integration
  is confined to where the Gaussian carries mass, with K = max(9, k) and k
  the grid's coverage multiple (erfc(k/sqrt(2)) = tail_epsilon/2).  Each
  window's a-interval is clipped to +-K sigma_a, with panels no wider than
  the full window's; a window wholly outside is a zero row.  In each row
  only the b-edges within K sigma_c of the span of conditional means over
  the window's nodes are evaluated, and the slabs beyond stay exactly 0.
  Each row thus drops at most 2 Phi(-K) <= 2 Phi(-9) ~ 2e-19 of its mass,
  never more than the grid's own tail_epsilon.  Panels are sized by the
  integrand alone.  Uniform panels split a window into
  ceil(4 Delta / min(sigma_a, 8 sigma_c/|rho|)), so a window much narrower
  than sigma_a takes a single 16-point panel.  Where the 8 sigma_c/|rho|
  term sets that width (large r, phi_sum near 0), the slab of a b-edge e
  varies on that scale only within K sigma_c/|rho| of its crossing
  a = e/rho, and is 0 or 1 to within Phi(-K) beyond.  Such a row takes
  edge-adapted panels when they need fewer slab elements: the uniform
  width within K sigma_c/|rho| of the crossings of its near band edges,
  and sigma_a/4 elsewhere.  Every other row, every r = 0 row among them,
  keeps its uniform panels bit for bit.
  The density is invariant under (a, b) -> (b, a) and (a, b) -> (-a, -b),
  so p[l, m] = p[m, l] = p[-l, -m].  Only the fundamental domain of these
  maps, the wedge l <= -|m|, is integrated: rows l = -L..0, and in row l
  the columns m in [l, -l].  Every other cell is copied from its wedge
  representative, so the returned matrix is exactly symmetric, and the
  captured mass is the fsum of the nonzero wedge entries scaled by their
  orbit sizes (1, 2 or 4; exact, so equal to the fsum over every cell).
  The wedge rows of many joints at one bin width are computed together
  (_binned_joints; binned_joint is a batch of one): rows with equal panel
  counts, sorted by band width, are evaluated in blocks whose (rows, edges,
  nodes) arrays hold at most _BLOCK_ELEMENTS elements, or one row if a row
  alone is larger.  Every cell depends on its own row alone, so the result
  is bitwise the same in any batch and for any block size, and
  bin_prob_2d, which computes one row on the same path, returns bitwise
  the binned_joint entry.
* rectangle CDF: the grid edges, scaled to unit variance, form a lattice of
  orthants P(X > x_i, Y > y_j) of the standard bivariate normal with
  correlation w/v.  Each is evaluated once, by Gauss-Legendre applied to the
  correlation-integral representation of the CDF, and every cell is the one
  2D difference of its four corners, clipped at 0.

The two must agree to 1e-10 absolute; they share no quadrature machinery.

A joint depends on phi_sum only through its coefficients, which read it as
cos phi_sum, sin^2 phi_sum, sin^2(phi_sum/2) and cos^2(phi_sum/2).  Each is
even, and computed evenly, so the joint is bitwise even in phi_sum: the
joint at -phi_sum is the joint at phi_sum, bit for bit, on both routes.
At r = 0 they do not depend on phi_sum at all (w = 0, v = 1), so the joint
is bitwise the same at every phase sum.

Every normal slab Phi(z_hi) - Phi(z_lo), in the panel kernel and in the
exact marginal windows of bin_prob_1d, has one form: Phi is evaluated once
per edge as the signed tail h = sign(z) Phi(-|z|), and a slab is the
difference of the two tails plus the unit step where z changes sign, so
both tails keep full relative precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .gaussian_core import (
    JointGaussianCoefficients, PhaseSettings, TmsvParams, _marginal_density, coefficients,
)

PANEL_QUADRATURE = "panel-quadrature"
RECTANGLE_CDF = "rectangle-cdf"

DEFAULT_TAIL_EPSILON = 1e-12
CELL_BUDGET = 400_000_000
# Gauss-Legendre order per panel; panels subdivide each window.
_PANEL_ORDER = 16
# Uniform panels are at most min(sigma_a, _SLAB_RESOLUTION sigma_c/|rho|)/4
# wide, so both the marginal Gaussian and the conditional slab edge (which
# varies in a on the scale sigma_c/|rho|) are resolved; without the second
# term panels under-resolve cells at large r and phi_sum near 0.  A slab edge
# varies on that scale only near its crossing a = e/rho, so edge-adapted rows
# keep this width there alone and take sigma_a/4 elsewhere (_panel_rows).
# The bin width Delta does not enter: a window narrower than this scale gets
# one panel.
_SLAB_RESOLUTION = 8.0
_MAX_PANELS = 100_000
# Smallest cut-off K of the panel kernel, in standard deviations: each row
# drops at most 2 Phi(-9) ~ 2e-19 of its mass.
_MIN_CUT = 9.0
# Elements of one (rows, edges, nodes) block of the panel kernel; a row
# larger than this forms a block of its own.  Results do not depend on it.
# At 1 << 15 each of a block's few temporaries takes 256 KiB; on the
# benchmark's scan, minimize and eval-fine requests this ran faster than
# 1 << 16 or 1 << 17, with a lower peak memory.
_BLOCK_ELEMENTS = 1 << 15


class GridTooLarge(Exception):
    """Requested binning needs more cells than CELL_BUDGET."""


class QuadratureBudgetExceeded(Exception):
    """Panel subdivision of a window exceeds the panel cap _MAX_PANELS."""


@dataclass(frozen=True)
class CoarseGrid:
    """Symmetric bin grid: centres l*delta for l in -l_max..l_max."""

    delta: float
    l_max: int
    tail_epsilon: float

    @property
    def n_bins(self) -> int:
        return 2 * self.l_max + 1

    @property
    def half_extent(self) -> float:
        """Outer edge of the covered region, (l_max + 1/2) delta."""
        return (self.l_max + 0.5) * self.delta

    def centers(self) -> np.ndarray:
        return self.delta * np.arange(-self.l_max, self.l_max + 1, dtype=float)

    def edges(self) -> np.ndarray:
        """The n_bins + 1 window boundaries in increasing order."""
        return self.delta * (np.arange(-self.l_max, self.l_max + 2, dtype=float) - 0.5)


@dataclass(frozen=True)
class BinnedDistribution1D:
    probs: np.ndarray
    captured_mass: float
    grid: CoarseGrid
    r: float


@dataclass(frozen=True)
class BinnedDistribution2D:
    """Cell probabilities indexed [l + l_max, m + l_max] (a-window, b-window)."""

    probs: np.ndarray
    captured_mass: float
    grid: CoarseGrid
    r: float
    phi_sum: float
    method: str

    def marginal_b(self) -> np.ndarray:
        return self.probs.sum(axis=0)

    def marginal_a(self) -> np.ndarray:
        return self.probs.sum(axis=1)

    def to_csv(self, fh) -> None:
        """Write `l,m,p` rows (headers included) for debugging dumps."""
        fh.write("l,m,p\n")
        lmax = self.grid.l_max
        for i in range(self.probs.shape[0]):
            for j in range(self.probs.shape[1]):
                fh.write(f"{i - lmax},{j - lmax},{self.probs[i, j]:.17g}\n")


def _coverage_multiple(tail_epsilon: float) -> float:
    """k with erfc(k / sqrt(2)) = tail_epsilon / 2."""
    return math.sqrt(2.0) * float(special.erfcinv(0.5 * tail_epsilon))


def _check_bin_width(delta: float) -> None:
    if not (delta > 0.0 and math.isfinite(delta)):
        raise ValueError(f"bin width must be positive and finite, got {delta}")


def make_grid(state: TmsvParams, delta: float,
              tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> CoarseGrid:
    """Smallest symmetric grid whose per-record tail mass is below tail_epsilon.

    The coverage multiple k solves erfc(k/sqrt(2)) < tail_epsilon / 2, i.e.
    each record keeps less than tail_epsilon/2 of two-sided mass outside
    +-k sigma, and l_max is the smallest integer with
    (l_max + 1/2) delta >= k sigma.  More than CELL_BUDGET cells raise
    GridTooLarge.
    """
    _check_bin_width(delta)
    if not (0.0 < tail_epsilon <= 1e-6):
        raise ValueError(f"tail_epsilon must be in (0, 1e-6], got {tail_epsilon}")
    k = _coverage_multiple(tail_epsilon)
    sigma_max = state.marginal_sigma
    l_max = max(0, math.ceil(k * sigma_max / delta - 0.5))
    n = 2 * l_max + 1
    if n * n > CELL_BUDGET:
        raise GridTooLarge(
            f"grid needs {n}x{n} = {n * n} cells, budget is {CELL_BUDGET} "
            f"(delta={delta}, r={state.r}, tail_epsilon={tail_epsilon})"
        )
    return CoarseGrid(delta=delta, l_max=l_max, tail_epsilon=tail_epsilon)


def _normal_slabs(z: np.ndarray) -> np.ndarray:
    """Phi(z[:, k + 1]) - Phi(z[:, k]) for z increasing along axis 1.

    With h = sign(z) Phi(-|z|), Phi(z) = [z >= 0] - h: a slab is the
    difference of two tails, plus 1 where z changes sign.
    """
    h = np.abs(z)
    np.negative(h, out=h)
    special.ndtr(h, out=h)
    np.copysign(h, z, out=h)
    slabs = h[:, :-1] - h[:, 1:]
    step_up = z >= 0.0
    slabs += step_up[:, 1:] > step_up[:, :-1]
    np.maximum(slabs, 0.0, out=slabs)
    return slabs


def bin_prob_1d(state: TmsvParams, grid: CoarseGrid, m) -> np.ndarray | float:
    """Exact probability of marginal window(s) m via the Gaussian CDF."""
    m_arr = np.asarray(m)
    if np.any(np.abs(m_arr) > grid.l_max):
        raise ValueError(f"window index outside grid of half-extent {grid.l_max}")
    sigma = state.marginal_sigma
    lo = (m_arr * grid.delta - 0.5 * grid.delta) / sigma
    hi = (m_arr * grid.delta + 0.5 * grid.delta) / sigma
    out = _normal_slabs(np.stack([lo.ravel(), hi.ravel()], axis=1)).reshape(m_arr.shape)
    return float(out) if np.isscalar(m) else out


def binned_marginal(state: TmsvParams, grid: CoarseGrid) -> BinnedDistribution1D:
    probs = bin_prob_1d(state, grid, np.arange(-grid.l_max, grid.l_max + 1))
    return BinnedDistribution1D(
        probs=probs, captured_mass=math.fsum(probs.tolist()), grid=grid, r=state.r,
    )


def _panel_count(delta: float, coeffs: JointGaussianCoefficients) -> int:
    """Uniform Gauss-Legendre panels per window, checked against _MAX_PANELS on the full window."""
    scale = coeffs.sigma_marginal
    rho = abs(coeffs.correlation)
    if rho > 0.0:
        scale = min(scale, _SLAB_RESOLUTION * coeffs.sigma_conditional / rho)
    n_panels = int(math.ceil(4.0 * delta / scale))
    if n_panels > _MAX_PANELS:
        raise QuadratureBudgetExceeded(
            f"window needs {n_panels} panels, cap is {_MAX_PANELS} "
            f"(delta={delta}, r={coeffs.r}, phi_sum={coeffs.phi_sum})"
        )
    return n_panels


def _wedge(l: int, m: int) -> tuple[int, int]:
    """Representative of cell (l, m) in the wedge l <= -|m|.

    It is the image of (l, m) under one of (l, m) -> (m, l), (-l, -m), (-m, -l).
    """
    if abs(m) > abs(l):
        l, m = m, l
    return (l, m) if l <= 0 else (-l, -m)


def _panel_rows(jobs) -> np.ndarray:
    """Wedge rows of several joints at one bin width and tail_epsilon, in one pass.

    `jobs` holds one (state, coeffs, grid, windows) per joint, each window
    l <= 0; the result holds the rows of every joint end to end, each
    n_bins long, in the order of `jobs` and `windows`.  Row l holds the
    panel-quadrature cell probabilities of the columns m in [l, -l] and
    zeros elsewhere.  Each window's a-interval is clipped
    to +-K sigma_a, K = max(9, k) with k the grid's coverage multiple; a
    window wholly outside gets a zero row.  Only the b-edges within
    K sigma_c of the span of the row's conditional means are evaluated; the
    slabs beyond stay 0.

    A row takes uniform panels, at most Delta / _panel_count wide, unless
    the slab edge sets that width (8 sigma_c/|rho| < sigma_a) and
    edge-adapted panels need fewer slab elements.  These are no wider than
    Delta / _panel_count within K sigma_c/|rho| of the crossing a = e/rho
    of each band edge e near the row, and sigma_a/4 wide elsewhere, where
    every slab is 0 or 1 to within Phi(-K).  Rows with more than two near
    edges stay uniform: their zones leave little room for wide panels.  An
    adapted row's band is taken over its whole a-interval, so it holds
    every edge within K sigma_c of each node's conditional mean.

    The rows of every joint are stacked, each with its own sigma_a,
    sigma_c, correlation, clip, edge table and panels.  Blocks of rows with
    equal panel counts, sorted by band width and padded to the widest, are
    evaluated with at most _BLOCK_ELEMENTS (rows, edges, nodes) elements,
    or one row.  Every cell is a function of its own row alone, so the
    result does not depend on which joints share the pass, on the blocks
    or on the block size.
    """
    grids = [grid for _, _, grid, _ in jobs]
    delta = grids[0].delta
    cut = max(_MIN_CUT, _coverage_multiple(grids[0].tail_epsilon))
    x1, wts = _GL16[0] + 1.0, _GL16[1]
    # per joint: correlation, sigma_c, cosh 2r, sigma_a, panel count
    rho, sc, c2r, sa, n_panels = np.array(
        [(c.correlation, c.sigma_conditional, state.cosh_2r, state.marginal_sigma,
          _panel_count(delta, c)) for state, c, _, _ in jobs]).T
    lmax = np.array([grid.l_max for grid in grids])
    n_bins, n_edges = 2 * lmax + 1, 2 * lmax + 2
    n_rows = np.array([len(windows) for *_, windows in jobs])
    row_off, edge_off = np.cumsum(n_rows) - n_rows, np.cumsum(n_edges) - n_edges
    # the edge tables of the joints, end to end: grid.edges() / sigma_c
    i = np.arange(n_edges.sum()) - np.repeat(edge_off + lmax, n_edges)
    edges = delta * (i - 0.5) / np.repeat(sc, n_edges)
    # per row: its joint's parameters
    joint = np.repeat(np.arange(len(jobs)), n_rows)
    windows = np.concatenate([np.asarray(w, dtype=int) for *_, w in jobs])
    rho, sc, c2r, sa, n_panels, lmax = (v[joint] for v in (rho, sc, c2r, sa, n_panels, lmax))
    centres = windows * delta
    lo = np.maximum(centres - 0.5 * delta, -cut * sa)
    # A window wholly beyond the cut gets one panel of width 0: a zero row.
    width = np.maximum(np.minimum(centres + 0.5 * delta, cut * sa), lo) - lo
    counts = np.maximum(np.minimum(n_panels, np.ceil(width * n_panels / delta)), 1)
    pw = width / counts
    half = 0.5 * pw
    # Uniform panel p of a row has the nodes lo + pw p + half (x + 1).  They
    # increase along the row and mu = rho a / sigma_c is monotone in them, so
    # the row's first and last node give the span of mu; [0] is that span,
    # [1] the span over the whole a-interval, for adapted rows.
    mu_span = np.sort(rho * np.array([[lo + half * x1[0], lo + pw * (counts - 1) + half * x1[-1]],
                                      [lo, lo + width]]) / sc, axis=1)
    s, last = np.empty((2, len(windows)), dtype=int), np.empty((2, len(windows)), dtype=int)
    for e0, e1, r0, r1 in zip(*(v.tolist() for v in (edge_off, edge_off + n_edges,
                                                     row_off, row_off + n_rows))):
        s[:, r0:r1] = edges[e0:e1].searchsorted(mu_span[:, 0, r0:r1] - cut, side="right") - 1
        last[:, r0:r1] = edges[e0:e1].searchsorted(mu_span[:, 1, r0:r1] + cut)
    # Band edges s..last, within the row's wedge edges j0..j1.  The edges
    # between them, near_lo..near_hi, are those whose crossing a = e / rho
    # lies within K sigma_c/|rho| of the row's a-interval.
    j0, j1 = windows + lmax, lmax - windows + 1
    near_lo, near_hi = np.maximum(s[1] + 1, j0), np.minimum(last[1] - 1, j1)
    s = np.maximum(np.minimum(s, j1), j0)
    last = np.minimum(np.maximum(last, j0), j1)
    # Five segments per row: the uniform panels in one, or coarse, fine,
    # coarse, fine and coarse about the crossings of at most two near edges.
    seg_lo, seg_pw = np.repeat(lo[:, None], 5, axis=1), np.repeat(pw[:, None], 5, axis=1)
    seg_n = np.zeros((len(windows), 5), dtype=int)
    seg_n[:, 1] = counts
    cand = np.flatnonzero((_SLAB_RESOLUTION * sc < np.abs(rho) * sa) & (width > 0)
                          & (near_hi - near_lo < 2))
    if cand.size:
        rho_c, lo_c, hi_c = rho[cand], lo[cand], lo[cand] + width[cand]
        h = cut * sc[cand] / np.abs(rho_c)
        x = delta * (np.array([near_lo[cand], near_hi[cand]]) - lmax[cand] - 0.5) / rho_c
        x = np.where(near_lo[cand] <= near_hi[cand], np.sort(x, axis=0), np.inf)
        u0, v0, u1, v1 = np.clip([x[0] - h, x[0] + h, x[1] - h, x[1] + h], lo_c, hi_c)
        bounds = np.array([lo_c, u0, v0, np.maximum(u1, v0), v1, hi_c])
        length = bounds[1:] - bounds[:-1]
        coarse, fine = 0.25 * sa[cand], delta / n_panels[cand]
        n = np.ceil(length / np.array([coarse, fine, coarse, fine, coarse]))
        total = n.sum(axis=0)
        take = (total * (last[1, cand] - s[1, cand] + 1)
                < counts[cand] * (last[0, cand] - s[0, cand] + 1))
        rows = cand[take]
        seg_lo[rows], seg_pw[rows] = bounds[:-1, take].T, (length / np.maximum(n, 1.0))[:, take].T
        seg_n[rows], counts[rows] = n[:, take].T, total[take]
        s[0, rows], last[0, rows] = s[1, rows], last[1, rows]
    s, last = s[0], last[0]
    span = last - s
    # The panels of all rows, end to end: row i's are panel_at[i] onwards.
    seg_lo, seg_pw, seg_n = seg_lo.ravel(), seg_pw.ravel(), seg_n.ravel()
    seg = np.repeat(np.arange(len(seg_n)), seg_n)
    seg_first = np.cumsum(seg_n) - seg_n
    p_start = seg_lo[seg] + seg_pw[seg] * (np.arange(len(seg)) - seg_first[seg])
    p_half = 0.5 * seg_pw[seg]
    panel_at = seg_first[::5]
    # Row i of a joint is written from its band start.  The zero columns that
    # a block computes past a row narrower than the block's band go to the
    # one spare element at the end.
    out_off = np.cumsum(n_rows * n_bins) - n_rows * n_bins
    out = np.zeros(int((n_rows * n_bins).sum()) + 1)
    cell_at = out_off[joint] + (np.arange(len(joint)) - row_off[joint]) * n_bins[joint] + s
    band_at, band_end = edge_off[joint] + s, edge_off[joint] + last
    # Rows in order of panel count, then band width.  A block takes the next
    # rows of one panel count that fit in _BLOCK_ELEMENTS at the band width
    # of its last and widest row, or one row.
    order = np.flatnonzero(span > 0)
    order = order[np.lexsort((span[order], counts[order]))]
    counts_in_order, span_in_order = counts[order], span[order]
    chunk = np.getbufsize()
    first = 0
    while first < len(order):
        count = int(counts_in_order[first])
        per_row = _PANEL_ORDER * count
        # no more rows than this can fit
        stop = min(counts_in_order.searchsorted(count, side="right"),
                   first + _BLOCK_ELEMENTS // per_row + 1)
        size = np.arange(1, stop - first + 1) * (span_in_order[first:stop] + 1) * per_row
        last_row = first + max(1, int(size.searchsorted(_BLOCK_ELEMENTS, side="right")))
        blk, cols = order[first:last_row], np.arange(span_in_order[last_row - 1] + 1)
        first = last_row
        panels = panel_at[blk, None] + np.arange(count)
        hw = p_half[panels][:, :, None]
        nodes = p_start[panels][:, :, None] + hw * x1
        f = (_marginal_density(nodes, c2r[blk, None, None]) * (hw * wts)).reshape(len(blk), -1)
        mu = (rho[blk, None, None] * nodes / sc[blk, None, None]).reshape(len(blk), -1)
        # Past its band a row repeats its last edge, so its slabs there are 0.
        band = edges[np.minimum(band_at[blk, None] + cols, band_end[blk, None])]
        slabs = _normal_slabs(band[:, :, None] - mu[:, None, :])
        # einsum sums up to np.getbufsize() nodes in one pass, but splits
        # longer sums in a way that depends on the block's shape; fixed
        # chunks of that length keep every cell independent of its block.
        cells = np.einsum("ren,rn->re", slabs[..., :chunk], f[:, :chunk])
        for n0 in range(chunk, f.shape[1], chunk):
            cells += np.einsum("ren,rn->re", slabs[..., n0:n0 + chunk], f[:, n0:n0 + chunk])
        out[np.where(cols[:-1] < span[blk, None], cell_at[blk, None] + cols[:-1], -1)] = cells
    return out[:-1]


def _binned_joints(points, delta: float, tail_epsilon: float) -> list[BinnedDistribution2D]:
    """Panel-quadrature joints of many (state, phi_sum) points at one bin width.

    All their wedge rows run through one _panel_rows pass.  Each joint is
    bitwise the binned_joint of its point: the batch only schedules work.
    """
    points, jobs, grids = list(points), [], {}
    for state, phi_sum in points:
        if state.r not in grids:
            grids[state.r] = make_grid(state, delta, tail_epsilon)
        grid = grids[state.r]
        jobs.append((state, coefficients(state, PhaseSettings(0.0, phi_sum)), grid,
                     np.arange(-grid.l_max, 1)))
    rows = _panel_rows(jobs)
    lmax = np.array([grid.l_max for _, _, grid, _ in jobs])
    n_bins = 2 * lmax + 1
    sizes = (lmax + 1) * n_bins
    ends = np.cumsum(sizes)
    # Each wedge entry stands for its orbit under (l, m) -> (m, l) and
    # (l, m) -> (-l, -m): 1 cell at the centre, 2 on m = +-l, 4 elsewhere.
    # Scaling by 2 or 4 is exact, so the correctly rounded fsum of a joint's
    # scaled entries equals that over its whole matrix.
    at = np.flatnonzero(rows)
    cuts = [0, *at.searchsorted(ends).tolist()]
    k = ends.searchsorted(at, side="right")
    i, j = np.divmod(at - (ends - sizes)[k], n_bins[k])
    scaled = np.ldexp(rows[at], 2 - (j == i) - (i + j == 2 * lmax[k])).tolist()
    del at, k, i, j
    joints = []
    for (state, phi_sum), (_, _, grid, _), start, stop, end in zip(
            points, jobs, cuts, cuts[1:], ends.tolist()):
        n = grid.n_bins
        wedge = rows[end - (grid.l_max + 1) * n:end].reshape(-1, n)
        probs = np.concatenate((wedge, wedge[-2::-1, ::-1]))  # p[l, m] = p[-l, -m]
        # Entries off the wedge are 0 and none is negative, so the maximum
        # copies the rows above onto their images under (l, m) -> (m, l).
        # It is taken in place, a few rows at a time: each entry becomes the
        # larger of itself and its mirror, whichever of the two comes first.
        step = max(1, _BLOCK_ELEMENTS // n)
        for a in range(0, n, step):
            part = probs[a:a + step]
            np.maximum(part, probs[:, a:a + step].T.copy(), out=part)
        joints.append(BinnedDistribution2D(
            probs=probs, captured_mass=math.fsum(scaled[start:stop]),
            grid=grid, r=state.r, phi_sum=phi_sum, method=PANEL_QUADRATURE,
        ))
    return joints


def binned_joint(state: TmsvParams, phi_sum: float, delta: float,
                 tail_epsilon: float = DEFAULT_TAIL_EPSILON,
                 method: str = PANEL_QUADRATURE) -> BinnedDistribution2D:
    """Full matrix of 2D window probabilities for the joint homodyne law."""
    if method == PANEL_QUADRATURE:
        return _binned_joints([(state, phi_sum)], delta, tail_epsilon)[0]
    if method != RECTANGLE_CDF:
        raise ValueError(f"unknown method {method!r}")
    grid = make_grid(state, delta, tail_epsilon)
    coeffs = coefficients(state, PhaseSettings(0.0, phi_sum))
    z = grid.edges() / coeffs.sigma_marginal
    probs = _rectangle_cells(z, z, coeffs.correlation)
    return BinnedDistribution2D(
        probs=probs, captured_mass=math.fsum(probs.ravel().tolist()),
        grid=grid, r=state.r, phi_sum=phi_sum, method=method,
    )


def bin_prob_2d(coeffs: JointGaussianCoefficients, grid: CoarseGrid, l: int, m: int,
                method: str = PANEL_QUADRATURE) -> float:
    """Probability that record a falls in window l and record b in window m."""
    if abs(l) > grid.l_max or abs(m) > grid.l_max:
        raise ValueError(f"cell ({l}, {m}) outside grid of half-extent {grid.l_max}")
    if method == PANEL_QUADRATURE:
        a, b = _wedge(l, m)
        row = _panel_rows([(TmsvParams(coeffs.r), coeffs, grid, [a])])
        return float(row[b + grid.l_max])
    if method == RECTANGLE_CDF:
        z = grid.edges() / coeffs.sigma_marginal
        i, j = l + grid.l_max, m + grid.l_max
        return bvn_rectangle(z[i], z[i + 1], z[j], z[j + 1], coeffs.correlation)
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Standard bivariate normal probabilities (Gauss-Legendre on the
# correlation-integral representation, with the high-correlation reduction
# of Drezner & Wesolowsky as refined by Genz).

_GL6 = np.polynomial.legendre.leggauss(6)
_GL12 = np.polynomial.legendre.leggauss(12)
_GL16 = np.polynomial.legendre.leggauss(_PANEL_ORDER)  # the panel rule
_GL20 = np.polynomial.legendre.leggauss(20)


def _gl_rule(rho: float) -> tuple[np.ndarray, np.ndarray]:
    a = abs(rho)
    if a < 0.3:
        return _GL6
    if a < 0.75:
        return _GL12
    return _GL20


def bvn_upper(h: float | np.ndarray, k: float | np.ndarray, rho: float) -> float | np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal with correlation rho.

    h and k broadcast against each other at the one rho: numbers give a
    float, arrays an array.  A call holds (elements x quadrature nodes) values.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    h, k = np.asarray(h, dtype=float), np.asarray(k, dtype=float)
    x, wts = _gl_rule(rho)
    hk = h * k
    bvn = 0.0
    if abs(rho) < 0.925:
        if rho != 0.0:
            hs = 0.5 * (h * h + k * k)
            asr = math.asin(rho)
            sn = np.sin(0.5 * asr * (x + 1.0))
            bvn = np.exp((sn * hk[..., None] - hs[..., None]) / (1.0 - sn * sn)) @ wts
            bvn *= asr / (4.0 * math.pi)
        out = bvn + special.ndtr(-h) * special.ndtr(-k)
        return float(out) if out.ndim == 0 else out
    # |rho| >= 0.925: integrate the residual after removing the rho -> +-1 limit.
    if rho < 0.0:
        k, hk = -k, -hk
    if abs(rho) < 1.0:
        a_s = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / a_s + hk)
        b = np.sqrt(bs)
        half = 0.5 * a
        xs = (half * (x + 1.0)) ** 2
        rs = np.sqrt(1.0 - xs)
        asr_v = -0.5 * (bs[..., None] / xs + hk[..., None])
        sp = 1.0 + c[..., None] * xs * (1.0 + d[..., None] * xs)
        # np.where drops the terms past the cut-offs, which may overflow first.
        with np.errstate(over="ignore", invalid="ignore"):
            ep = np.exp(-0.5 * hk[..., None] * (1.0 - rs) / (1.0 + rs)) / rs
            bvn = np.where(asr > -100.0, a * np.exp(asr) * (
                1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0 + c * d * a_s * a_s / 5.0), 0.0)
            bvn -= np.where(-hk < 100.0, np.exp(-0.5 * hk) * math.sqrt(2.0 * math.pi)
                            * special.ndtr(-b / a) * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0),
                            0.0)
            bvn += half * (np.where(asr_v > -100.0, np.exp(asr_v) * (ep - sp), 0.0) @ wts)
        bvn = -bvn / (2.0 * math.pi)
    if rho > 0.0:
        out = bvn + special.ndtr(-np.maximum(h, k))
    else:
        out = np.where(k > h, special.ndtr(k) - special.ndtr(h), 0.0) - bvn
    return float(out) if out.ndim == 0 else out


def _rectangle_cells(x, y, rho: float) -> np.ndarray:
    """P(x[i] < X < x[i + 1], y[j] < Y < y[j + 1]) for increasing edges x and y.

    One bvn_upper call per lattice row computes each orthant once.
    """
    u = np.array([bvn_upper(xi, y, rho) for xi in x])
    return np.maximum(u[:-1, :-1] - u[1:, :-1] - u[:-1, 1:] + u[1:, 1:], 0.0)


def bvn_rectangle(x_lo: float, x_hi: float, y_lo: float, y_hi: float, rho: float) -> float:
    """P(x_lo < X < x_hi, y_lo < Y < y_hi) for the standard bivariate normal."""
    return float(_rectangle_cells((x_lo, x_hi), (y_lo, y_hi), rho)[0, 0])
