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
  the window's uniform nodes are evaluated, and the slabs beyond stay
  exactly 0.  A uniform row thus drops at most 2 Phi(-9) ~ 2.26e-19 of its
  mass.  An edge-adapted row (below) keeps that band, and its end nodes lie
  at most (1 + x_0)/2 ~ 0.0053 of a uniform panel width (<= 2 sigma_c/|rho|)
  beyond the uniform ones, x_0 the first Gauss-Legendre node, so it drops
  at most 2 Phi(-(K - 0.0106)) <= 2 Phi(-8.989) ~ 2.49e-19: never more
  than the grid's own tail_epsilon.  Panels are sized by the integrand
  alone.  Uniform panels split a window into
  ceil(4 Delta / min(sigma_a, 8 sigma_c/|rho|)), so a window much narrower
  than sigma_a takes a single 16-point panel.  Where the 8 sigma_c/|rho|
  term sets that width (large r, phi_sum near 0), the slab of a b-edge e
  varies on that scale only within K sigma_c/|rho| of its crossing
  a = e/rho, and is 0 or 1 to within Phi(-K) beyond.  Such a row takes
  edge-adapted panels when they are fewer (both plans share one band): the
  uniform width within K sigma_c/|rho| of the crossings of its near band
  edges, at most two, and sigma_a/4 elsewhere.  Every other row, every
  r = 0 row among them, keeps its uniform panels bit for bit.
  The density is invariant under (a, b) -> (b, a) and (a, b) -> (-a, -b),
  so p[l, m] = p[m, l] = p[-l, -m].  Only the fundamental domain of these
  maps, the wedge l <= -|m|, is integrated: rows l = -L..0, and in row l
  the columns m in [l, -l].  Every other cell is copied from its wedge
  representative, so the returned matrix is exactly symmetric.
  The wedge rows of many joints at one bin width are computed in one pass
  (_binned_joints; binned_joint is a batch of one).  Each joint's grid is
  made where the request enters, once per distinct r (_grids for a point
  list), and handed down: the kernel makes none.  _panel_plan first lays
  the pass out, before any slab is evaluated: every row's clip, band and
  panels, a table of each row's own band edges, the blocks, and the exact
  number of slab elements (ndtr evaluations) and bytes.  Rows with equal
  panel counts form blocks whose band edges x nodes add up to at most
  _BLOCK_ELEMENTS, or one row if a row alone is larger; _integrate
  evaluates only those edges, with no padding, and contracts each block in
  one einsum.  A pass of at least _SPLIT_ELEMENTS slab elements runs on
  every CPU, one contiguous run of blocks of about equal slab elements each
  (_on_every_cpu, the package's one split rule): the caller makes one run
  and a kept ThreadPoolExecutor the others.  Every cell depends on
  its own row alone, so the result is bitwise the same in any batch, for
  any block size and on any number of CPUs, and bin_prob_2d, which
  computes one row on the same path, returns bitwise the binned_joint
  entry.  The joints are kept in request order,
  and each run of consecutive joints with the same grid size is unfolded
  from its wedges as one (joints, n, n) stack; _binned_joints returns these
  stacks, and the entropies read each in place, with no copy.
* rectangle CDF: the grid edges, scaled to unit variance, form a lattice of
  orthants P(X > x_i, Y > y_j) of the standard bivariate normal with
  correlation w/v.  Each is evaluated once, by Owen's identity from two
  values of Owen's T, with 1 - |w/v| taken exactly from v - w or v + w, not
  from the rounded correlation.  Every cell is the one 2D difference of its
  four corners, clipped at 0.

On either route, and for binned_marginal, the captured mass is a property of
the returned distribution, summed when it is read and never during a build.

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

import bisect
import contextvars
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, groupby

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
_GL16 = np.polynomial.legendre.leggauss(_PANEL_ORDER)  # the panel rule
# Uniform panels are at most min(sigma_a, _SLAB_RESOLUTION sigma_c/|rho|)/4
# wide, so both the marginal Gaussian and the conditional slab edge (which
# varies in a on the scale sigma_c/|rho|) are resolved; without the second
# term panels under-resolve cells at large r and phi_sum near 0.  A slab edge
# varies on that scale only near its crossing a = e/rho, so edge-adapted rows
# keep this width there alone and take sigma_a/4 elsewhere (_panel_plan).
# The bin width Delta does not enter: a window narrower than this scale gets
# one panel.
_SLAB_RESOLUTION = 8.0
_MAX_PANELS = 100_000
# Smallest cut-off K of the panel kernel, in standard deviations: each row
# drops at most 2 Phi(-8.989) ~ 2.49e-19 of its mass (module docstring).
_MIN_CUT = 9.0
# Band edges x nodes of one block of the panel kernel, summed over its rows;
# a row larger than this forms a block of its own.  Results do not depend on it.
# At 1 << 15 each of a block's few temporaries takes 256 KiB; on the
# benchmark's scan, minimize and eval-fine requests this ran faster than
# 1 << 16 or 1 << 17, with a lower peak memory.  _integrate sums each block
# in one einsum, which gives a row the same sums in any block up to 8192
# nodes and may split longer ones by the block's shape.  The rows of a block
# share one node count and have at least 2 band edges each, so two rows of
# more than 8192 nodes take over 2 * 2 * 8193 > 1 << 15 elements: such a
# row is always alone in its block, and summed the same in every pass.
_BLOCK_ELEMENTS = 1 << 15
# A pass of at least this many slab elements is split into one run of blocks
# per CPU (_integrate); a smaller one runs on the calling thread alone, as
# does bin_prob_2d.  A Nelder-Mead round of minimize is one pass over the
# next points of every live start: at the default 8 starts and r <= 2, 8 of
# the 36 rounds at Delta = 1.5 and 24 of 38 at Delta = 1 reach this, and
# none of the benchmark's minimize rounds does.  On the benchmark's scan,
# minimize and eval-fine requests, 1 << 15, 1 << 16 and 1 << 17 ran within
# 8 % of each other (2 CPUs), in no consistent order.
_SPLIT_ELEMENTS = 1 << 16


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


class _Binned:
    """What every binned distribution derives from its `probs`."""

    @property
    def captured_mass(self) -> float:
        """Probability the grid holds: the correctly rounded sum of every entry, on each read."""
        return math.fsum(self.probs.ravel().tolist())


@dataclass(frozen=True)
class BinnedDistribution1D(_Binned):
    probs: np.ndarray
    grid: CoarseGrid
    r: float


@dataclass(frozen=True)
class BinnedDistribution2D(_Binned):
    """Cell probabilities indexed [l + l_max, m + l_max] (a-window, b-window)."""

    probs: np.ndarray
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
    (l_max + 1/2) delta >= k sigma.  A tail_epsilon outside (0, 1e-6], or
    too small for a finite k, raises ValueError; more than CELL_BUDGET cells,
    or a bin width so small that l_max is not finite, raise GridTooLarge.
    """
    _check_bin_width(delta)
    if not (0.0 < tail_epsilon <= 1e-6):
        raise ValueError(f"tail_epsilon must be in (0, 1e-6], got {tail_epsilon}")
    k = _coverage_multiple(tail_epsilon)
    if not math.isfinite(k):  # tail_epsilon / 2 is 0 or the smallest subnormal
        raise ValueError(f"tail_epsilon {tail_epsilon} is too small: its coverage multiple "
                         "is not finite")
    reach = k * state.marginal_sigma / delta - 0.5  # in bins
    if not math.isfinite(reach):  # k sigma / delta overflowed
        raise GridTooLarge(f"bin width {delta} gives no finite grid "
                           f"(r={state.r}, tail_epsilon={tail_epsilon})")
    l_max = max(0, math.ceil(reach))
    n = 2 * l_max + 1
    if n * n > CELL_BUDGET:
        raise GridTooLarge(
            f"grid needs {n}x{n} = {n * n} cells, budget is {CELL_BUDGET} "
            f"(delta={delta}, r={state.r}, tail_epsilon={tail_epsilon})"
        )
    return CoarseGrid(delta=delta, l_max=l_max, tail_epsilon=tail_epsilon)


def _normal_slabs(z: np.ndarray) -> np.ndarray:
    """Phi(z[k + 1]) - Phi(z[k]) for z increasing along axis 0.

    With h = sign(z) Phi(-|z|), Phi(z) = [z >= 0] - h: a slab is the
    difference of two tails, plus 1 where z changes sign.
    """
    h = np.abs(z)
    np.negative(h, out=h)
    special.ndtr(h, out=h)
    np.copysign(h, z, out=h)
    slabs = h[:-1] - h[1:]
    step_up = z >= 0.0
    slabs += step_up[1:] > step_up[:-1]
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
    out = _normal_slabs(np.stack([lo, hi])).reshape(m_arr.shape)
    return float(out) if np.isscalar(m) else out


def binned_marginal(state: TmsvParams, grid: CoarseGrid) -> BinnedDistribution1D:
    probs = bin_prob_1d(state, grid, np.arange(-grid.l_max, grid.l_max + 1))
    return BinnedDistribution1D(probs=probs, grid=grid, r=state.r)


def _panel_counts(delta: float, coeffs) -> tuple[np.ndarray, ...]:
    """Uniform Gauss-Legendre panels per window of each joint, with its rho, sigma_c and cosh 2r.

    A window takes ceil(4 Delta / min(sigma_a, 8 sigma_c/|rho|)) panels,
    with sigma_a = sqrt(cosh(2r) / 2) as in the rest of the plan;
    _panel_plan checks the panels each row then takes against _MAX_PANELS.
    """
    rho, sc, c2r = np.array([(c.correlation, c.sigma_conditional, math.cosh(2.0 * c.r))
                             for c in coeffs]).T
    rho_abs = np.abs(rho)
    # 8 sigma_c/|rho| is NaN at rho = 0, where fmin takes sigma_a
    slab = _SLAB_RESOLUTION * sc / np.where(rho_abs > 0.0, rho_abs, np.nan)
    n_panels = np.ceil(4.0 * delta / np.fmin(np.sqrt(0.5 * c2r), slab))
    return n_panels, rho, sc, c2r


def _wedge(l: int, m: int) -> tuple[int, int]:
    """Representative of cell (l, m) in the wedge l <= -|m|.

    It is the image of (l, m) under one of (l, m) -> (m, l), (-l, -m), (-m, -l).
    """
    if abs(m) > abs(l):
        l, m = m, l
    return (l, m) if l <= 0 else (-l, -m)


@dataclass(frozen=True)
class _PanelPlan:
    """One pass of the panel kernel, laid out before any slab is evaluated (_panel_plan).

    Its rows are the wedge rows with at least one band cell, in block
    order: by panel count, then as given.  A block is consecutive rows of
    one panel count, so its panels and its (row, band edge) pairs are
    consecutive too.
    """

    edges: np.ndarray        # per pair: the band edge / sigma_c,
    row: np.ndarray          # its row within its block,
    cell: np.ndarray         # and the output index of its slab to the row's next edge
    counts: np.ndarray       # per row: its panels, and its joint's correlation,
    rho: np.ndarray          # sigma_c and cosh 2r
    sigma_c: np.ndarray
    cosh_2r: np.ndarray
    panel_start: np.ndarray  # per panel: left end and half width
    panel_half: np.ndarray
    blocks: np.ndarray       # first row of each block, then the number of rows
    block_pairs: np.ndarray  # first pair of each block, then the number of pairs
    size: int                # cells of every joint's rows, end to end
    slab_elements: int       # ndtr evaluations: own band edges x nodes, summed over rows

    @property
    def nbytes(self) -> int:
        """Bytes of the plan's arrays."""
        return sum(v.nbytes for v in vars(self).values() if isinstance(v, np.ndarray))


def _panel_plan(jobs) -> _PanelPlan:
    """Lay out one kernel pass: each row's clip, band and panels, and the blocks.

    `jobs` holds one (coeffs, grid, windows) per joint, every grid of one
    bin width and tail_epsilon, each window l <= 0; cosh 2r is read as
    cosh(2 coeffs.r), and _integrate then evaluates the plan.  The clip,
    the band and the choice between uniform and edge-adapted panels are
    those of the module docstring.  Rows of equal panel count form blocks
    of at most _BLOCK_ELEMENTS band edges x nodes, or one row, and each row
    lists its own band edges alone.
    """
    grid = jobs[0][1]
    delta, cut = grid.delta, max(_MIN_CUT, _coverage_multiple(grid.tail_epsilon))
    x1 = _GL16[0] + 1.0
    # per joint: panel count, correlation, sigma_c, cosh 2r, l_max and rows
    n_panels, rho, sc, c2r = _panel_counts(delta, [c for c, _, _ in jobs])
    lmax, n_rows = np.array([(grid.l_max, len(windows)) for _, grid, windows in jobs]).T
    # the edge tables of the joints, end to end: grid.edges() / sigma_c
    n_edges = 2 * lmax + 2
    edge_off = n_edges.cumsum() - n_edges
    edge_joint = np.arange(len(jobs)).repeat(n_edges)
    edges = delta * (np.arange(edge_joint.size) - (edge_off + lmax)[edge_joint] - 0.5)
    edges /= sc[edge_joint]
    # per row: its joint's parameters
    joint = np.arange(len(jobs)).repeat(n_rows)
    windows = np.fromiter(chain.from_iterable(w for *_, w in jobs), int, joint.size)
    rho, sc, c2r, n_panels, lmax, at = (v[joint] for v in (rho, sc, c2r, n_panels, lmax, edge_off))
    sa = np.sqrt(0.5 * c2r)
    centres = windows * delta
    lo = np.maximum(centres - 0.5 * delta, -cut * sa)
    # A window wholly beyond the cut gets one panel of width 0: a zero row.
    width = np.maximum(np.minimum(centres + 0.5 * delta, cut * sa), lo) - lo
    counts = np.maximum(np.minimum(n_panels, np.ceil(width * n_panels / delta)), 1)
    pw = width / counts
    half = 0.5 * pw
    # Uniform panel p of a row has the nodes lo + pw p + half (x + 1).  They
    # increase along the row and mu = rho a / sigma_c is monotone in them, so
    # the row's first and last node give the span of mu.  An adapted row
    # keeps this band: its nodes reach at most 0.0106 in mu beyond the span.
    mu_span = rho * np.array([lo + half * x1[0], lo + pw * (counts - 1) + half * x1[-1]]) / sc
    mu_span.sort(axis=0)
    # Complex numbers order as (real, imaginary) pairs: with the joint as the
    # real part, one search of every edge table finds each row's band in its own.
    keys = edge_joint + 1j * edges
    s = keys.searchsorted(joint + 1j * (mu_span[0] - cut), side="right") - 1 - at
    last = keys.searchsorted(joint + 1j * (mu_span[1] + cut)) - at
    # Band edges s..last, within the row's wedge edges j0..j1.  The edges
    # between them, near_lo..near_hi, are those whose crossing a = e / rho
    # lies within K sigma_c/|rho| of the row's uniform node span.
    j0, j1 = windows + lmax, lmax - windows + 1
    near_lo, near_hi = np.maximum(s + 1, j0), np.minimum(last - 1, j1)
    s = np.maximum(np.minimum(s, j1), j0)
    last = np.minimum(np.maximum(last, j0), j1)
    # Five segments per row: the uniform panels in one, or coarse, fine,
    # coarse, fine and coarse about the crossings of at most two near edges.
    seg_lo, seg_pw = np.repeat(lo[:, None], 5, axis=1), np.repeat(pw[:, None], 5, axis=1)
    seg_n = np.zeros((len(windows), 5), dtype=int)
    seg_n[:, 1] = counts
    # The panel cap reads a uniform row's full window, though only its
    # clipped part is integrated, and the panels an edge-adapted row takes.
    planned = n_panels.copy()
    cand = ((_SLAB_RESOLUTION * sc < np.abs(rho) * sa) & (width > 0)
            & (near_hi - near_lo < 2)).nonzero()[0]
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
        take = total < counts[cand]  # one band for both: fewer panels, fewer slabs
        rows = cand[take]
        seg_lo[rows], seg_pw[rows] = bounds[:-1, take].T, (length / np.maximum(n, 1.0))[:, take].T
        seg_n[rows], counts[rows] = n[:, take].T, total[take]
        planned[rows] = total[take]
    if planned.max() > _MAX_PANELS:  # before any panel is laid out
        k = int(np.argmax(planned > _MAX_PANELS))
        c = jobs[joint[k]][0]
        raise QuadratureBudgetExceeded(
            f"window needs {int(planned[k])} panels, cap is {_MAX_PANELS} "
            f"(delta={delta}, r={c.r}, phi_sum={c.phi_sum})"
        )
    # Block order; the panels of the rows in it, end to end.
    order = (last > s).nonzero()[0]
    order = order[np.argsort(counts[order], kind="stable")]
    seg_lo, seg_pw, seg_n = (v[order].ravel() for v in (seg_lo, seg_pw, seg_n))
    seg = np.arange(seg_n.size).repeat(seg_n)
    seg_first = seg_n.cumsum() - seg_n
    seg_pw = seg_pw[seg]
    counts, n_edges = counts[order].astype(int), (last - s + 1)[order]
    # A block takes the next rows of one panel count whose band edges x nodes
    # add up to at most _BLOCK_ELEMENTS, or one row; ends[k] is the sum before row k.
    ends = [0, *(_PANEL_ORDER * counts * n_edges).cumsum().tolist()]
    n_of, blocks = counts.tolist(), [0]
    while blocks[-1] < len(n_of):
        first = blocks[-1]
        same = range(first + 1, bisect.bisect_right(n_of, n_of[first], first))
        blocks.append(first + 1 + bisect.bisect_right(
            same, ends[first] + _BLOCK_ELEMENTS, key=lambda k: ends[k + 1]))
    blocks = np.array(blocks)
    # The (row, band edge) pairs, row by row.  Each row is n_bins long in the
    # output; the slab from a row's last edge writes to the spare element.
    n_bins = 2 * lmax + 1
    pair_ends = np.concatenate(([0], n_edges.cumsum()))
    k = np.arange(pair_ends[-1]) - pair_ends[:-1].repeat(n_edges)
    cell = (n_bins.cumsum() - n_bins + s)[order].repeat(n_edges) + k
    cell[pair_ends[1:] - 1] = n_bins.sum()
    return _PanelPlan(
        edges=edges[(at + s)[order].repeat(n_edges) + k],
        row=(np.arange(order.size) - blocks[:-1].repeat(np.diff(blocks))).repeat(n_edges),
        cell=cell, counts=counts, rho=rho[order], sigma_c=sc[order], cosh_2r=c2r[order],
        panel_start=seg_lo[seg] + seg_pw * (np.arange(seg.size) - seg_first[seg]),
        panel_half=0.5 * seg_pw, blocks=blocks, block_pairs=pair_ends[blocks],
        size=int(n_bins.sum()), slab_elements=ends[-1],
    )


def _cpu_count() -> int:
    """CPUs this process may run on, read on each call."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _new_executor() -> None:
    """Give the process a fresh pool of kept workers, one per extra CPU, started as needed.

    A forked child calls this too: it has none of its parent's threads.
    """
    global _executor
    _executor = ThreadPoolExecutor(max(1, _cpu_count() - 1), thread_name_prefix="entrobell-worker")


_new_executor()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_executor)


def _on_every_cpu(run, weights) -> list:
    """[run(i, j) for each of k contiguous runs i..j - 1 of the items], on k = min(CPUs, items).

    weights[item] is the item's cost.  The runs are of about equal weight:
    each item goes to the run that holds the middle of its weight.  The
    first run is made on the calling thread, each other on a kept worker in
    a copy of the caller's context, so the caller's np.errstate holds there
    too.  Every run is waited for, and then the first exception, in run
    order, is raised here.  A run must not call this itself.
    """
    weights = np.asarray(weights, dtype=float)
    k, ends = min(_cpu_count(), weights.size), weights.cumsum()
    cuts = [0, *np.searchsorted(ends - 0.5 * weights, ends[-1] * np.arange(1, k) / k).tolist(),
            weights.size]
    runs = [(i, j) for i, j in zip(cuts, cuts[1:]) if j > i]
    futures = [_executor.submit(contextvars.copy_context().run, run, i, j) for i, j in runs[1:]]
    try:
        first = run(*runs[0])
    finally:
        for future in futures:
            future.exception()  # waits for the run, and raises nothing
    return [first, *(future.result() for future in futures)]  # raises the first error


def _integrate(plan: _PanelPlan) -> np.ndarray:
    """The cells of a plan, one einsum per block: the wedge rows of every joint end to end.

    Each row is n_bins long, in the order of the `jobs` given to
    _panel_plan and of their windows.  Row l holds the panel-quadrature
    cell probabilities of the columns m in [l, -l] and zeros elsewhere.
    A row's sums do not depend on its block (_BLOCK_ELEMENTS).  A pass of
    at least _SPLIT_ELEMENTS slab elements is split into one contiguous run
    of blocks per CPU, of about equal slab elements (_on_every_cpu); each
    run writes its own cells, so the bits do not depend on the CPU count.
    """
    x1, wts = _GL16[0] + 1.0, _GL16[1]
    out = np.zeros(plan.size + 1)
    blocks, pairs, counts = plan.blocks.tolist(), plan.block_pairs.tolist(), plan.counts.tolist()

    def run(b0: int, b1: int) -> None:
        """Blocks b0..b1 - 1."""
        p = sum(counts[:blocks[b0]])  # their first panel
        for first, stop, q0, q1 in zip(blocks[b0:b1], blocks[b0 + 1:b1 + 1],
                                       pairs[b0:b1], pairs[b0 + 1:b1 + 1]):
            rows, n_rows, count = slice(first, stop), stop - first, counts[first]
            p_end, n = p + n_rows * count, _PANEL_ORDER * count
            hw = plan.panel_half[p:p_end, None]
            nodes = (plan.panel_start[p:p_end, None] + hw * x1).reshape(n_rows, count, _PANEL_ORDER)
            f = (_marginal_density(nodes, plan.cosh_2r[rows, None, None])
                 * (hw * wts).reshape(nodes.shape)).reshape(n_rows, n)
            mu = plan.rho[rows, None, None] * nodes / plan.sigma_c[rows, None, None]
            # z = edge - mu of each pair's row; the slab from a row's last edge
            # to the next row's first goes to the spare element at the end,
            # which every block writes and nothing reads.
            row = plan.row[q0:q1]
            z = mu.reshape(n_rows, n)[row]
            np.subtract(plan.edges[q0:q1, None], z, out=z)
            out[plan.cell[q0:q1 - 1]] = np.einsum("pn,pn->p", _normal_slabs(z), f[row[:-1]])
            p = p_end

    if plan.slab_elements < _SPLIT_ELEMENTS:
        run(0, len(blocks) - 1)
    else:  # each block weighs its slab elements
        _on_every_cpu(run, _PANEL_ORDER * plan.counts[plan.blocks[:-1]] * np.diff(plan.block_pairs))
    return out[:-1]


def _grids(points, delta: float, tail_epsilon: float) -> dict[float, CoarseGrid]:
    """The make_grid of each distinct r of the (state, phi_sum) `points`, keyed by r."""
    grids = {}
    for state, _ in points:
        if state.r not in grids:
            grids[state.r] = make_grid(state, delta, tail_epsilon)
    return grids


def _binned_joints(points, grids: dict[float, CoarseGrid]) -> list[np.ndarray]:
    """Panel-quadrature joints of many (state, phi_sum) points at one bin width, as stacks.

    `grids` maps the r of every point to its grid, all of one bin width and
    tail_epsilon; the caller makes them (_grids), and this makes none.  All
    the wedge rows run through one kernel pass, in the order of the points,
    and each run of consecutive points with the same grid size is unfolded
    as one (joints, n, n) stack.  Concatenated, the stacks hold the joints in
    point order.  Each joint is bitwise the binned_joint of its point: the
    batch only schedules work.
    """
    points = list(points)
    jobs = [(coefficients(state, PhaseSettings(0.0, phi_sum)), grids[state.r],
             range(-grids[state.r].l_max, 1)) for state, phi_sum in points]
    rows, stacks, start = _integrate(_panel_plan(jobs)), [], 0
    for l, group in groupby(grid.l_max for _, grid, _ in jobs):
        count, n = len(list(group)), 2 * l + 1
        wedges = rows[start:start + count * (l + 1) * n].reshape(count, l + 1, n)
        start += wedges.size
        probs = np.concatenate((wedges, wedges[:, -2::-1, ::-1]), axis=1)  # p[l, m] = p[-l, -m]
        # Entries off the wedge are 0 and none is negative, so the maximum
        # copies the rows above onto their images under (l, m) -> (m, l).
        # It is taken in place, a few joints and rows at a time, so that each
        # transposed copy holds at most _BLOCK_ELEMENTS entries: each entry
        # becomes the larger of itself and its mirror, whichever comes first.
        per = max(1, _BLOCK_ELEMENTS // (n * n))
        step = max(1, _BLOCK_ELEMENTS // (per * n))
        for j in range(0, count, per):
            for a in range(0, n, step):
                part = probs[j:j + per, a:a + step]
                np.maximum(part, probs[j:j + per, :, a:a + step].transpose(0, 2, 1).copy(),
                           out=part)
        stacks.append(probs)
    return stacks


def _one_minus_abs_correlation(coeffs: JointGaussianCoefficients) -> float:
    """1 - |w/v| as (v - |w|) / v, from the uncancelled v - w or v + w."""
    return (coeffs.v_minus_w if coeffs.w >= 0.0 else coeffs.v_plus_w) / coeffs.v


def binned_joint(state: TmsvParams, phi_sum: float, delta: float,
                 tail_epsilon: float = DEFAULT_TAIL_EPSILON,
                 method: str = PANEL_QUADRATURE) -> BinnedDistribution2D:
    """Full matrix of 2D window probabilities for the joint homodyne law."""
    grid = make_grid(state, delta, tail_epsilon)
    if method == PANEL_QUADRATURE:
        ((probs,),) = _binned_joints([(state, phi_sum)], {state.r: grid})
    elif method == RECTANGLE_CDF:
        coeffs = coefficients(state, PhaseSettings(0.0, phi_sum))
        z = grid.edges() / coeffs.sigma_marginal
        probs = _rectangle_cells(z, z, coeffs.correlation, _one_minus_abs_correlation(coeffs))
    else:
        raise ValueError(f"unknown method {method!r}")
    return BinnedDistribution2D(probs=probs, grid=grid, r=state.r, phi_sum=phi_sum, method=method)


def bin_prob_2d(coeffs: JointGaussianCoefficients, grid: CoarseGrid, l: int, m: int,
                method: str = PANEL_QUADRATURE) -> float:
    """Probability that record a falls in window l and record b in window m."""
    if abs(l) > grid.l_max or abs(m) > grid.l_max:
        raise ValueError(f"cell ({l}, {m}) outside grid of half-extent {grid.l_max}")
    if method == PANEL_QUADRATURE:
        a, b = _wedge(l, m)
        row = _integrate(_panel_plan([(coeffs, grid, [a])]))
        return float(row[b + grid.l_max])
    if method == RECTANGLE_CDF:
        z = grid.edges() / coeffs.sigma_marginal
        i, j = l + grid.l_max, m + grid.l_max
        return float(_rectangle_cells(z[i:i + 2], z[j:j + 2], coeffs.correlation,
                                      _one_minus_abs_correlation(coeffs))[0, 0])
    raise ValueError(f"unknown method {method!r}")


# ---------------------------------------------------------------------------
# Standard bivariate normal probabilities (Owen's T).

def bvn_upper(h: float | np.ndarray, k: float | np.ndarray, rho: float) -> float | np.ndarray:
    """P(X > h, Y > k) for standard bivariate normal with correlation rho.

    h and k broadcast against each other at the one rho: numbers give a
    float, arrays an array.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return _bvn_upper(h, k, rho, 1.0 - abs(rho))


def _bvn_upper(h, k, rho: float, one_minus_abs_rho: float):
    """bvn_upper, given omr = 1 - |rho| to its full precision.

    Owen's identity (Ann. Math. Statist. 27, 1075 (1956)) gives the orthant
    as Phi(-h)/2 + Phi(-k)/2 - T(h, a_h) - T(k, a_k) - beta, with Owen's T
    from scipy (Patefield and Tandy), a_h = (k - rho h) / (h sqrt(1 - rho^2)),
    a_k likewise, and beta = 1/2 where the sign bits of h and k differ.  A
    zero h makes a_h a signed infinity, T(0, +-inf) = +-1/4, and either
    zero gives the same answer.  Near |rho| = 1 the correlation itself has
    lost the digits of omr: at r = 10 on the ridge w/v rounds to 1.  So,
    with s the sign of rho, k - rho h is formed as (k - s h) + s omr h and
    1 - rho^2 as omr (2 - omr), from omr alone.  rho = 0 takes the exact
    product Phi(-h) Phi(-k), omr = 0 the limits rho = +-1, and h = k = 0
    the closed form 1/4 + asin(rho) / (2 pi).
    """
    # Phi(-40) underflows to 0: clipped to +-40, an orthant moves by less than
    # that, and an infinite bound needs no case of its own.
    h, k = (np.clip(np.asarray(v, dtype=float), -40.0, 40.0) for v in (h, k))
    if rho == 0.0:
        out = special.ndtr(-h) * special.ndtr(-k)
    elif one_minus_abs_rho == 0.0:
        out = (special.ndtr(-np.maximum(h, k)) if rho > 0.0
               else np.maximum(special.ndtr(-k) - special.ndtr(h), 0.0))
    else:
        s, omr = math.copysign(1.0, rho), one_minus_abs_rho
        root = math.sqrt(omr * (2.0 - omr))
        # a_h and a_k do not change when h and k are scaled together, so they
        # are formed from h and k scaled exactly to below 1 in magnitude: a
        # pair of subnormals keeps its digits.  A zero divides by 0, and a
        # number far smaller than its partner overflows.
        e = np.frexp(np.maximum(np.abs(h), np.abs(k)))[1]
        x, y = np.ldexp(h, -e), np.ldexp(k, -e)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            a_h = ((y - s * x) + s * omr * x) / (x * root)
            a_k = ((x - s * y) + s * omr * y) / (y * root)
        out = (0.5 * (special.ndtr(-h) + special.ndtr(-k)) - special.owens_t(h, a_h)
               - special.owens_t(k, a_k) - 0.5 * (np.signbit(h) != np.signbit(k)))
        out = np.where((h == 0.0) & (k == 0.0), 0.25 + math.asin(rho) / (2.0 * math.pi), out)
    return float(out) if out.ndim == 0 else out


def _rectangle_cells(x, y, rho: float, one_minus_abs_rho: float) -> np.ndarray:
    """P(x[i] < X < x[i + 1], y[j] < Y < y[j + 1]) for increasing edges x and y.

    One _bvn_upper call per lattice row computes each orthant once.
    """
    u = np.array([_bvn_upper(xi, y, rho, one_minus_abs_rho) for xi in x])
    return np.maximum(u[:-1, :-1] - u[1:, :-1] - u[:-1, 1:] + u[1:, 1:], 0.0)


def bvn_rectangle(x_lo: float, x_hi: float, y_lo: float, y_hi: float, rho: float) -> float:
    """P(x_lo < X < x_hi, y_lo < Y < y_hi) for the standard bivariate normal."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    return float(_rectangle_cells((x_lo, x_hi), (y_lo, y_hi), rho, 1.0 - abs(rho))[0, 0])
