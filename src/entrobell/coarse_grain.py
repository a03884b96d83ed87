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
  integrand alone: a window gets ceil(4 Delta / min(sigma_a, 8 sigma_c/|rho|))
  of them, so a window much narrower than sigma_a takes a single 16-point
  panel.
  The density is invariant under (a, b) -> (b, a) and (a, b) -> (-a, -b),
  so p[l, m] = p[m, l] = p[-l, -m].  Only the fundamental domain of these
  maps, the wedge l <= -|m|, is integrated: rows l = -L..0, and in row l
  the columns m in [l, -l].  Every other cell is copied from its wedge
  representative, so the returned matrix is exactly symmetric, and the
  captured mass is the fsum of the nonzero wedge entries scaled by their
  orbit sizes (1, 2 or 4; exact, so equal to the fsum over every cell).
  The wedge rows are computed together: rows with equal panel counts (in a
  joint, the window the clip cuts and all the others) share one band
  width, and are evaluated in blocks whose (rows, edges, nodes) arrays hold
  at most _BLOCK_ELEMENTS elements, or one row if a row alone is larger.
  Every cell depends on its own row alone, so the result is bitwise the
  same for any block size, and bin_prob_2d, which computes one row on the
  same path, returns bitwise the binned_joint entry.
* rectangle CDF: the cell is mapped to a standard bivariate normal
  rectangle with correlation w/v and evaluated with Gauss-Legendre applied
  to the correlation-integral representation of the bivariate normal CDF.

The two must agree to 1e-10 absolute; they share no quadrature machinery.

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

from .gaussian_core import JointGaussianCoefficients, PhaseSettings, TmsvParams, coefficients, marginal_pdf

PANEL_QUADRATURE = "panel-quadrature"
RECTANGLE_CDF = "rectangle-cdf"

DEFAULT_TAIL_EPSILON = 1e-12
CELL_BUDGET = 400_000_000
# Gauss-Legendre order per panel; panels subdivide each window.
_PANEL_ORDER = 16
# Panels are at most min(sigma_a, _SLAB_RESOLUTION sigma_c/|rho|)/4 wide, so
# both the marginal Gaussian and the conditional slab edge (which varies in a
# on the scale sigma_c/|rho|) are resolved; without the second term panels
# under-resolve cells at large r and phi_sum near 0.  The bin width Delta
# does not enter: a window narrower than this scale gets one panel.
_SLAB_RESOLUTION = 8.0
_MAX_PANELS = 100_000
# Smallest cut-off K of the panel kernel, in standard deviations: each row
# drops at most 2 Phi(-9) ~ 2e-19 of its mass.
_MIN_CUT = 9.0
# Elements of one (rows, edges, nodes) block of the panel kernel; a row
# larger than this forms a block of its own.  Results do not depend on it.
_BLOCK_ELEMENTS = 1 << 17


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
    """Gauss-Legendre panels per window, checked against _MAX_PANELS on the full window."""
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


def _panel_rows(state: TmsvParams, coeffs: JointGaussianCoefficients, grid: CoarseGrid,
                windows) -> np.ndarray:
    """Wedge rows of the a-windows `windows` (each l <= 0), one row each.

    Row l holds the panel-quadrature cell probabilities of the columns
    m in [l, -l] and zeros elsewhere.  Each window's a-interval is clipped
    to +-K sigma_a, K = max(9, k) with k the grid's coverage multiple,
    keeping the panel width of the full window; a window wholly outside
    gets a zero row.  Only the b-edges within K sigma_c of the span of the
    row's conditional means are evaluated; the slabs beyond stay 0.

    The rows are computed together: rows with equal panel counts form a
    group, whose rows share one band width, and each group is evaluated in
    blocks of at most _BLOCK_ELEMENTS (rows, edges, nodes) elements, or one
    row.  Every cell is a function of its own row alone, so the result does
    not depend on the grouping or the block size.
    """
    delta, lmax = grid.delta, grid.l_max
    n_panels = _panel_count(delta, coeffs)
    cut = max(_MIN_CUT, _coverage_multiple(grid.tail_epsilon))
    a_cut = cut * state.marginal_sigma
    edges = grid.edges() / coeffs.sigma_conditional
    x1, wts = _GL16[0] + 1.0, _GL16[1]
    windows = np.asarray(windows, dtype=int)
    # Row i is written from its band start; the padding takes the zero
    # columns that a block writes past a row narrower than the group's band.
    rows = np.zeros((len(windows), 2 * grid.n_bins))
    centres = windows * delta
    lo = np.maximum(centres - 0.5 * delta, -a_cut)
    # A window wholly beyond the cut gets one panel of width 0: a zero row.
    width = np.maximum(np.minimum(centres + 0.5 * delta, a_cut), lo) - lo
    counts = np.maximum(np.minimum(n_panels, np.ceil(width * n_panels / delta)), 1)
    pw = width / counts
    half = 0.5 * pw
    # Panel p of a row has the nodes lo + pw p + half (x + 1).  They increase
    # along the row and mu = rho a / sigma_c is monotone in them, so the
    # row's first and last node give the span of mu.
    mu_lo, mu_hi = coeffs.correlation * np.array(
        [lo + half * x1[0], lo + pw * (counts - 1) + half * x1[-1]]) / coeffs.sigma_conditional
    if coeffs.correlation < 0.0:
        mu_lo, mu_hi = mu_hi, mu_lo
    # Band edges s..last, within the row's wedge edges j0..j1.
    j0, j1 = windows + lmax, lmax - windows + 1
    s = np.maximum(np.minimum(edges.searchsorted(mu_lo - cut, side="right") - 1, j1), j0)
    last = np.minimum(np.maximum(edges.searchsorted(mu_hi + cut), j0), j1)
    span = last - s
    chunk = np.getbufsize()
    # Runs of rows with equal panel counts form the groups: in a joint, the
    # window that the clip cuts, and all the others.
    bounds = [0, *((counts[1:] != counts[:-1]).nonzero()[0] + 1).tolist(), len(counts)]
    for g0, g1 in zip(bounds[:-1], bounds[1:]):
        count = int(counts[g0])
        b = int(span[g0:g1].max()) + 1  # edges per row, shared by the group
        cols = np.arange(b)
        per_block = max(1, _BLOCK_ELEMENTS // (b * _PANEL_ORDER * count))
        for blk in (slice(i, min(i + per_block, g1)) for i in range(g0, g1, per_block)):
            starts = lo[blk, None] + pw[blk, None] * np.arange(count)
            nodes = starts[:, :, None] + half[blk, None, None] * x1
            f = (marginal_pdf(state, nodes) * (half[blk, None, None] * wts)).reshape(len(nodes), -1)
            mu = (coeffs.correlation * nodes / coeffs.sigma_conditional).reshape(len(nodes), -1)
            # Past its band a row repeats its last edge, so its slabs there are 0.
            band = edges[np.minimum(s[blk, None] + cols, last[blk, None])]
            slabs = _normal_slabs(band[:, :, None] - mu[:, None, :])
            # einsum sums up to np.getbufsize() nodes in one pass, but splits
            # longer sums in a way that depends on the block's shape; fixed
            # chunks of that length keep every cell independent of its block.
            cells = np.einsum("ren,rn->re", slabs[..., :chunk], f[:, :chunk])
            for n0 in range(chunk, f.shape[1], chunk):
                cells += np.einsum("ren,rn->re", slabs[..., n0:n0 + chunk], f[:, n0:n0 + chunk])
            rows[np.arange(blk.start, blk.stop)[:, None], s[blk, None] + cols[:-1]] = cells
    return rows[:, :grid.n_bins]


def binned_joint(state: TmsvParams, phi_sum: float, delta: float,
                 tail_epsilon: float = DEFAULT_TAIL_EPSILON,
                 method: str = PANEL_QUADRATURE) -> BinnedDistribution2D:
    """Full matrix of 2D window probabilities for the joint homodyne law."""
    grid = make_grid(state, delta, tail_epsilon)
    coeffs = coefficients(state, PhaseSettings(0.0, phi_sum))
    if method == PANEL_QUADRATURE:
        lmax = grid.l_max
        wedge = _panel_rows(state, coeffs, grid, np.arange(-lmax, 1))
        # Each wedge entry stands for its orbit under (l, m) -> (m, l) and
        # (l, m) -> (-l, -m): 1 cell at the centre, 2 on m = +-l, 4 elsewhere.
        # Scaling by 2 or 4 is exact, so the correctly rounded fsum equals
        # that over the whole matrix.
        i, j = np.nonzero(wedge)
        orbit_log2 = 2 - (j == i) - (i + j == 2 * lmax)
        captured_mass = math.fsum(np.ldexp(wedge[i, j], orbit_log2).tolist())
        probs = np.zeros((grid.n_bins, grid.n_bins))
        probs[:lmax + 1] = wedge
        probs[lmax + 1:] = wedge[-2::-1, ::-1]  # p[l, m] = p[-l, -m]
        # Entries off the wedge are 0 and none is negative, so the maximum
        # copies the rows above onto their images under (l, m) -> (m, l).
        probs = np.maximum(probs, probs.T)
    elif method == RECTANGLE_CDF:
        probs = np.empty((grid.n_bins, grid.n_bins))
        for i, l in enumerate(range(-grid.l_max, grid.l_max + 1)):
            for j, m in enumerate(range(-grid.l_max, grid.l_max + 1)):
                probs[i, j] = bin_prob_2d(coeffs, grid, l, m, method=RECTANGLE_CDF)
        captured_mass = math.fsum(probs.ravel().tolist())
    else:
        raise ValueError(f"unknown method {method!r}")
    return BinnedDistribution2D(
        probs=probs, captured_mass=captured_mass,
        grid=grid, r=state.r, phi_sum=phi_sum, method=method,
    )


def bin_prob_2d(coeffs: JointGaussianCoefficients, grid: CoarseGrid, l: int, m: int,
                method: str = PANEL_QUADRATURE) -> float:
    """Probability that record a falls in window l and record b in window m."""
    if abs(l) > grid.l_max or abs(m) > grid.l_max:
        raise ValueError(f"cell ({l}, {m}) outside grid of half-extent {grid.l_max}")
    delta = grid.delta
    if method == PANEL_QUADRATURE:
        a, b = _wedge(l, m)
        row = _panel_rows(TmsvParams(coeffs.r), coeffs, grid, [a])
        return float(row[0, b + grid.l_max])
    if method == RECTANGLE_CDF:
        sigma = coeffs.sigma_marginal
        x_lo, x_hi = (l * delta - 0.5 * delta) / sigma, (l * delta + 0.5 * delta) / sigma
        y_lo, y_hi = (m * delta - 0.5 * delta) / sigma, (m * delta + 0.5 * delta) / sigma
        return bvn_rectangle(x_lo, x_hi, y_lo, y_hi, coeffs.correlation)
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


def bvn_upper(h: float, k: float, rho: float) -> float:
    """P(X > h, Y > k) for standard bivariate normal with correlation rho."""
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    x, wts = _gl_rule(rho)
    hk = h * k
    bvn = 0.0
    if abs(rho) < 0.925:
        if rho != 0.0:
            hs = 0.5 * (h * h + k * k)
            asr = math.asin(rho)
            sn = np.sin(0.5 * asr * (x + 1.0))
            bvn = float(wts @ np.exp((sn * hk - hs) / (1.0 - sn * sn)))
            bvn *= asr / (4.0 * math.pi)
        return bvn + float(special.ndtr(-h) * special.ndtr(-k))
    # |rho| >= 0.925: integrate the residual after removing the rho -> +-1 limit.
    if rho < 0.0:
        k = -k
        hk = -hk
    if abs(rho) < 1.0:
        a_s = (1.0 - rho) * (1.0 + rho)
        a = math.sqrt(a_s)
        bs = (h - k) ** 2
        c = (4.0 - hk) / 8.0
        d = (12.0 - hk) / 16.0
        asr = -0.5 * (bs / a_s + hk)
        if asr > -100.0:
            bvn = a * math.exp(asr) * (1.0 - c * (bs - a_s) * (1.0 - d * bs / 5.0) / 3.0
                                       + c * d * a_s * a_s / 5.0)
        if -hk < 100.0:
            b = math.sqrt(bs)
            bvn -= math.exp(-0.5 * hk) * math.sqrt(2.0 * math.pi) * float(special.ndtr(-b / a)) \
                * b * (1.0 - c * bs * (1.0 - d * bs / 5.0) / 3.0)
        half = 0.5 * a
        xs = (half * (x + 1.0)) ** 2
        rs = np.sqrt(1.0 - xs)
        asr_v = -0.5 * (bs / xs + hk)
        keep = asr_v > -100.0
        if np.any(keep):
            sp = 1.0 + c * xs * (1.0 + d * xs)
            ep = np.exp(-0.5 * hk * (1.0 - rs) / (1.0 + rs)) / rs
            bvn += half * float(wts[keep] @ (np.exp(asr_v[keep]) * (ep - sp)[keep]))
        bvn = -bvn / (2.0 * math.pi)
    if rho > 0.0:
        return bvn + float(special.ndtr(-max(h, k)))
    bvn = -bvn
    if k > h:
        bvn += float(special.ndtr(k) - special.ndtr(h))
    return bvn


def bvn_rectangle(x_lo: float, x_hi: float, y_lo: float, y_hi: float, rho: float) -> float:
    """P(x_lo < X < x_hi, y_lo < Y < y_hi) for the standard bivariate normal."""
    p = (bvn_upper(x_lo, y_lo, rho) - bvn_upper(x_hi, y_lo, rho)
         - bvn_upper(x_lo, y_hi, rho) + bvn_upper(x_hi, y_hi, rho))
    return max(p, 0.0)
