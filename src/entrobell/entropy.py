"""Shannon entropies of binned outcome distributions, in nats.

All conditional quantities are formed from one joint matrix and the
marginals obtained by summing that same matrix.  Mixing an analytically
binned marginal with a numerically binned joint would break the guarantee
S(A|B) = S(A,B) - S(B) >= 0 at roundoff level, so it is never done here.

_joint_terms is the one place that decides which requested joints are the
same: a joint is keyed by (r, |phi_sum|), as it is bitwise even in phi_sum,
and at r = 0 by r alone, as it is then bitwise independent of phi_sum.  It
makes no grid: it reads each point's size and Delta from the grid its
caller made for that r, once per request (coarse_grain._grids).

A grid of one bin (Delta >= 2 k sigma, k the coverage multiple of
tail_epsilon) gives each record a single outcome, which carries no entropy:
S(A|B) of its 1 x 1 joint is S(A,B) - S(B) = -p ln p + p ln p, exactly
+0.0 whatever the cell p holds.  _s_qm_values, the one entry of the d_qm
path, makes the grid of each distinct r once, and returns that 0.0 without
building the joint; every caller that reads the cell itself still builds it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coarse_grain import (
    DEFAULT_TAIL_EPSILON, PANEL_QUADRATURE, BinnedDistribution2D, CoarseGrid, _binned_joints,
    _grids,
)
# the benchmark's tracer test reads binned_joint here and in bell
from .coarse_grain import binned_joint  # noqa: F401
from .gaussian_core import TmsvParams

# Bins carrying less than this are treated as empty: p ln p underflows
# anyway and denormals would only add noise.
PROBABILITY_FLOOR = 1e-300

_SUM_LO = 1.0 - 1e-6
_SUM_HI = 1.0 + 1e-10
# Cells of the joints that one batch of _joint_terms holds at once, each
# joint counted as at least _JOINT_CELLS, so that a batch holds at most
# _BATCH_CELLS / _JOINT_CELLS = 4096 joints of any size.  Results depend on
# neither.
_BATCH_CELLS = 1 << 18
_JOINT_CELLS = 64
# OpenBLAS takes a dot of at most this many elements on one thread (_dot).
_DOT_CHUNK = 10_000


class InvalidDistribution(Exception):
    """Input is not usable as a probability distribution."""


@dataclass(frozen=True)
class EntropyTerms:
    """Entropies of one binned joint distribution and its own marginals."""

    s_joint: float
    s_marginal_a: float
    s_marginal_b: float

    @property
    def s_conditional(self) -> float:
        """S(A|B): the joint entropy less the entropy of the conditioner B."""
        return self.s_joint - self.s_marginal_b

    @property
    def s_b_given_a(self) -> float:
        return self.s_joint - self.s_marginal_a

    @property
    def mutual_information(self) -> float:
        return self.s_marginal_a + self.s_marginal_b - self.s_joint


def shannon(probs) -> float:
    """-sum p ln p with 0 ln 0 = 0.

    The distribution must be non-negative and its sum p.sum() lie in the
    window [1 - 1e-6, 1 + 1e-10]; no renormalisation is applied, so a
    quadrature or normalisation bug surfaces here instead of being hidden.
    """
    p = np.asarray(probs, dtype=float).ravel()
    if p.size == 0:
        raise InvalidDistribution("empty distribution")
    if not np.all(np.isfinite(p)):
        raise InvalidDistribution("distribution contains non-finite entries")
    if np.any(p < 0.0):
        raise InvalidDistribution(f"negative probability {p.min():.3e}")
    total = float(p.sum())
    if not (_SUM_LO <= total <= _SUM_HI):
        raise InvalidDistribution(
            f"probabilities sum to {total!r}, outside [{_SUM_LO}, {_SUM_HI}]"
        )
    return _part_entropies(p, [0])[0]


def conditional_entropy(dist: BinnedDistribution2D) -> EntropyTerms:
    """Joint, marginal, and conditional entropies of one binned joint matrix.

    Marginals come from summing the matrix itself; s_conditional is
    S(A|B) = S(A,B) - S(B) and cannot go negative.  _entropy_terms of
    the matrix as a stack of one.
    """
    return _entropy_terms(dist.probs[None], lambda k: (dist.r, dist.phi_sum, dist.grid.delta))[0]


def mutual_information(dist: BinnedDistribution2D) -> float:
    return conditional_entropy(dist).mutual_information


def s_qm(state: TmsvParams, phi_sum: float, delta_bin: float,
         tail_epsilon: float = DEFAULT_TAIL_EPSILON) -> float:
    """Conditional entropy S(A|B) of the binned joint at phase sum phi_sum.

    Even in phi_sum, and non-negative for every parameter choice; the Bell
    functional is built entirely from this quantity.  A batch of one of
    _s_qm_values.
    """
    return _s_qm_values([(state, phi_sum)], delta_bin, tail_epsilon)[0]


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y as the sum of the dots of its chunks of at most _DOT_CHUNK elements.

    OpenBLAS splits a longer dot across its threads, and its bits then move
    with their number.  Each chunk runs on one thread, and np.add.reduce
    adds the partial dots in one fixed order, so the result does not depend
    on the thread count.  A vector of one chunk takes np.dot alone: its bits,
    without the cost of the sum, which the many small joints of a pass pay.
    """
    return float(np.dot(x, y)) if x.size <= _DOT_CHUNK else float(np.add.reduce(
        [np.dot(x[k:k + _DOT_CHUNK], y[k:k + _DOT_CHUNK]) for k in range(0, x.size, _DOT_CHUNK)]))


def _part_entropies(values: np.ndarray, starts) -> list[float]:
    """-sum p ln p over the entries above PROBABILITY_FLOOR of each part of `values`.

    The parts are consecutive and begin at `starts`.  The kept entries of
    every part, and their logarithms, are taken at once; each entropy is
    its own part's _dot, so it is bitwise the shannon of that part.
    """
    keep = values > PROBABILITY_FLOOR
    ends = np.add.reduceat(keep, starts, dtype=np.intp).cumsum().tolist()
    q = values[keep]
    del keep  # freed before the logarithms
    log_q = np.log(q)
    return [-_dot(q[a:b], log_q[a:b]) for a, b in zip([0, *ends], ends)]


def _entropy_terms(stack: np.ndarray, name) -> list[EntropyTerms]:
    """Joint and marginal entropies of each joint of a (joints, n, m) stack.

    The stack is read where it is, with no copy: _binned_joints returns the
    stacks of a kernel pass, and conditional_entropy a stack of one.  The
    marginals of the stack are its sums along either axis, bitwise those of
    each joint.  The entries of the stack and of its marginals are checked,
    and their logarithms taken, for the whole stack at once; each entropy is
    still its own dot product, so every term is bitwise the shannon of its
    part.  If a check fails, the parts are checked one joint at a time with
    shannon, and the first joint k that fails raises InvalidDistribution,
    naming it by name(k) = (r, phi_sum, Delta).
    """
    j, n, m = stack.shape
    marginal_a, marginal_b = stack.sum(axis=2), stack.sum(axis=1)
    sums = np.concatenate((stack.reshape(j, n * m).sum(axis=1), marginal_a.sum(axis=1),
                           marginal_b.sum(axis=1)))
    # Entries of a finite, non-negative stack whose sums lie in the window
    # give marginals that are finite and non-negative too.
    if not (stack.size and stack.min() >= 0.0 and _SUM_LO <= sums.min()
            and sums.max() <= _SUM_HI):
        for k in range(j):
            try:
                for p in (stack[k].ravel(), marginal_a[k], marginal_b[k]):
                    shannon(p)
            except InvalidDistribution as exc:
                r, phi_sum, delta = name(k)
                raise InvalidDistribution(f"joint at r={r!r}, phi_sum={phi_sum!r}, "
                                          f"Delta={delta!r}: {exc}") from None
    s_joint = _part_entropies(stack.ravel(), range(0, j * n * m, n * m))
    s_marginals = _part_entropies(np.concatenate((marginal_a.ravel(), marginal_b.ravel())),
                                  [*range(0, j * n, n), *range(j * n, j * (n + m), m)])
    return [EntropyTerms(*t) for t in zip(s_joint, s_marginals[:j], s_marginals[j:])]


def _joint_terms(points, grids: dict[float, CoarseGrid],
                 joints: list | None = None) -> list[EntropyTerms]:
    """conditional_entropy of the binned_joint at each (state, phi_sum) of `points`, bitwise.

    The one place that decides which points share a joint: the joint is
    bitwise even in phi_sum, and at r = 0 the same at every phi_sum, so
    each (r, |phi_sum|), and r = 0 whatever its phi_sum, is built once, at
    the first phi_sum given for it.  The joints are built in batches, each
    closed by the joint that brings it to _BATCH_CELLS cells, a joint
    counting as at least _JOINT_CELLS; each batch runs in one kernel pass,
    whose stacks hold its joints in order.  _entropy_terms reads them in
    sequence, and they are dropped once their entropies are taken; a
    failing joint is named by its offset into the distinct points.  `grids`
    maps the r of every point to its grid, all of one bin width
    (coarse_grain._grids); each point's size and Delta are read from it.
    If `joints` is a list, it also receives one BinnedDistribution2D per
    point, carrying that point's phi_sum.
    """
    points = list(points)
    keys = [(state.r, abs(phi_sum) if state.r else 0.0) for state, phi_sum in points]
    index, distinct = {}, []
    for key, point in zip(keys, points):
        if key not in index:
            index[key] = len(distinct)
            distinct.append(point)
    terms, built, start, cells = [], [], 0, 0
    for stop, (state, _) in enumerate(distinct, 1):
        grid = grids[state.r]  # every grid has the one bin width
        cells += max(grid.n_bins ** 2, _JOINT_CELLS)
        if cells >= _BATCH_CELLS or stop == len(distinct):
            for stack in _binned_joints(distinct[start:stop], grids):
                offset = len(terms)  # of the stack's first joint in `distinct`
                terms += _entropy_terms(stack, lambda k: (
                    distinct[offset + k][0].r, distinct[offset + k][1], grid.delta))
                if joints is not None:
                    built.extend(stack)
            del stack  # freed before the next batch is built
            start, cells = stop, 0
    at = [index[key] for key in keys]
    if joints is not None:
        # a point at -phi_sum, or any point at r = 0, gets the joint built
        # for its key, sharing its probs
        joints += [BinnedDistribution2D(built[i], grids[state.r], state.r, phi_sum,
                                        PANEL_QUADRATURE)
                   for i, (state, phi_sum) in zip(at, points)]
    return [terms[i] for i in at]


def _s_qm_values(points, delta_bin: float, tail_epsilon: float) -> list[float]:
    """s_qm at each (state, phi_sum) of `points`, bitwise, through _joint_terms.

    The one entry of s_qm, d_qm_value, scan, scan_zero_delta and minimize,
    and the one place their grids are made: one per distinct r.
    A point whose grid has one bin gets 0.0 and builds no joint: its record
    has one outcome, and the 1 x 1 joint's S(A,B) and S(B) are the same
    -p ln p, so the kernel's S(A|B) is exactly +0.0 too.  evaluate (and
    eval, with --mutual-info and --dump-dist), conditional_entropy,
    binned_joint and bin_prob_2d read the cell itself, so they still build
    every joint.
    """
    points = list(points)
    grids = _grids(points, delta_bin, tail_epsilon)
    terms = iter(_joint_terms([(state, phi_sum) for state, phi_sum in points
                               if grids[state.r].n_bins > 1], grids))
    return [next(terms).s_conditional if grids[state.r].n_bins > 1 else 0.0
            for state, _ in points]
