"""Shannon entropies of binned outcome distributions, in nats.

All conditional quantities are formed from one joint matrix and the
marginals obtained by summing that same matrix.  Mixing an analytically
binned marginal with a numerically binned joint would break the guarantee
S(A|B) = S(A,B) - S(B) >= 0 at roundoff level, so it is never done here.

_joint_terms is the one place that decides which requested joints are the
same: a joint is keyed by (r, |phi_sum|), as it is bitwise even in phi_sum,
and at r = 0 by r alone, as it is then bitwise independent of phi_sum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .coarse_grain import DEFAULT_TAIL_EPSILON, BinnedDistribution2D, _binned_joints, make_grid
# the benchmark's tracer test reads binned_joint here and in bell
from .coarse_grain import binned_joint  # noqa: F401
from .gaussian_core import TmsvParams

# Bins carrying less than this are treated as empty: p ln p underflows
# anyway and denormals would only add noise.
PROBABILITY_FLOOR = 1e-300

_SUM_LO = 1.0 - 1e-6
_SUM_HI = 1.0 + 1e-10
# Cells of the joints that one batch of _joint_terms holds at once.  Results
# do not depend on it.
_BATCH_CELLS = 1 << 18


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

    The distribution must be non-negative and sum to 1 within the captured
    mass slack [1 - 1e-6, 1 + 1e-10]; no renormalisation is applied, so a
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
    mask = p > PROBABILITY_FLOOR
    q = p[mask]
    return float(-np.dot(q, np.log(q)))


def conditional_entropy(dist: BinnedDistribution2D) -> EntropyTerms:
    """Joint, marginal, and conditional entropies of one binned joint matrix.

    Marginals come from summing the matrix itself; s_conditional is
    S(A|B) = S(A,B) - S(B) and cannot go negative.  A batch of one of
    _entropy_terms.
    """
    return _entropy_terms([dist])[0]


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


def _entropy_terms(dists) -> list[EntropyTerms]:
    """Joint and marginal entropies of each joint, computed together.

    The entries of every joint matrix and of its two marginals are checked
    and their logarithms taken in one pass; each entropy is still its own
    dot product, so every term is bitwise the shannon of its part.  If a
    check fails, the parts are checked one joint at a time with shannon,
    and the first joint that fails raises InvalidDistribution naming it.
    """
    parts = [p for d in dists for p in (d.probs.ravel(), d.marginal_a(), d.marginal_b())]
    flat = np.concatenate(parts)
    if not (np.all(np.isfinite(flat)) and np.all(flat >= 0.0)
            and all(p.size and _SUM_LO <= float(p.sum()) <= _SUM_HI for p in parts)):
        for k, d in enumerate(dists):
            try:
                for p in parts[3 * k:3 * k + 3]:
                    shannon(p)
            except InvalidDistribution as exc:
                raise InvalidDistribution(f"joint at r={d.r!r}, phi_sum={d.phi_sum!r}, "
                                          f"Delta={d.grid.delta!r}: {exc}") from None
    keep = flat > PROBABILITY_FLOOR
    q = flat[keep]
    del flat  # freed before the logarithms, so a big joint's peak stays at the kernel's
    starts = np.cumsum([0] + [p.size for p in parts[:-1]])
    ends = np.cumsum(np.add.reduceat(keep, starts, dtype=np.intp)).tolist()
    log_q = np.log(q)
    s = [float(-np.dot(q[a:b], log_q[a:b])) for a, b in zip([0, *ends], ends)]
    return [EntropyTerms(*s[k:k + 3]) for k in range(0, len(s), 3)]


def _joint_terms(points, delta_bin: float, tail_epsilon: float,
                 joints: list | None = None) -> list[EntropyTerms]:
    """conditional_entropy of the binned_joint at each (state, phi_sum) of `points`, bitwise.

    The one place that decides which points share a joint: the joint is
    bitwise even in phi_sum, and at r = 0 the same at every phi_sum, so
    each (r, |phi_sum|), and r = 0 whatever its phi_sum, is built once, at
    the first phi_sum given for it.  The joints are built in batches of at most
    _BATCH_CELLS cells, or one joint, each batch in one kernel pass, and
    dropped once their entropies are taken; if `joints` is a list, it
    receives one joint per point instead, carrying that point's phi_sum.
    """
    points = list(points)
    keys = [(state.r, abs(phi_sum) if state.r else 0.0) for state, phi_sum in points]
    index, distinct = {}, []
    for key, point in zip(keys, points):
        if key not in index:
            index[key] = len(distinct)
            distinct.append(point)
    terms, built, start, cells, n_bins = [], [], 0, 0, {}
    for stop, (state, _) in enumerate(distinct, 1):
        if state.r not in n_bins:
            n_bins[state.r] = make_grid(state, delta_bin, tail_epsilon).n_bins
        cells += n_bins[state.r] ** 2
        if cells >= _BATCH_CELLS or stop == len(distinct):
            batch = _binned_joints(distinct[start:stop], delta_bin, tail_epsilon)
            terms += _entropy_terms(batch)
            if joints is not None:
                built += batch
            del batch  # freed before the next batch is built
            start, cells = stop, 0
    at = [index[key] for key in keys]
    if joints is not None:
        # a point at -phi_sum, or any point at r = 0, gets the joint built
        # for its key, sharing its probs
        joints += [replace(built[i], phi_sum=phi_sum) for i, (_, phi_sum) in zip(at, points)]
    return [terms[i] for i in at]


def _s_qm_values(points, delta_bin: float, tail_epsilon: float) -> list[float]:
    """s_qm at each (state, phi_sum) of `points`, bitwise, through _joint_terms."""
    return [terms.s_conditional for terms in _joint_terms(points, delta_bin, tail_epsilon)]
