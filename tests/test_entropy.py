import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrobell import coarse_grain, entropy
from entrobell import (
    CoarseGrid,
    BinnedDistribution2D,
    EntropyTerms,
    InvalidDistribution,
    PhaseSettings,
    TmsvParams,
    binned_joint,
    conditional_entropy,
    differential_entropies,
    mutual_information,
    s_qm,
    shannon,
)


def _manual_dist(probs):
    probs = np.asarray(probs, dtype=float)
    l_max = (probs.shape[0] - 1) // 2
    return BinnedDistribution2D(
        probs=probs, grid=CoarseGrid(delta=1.0, l_max=l_max, tail_epsilon=1e-12),
        r=0.0, phi_sum=0.0, method="manual",
    )


# -- shannon ------------------------------------------------------------------

def test_shannon_known_values():
    assert shannon([1.0]) == 0.0
    assert shannon([0.5, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15)
    assert shannon(np.full(10, 0.1)) == pytest.approx(math.log(10.0), rel=1e-14)
    # zeros contribute nothing
    assert shannon([0.5, 0.0, 0.5]) == pytest.approx(math.log(2.0), rel=1e-15)


def test_shannon_rejects_bad_input():
    with pytest.raises(InvalidDistribution):
        shannon([])
    with pytest.raises(InvalidDistribution):
        shannon([0.5, -0.1, 0.6])
    with pytest.raises(InvalidDistribution):
        shannon([0.5, float("nan")])
    with pytest.raises(InvalidDistribution):
        shannon([0.5, float("inf")])
    with pytest.raises(InvalidDistribution):
        shannon([0.4, 0.4])  # sums to 0.8


def test_shannon_sum_window_edges():
    # the captured-mass slack is [1 - 1e-6, 1 + 1e-10], inclusive
    assert shannon([1.0 - 1e-6]) == pytest.approx(0.0, abs=2e-6)
    assert shannon([1.0 + 1e-10]) == pytest.approx(0.0, abs=1e-9)
    with pytest.raises(InvalidDistribution):
        shannon([1.0 - 2e-6])
    with pytest.raises(InvalidDistribution):
        shannon([1.0 + 1e-9])
    # no renormalization: a uniform vector scaled by 0.99 must be rejected,
    # not silently rescaled
    with pytest.raises(InvalidDistribution):
        shannon(np.full(4, 0.99 / 4))


@given(weights=st.lists(st.floats(min_value=1e-6, max_value=1.0),
                        min_size=1, max_size=40))
def test_shannon_bounds(weights):
    p = np.asarray(weights) / np.sum(weights)
    s = shannon(p)
    assert -1e-12 <= s <= math.log(len(p)) + 1e-12


# -- conditional entropy on hand-built joints ----------------------------------

def test_perfectly_correlated_joint():
    d = _manual_dist(np.diag([0.5, 0.0, 0.5]))
    terms = conditional_entropy(d)
    assert terms.s_joint == pytest.approx(math.log(2.0), rel=1e-14)
    assert terms.s_conditional == pytest.approx(0.0, abs=1e-14)
    assert terms.s_b_given_a == pytest.approx(0.0, abs=1e-14)
    assert terms.mutual_information == pytest.approx(math.log(2.0), rel=1e-14)
    assert mutual_information(d) == terms.mutual_information


def test_independent_joint():
    p = np.full(3, 1.0 / 3.0)
    d = _manual_dist(np.outer(p, p))
    terms = conditional_entropy(d)
    assert terms.mutual_information == pytest.approx(0.0, abs=1e-13)
    assert terms.s_conditional == pytest.approx(math.log(3.0), rel=1e-13)


def test_entropy_terms_identities():
    terms = EntropyTerms(s_joint=2.0, s_marginal_a=1.2, s_marginal_b=0.9)
    assert terms.s_conditional == pytest.approx(1.1)
    assert terms.s_b_given_a == pytest.approx(0.8)
    assert terms.mutual_information == pytest.approx(0.1)


# -- entropies of binned quantum joints ----------------------------------------

def test_entropy_inequalities_on_quantum_joint():
    d = binned_joint(TmsvParams(1.3), 0.8, 1.5)
    t = conditional_entropy(d)
    assert t.s_joint >= t.s_marginal_a - 1e-12
    assert t.s_joint >= t.s_marginal_b - 1e-12
    assert t.s_conditional >= -1e-12
    assert t.s_joint <= t.s_marginal_a + t.s_marginal_b + 1e-10


def test_chain_rule_symmetry():
    # the joint matrix is transpose-symmetric, so both conditionals match
    d = binned_joint(TmsvParams(1.0), 0.4, 1.0)
    t = conditional_entropy(d)
    assert t.s_conditional == pytest.approx(t.s_b_given_a, abs=1e-12)
    assert t.s_conditional == pytest.approx(s_qm(TmsvParams(1.0), 0.4, 1.0),
                                            abs=1e-12)


def test_s_qm_even_in_phase():
    state = TmsvParams(1.6)
    for ph in (0.3, 1.2, 2.9):
        ref = s_qm(state, ph, 2.0)
        assert s_qm(state, -ph, 2.0) == pytest.approx(ref, abs=1e-12)
        assert s_qm(state, 2.0 * math.pi - ph, 2.0) == pytest.approx(ref, abs=1e-12)


def test_s_qm_nonnegative_and_maximal_when_uncorrelated():
    state = TmsvParams(1.0)
    # w = 0 at phi_sum = pi/2: conditioning is useless there
    uncorr = s_qm(state, math.pi / 2.0, 1.0)
    for ph in (0.0, 0.4, 1.0, 2.0, math.pi):
        val = s_qm(state, ph, 1.0)
        assert val >= -1e-12
        assert val <= uncorr + 1e-10


def test_mutual_information_grows_with_squeezing():
    vals = [mutual_information(binned_joint(TmsvParams(r), 0.0, 1.0))
            for r in (0.0, 0.5, 1.0, 1.5, 2.0)]
    assert vals[0] == pytest.approx(0.0, abs=1e-10)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_discretization_law_small_bins():
    # binned entropies approach the differential values shifted by ln(width)
    state = TmsvParams(0.5)
    delta = 0.02
    d = binned_joint(state, 0.6, delta)
    t = conditional_entropy(d)
    s_joint, s_marg, s_cond = differential_entropies(
        state, PhaseSettings(0.0, 0.6))
    assert abs(t.s_marginal_a + math.log(delta) - s_marg) < 1e-3
    assert abs(t.s_joint + 2.0 * math.log(delta) - s_joint) < 1e-3
    assert abs(t.s_conditional + math.log(delta) - s_cond) < 1e-3


def test_wide_bins_lose_all_information():
    # a single bin swallowing the whole distribution has zero entropy
    assert s_qm(TmsvParams(0.5), 0.0, 60.0) == pytest.approx(0.0, abs=1e-10)


def test_batched_entropies_are_bitwise_conditional_entropy(monkeypatch):
    # joints of several sizes, a hand-built one with empty and underflowing
    # cells among them; each term is its joint's own dot product, in a stack
    # of one and in a stack of each size
    joints = [binned_joint(TmsvParams(r), phi_sum, delta)
              for r, phi_sum, delta in [(1.0, 0.5, 0.5), (0.0, 0.3, 100.0), (0.0, 0.0, 3.5),
                                        (3.0, 1e-3, 1.5), (1.2, 2.2, 2.0), (1.0, 2.0, 0.5)]]
    joints.insert(2, _manual_dist([[0.5, 0.0, 1e-310], [0.0, 0.25, 0.0], [0.0, 0.0, 0.25]]))
    assert joints[2].probs.shape == joints[3].probs.shape
    alone = [EntropyTerms(shannon(d.probs), shannon(d.marginal_a()), shannon(d.marginal_b()))
             for d in joints]

    def name(k):
        raise AssertionError("a joint is named only when a check fails")

    for order in (range(len(joints)), range(len(joints) - 1, -1, -1)):
        shapes = {}
        for k in order:
            assert entropy._entropy_terms(joints[k].probs[None], name) == [alone[k]]
            shapes.setdefault(joints[k].probs.shape, []).append(k)
        for ks in shapes.values():
            stack = np.array([joints[k].probs for k in ks])
            assert entropy._entropy_terms(stack, name) == [alone[k] for k in ks]
    assert [conditional_entropy(d) for d in joints] == alone
    # s_qm of a point is its joint's, whatever the batch size
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in [(0.5, 0.1), (1.5, 2.0), (0.0, 0.0)]]
    expected = [s_qm(state, phi_sum, 1.5) for state, phi_sum in points]
    assert entropy._s_qm_values(points, 1.5, 1e-12) == expected
    monkeypatch.setattr(entropy, "_BATCH_CELLS", 1)  # one joint per batch
    assert entropy._s_qm_values(points, 1.5, 1e-12) == expected


def test_entropies_of_a_large_joint_peak_below_its_kernel():
    # the entropy step holds the joint's kept entries and their logarithms,
    # never a copy of the matrix, so it peaks no higher than building the
    # joint did; a flat copy of the matrix and its marginals went above it
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        joint = binned_joint(TmsvParams(1.0), 0.5, 0.045)
        kernel = tracemalloc.get_traced_memory()[1] - before
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        terms = entropy._entropy_terms(joint.probs[None], lambda k: (1.0, 0.5, 0.045))
        step = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert joint.grid.n_bins >= 400
    assert terms == [EntropyTerms(shannon(joint.probs), shannon(joint.marginal_a()),
                                  shannon(joint.marginal_b()))]
    assert step <= kernel


def test_joint_terms_builds_each_r_and_phase_magnitude_once(monkeypatch):
    # the joint is bitwise even in phi_sum: each (r, |phi_sum|) is built once,
    # at the first phi_sum given for it, and every point keeps its own term and dump
    s, s2 = TmsvParams(1.0), TmsvParams(0.6)
    points = [(s, 0.4), (s, -0.4), (s, 0.4), (s2, -0.7)]
    expected = [conditional_entropy(binned_joint(state, phi_sum, 1.5))
                for state, phi_sum in points]
    batches = []
    batched = entropy._binned_joints

    def counted(batch, grids):
        batches.append([phi_sum for _, phi_sum in batch])
        return batched(batch, grids)

    monkeypatch.setattr(entropy, "_binned_joints", counted)
    joints = []
    assert entropy._joint_terms(points, coarse_grain._grids(points, 1.5, 1e-12),
                                joints) == expected
    assert batches == [[0.4, -0.7]]
    assert [(d.r, d.phi_sum) for d in joints] == [(state.r, phi) for state, phi in points]
    assert joints[0].probs is joints[1].probs is joints[2].probs
    assert joints[3].probs is not joints[0].probs


def test_joint_terms_builds_one_joint_at_zero_squeezing(monkeypatch):
    # at r = 0 the joint is bitwise the same at every phase sum, so r alone
    # keys it; it is built at the first phase sum given
    s0, s1 = TmsvParams(0.0), TmsvParams(1.0)
    points = [(s0, 0.3), (s1, 0.3), (s0, -1.2), (s0, 2.5)]
    expected = [conditional_entropy(binned_joint(state, phi_sum, 3.5))
                for state, phi_sum in points]
    batches = []
    batched = entropy._binned_joints

    def counted(batch, grids):
        batches.append([(state.r, phi_sum) for state, phi_sum in batch])
        return batched(batch, grids)

    monkeypatch.setattr(entropy, "_binned_joints", counted)
    joints = []
    assert entropy._joint_terms(points, coarse_grain._grids(points, 3.5, 1e-12),
                                joints) == expected
    assert batches == [[(0.0, 0.3), (1.0, 0.3)]]
    assert [(d.r, d.phi_sum) for d in joints] == [(state.r, phi) for state, phi in points]
    assert joints[0].probs is joints[2].probs is joints[3].probs


def test_s_qm_builds_its_joint_at_the_phase_sum_given(monkeypatch):
    # a one-point call runs the kernel at -phi, so the evenness checks compare
    # two kernel runs rather than one joint with itself
    seen = []
    plan = coarse_grain._panel_plan

    def recorded(jobs):
        seen.extend(coeffs.phi_sum for coeffs, _, _ in jobs)
        return plan(jobs)

    monkeypatch.setattr(coarse_grain, "_panel_plan", recorded)
    s_qm(TmsvParams(1.0), -0.4, 1.5)
    assert seen == [-0.4]


def test_conditional_entropy_names_the_joint_it_rejects():
    d = _manual_dist(np.full((3, 3), 0.99 / 9))
    with pytest.raises(InvalidDistribution, match=r"^joint at r=0\.0, phi_sum=0\.0, "
                                                  r"Delta=1\.0: probabilities sum to"):
        conditional_entropy(d)
