import dataclasses
import io
import json
import math

import numpy as np
import pytest

from conftest import (
    HEADLINE_D,
    HEADLINE_DELTA,
    HEADLINE_DELTA_BIN,
    HEADLINE_R,
)
from entrobell import bell, coarse_grain, entropy
from entrobell import (
    AngleGeometry,
    EntropyTerms,
    InvalidDistribution,
    MinimizeOptions,
    SCAN_CSV_HEADER,
    TmsvParams,
    binned_joint,
    conditional_entropy,
    d_qm_value,
    evaluate,
    evaluate_general,
    evaluate_mutual_info,
    minimize,
    s_qm,
    scan,
    scan_zero_delta,
    shannon,
    __version__,
    write_json,
)


# -- angle geometry -----------------------------------------------------------

def test_pair_sums_collapse_to_offsets():
    g = AngleGeometry(delta=0.6)
    assert g.theta_prime == pytest.approx(-0.4, abs=1e-15)
    assert g.phi == pytest.approx(0.6, abs=1e-15)
    assert g.phi_prime == pytest.approx(0.2, abs=1e-15)
    s1, s2, s3, s4 = g.pair_sums()
    assert s1 == pytest.approx(0.2, abs=1e-15)   # delta/3
    assert s2 == pytest.approx(-0.2, abs=1e-15)  # -delta/3
    assert s3 == pytest.approx(0.2, abs=1e-15)   # delta/3
    assert s4 == pytest.approx(0.6, abs=1e-15)   # delta


def test_pair_sums_independent_of_base_angle():
    for theta in (0.0, 0.83, -2.4):
        sums = AngleGeometry(delta=1.1, theta=theta).pair_sums()
        assert sums == pytest.approx(AngleGeometry(delta=1.1).pair_sums(),
                                     abs=1e-13)


# -- the chained combination ---------------------------------------------------

def test_headline_value_frozen():
    # confirmed independently by adaptive integration of every cell and by
    # 2e7-shot Monte Carlo; see also the acceptance suite
    state = TmsvParams(HEADLINE_R)
    ev = evaluate(state, AngleGeometry(HEADLINE_DELTA), HEADLINE_DELTA_BIN)
    assert ev.d_qm == pytest.approx(HEADLINE_D, abs=1e-12)
    assert s_qm(state, HEADLINE_DELTA / 3.0, HEADLINE_DELTA_BIN) == pytest.approx(
        0.33709575070816855, abs=1e-12)
    assert s_qm(state, HEADLINE_DELTA, HEADLINE_DELTA_BIN) == pytest.approx(
        0.657221400821897, abs=1e-12)


def test_reduction_identity():
    # the four-angle evaluation must reduce to 3 S(delta/3) - S(delta)
    rng = np.random.default_rng(42)
    for _ in range(20):
        r = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.0, math.pi))
        db = float(rng.uniform(0.5, 8.0))
        g = AngleGeometry(delta, theta=float(rng.uniform(-1.0, 1.0)))
        ev = evaluate(TmsvParams(r), g, db)
        assert ev.d_qm == pytest.approx(d_qm_value(TmsvParams(r), delta, db),
                                        abs=1e-10)


def test_delta_symmetry():
    state = TmsvParams(1.4)
    for delta in (0.3, 1.0, 2.5):
        plus = evaluate(state, AngleGeometry(delta), 2.0).d_qm
        minus = evaluate(state, AngleGeometry(-delta), 2.0).d_qm
        assert plus == pytest.approx(minus, abs=1e-10)


def test_boundary_identity():
    state = TmsvParams(1.0)
    ev = evaluate(state, AngleGeometry(0.0), 1.0)
    assert ev.d_qm == pytest.approx(2.0 * s_qm(state, 0.0, 1.0), abs=1e-12)
    assert ev.d_qm >= 0.0


def test_base_angle_invariance():
    state = TmsvParams(1.2)
    ref = evaluate(state, AngleGeometry(0.9), 1.5).d_qm
    rot = evaluate(state, AngleGeometry(0.9, theta=0.83), 1.5).d_qm
    assert rot == pytest.approx(ref, abs=1e-10)


def test_no_false_violations_without_squeezing():
    # the r=0 product state admits a trivial classical description
    state = TmsvParams(0.0)
    for delta in np.linspace(0.0, math.pi, 16):
        for db in np.geomspace(0.5, 8.0, 16):
            assert d_qm_value(state, float(delta), float(db)) >= -1e-12


def test_evaluation_record_fields():
    ev = evaluate(TmsvParams(1.0), AngleGeometry(0.6), 2.0)
    assert ev.delta == 0.6
    assert ev.grid_l_max >= 1
    total = (ev.term_a_given_bprime + ev.term_bprime_given_aprime
             + ev.term_aprime_given_b - ev.term_a_given_b)
    assert ev.d_qm == pytest.approx(total, abs=1e-15)
    d = ev.to_dict()
    for key in ("version", "d_qm", "tail_epsilon", "grid_l_max", "method", "terms"):
        assert key in d


def test_general_evaluation_arbitrary_angles():
    # no geometry constraint: four angles chosen freely
    ev = evaluate_general(TmsvParams(0.8), 0.1, -0.5, 0.9, 0.3, 1.5)
    assert math.isfinite(ev.d_qm)
    assert ev.delta is None


def test_mutual_info_form_matches():
    state = TmsvParams(HEADLINE_R)
    g = AngleGeometry(HEADLINE_DELTA)
    margin = evaluate_mutual_info(state, g, HEADLINE_DELTA_BIN)
    d = evaluate(state, g, HEADLINE_DELTA_BIN).d_qm
    assert margin == pytest.approx(-d, abs=1e-10)


def test_mutual_info_margin_reuses_the_four_joints():
    state = TmsvParams(1.2)
    g = AngleGeometry(0.9, theta=0.3)
    ev = evaluate(state, g, 1.5)
    ab_prime, apbp, aprime_b, ab = (conditional_entropy(binned_joint(state, s, 1.5))
                                    for s in g.pair_sums())
    lhs = (ab_prime.mutual_information + apbp.mutual_information
           + aprime_b.mutual_information - ab.mutual_information)
    assert ev.mutual_info_margin == lhs - (apbp.s_marginal_a + ab_prime.s_marginal_b)
    assert evaluate_mutual_info(state, g, 1.5) == ev.mutual_info_margin


@pytest.mark.parametrize("theta", [0.0, 0.3, -1.7])
def test_evaluate_terms_are_the_pair_joints_entropies(theta):
    # pairs at -phi share the joint at phi, yet every term is bitwise the
    # entropies of its own pair's joint, on both entropy paths; delta > pi/2
    # would show a pi - phi fold, which moves bits
    state, g = TmsvParams(1.4), AngleGeometry(2.5, theta=theta)
    joints = [binned_joint(state, s, 1.2) for s in g.pair_sums()]
    ev = evaluate(state, g, 1.2)
    assert ev.terms == tuple(conditional_entropy(joint) for joint in joints)
    assert ev.terms == tuple(EntropyTerms(shannon(j.probs), shannon(j.marginal_a()),
                                          shannon(j.marginal_b())) for j in joints)
    assert evaluate_general(state, g.theta, g.theta_prime, g.phi, g.phi_prime, 1.2) \
        == dataclasses.replace(ev, delta=None)


# at theta = 0 the pair sums are d, -d, delta - 2d and delta, d = delta/3;
# delta - 2d has the bits of d at delta = 3 but not at 0.9
@pytest.mark.parametrize("delta, phase_sums", [(0.9, [0.9 / 3, 0.9 - 2 * 0.9 / 3, 0.9]),
                                               (3.0, [1.0, 3.0])])
def test_evaluate_builds_each_distinct_joint_once(monkeypatch, delta, phase_sums):
    calls = []
    panel_rows = coarse_grain._panel_rows

    def counted(jobs):
        calls.append([coeffs.phi_sum for _, coeffs, _, _ in jobs])
        return panel_rows(jobs)

    monkeypatch.setattr(coarse_grain, "_panel_rows", counted)
    evaluate(TmsvParams(1.0), AngleGeometry(delta), 1.5)
    assert calls == [phase_sums]


# -- scans ----------------------------------------------------------------------

def test_scan_grid_and_determinism():
    r_vals = np.linspace(0.0, 1.0, 4)
    d_vals = np.linspace(0.0, math.pi, 5)
    one = scan(r_vals, d_vals, 2.0)
    assert one.d_qm.shape == (4, 5)
    # spot check one cell against the scalar path
    assert one.d_qm[2, 3] == pytest.approx(
        d_qm_value(TmsvParams(float(r_vals[2])), float(d_vals[3]), 2.0),
        abs=1e-12)


def test_scan_min_entry_and_csv():
    r_vals = np.linspace(0.5, 1.5, 3)
    d_vals = np.linspace(0.2, 2.0, 4)
    res = scan(r_vals, d_vals, 1.0)
    d_min, r_at, delta_at = res.min_entry()
    assert d_min == res.d_qm.min()
    assert r_at in r_vals
    assert delta_at in d_vals

    buf = io.StringIO()
    res.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == SCAN_CSV_HEADER == "r,delta,Delta,d_qm"
    assert len(lines) == 1 + 3 * 4
    first = lines[1].split(",")
    assert float(first[0]) == r_vals[0]
    assert float(first[2]) == 1.0


def test_zero_offset_scan_is_boundary_curve():
    res = scan_zero_delta(np.linspace(0.0, 2.0, 4), np.geomspace(0.5, 8.0, 3))
    assert res.d_qm.shape == (4, 3)
    assert np.all(res.d_qm >= 0.0)
    for i, r in enumerate(res.r_values):
        for j, db in enumerate(res.delta_bin_values):
            expected = 2.0 * s_qm(TmsvParams(float(r)), 0.0, float(db))
            assert res.d_qm[i, j] == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("run, args", [
    (scan, ([], [1.0], 1.5)), (scan, ([1.0], [], 1.5)),
    (scan_zero_delta, ([], [1.0])), (scan_zero_delta, ([1.0], [])),
])
def test_scans_reject_an_empty_axis(run, args):
    with pytest.raises(ValueError, match="need between 1 and 100000 grid points, got 0"):
        run(*args)


def test_write_json_provenance():
    res = scan(np.array([0.5]), np.array([0.6]), 1.0)
    buf = io.StringIO()
    write_json(res, buf)
    payload = json.loads(buf.getvalue())
    for key in ("version", "tail_epsilon", "method", "d_qm"):
        assert key in payload


# -- minimization ----------------------------------------------------------------

def test_minimize_validation():
    with pytest.raises(ValueError):
        minimize((1.0, 0.5), (0.0, math.pi), 1.0)
    with pytest.raises(ValueError):
        minimize((-0.5, 1.0), (0.0, math.pi), 1.0)


@pytest.mark.parametrize("kwargs", [
    {"coarse_points": 0}, {"coarse_points": -2}, {"refine_starts": -1},
])
def test_minimize_options_reject_empty_or_negative_counts(kwargs):
    with pytest.raises(ValueError, match="coarse_points >= 1 and refine_starts >= 0"):
        MinimizeOptions(**kwargs)


def test_minimize_frozen():
    # bitwise, recorded when the grid size, the 16 log-spaced delta columns and
    # the simplex tolerances and iteration cap were still option fields
    res = minimize((0.0, 2.0), (0.0, math.pi), 6,
                   options=MinimizeOptions(coarse_points=6, refine_starts=2))
    assert res.to_dict() == {
        "version": __version__, "method": "panel-quadrature", "tail_epsilon": 1e-12,
        "kind": "minimize", "r_star": 0.0, "delta_star": 0.0, "delta_star_over_pi": 0.0,
        "d_min": 0.0005484407326320658, "Delta": 6, "converged": True,
        "n_evaluations": 144, "coarse_d_min": 0.0005484407326320658,
        "r_bounds": [0.0, 2.0], "delta_bounds": [0.0, 3.141592653589793],
    }


def test_nelder_mead_asks_only_for_points_in_the_box(monkeypatch):
    # minimize's objective reads each simplex point as given: scipy's bounded
    # Nelder-Mead clips the start, the simplex and every trial point first.
    # Here the best coarse points sit on the box's corner (0, 0).
    seen = []
    nelder_mead = bell.optimize.minimize

    def recording(fun, x0, **kwargs):
        return nelder_mead(lambda x: seen.append(np.array(x)) or fun(x), x0, **kwargs)

    monkeypatch.setattr(bell.optimize, "minimize", recording)
    res = minimize((0.0, 2.0), (0.0, math.pi), 6,
                   options=MinimizeOptions(coarse_points=6, refine_starts=2))
    assert (res.r_star, res.delta_star) == (0.0, 0.0)
    points = np.array(seen)
    assert len(points) > 0
    assert np.all((points >= [0.0, 0.0]) & (points <= [2.0, math.pi]))


def test_minimize_soundness():
    opts = MinimizeOptions(coarse_points=10, refine_starts=2)
    res = minimize((0.0, 1.2), (0.0, math.pi), 1.0, options=opts)
    assert res.d_min <= res.coarse_d_min + 1e-12
    assert res.r_bounds[0] <= res.r_star <= res.r_bounds[1]
    assert res.delta_bounds[0] <= res.delta_star <= res.delta_bounds[1]
    # the reported minimum must be reproducible at the reported argmin
    again = d_qm_value(TmsvParams(res.r_star), res.delta_star, 1.0)
    assert again == pytest.approx(res.d_min, abs=1e-10)
    assert res.n_evaluations > 10 * 10
    payload = res.to_dict()
    assert payload["kind"] == "minimize"
    assert payload["delta_star_over_pi"] == pytest.approx(res.delta_star / math.pi)


# -- one kernel pass per request -------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """(r, phi_sum) of every joint that scan and minimize build, one list per batch."""
    batches = []
    batched = entropy._binned_joints

    def counted(batch, delta_bin, tail_epsilon):
        batches.append([(state.r, phi_sum) for state, phi_sum in batch])
        return batched(batch, delta_bin, tail_epsilon)

    monkeypatch.setattr(entropy, "_binned_joints", counted)
    return batches


def _joint_key(r, phase):
    """The key under which _joint_terms builds a joint: r alone at r = 0."""
    return (r, bell._folded(phase) if r else 0.0)


def test_scan_builds_each_distinct_joint_once(built):
    r_vals, d_vals = np.linspace(0.0, 1.0, 3), np.linspace(0.0, math.pi, 7)
    res = scan(r_vals, d_vals, 2.0)
    fold = bell._folded
    wanted = {_joint_key(r, phase) for r in r_vals for d in d_vals for phase in (d / 3.0, d)}
    (batch,) = built
    assert sorted(_joint_key(r, phase) for r, phase in batch) == sorted(wanted)
    assert len(batch) == len(wanted)
    # delta = 0 asks for S(0) twice, some phase sums fold onto others, and
    # r = 0 has one joint
    assert len(batch) < len({(r, phase) for r in r_vals for d in d_vals
                             for phase in (d / 3.0, d)}) < 2 * res.d_qm.size
    for i, r in enumerate(r_vals):
        for j, d in enumerate(d_vals):
            state = TmsvParams(r)
            # bitwise the two-entropy form on the unbatched path, at the
            # folded phase sums, and within roundoff of it at the others
            assert res.d_qm[i, j] == 3.0 * s_qm(state, fold(d / 3.0), 2.0) \
                - s_qm(state, fold(d), 2.0)
            assert res.d_qm[i, j] == pytest.approx(
                3.0 * s_qm(state, d / 3.0, 2.0) - s_qm(state, d, 2.0), abs=1e-13)


def test_scan_builds_one_joint_at_zero_squeezing(built):
    # at r = 0 the joint does not depend on the phase sum, so every delta of
    # the row reads one joint and d_qm = 3 S - S = 2 S, bit for bit
    d_vals = np.linspace(0.0, math.pi, 9)
    res = scan([0.0, 0.5], d_vals, 3.5)
    (batch,) = built
    assert [r for r, _ in batch].count(0.0) == 1
    s0 = s_qm(TmsvParams(0.0), 0.0, 3.5)
    assert res.d_qm[0].tolist() == [3.0 * s0 - s0] * len(d_vals)
    assert res.d_qm[0, 0] == scan_zero_delta([0.0], [3.5]).d_qm[0, 0]


def test_scan_over_negative_deltas_builds_each_phase_magnitude_once(built):
    r_vals, d_vals = np.linspace(0.0, 1.0, 2), np.linspace(-3.0, 3.0, 7)
    res = scan(r_vals, d_vals, 2.0)
    wanted = {_joint_key(r, phase) for r in r_vals for d in d_vals for phase in (d / 3.0, d)}
    (batch,) = built
    # phase sums are folded to |phase| first, so each joint is built at a
    # non-negative phase sum and -delta reads the joints of delta
    assert all(phase >= 0.0 for _, phase in batch)
    assert sorted(_joint_key(r, phase) for r, phase in batch) == sorted(wanted)
    assert len(batch) == len(wanted)
    assert res.d_qm.tolist() == res.d_qm[:, ::-1].tolist()


def test_zero_offset_scan_builds_each_joint_once_per_column(built):
    res = scan_zero_delta([0.5, 1.0, 0.5, 0.5], [2.0, 4.0])
    assert built == [[(0.5, 0.0), (1.0, 0.0)]] * 2
    assert res.d_qm[0].tolist() == res.d_qm[2].tolist() == res.d_qm[3].tolist()


def test_minimize_builds_each_coarse_joint_once(built):
    res = minimize((0.0, 2.0), (0.0, math.pi), 6,
                   options=MinimizeOptions(coarse_points=6, refine_starts=2))
    d_grid = bell._coarse_deltas(0.0, math.pi, 6)
    wanted = {_joint_key(r, phase) for r in np.linspace(0.0, 2.0, 6) for d in d_grid
              for phase in (d / 3.0, d)}
    coarse, *steps = built
    assert sorted(_joint_key(r, phase) for r, phase in coarse) == sorted(wanted)
    assert len(coarse) == len(wanted)
    assert len(coarse) < 2 * 6 * len(d_grid)
    # each simplex step is one d_qm value, a batch of at most two joints;
    # n_evaluations counts the d_qm values asked for, not the joints built
    assert all(1 <= len(step) <= 2 for step in steps)
    assert res.n_evaluations == 6 * len(d_grid) + len(steps) == 144


def test_wide_bin_minimize_slab_work_is_bounded(monkeypatch):
    # a deterministic count of the kernel's slab elements (one ndtr each);
    # with uniform panels and one r = 0 joint per phase sum it is 486080
    elements = []
    slabs = coarse_grain._normal_slabs
    monkeypatch.setattr(coarse_grain, "_normal_slabs",
                        lambda z: elements.append(z.size) or slabs(z))
    res = minimize((0.0, 2.0), (0.0, math.pi), 100.0,
                   options=MinimizeOptions(coarse_points=4, refine_starts=0))
    assert res.n_evaluations == 80
    assert sum(elements) <= 260704


def test_compute_paths_sum_no_mass(monkeypatch):
    # the captured mass is summed where it is read, never while joints are built
    calls = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: calls.append(1) or fsum(values))
    scan([0.0, 1.0], [0.3, 0.9], 2.0)
    minimize((0.0, 1.0), (0.0, math.pi), 6.0,
             options=MinimizeOptions(coarse_points=3, refine_starts=1))
    evaluate(TmsvParams(1.0), AngleGeometry(0.6), 1.5)
    assert calls == []
    assert binned_joint(TmsvParams(1.0), 0.6, 1.5).captured_mass == pytest.approx(1.0)
    assert calls == [1]


def test_invalid_joint_in_a_batch_is_named(monkeypatch):
    batched = entropy._binned_joints
    off = []

    def one_mass_off(batch, delta_bin, tail_epsilon):
        joints = batched(batch, delta_bin, tail_epsilon)
        off.append(joints[2])
        joints[2] = dataclasses.replace(joints[2], probs=0.99 * joints[2].probs)
        return joints

    monkeypatch.setattr(entropy, "_binned_joints", one_mass_off)
    with pytest.raises(InvalidDistribution, match="probabilities sum to") as exc:
        scan([1.0], [0.3, 0.6, 0.9], 2.0)
    (bad,) = off
    assert f"joint at r={bad.r!r}, phi_sum={bad.phi_sum!r}, Delta=2.0: " in str(exc.value)
