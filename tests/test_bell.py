import dataclasses
import io
import json
import math
import sys

import numpy as np
import pytest
import scipy.optimize

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
    panel_plan = coarse_grain._panel_plan

    def counted(jobs):
        calls.append([coeffs.phi_sum for coeffs, _, _ in jobs])
        return panel_plan(jobs)

    monkeypatch.setattr(coarse_grain, "_panel_plan", counted)
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
    # minimize's objective reads each simplex point as given: the bounded
    # Nelder-Mead clips the start, the simplex and every trial point first.
    # Here the best coarse points sit on the box's corner (0, 0).
    seen = []
    values = bell._d_qm_values

    def recording(points, *args):
        seen.append(np.array(points))
        return values(points, *args)

    monkeypatch.setattr(bell, "_d_qm_values", recording)
    res = minimize((0.0, 2.0), (0.0, math.pi), 6,
                   options=MinimizeOptions(coarse_points=6, refine_starts=2))
    assert (res.r_star, res.delta_star) == (0.0, 0.0)
    points = np.concatenate(seen[1:])  # the search's, after the coarse stage
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


# The package's Nelder-Mead against scipy's, on cheap analytic objectives: the
# same points asked for, in the same order, and the same result, bit for bit.
NM_OPTIONS = {"xatol": 1e-4, "fatol": 1e-5, "maxiter": 400, "disp": False}
BOX = ((0.0, 0.0), (2.0, math.pi))


def _bowl(x):
    return float((x[0] - 0.3) ** 2 + 2.0 * (x[1] - 0.7) ** 2)


def _plateaus(x):
    return float(math.floor(8.0 * x[0]) + math.floor(8.0 * x[1]))


def _ramp(x):
    return float(-x[0] - x[1])


def _package_search(f, x0, lower, upper):
    """The points bell._nelder_mead asks for, x0 first, each yield's size and its result."""
    x0 = np.array(x0, dtype=float)
    search = bell._nelder_mead(x0, f(x0), np.array(lower, dtype=float),
                               np.array(upper, dtype=float))
    asked, sizes = [x0], []
    try:
        xs = next(search)
        while True:
            asked += xs
            sizes.append(len(xs))
            xs = search.send([f(x) for x in xs])
    except StopIteration as done:
        return np.array(asked), sizes, done.value


@pytest.mark.parametrize("f, x0, lower, upper", [
    (_bowl, (0.0, 0.0), *BOX),                  # a box corner, both coordinates 0
    (_bowl, (2.0, math.pi), *BOX),              # the upper corner
    (_bowl, (0.0, 1.0), *BOX),                  # a zero coordinate: 0.00025, not 5 %
    (_bowl, (2.0, 1.0), *BOX),                  # an upper bound: the vertex is reflected
    (_plateaus, (0.2, 0.3), *BOX),              # failed contractions: shrinks
    (_ramp, (1.0, 1.0), (0.0, 0.0), (1e300, 1e300)),  # expands until maxiter
    (_bowl, (1.0, 2.0), (1.0, 0.0), (1.0, math.pi)),  # r_lo == r_hi
    (_bowl, (1.5, 0.5), (0.0, 0.5), (2.0, 0.5)),      # delta_lo == delta_hi
    (_bowl, (1.0, 0.5), (1.0, 0.5), (1.0, 0.5)),      # both
], ids=["corner", "upper-corner", "zero", "upper-bound", "shrink", "maxiter",
        "fixed-r", "fixed-delta", "fixed-both"])
def test_nelder_mead_takes_scipys_steps(f, x0, lower, upper):
    seen = []
    want = scipy.optimize.minimize(lambda x: seen.append(np.array(x)) or f(x), np.array(x0),
                                   method="Nelder-Mead", bounds=list(zip(lower, upper)),
                                   options=NM_OPTIONS)
    asked, sizes, (x, fun, nfev, success) = _package_search(f, x0, lower, upper)
    assert asked.shape == (len(seen), 2) and asked.tobytes() == np.array(seen).tobytes()
    assert x.tobytes() == want.x.tobytes()
    assert (fun, nfev, success) == (want.fun, want.nfev, want.success)
    # 2 points at the start, 2 on a shrink, 1 otherwise
    assert sizes[0] == 2 and set(sizes[1:]) <= {1, 2}
    assert (2 in sizes[1:]) == (f is _plateaus)
    assert success == (f is not _ramp)


@pytest.mark.parametrize("r_bounds, delta_bounds, n_evaluations, d_min", [
    ((1.0, 1.0), (0.0, math.pi), 3272, 1.0579046186636565),
    ((0.0, 2.0), (0.5, 0.5), 2496, 0.8410628345618372),
    ((1.0, 1.0), (0.5, 0.5), 2328, 1.066949666182292),
])
def test_minimize_on_degenerate_boxes_is_frozen(r_bounds, delta_bounds, n_evaluations, d_min):
    # bitwise, recorded with scipy's Nelder-Mead at the default 48 coarse
    # points and 8 starts
    res = minimize(r_bounds, delta_bounds, 1.5)
    assert (res.n_evaluations, res.d_min, res.converged) == (n_evaluations, d_min, True)
    assert r_bounds[0] <= res.r_star <= r_bounds[1]
    assert delta_bounds[0] <= res.delta_star <= delta_bounds[1]


def test_ties_between_starts_keep_the_sequential_searchs_point(monkeypatch):
    # two wells with flat floors of exactly 0.0, each reached by its own
    # start; start 2 reaches its floor in fewer rounds than start 1, so a
    # best point kept in round order would be start 2's
    wells, floors = ((0.4, 0.8), (1.6, 2.2)), []

    def landscape(r, d):
        value = max(min((r - a) ** 2 + (d - b) ** 2 for a, b in wells) - 0.05 ** 2, 0.0)
        if value == 0.0:
            floors.append((r, d))
        return value

    opts = MinimizeOptions(coarse_points=5, refine_starts=2)
    r_bounds, delta_bounds = (0.0, 2.0), (0.0, math.pi)
    # the search of the parent: each start run to its end through scipy, in
    # turn, the best point kept by a strict < in the order of evaluation
    jobs = [(r, d) for r in np.linspace(*r_bounds, opts.coarse_points)
            for d in bell._coarse_deltas(*delta_bounds, opts.coarse_points)]
    flat = np.array([landscape(r, d) for r, d in jobs])
    order = np.argsort(flat, kind="stable")
    best = [jobs[order[0]], float(flat[order[0]])]

    def objective(x):
        value = landscape(float(x[0]), float(x[1]))
        if value < best[1]:
            best[:] = (float(x[0]), float(x[1])), value
        return value

    for s in order[:opts.refine_starts]:
        scipy.optimize.minimize(objective, np.array(jobs[s]), method="Nelder-Mead",
                                bounds=[r_bounds, delta_bounds], options=NM_OPTIONS)
    # both floors were reached, so the minimum is a tie between the starts
    assert all(any(math.dist(p, well) <= 0.05 for p in floors) for well in wells)
    monkeypatch.setattr(bell, "_d_qm_values", lambda points, delta_bin, tail_epsilon: [
        landscape(r, d) for r, d in points])
    res = minimize(r_bounds, delta_bounds, 1.0, options=opts)
    assert (res.r_star, res.delta_star, res.d_min) == (*best[0], best[1]) \
        == (0.4249999999999998, 0.7952156404399164, 0.0)


# -- one kernel pass per request -------------------------------------------------

@pytest.fixture
def built(monkeypatch):
    """(r, phi_sum) of every joint that scan and minimize build, one list per batch."""
    batches = []
    batched = entropy._binned_joints

    def counted(batch, grids):
        batches.append([(state.r, phi_sum) for state, phi_sum in batch])
        return batched(batch, grids)

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


def test_scan_batches_hold_a_bounded_number_of_joints(built, monkeypatch):
    # a joint counts as at least _JOINT_CELLS cells, so a batch of tiny grids
    # closes at _BATCH_CELLS / _JOINT_CELLS = 4096 joints; at Delta = 6 these
    # grids have 3 to 7 bins, and their joints would be one batch by cells alone
    r_vals, d_vals = [0.5, 1.0, 1.5], np.linspace(0.0, math.pi, 1400)
    res = scan(r_vals, d_vals, 6.0)
    assert entropy._BATCH_CELLS // entropy._JOINT_CELLS == 4096
    assert len(built) >= 2
    assert max(map(len, built)) <= 4096
    assert sum(coarse_grain.make_grid(TmsvParams(r), 6.0).n_bins ** 2
               for batch in built for r, _ in batch) < entropy._BATCH_CELLS
    # and the results are bitwise those of one batch
    built.clear()
    monkeypatch.setattr(entropy, "_BATCH_CELLS", 1 << 60)
    assert scan(r_vals, d_vals, 6.0).d_qm.tolist() == res.d_qm.tolist()
    assert len(built) == 1


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


def test_minimize_builds_each_coarse_joint_once(built, monkeypatch):
    searches = []
    search = bell._nelder_mead

    def recorded(*args):
        searches.append((yield from search(*args)))
        return searches[-1]

    monkeypatch.setattr(bell, "_nelder_mead", recorded)
    res = minimize((0.0, 2.0), (0.0, math.pi), 6,
                   options=MinimizeOptions(coarse_points=6, refine_starts=2))
    d_grid = bell._coarse_deltas(0.0, math.pi, 6)
    wanted = {_joint_key(r, phase) for r in np.linspace(0.0, 2.0, 6) for d in d_grid
              for phase in (d / 3.0, d)}
    coarse, *steps = built
    assert sorted(_joint_key(r, phase) for r, phase in coarse) == sorted(wanted)
    assert len(coarse) == len(wanted)
    assert len(coarse) < 2 * 6 * len(d_grid)
    # each step batch holds the points of every live start, at most two per
    # start and two joints per point; n_evaluations counts the d_qm values
    # the searches asked for, their start points included, not the joints built
    assert all(1 <= len(step) <= 2 * 2 * 2 for step in steps)
    assert len(searches) == 2
    assert res.n_evaluations == 6 * len(d_grid) + sum(nfev for *_, nfev, _ in searches) == 144


@pytest.fixture
def grids_made(monkeypatch):
    """The r of every make_grid call, counted at each module binding of the package."""
    calls = []
    make = coarse_grain.make_grid

    def counted(state, *args):
        calls.append(state.r)
        return make(state, *args)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "entrobell" and getattr(module, "make_grid", None) is make:
            monkeypatch.setattr(module, "make_grid", counted)
    return calls


def test_each_request_makes_one_grid_per_distinct_r(grids_made):
    # the grid of an r is made once, where the request enters, and handed
    # down to the kernel, which makes none
    state = TmsvParams(1.0)
    assert evaluate(state, AngleGeometry(0.6), 2.0).grid_l_max > 0
    assert grids_made == [1.0]
    grids_made.clear()
    s_qm(state, 0.4, 2.0)
    assert grids_made == [1.0]
    for method in (coarse_grain.PANEL_QUADRATURE, coarse_grain.RECTANGLE_CDF):
        grids_made.clear()
        binned_joint(state, 0.4, 2.0, method=method)
        assert grids_made == [1.0]
    # at Delta = 30 the grid of r = 0.5 has one bin and that of r = 2 three:
    # a one-bin point builds no joint, but its grid is still made once
    for delta_bin, r_vals in [(2.0, (0.0, 0.5, 1.0, 0.5, 0.0)), (30.0, (0.5, 2.0, 0.5))]:
        points = [(TmsvParams(r), phi_sum) for r in r_vals for phi_sum in (0.3, -0.9)]
        grids_made.clear()
        entropy._s_qm_values(points, delta_bin, 1e-12)
        assert sorted(grids_made) == sorted(set(r_vals))
        grids = coarse_grain._grids(points, delta_bin, 1e-12)
        grids_made.clear()
        coarse_grain._binned_joints(points, grids)
        assert grids_made == []


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


# -- one bin per record: one outcome, zero entropy --------------------------------

ONE_BIN_PHASE_SUMS = (0.0, 1e-3, 0.5, math.pi / 2, 2.0, math.pi)


@pytest.mark.parametrize("delta_bin", [20.0, 30.0, 50.0, 100.0, 300.0])
def test_one_bin_s_qm_is_the_kernels_exact_zero(delta_bin):
    # Delta >= 2 k sigma: each record has one outcome.  The d_qm path skips
    # the joint, and the value it skips is the kernel's +0.0, bit for bit
    states = [TmsvParams(r) for r in np.linspace(0.0, 2.0, 21)
              if coarse_grain.make_grid(TmsvParams(r), delta_bin).n_bins == 1]
    assert len(states) >= 11
    for state in states:
        for phi_sum in ONE_BIN_PHASE_SUMS:
            joint = binned_joint(state, phi_sum, delta_bin)
            kernel = conditional_entropy(joint).s_conditional
            assert kernel == 0.0 and math.copysign(1.0, kernel) == 1.0
            value = s_qm(state, phi_sum, delta_bin)
            assert value == 0.0 and math.copysign(1.0, value) == 1.0
            assert d_qm_value(state, phi_sum, delta_bin) == 0.0
            assert evaluate(state, AngleGeometry(phi_sum), delta_bin).d_qm == 0.0
            assert 1.0 - joint.grid.tail_epsilon <= joint.captured_mass <= 1.0


def test_one_bin_points_build_no_joint_on_the_d_qm_path(built, monkeypatch):
    # every grid of r <= 2 at Delta = 100 has one bin
    res = minimize((0.0, 2.0), (0.0, math.pi), 100.0)
    assert built == []
    assert res.d_min == res.coarse_d_min == 0.0
    # at Delta = 30 the grids of r <= 1.43 have one bin, the others three: only
    # those are built, and the search is bitwise the one that builds them all
    opts = MinimizeOptions(coarse_points=8, refine_starts=2)
    res = minimize((0.0, 2.0), (0.0, math.pi), 30.0, options=opts)
    assert built
    assert {coarse_grain.make_grid(TmsvParams(r), 30.0).n_bins
            for batch in built for r, _ in batch} == {3}
    monkeypatch.setattr(bell, "_s_qm_values", lambda points, delta_bin, tail_epsilon: [
        t.s_conditional for t in entropy._joint_terms(
            points, coarse_grain._grids(points, delta_bin, tail_epsilon))])
    assert minimize((0.0, 2.0), (0.0, math.pi), 30.0, options=opts) == res
    # evaluate reads the cells, so it still builds a one-bin point's joints
    built.clear()
    evaluate(TmsvParams(0.5), AngleGeometry(0.6), 100.0)
    (batch,) = built
    assert len(batch) == 3
    assert {coarse_grain.make_grid(TmsvParams(r), 100.0).n_bins for r, _ in batch} == {1}


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

    def one_mass_off(batch, grids):
        stacks = batched(batch, grids)
        (stack,) = stacks  # one r, so one grid size
        off.append(batch[2])
        stack[2] *= 0.99
        return stacks

    monkeypatch.setattr(entropy, "_binned_joints", one_mass_off)
    with pytest.raises(InvalidDistribution, match="probabilities sum to") as exc:
        scan([1.0], [0.3, 0.6, 0.9], 2.0)
    ((bad_state, bad_phi_sum),) = off
    assert f"joint at r={bad_state.r!r}, phi_sum={bad_phi_sum!r}, Delta=2.0: " in str(exc.value)
