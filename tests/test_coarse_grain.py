import functools
import hashlib
import io
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special

from entrobell import coarse_grain
from entrobell import (
    PANEL_QUADRATURE,
    RECTANGLE_CDF,
    BinnedDistribution2D,
    CoarseGrid,
    GridTooLarge,
    PhaseSettings,
    QuadratureBudgetExceeded,
    TmsvParams,
    bin_prob_1d,
    bin_prob_2d,
    binned_joint,
    binned_marginal,
    bvn_rectangle,
    bvn_upper,
    coefficients,
    make_grid,
    scan,
)

_r = st.floats(min_value=0.0, max_value=4.0, allow_nan=False)
_phi = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
_delta = st.floats(min_value=0.5, max_value=100.0, allow_nan=False)


# -- grid construction -------------------------------------------------------

def test_make_grid_frozen_examples():
    # smallest L with (L + 1/2) Delta >= k sigma, k = sqrt(2) erfcinv(eps/2)
    assert make_grid(TmsvParams(0.0), 1.0, 1e-12).l_max == 5
    assert make_grid(TmsvParams(2.0), 6.0, 1e-12).l_max == 4
    assert make_grid(TmsvParams(4.0), 100.0, 1e-12).l_max == 2


def test_make_grid_validation():
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 0.0)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), -2.0)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 1.0, tail_epsilon=1e-5)
    with pytest.raises(ValueError):
        make_grid(TmsvParams(1.0), 1.0, tail_epsilon=0.0)


@pytest.mark.parametrize("tail_epsilon", [5e-324, 1e-323])
def test_make_grid_rejects_a_tail_epsilon_without_a_finite_coverage(tail_epsilon):
    # half of it is 0 or the smallest subnormal, where erfcinv is infinite
    with pytest.raises(ValueError, match="tail_epsilon"):
        make_grid(TmsvParams(1.0), 0.5, tail_epsilon=tail_epsilon)
    assert make_grid(TmsvParams(1.0), 1.0, tail_epsilon=1e-320).l_max == 53


def test_make_grid_budget(monkeypatch):
    with pytest.raises(GridTooLarge):
        make_grid(TmsvParams(2.0), 5e-4)
    # same grid passes with a raised budget
    monkeypatch.setattr(coarse_grain, "CELL_BUDGET", 10 ** 12)
    g = make_grid(TmsvParams(2.0), 5e-4)
    assert g.l_max > 10 ** 4


@given(r=_r, delta=_delta,
       eps=st.sampled_from([1e-6, 1e-9, 1e-12]))
def test_make_grid_is_smallest(r, delta, eps):
    grid = make_grid(TmsvParams(r), delta, eps)
    k = math.sqrt(2.0) * float(special.erfcinv(0.5 * eps))
    sigma = math.sqrt(math.cosh(2.0 * r) / 2.0)
    assert (grid.l_max + 0.5) * delta >= k * sigma - 1e-9
    if grid.l_max > 0:
        assert (grid.l_max - 0.5) * delta < k * sigma


def test_grid_geometry():
    g = make_grid(TmsvParams(0.0), 1.0, 1e-12)
    assert g.n_bins == 2 * g.l_max + 1
    c = g.centers()
    assert c[0] == -c[-1]
    assert np.allclose(np.diff(c), g.delta)
    e = g.edges()
    assert len(e) == g.n_bins + 1
    assert e[0] == pytest.approx(-g.half_extent)


# -- 1D probabilities ---------------------------------------------------------

def test_bin_prob_1d_frozen():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0, 1e-12)
    # marginal variance 1/2 at r=0, so the centre window is erf(0.5)
    assert bin_prob_1d(state, grid, 0) == pytest.approx(
        0.5204998778130465, rel=1e-14)


@pytest.mark.parametrize("r, delta", [(0.0, 0.8), (0.3, 6.0), (1.3, 0.05), (1.3, 1.0),
                                      (3.0, 1.0), (3.0, 20.0)])
def test_bin_prob_1d_outermost_windows_match_mpmath(r, delta):
    # both tails keep full relative precision; a naive Phi(hi) - Phi(lo)
    # cancels in the upper window
    state = TmsvParams(r)
    grid = make_grid(state, delta)
    sigma = state.marginal_sigma
    for m in (-grid.l_max, grid.l_max):
        lo = (m * delta - 0.5 * delta) / sigma
        hi = (m * delta + 0.5 * delta) / sigma
        with mp.workdps(50):
            exact = float(mp.ncdf(mp.mpf(hi)) - mp.ncdf(mp.mpf(lo)))
        assert bin_prob_1d(state, grid, m) == pytest.approx(exact, rel=1e-12, abs=0)


def test_bin_prob_1d_whole_line():
    state = TmsvParams(0.0)
    grid = make_grid(state, 20.0, 1e-12)
    assert bin_prob_1d(state, grid, 0) == pytest.approx(1.0, abs=1e-15)


def test_bin_prob_1d_symmetry_and_sum():
    state = TmsvParams(1.3)
    grid = make_grid(state, 0.8)
    probs = np.array([bin_prob_1d(state, grid, m)
                      for m in range(-grid.l_max, grid.l_max + 1)])
    assert np.all(probs >= 0.0)
    assert np.allclose(probs, probs[::-1], rtol=0, atol=1e-16)
    assert probs.sum() >= 1.0 - grid.tail_epsilon
    assert probs.sum() <= 1.0 + 1e-13


def test_binned_marginal_matches_pointwise():
    state = TmsvParams(0.9)
    grid = make_grid(state, 1.1)
    dist = binned_marginal(state, grid)
    assert dist.probs.shape == (grid.n_bins,)
    assert dist.probs[grid.l_max] == pytest.approx(
        bin_prob_1d(state, grid, 0), abs=0)
    assert dist.captured_mass == pytest.approx(dist.probs.sum(), abs=1e-15)


# -- 2D probabilities ---------------------------------------------------------

def test_bin_prob_2d_against_adaptive_integration():
    # dblquad oracle, epsabs 1e-14 (error estimates ~5e-15)
    c = coefficients(TmsvParams(1.0), PhaseSettings(0.0, 0.0))
    grid = make_grid(TmsvParams(1.0), 2.0)
    assert bin_prob_2d(c, grid, 0, 0) == pytest.approx(
        0.46852438359539705, rel=1e-12)
    assert bin_prob_2d(c, grid, 1, -1) == pytest.approx(
        5.076682649672179e-10, rel=1e-10)


def test_bin_prob_2d_factorizes_at_zero_squeezing():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    one_d = 0.5204998778130465  # erf(0.5)
    assert bin_prob_2d(c, grid, 0, 0) == pytest.approx(one_d ** 2, rel=1e-10)


@given(r=_r, ph=_phi, delta=_delta)
def test_methods_agree(r, ph, delta):
    state = TmsvParams(r)
    grid = make_grid(state, delta)
    c = coefficients(state, PhaseSettings(0.0, ph))
    lm = min(grid.l_max, 2)
    for l in range(-lm, lm + 1):
        p1 = bin_prob_2d(c, grid, l, 0, method=PANEL_QUADRATURE)
        p2 = bin_prob_2d(c, grid, l, 0, method=RECTANGLE_CDF)
        assert abs(p1 - p2) < 1e-10
        assert -1e-15 <= p1 <= 1.0 + 1e-14  # ulp-level overshoot is roundoff


def test_bin_prob_2d_out_of_grid():
    state = TmsvParams(1.0)
    grid = make_grid(state, 2.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    with pytest.raises(ValueError):
        bin_prob_2d(c, grid, grid.l_max + 1, 0)


def test_quadrature_budget_error(monkeypatch):
    # a 50-wide cell at r=0 needs hundreds of panels
    state = TmsvParams(0.0)
    grid = make_grid(state, 50.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 2)
    with pytest.raises(QuadratureBudgetExceeded):
        bin_prob_2d(c, grid, 0, 0)
    # the cap applies to the full window (283 panels), though only the part
    # within 9 sigma of it is integrated
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 282)
    with pytest.raises(QuadratureBudgetExceeded):
        binned_joint(state, 0.0, 50.0)
    monkeypatch.setattr(coarse_grain, "_MAX_PANELS", 283)
    assert binned_joint(state, 0.0, 50.0).probs[0, 0] \
        == pytest.approx(1.0, abs=1e-15)


def test_unknown_method_rejected():
    state = TmsvParams(1.0)
    grid = make_grid(state, 2.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    with pytest.raises(ValueError):
        bin_prob_2d(c, grid, 0, 0, method="simpson")
    with pytest.raises(ValueError):
        binned_joint(state, 0.0, 2.0, method="simpson")


# -- full joint matrices ------------------------------------------------------

def test_joint_matrix_symmetries():
    # density is symmetric under (a,b) swap and under global sign flip; the
    # matrix is unfolded from one wedge, so both hold exactly
    for r, phi_sum, delta in [(1.2, 0.9, 1.5), (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5),
                              (0.5, 0.2, 50.0), (2.0, 0.1, 50.0)]:
        d = binned_joint(TmsvParams(r), phi_sum, delta)
        assert np.array_equal(d.probs, d.probs.T)
        assert np.array_equal(d.probs, d.probs[::-1, ::-1])


def test_joint_integrates_only_the_wedge_rows(monkeypatch):
    calls = []
    panel_plan = coarse_grain._panel_plan

    def counted(jobs):
        calls.extend(list(windows) for *_, windows in jobs)
        return panel_plan(jobs)

    monkeypatch.setattr(coarse_grain, "_panel_plan", counted)
    joint = binned_joint(TmsvParams(1.0), 0.5, 0.5)
    assert joint.grid.l_max > 5
    assert calls == [list(range(-joint.grid.l_max, 1))]


# (3, 1e-3, 1.5): narrow bands; (2, 0.1, 50): a clipped outer window, so two
# panel counts; (1, 0.05, 0.2): 51 one-panel rows; (2, 0.02, 50) and
# (2, 0.01, 30): edge-adapted rows of 13 and 62, and 24 and 40 panels
@pytest.mark.parametrize("r, phi_sum, delta", [(3.0, 1e-3, 1.5), (2.0, 0.1, 50.0),
                                               (1.0, 0.05, 0.2), (2.0, 0.02, 50.0),
                                               (2.0, 0.01, 30.0)])
def test_panel_rows_block_size_invariant(monkeypatch, r, phi_sum, delta):
    state = TmsvParams(r)
    default = binned_joint(state, phi_sum, delta)
    monkeypatch.setattr(coarse_grain, "_BLOCK_ELEMENTS", 1)  # one row per block
    one_row = binned_joint(state, phi_sum, delta)
    assert np.array_equal(one_row.probs, default.probs)
    assert one_row.captured_mass == default.captured_mass


# One batch per bin width, each mixing r = 0 with larger r and phase sums
# beyond pi/2 (negative correlation): at Delta = 100 every grid has one bin,
# (0.5, 0.2, 50) has its outer window clipped, and (3, 1e-3, 1.5) has narrow
# bands.  Edge-adapted rows of other node counts sit beside uniform ones:
# (2, 0.01) and (1.5, pi - 0.01) at Delta = 100; (2, 0.1), (2, 0.02) and
# (2, 2.9) at Delta = 50; (2, 0.01), (1.5, 0.02) and (2, pi - 0.01) at 30;
# (2, 0.01) and (2, 0.05) at 6, beside the headline joint, which stays
# uniform; (3, 1e-3) at 1.5.
_MIXED_BATCHES = [
    (100.0, [(0.0, 0.3), (2.0, 2.0), (1.0, 0.0), (1.5, math.pi), (2.0, 0.01),
             (1.5, math.pi - 0.01)]),
    (50.0, [(0.5, 0.2), (0.0, 2.5), (2.0, 2.9), (2.0, 0.1), (1.0, 1.0), (2.0, 0.02)]),
    (1.5, [(3.0, 1e-3), (0.0, 0.4), (1.2, 2.2), (2.0, 0.9), (3.0, 1e-3)]),
    (30.0, [(2.0, 0.01), (1.0, 0.01), (0.0, 1.0), (1.5, 0.02), (2.0, math.pi - 0.01)]),
    (6.0, [(2.0, 0.01), (1.817, 0.213 * math.pi), (0.0, 0.0), (2.0, 0.05)]),
]


@pytest.mark.parametrize("delta, points", _MIXED_BATCHES)
def test_batched_joints_are_bitwise_binned_joint(monkeypatch, delta, points):
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in points]
    alone = [binned_joint(state, phi_sum, delta) for state, phi_sum in points]
    if delta == 100.0:
        assert {joint.grid.n_bins for joint in alone} == {1}

    def assert_batch_is_alone(order):
        # the stacks, concatenated, hold the joints in batch order
        batch = [points[k] for k in order]
        grids = coarse_grain._grids(batch, delta, 1e-12)
        stacks = coarse_grain._binned_joints(batch, grids)
        for k, probs in zip(order, (probs for stack in stacks for probs in stack), strict=True):
            state, phi_sum = points[k]
            joint = BinnedDistribution2D(probs=probs, grid=grids[state.r], r=state.r,
                                         phi_sum=phi_sum, method=PANEL_QUADRATURE)
            assert np.array_equal(joint.probs, alone[k].probs)
            assert joint.captured_mass == alone[k].captured_mass
            assert (joint.r, joint.phi_sum, joint.grid) == (alone[k].r, alone[k].phi_sum,
                                                            alone[k].grid)

    order = list(range(len(points)))
    assert_batch_is_alone(order)
    assert_batch_is_alone(order[::-1])
    assert_batch_is_alone(order[1::2] + order[::2])
    monkeypatch.setattr(coarse_grain, "_BLOCK_ELEMENTS", 1)  # one row per block
    assert_batch_is_alone(order[::-1])


def test_cells_do_not_depend_on_the_numpy_buffer_size(monkeypatch):
    # np.setbufsize is process-wide; under a 64-element buffer the longest
    # rows here are several buffers long, and each cell still equals its
    # default-buffer value bit for bit, in any batch and block size and
    # through bin_prob_2d
    plans, plan = [], coarse_grain._panel_plan
    monkeypatch.setattr(coarse_grain, "_panel_plan", lambda jobs: plans.append(plan(jobs))
                        or plans[-1])
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in [(2.0, 0.01), (1.5, 0.02), (0.0, 0.0)]]
    whole = {delta: [binned_joint(state, phi_sum, delta) for state, phi_sum in points]
             for delta in (6.0, 60.0)}
    old = np.setbufsize(64)
    try:
        for delta in (6.0, 60.0):
            plans.clear()
            alone = [binned_joint(state, phi_sum, delta) for state, phi_sum in points]
            for joint, ref in zip(alone, whole[delta]):
                assert np.array_equal(joint.probs, ref.probs)
            nodes = coarse_grain._PANEL_ORDER * max(p.counts.max() for p in plans)
            assert nodes > 2 * np.getbufsize()
            for block_elements in (1, 1 << 10, 1 << 15):
                monkeypatch.setattr(coarse_grain, "_BLOCK_ELEMENTS", block_elements)
                grids = coarse_grain._grids(points, delta, 1e-12)
                stacks = coarse_grain._binned_joints(points, grids)
                for probs, joint in zip((p for stack in stacks for p in stack), alone,
                                        strict=True):
                    assert np.array_equal(probs, joint.probs)
            for (state, phi_sum), joint in zip(points, alone):
                c, l_max = coefficients(state, PhaseSettings(0.0, phi_sum)), joint.grid.l_max
                for l in range(-l_max, l_max + 1):
                    for m in range(-l_max, l_max + 1):
                        assert (bin_prob_2d(c, joint.grid, l, m)
                                == joint.probs[l + l_max, m + l_max])
    finally:
        np.setbufsize(old)
    assert np.getbufsize() == old


def test_rows_einsum_would_split_are_alone_in_their_block(monkeypatch):
    # einsum gives a row of up to 8192 nodes the same sums in any block, and
    # may split longer ones by the block's shape.  A block holds at most
    # _BLOCK_ELEMENTS band edges x nodes, or one row; its rows share one node
    # count and have at least 2 band edges each, so two longer rows never fit
    # in one block: _integrate contracts each block in one einsum.
    assert 2 * 2 * (8192 + 1) > coarse_grain._BLOCK_ELEMENTS
    plans, plan = [], coarse_grain._panel_plan
    monkeypatch.setattr(coarse_grain, "_panel_plan", lambda jobs: plans.append(plan(jobs))
                        or plans[-1])
    for delta, points in _MIXED_BATCHES:
        points = [(TmsvParams(r), phi_sum) for r, phi_sum in points]
        coarse_grain._binned_joints(points, coarse_grain._grids(points, delta, 1e-12))
    for p in plans:
        first, stop = p.blocks[:-1], p.blocks[1:]
        pairs = np.diff(p.block_pairs)
        assert (pairs >= 2 * (stop - first)).all()
        elements = coarse_grain._PANEL_ORDER * p.counts[first] * pairs
        shared = stop - first > 1
        assert (elements[shared] <= coarse_grain._BLOCK_ELEMENTS).all()
        assert (coarse_grain._PANEL_ORDER * p.counts[first[shared]] <= 8192).all()
    assert any((p.blocks[1:] - p.blocks[:-1] > 1).any() for p in plans)


# -- the kernel on every CPU ---------------------------------------------------

# The joints of one pass of a benchmark-sized scan request at Delta = 1.5,
# above the split threshold; the subprocess scripts below build the same pass.
_SPLIT_POINTS = [(r, phi_sum) for r in (0.4, 0.8, 1.2, 1.6, 2.0) for phi_sum in (0.1, 0.5, 1.3)]
_SPLIT_PASS = f"""
from entrobell import TmsvParams, coarse_grain
points = [(TmsvParams(r), phi_sum) for r, phi_sum in {_SPLIT_POINTS}]
grids = coarse_grain._grids(points, 1.5, 1e-12)

def split_pass():
    return b"".join(s.tobytes() for s in coarse_grain._binned_joints(points, grids))
"""


def _split_plan():
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in _SPLIT_POINTS]
    grids = coarse_grain._grids(points, 1.5, 1e-12)
    plan = coarse_grain._panel_plan([
        (coefficients(state, PhaseSettings(0.0, phi_sum)), grids[state.r],
         range(-grids[state.r].l_max, 1)) for state, phi_sum in points])
    assert plan.slab_elements >= coarse_grain._SPLIT_ELEMENTS and plan.blocks.size > 5
    return plan


def _run_script(script: str, *cpus: int) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh process that sees the CPUs `cpus`, or the machine's."""
    env = dict(os.environ, PYTHONPATH=str(Path(coarse_grain.__file__).parents[1]))
    if cpus:
        script = f"import os\nos.sched_getaffinity = lambda pid: {set(cpus)}\n" + script
    return subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)


def test_integrate_does_not_depend_on_the_cpu_count(monkeypatch):
    # one CPU and four, more than this machine may have, switching threads as
    # often as the interpreter allows: the same bits, and the pass was split
    plan, shares, on_every_cpu = _split_plan(), [], coarse_grain._on_every_cpu
    monkeypatch.setattr(coarse_grain, "_on_every_cpu",
                        lambda fns: shares.append(len(fns)) or on_every_cpu(fns))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cells = {}
        for cpus in ({0}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus,
                                raising=False)
            cells[len(cpus)] = coarse_grain._integrate(plan).tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert shares == [4]
    assert cells[1] == cells[4]


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    class WorkerFailed(Exception):
        pass

    plan, slabs = _split_plan(), coarse_grain._normal_slabs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    serial = coarse_grain._integrate(plan).tobytes()
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)

    def failing(z):
        if threading.current_thread() is not threading.main_thread():
            raise WorkerFailed
        return slabs(z)

    monkeypatch.setattr(coarse_grain, "_normal_slabs", failing)
    with pytest.raises(WorkerFailed):
        coarse_grain._integrate(plan)
    monkeypatch.setattr(coarse_grain, "_normal_slabs", slabs)
    assert coarse_grain._integrate(plan).tobytes() == serial


def test_worker_shares_run_under_the_callers_errstate():
    def divide():
        return np.divide(1.0, np.zeros(1))

    with np.errstate(divide="raise"):
        with pytest.raises(FloatingPointError):
            coarse_grain._on_every_cpu([divide, divide])
        with pytest.raises(FloatingPointError):
            coarse_grain._on_every_cpu([lambda: None, divide])
    with np.errstate(divide="ignore"):
        assert [s[0] for s in coarse_grain._on_every_cpu([divide] * 3)] == [np.inf] * 3


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_runs_split_passes():
    # the kept workers are threads of the parent alone; the child starts its own
    script = _SPLIT_PASS + """
import sys, time
want = split_pass()
assert coarse_grain._workers
pid = os.fork()
if pid == 0:
    os._exit(0 if split_pass() == want else 1)
deadline = time.monotonic() + 20
while time.monotonic() < deadline:
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        sys.exit(os.waitstatus_to_exitcode(status))
    time.sleep(0.01)
os.kill(pid, 9)
os.waitpid(pid, 0)
sys.exit("the forked child hung")
"""
    run = _run_script(script, 0, 1)
    assert run.returncode == 0, run.stderr


def test_no_thread_starts_at_import_or_for_small_passes():
    # four CPUs seen: the warm-up eval's passes are below the split threshold,
    # and the first pass above it starts one worker per extra CPU
    script = _SPLIT_PASS + """
import threading
from entrobell.cli import main
assert threading.active_count() == 1
assert main(["eval", "--r", "0.5", "--delta", "0.5", "--Delta", "0.5", "--mutual-info",
             "--format", "json"]) == 0
assert threading.active_count() == 1
split_pass()
assert threading.active_count() == 4
"""
    run = _run_script(script, 0, 1, 2, 3)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("delta, points", _MIXED_BATCHES)
def test_panel_plan_counts_its_slab_elements(monkeypatch, delta, points):
    # the plan states its ndtr evaluations before any is made: every z the
    # kernel hands to _normal_slabs, summed, at the default block size and at
    # one row per block
    plans, elements = [], []
    plan, slabs = coarse_grain._panel_plan, coarse_grain._normal_slabs
    monkeypatch.setattr(coarse_grain, "_panel_plan", lambda jobs: plans.append(plan(jobs))
                        or plans[-1])
    monkeypatch.setattr(coarse_grain, "_normal_slabs",
                        lambda z: elements.append(z.size) or slabs(z))
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in points]
    for block_elements in (coarse_grain._BLOCK_ELEMENTS, 1):
        monkeypatch.setattr(coarse_grain, "_BLOCK_ELEMENTS", block_elements)
        plans.clear()
        elements.clear()
        coarse_grain._binned_joints(points, coarse_grain._grids(points, delta, 1e-12))
        (only,) = plans
        assert sum(elements) == only.slab_elements > 0
        assert len(elements) == len(only.blocks) - 1
        assert only.nbytes == sum(getattr(only, name).nbytes for name in (
            "edges", "row", "cell", "counts", "rho", "sigma_c", "cosh_2r", "panel_start",
            "panel_half", "blocks", "block_pairs"))


def _own_band_edges(c, grid, l):
    """Band edges of wedge row l, from the module docstring alone.

    The band runs from the last grid edge at or below K sigma_c under the
    conditional means rho a of the window's uniform nodes to the first at or
    above K sigma_c over them, within the row's wedge edges.
    """
    delta, cut = grid.delta, max(9.0, coarse_grain._coverage_multiple(grid.tail_epsilon))
    rho, sc, sa = c.correlation, c.sigma_conditional, math.sqrt(0.5 * math.cosh(2.0 * c.r))
    lo = max((l - 0.5) * delta, -cut * sa)
    width = max(min((l + 0.5) * delta, cut * sa) - lo, 0.0)
    slab = 8.0 * sc / abs(rho) if rho else math.inf
    n_panels = math.ceil(4.0 * delta / min(math.sqrt(0.5 / (c.v_minus_w * c.v_plus_w / c.v)),
                                           slab))
    count = max(min(n_panels, math.ceil(width * n_panels / delta)), 1)
    x = np.polynomial.legendre.leggauss(16)[0]
    ends = rho * (lo + width / count * np.array([0.5 * (x[0] + 1.0), count - 0.5 * (1.0 - x[-1])]))
    e = grid.edges() / sc
    first = np.searchsorted(e, ends.min() / sc - cut, side="right") - 1
    last = np.searchsorted(e, ends.max() / sc + cut)
    j0, j1 = l + grid.l_max, grid.l_max - l + 1
    first, last = max(min(first, j1), j0), min(max(last, j0), j1)
    return last - first + 1 if last > first else 0


def _mixed_batch(delta, points):
    points = [(TmsvParams(r), phi_sum) for r, phi_sum in points]
    return lambda: coarse_grain._binned_joints(points, coarse_grain._grids(points, delta, 1e-12))


@pytest.mark.parametrize("run", [
    *(_mixed_batch(delta, points) for delta, points in _MIXED_BATCHES),
    lambda: scan(np.linspace(0.15, 1.75, 5), np.linspace(0.1, 1.3, 4), 1.5),
], ids=[*(f"Delta={delta:g}" for delta, _ in _MIXED_BATCHES), "scan"])
def test_kernel_evaluates_only_each_rows_own_band_edges(monkeypatch, run):
    # no z handed to _normal_slabs repeats an edge, and each pass's ndtr
    # count is the sum over its wedge rows of 16 x panels x own band edges
    passes, zs = [], []
    plan, slabs = coarse_grain._panel_plan, coarse_grain._normal_slabs
    monkeypatch.setattr(coarse_grain, "_panel_plan",
                        lambda jobs: passes.append((jobs, plan(jobs))) or passes[-1][1])
    monkeypatch.setattr(coarse_grain, "_normal_slabs", lambda z: zs.append(z.copy()) or slabs(z))
    run()
    assert passes and zs
    for z in zs:  # consecutive edges along the edge axis differ at some node
        assert not (np.diff(z, axis=-2) == 0.0).all(axis=-1).any()
    for jobs, batch in passes:
        expected = 0
        for c, grid, windows in jobs:
            for l in windows:
                panels = plan([(c, grid, [l])]).counts.sum()
                expected += coarse_grain._PANEL_ORDER * panels * _own_band_edges(c, grid, l)
        assert batch.slab_elements == expected


def _kernel_panels(monkeypatch, r, phi_sum, delta):
    """(start, width) of each panel of the one wedge row of a one-bin joint.

    Read from the nodes the kernel hands to the density: each panel's nodes
    are start + width (x + 1) / 2 for the Gauss-Legendre abscissae x.
    """
    seen = []
    density = coarse_grain._marginal_density
    with monkeypatch.context() as m:
        m.setattr(coarse_grain, "_marginal_density",
                  lambda nodes, c2r: seen.append(nodes) or density(nodes, c2r))
        assert binned_joint(TmsvParams(r), phi_sum, delta).grid.n_bins == 1
    (nodes,) = seen
    x1 = np.polynomial.legendre.leggauss(16)[0] + 1.0
    half = (nodes[0, :, -1] - nodes[0, :, 0]) / (x1[-1] - x1[0])
    return nodes[0, :, 0] - half * x1[0], 2.0 * half


def test_panel_count_follows_the_integrand(monkeypatch):
    # uniform panels are at most min(sigma_a, 8 sigma_c/|rho|)/4 wide, whatever
    # Delta; edge-adapted rows keep that width near their crossings only
    def n_panels(r, phi_sum, delta):
        c = coefficients(TmsvParams(r), PhaseSettings(0.0, phi_sum))
        return coarse_grain._panel_counts(delta, [c])[0][0]

    assert n_panels(0.6, 0.5, 0.3) == 2
    assert n_panels(1.0, 0.05, 0.2) == 1
    assert n_panels(0.0, 0.0, 50.0) == 283
    assert n_panels(2.0, 0.01, 100.0) == 357
    cut = max(9.0, coarse_grain._coverage_multiple(1e-12))
    # (2, 0.01, 60) and (1.5, 0.02, 36): the crossings a = +-Delta / (2 rho)
    # lie just past the row's ends, within K sigma_c/|rho| of them;
    # (2, 0.01, 100): far beyond, so sigma_a/4 panels throughout (238 -> 72);
    # (2, 0.3, 100) and (0, 0, 50): sigma_a sets the panel width, and the
    # row keeps its uniform panels.
    for r, phi_sum, delta, adapted in [
            (2.0, 0.01, 60.0, True), (1.5, 0.02, 36.0, True), (2.0, 0.01, 100.0, True),
            (2.0, 0.3, 100.0, False), (0.0, 0.0, 50.0, False)]:
        state = TmsvParams(r)
        c = coefficients(state, PhaseSettings(0.0, phi_sum))
        width_cap = delta / n_panels(r, phi_sum, delta)
        # the one window [-Delta/2, Delta/2], clipped to +-K sigma_a
        end = min(0.5 * delta, cut * state.marginal_sigma)
        uniform = math.ceil(2.0 * end / width_cap)
        start, width = _kernel_panels(monkeypatch, r, phi_sum, delta)
        # the panels tile the clipped window in order
        np.testing.assert_allclose(start[0], -end, rtol=0, atol=1e-12 * end)
        np.testing.assert_allclose(start[1:], (start + width)[:-1], rtol=0, atol=1e-12 * end)
        np.testing.assert_allclose(start[-1] + width[-1], end, rtol=0, atol=1e-12 * end)
        if not adapted:
            assert len(width) == uniform
            assert np.ptp(width) <= 1e-12 * width[0]
            continue
        assert len(width) < uniform
        # no wider than the uniform panels within K sigma_c/|rho| of a
        # crossing of the band edges +-Delta/2, and sigma_a/4 elsewhere
        zone = cut * c.sigma_conditional / abs(c.correlation)
        crossings = np.array([-0.5 * delta, 0.5 * delta]) / c.correlation
        near = np.min(np.abs((start + 0.5 * width)[:, None] - crossings), axis=1) < zone
        assert near.any() == (delta < 100.0)
        assert np.all(width[near] <= width_cap * (1.0 + 1e-12))
        assert np.all(width[~near] <= 0.25 * state.marginal_sigma * (1.0 + 1e-12))
        assert width[~near].max() > width_cap


# The wide-bin ridge, where edge-adapted panels replace uniform ones: every cell
# within 1e-10 of the rectangle route, on 1x1, 3x3 and larger grids.
@pytest.mark.parametrize("delta", [3.0, 6.0, 30.0, 100.0])
def test_adapted_panels_agree_with_the_rectangle_route_on_the_ridge(delta):
    sizes = set()
    for r in (0.0, 0.5, 1.0, 2.0, 3.0, 4.0):
        state = TmsvParams(r)
        for phi_sum in (0.0, 1e-3, 0.01, 0.05, math.pi / 2):
            p = binned_joint(state, phi_sum, delta)
            q = binned_joint(state, phi_sum, delta, method=RECTANGLE_CDF)
            assert np.max(np.abs(p.probs - q.probs)) < 1e-10, (r, phi_sum)
            assert abs(p.captured_mass - 1.0) < 1e-10
            marg = binned_marginal(state, p.grid).probs
            assert np.max(np.abs(p.marginal_a() - marg)) < 1e-12, (r, phi_sum)
            sizes.add(p.grid.n_bins)
    if delta >= 30.0:
        assert {1, 3} <= sizes


# Recorded before edge-adapted panels: rows that gain nothing keep their
# uniform nodes bit for bit.  So do every r = 0 row and the headline joints,
# and the rows of (1.5, 0.05, 6), where the slab edge sets the uniform width
# but adapted panels would need more slab elements.
@pytest.mark.parametrize("r, phi_sum, delta, sha256, mass", [
    (1.5, 0.05, 6.0,
     "5ec1ac4981465a3473bc6c4395bf7b56012d4a155b40c536e2cdf75eb26403bf", "0x1.0000000000000p+0"),
    (0.0, 0.0, 6.0,
     "56e6421d1552f1cc547be7e31c085e4e00297cb326e3da67de552294e175b850", "0x1.0000000000002p+0"),
    (0.0, 0.0, 100.0,
     "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712", "0x1.0000000000000p+0"),
    (1.817, 0.213 * math.pi / 3.0, 6.0,
     "ddbf52db40f3df633c5306ed35bc87649b2117b9ad81969c6cfa2944643a3050", "0x1.ffffffffffffep-1"),
    (1.817, 0.213 * math.pi, 6.0,
     "a9d5456ec7cc06a7da8b3be82108307ab1342beb631b425fb9d813a621c24720", "0x1.0000000000000p+0"),
])
def test_uniform_joints_are_pinned(r, phi_sum, delta, sha256, mass):
    joint = binned_joint(TmsvParams(r), phi_sum, delta)
    assert hashlib.sha256(joint.probs.tobytes()).hexdigest() == sha256
    assert joint.captured_mass.hex() == mass


# Recorded while an adapted row still took its band over its whole a-interval:
# every row of these joints takes edge-adapted panels (1 of 1, 49 of 49 and 360
# of 360 rows), and sharing the uniform rows' band keeps their bits.  The first
# three are test_panel_count_follows_the_integrand's, then the eval-fine ridge
# pair joints at r = 3 and a large-r joint at phi_sum = 0.
@pytest.mark.parametrize("r, phi_sum, delta, sha256, mass", [
    (2.0, 0.01, 60.0,
     "abf755af694c2db1f96dcd3d0fb206710ddcc0fb34403c36e6c81508a66e181e", "0x1.ffffffffffff7p-1"),
    (1.5, 0.02, 36.0,
     "be0bdd761e59062d807b4efac34fbfef4b552a99019a3a2288d718d00a128a14", "0x1.ffffffffffff2p-1"),
    (2.0, 0.01, 100.0,
     "86a1df26e123ded0411c700bbd64622f89b4b3e2f8676a7b38c3e9f4517bc0a0", "0x1.ffffffffffffep-1"),
    (3.0, 1e-3, 1.5,
     "f405a0fd877bfe24002e72456d37ab85134c812477b6b8167622cc32aa808129", "0x1.ffffffffff069p-1"),
    (3.0, 3e-3, 1.5,
     "152585b3ec0bab7002b027675f206540c1325e53b323cb762f2a4f405afa8373", "0x1.ffffffffff067p-1"),
    (8.0, 0.0, 30.0,
     "282f00f41235f0f7e3c411623914c3c59468394f7760732322d74473d411b3a1", "0x1.fffffffffef8dp-1"),
])
def test_adapted_joints_are_pinned(r, phi_sum, delta, sha256, mass):
    joint = binned_joint(TmsvParams(r), phi_sum, delta)
    assert hashlib.sha256(joint.probs.tobytes()).hexdigest() == sha256
    assert joint.captured_mass.hex() == mass


@given(ph=_phi, delta=_delta)
def test_joint_at_zero_squeezing_is_bitwise_independent_of_the_phase_sum(ph, delta):
    # at r = 0 the coefficients carry no phi_sum dependence, so one joint
    # serves every phase sum
    state = TmsvParams(0.0)
    joint, reference = binned_joint(state, ph, delta), binned_joint(state, 0.0, delta)
    assert joint.probs.tobytes() == reference.probs.tobytes()
    assert joint.captured_mass == reference.captured_mass


def test_joint_matrix_reflection():
    # phi_sum -> pi - phi_sum negates the correlation, flipping one axis
    state = TmsvParams(1.2)
    x = 0.35
    direct = binned_joint(state, x, 1.5)
    mirror = binned_joint(state, math.pi - x, 1.5)
    assert np.allclose(mirror.probs, np.flip(direct.probs, axis=1),
                       rtol=0, atol=1e-14)


@given(r=st.floats(min_value=0.0, max_value=5.0, allow_nan=False), ph=_phi,
       width=st.floats(min_value=0.2, max_value=3.0, allow_nan=False))
def test_joint_is_bitwise_even_in_the_phase_sum(r, ph, width):
    # coefficients reads phi_sum through cos, sin^2 and the half-angle
    # squares only, so -phi_sum gives the same bits; Delta is a multiple of
    # sigma_a, which keeps the grid small up to r = 5
    state = TmsvParams(r)
    plus, minus = (coefficients(state, PhaseSettings(0.0, s)) for s in (ph, -ph))
    assert minus.phi_sum == -ph
    assert ({k: v.hex() for k, v in vars(minus).items() if k != "phi_sum"}
            == {k: v.hex() for k, v in vars(plus).items() if k != "phi_sum"})
    delta = width * state.marginal_sigma
    joint_plus, joint_minus = (binned_joint(state, s, delta) for s in (ph, -ph))
    assert joint_minus.probs.tobytes() == joint_plus.probs.tobytes()
    assert joint_minus.captured_mass == joint_plus.captured_mass


def test_joint_factorizes_at_zero_squeezing():
    state = TmsvParams(0.0)
    grid = make_grid(state, 1.0)
    joint = binned_joint(state, 0.7, 1.0)
    marg = binned_marginal(state, grid).probs
    assert np.allclose(joint.probs, np.outer(marg, marg), rtol=0, atol=1e-12)


def test_marginal_consistency():
    state = TmsvParams(1.817)
    grid = make_grid(state, 6.0)
    joint = binned_joint(state, 0.669, 6.0)
    direct = binned_marginal(state, grid).probs
    assert np.max(np.abs(joint.marginal_a() - direct)) < 1e-9
    assert np.max(np.abs(joint.marginal_b() - direct)) < 1e-9


def test_captured_mass_monotone_in_grid_size():
    state = TmsvParams(1.5)
    masses = []
    sizes = []
    for eps in (1e-6, 1e-9, 1e-12):
        d = binned_joint(state, 0.4, 1.0, tail_epsilon=eps)
        masses.append(d.captured_mass)
        sizes.append(d.grid.l_max)
        assert d.captured_mass >= 1.0 - 2.0 * eps
        assert d.captured_mass <= 1.0 + 1e-10
    assert sizes == sorted(sizes)
    assert masses == sorted(masses)


def test_joint_deterministic():
    state = TmsvParams(2.0)
    one = binned_joint(state, 1.1, 2.0)
    two = binned_joint(state, 1.1, 2.0)
    assert np.array_equal(one.probs, two.probs)
    assert one.captured_mass == two.captured_mass


# (3, 1e-3, 1.5): the b-band of each row is a few of 97 windows; (0.5, 0.2, 50)
# and (2, 0.1, 50): the single or outer windows reach far beyond K sigma_a;
# (0.6, 0.5, 0.3) and (1, 0.05, 0.2): windows narrower than sigma_a take 2 and
# 1 panels.
@pytest.mark.parametrize("r, phi_sum, delta", [
    (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5), (0.5, 0.2, 50.0), (2.0, 0.1, 50.0),
    (0.6, 0.5, 0.3), (1.0, 0.05, 0.2),
])
def test_joint_methods_agree_matrixwise(r, phi_sum, delta):
    state = TmsvParams(r)
    p = binned_joint(state, phi_sum, delta, method=PANEL_QUADRATURE)
    q = binned_joint(state, phi_sum, delta, method=RECTANGLE_CDF)
    assert np.max(np.abs(p.probs - q.probs)) < 1e-10
    assert p.method == PANEL_QUADRATURE
    assert q.method == RECTANGLE_CDF
    marg = binned_marginal(state, p.grid).probs
    assert np.max(np.abs(p.marginal_a() - marg)) < 1e-12


# On the ridge the rectangle route takes 1 - |rho| from v - w, not from the
# rounded correlation: at (6, 0, 10) and (8, 0, 30) the gaps were 3.5e-12 and
# 1.8e-10 when bvn_upper formed 1 - rho^2 from w / v.
@pytest.mark.parametrize("r, delta", [(6.0, 10.0), (8.0, 30.0)])
def test_rectangle_route_takes_exact_one_minus_rho_on_the_ridge(r, delta):
    state = TmsvParams(r)
    p = binned_joint(state, 0.0, delta)
    q = binned_joint(state, 0.0, delta, method=RECTANGLE_CDF)
    assert np.max(np.abs(p.probs - q.probs)) <= 1e-14
    # and the single rectangle cell, on the ridge's diagonal halfway out
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    l, i = -(p.grid.l_max // 2), p.grid.l_max - p.grid.l_max // 2
    assert abs(bin_prob_2d(c, p.grid, l, l, method=RECTANGLE_CDF) - p.probs[i, i]) <= 1e-14


# correlations 0.19, 0.73, 0.85, -0.91 and 0.994: each |rho| branch of bvn_upper
@pytest.mark.parametrize("r, phi_sum, delta", [
    (0.1, 0.3, 0.5), (0.6, 0.5, 0.3), (1.0, 0.5, 2.0), (1.0, 2.8, 2.0), (2.0, 0.1, 3.0),
])
def test_rectangle_lattice_is_the_per_cell_rectangle(r, phi_sum, delta):
    # the reference is the per-cell loop: one bvn_rectangle per cell
    state = TmsvParams(r)
    joint = binned_joint(state, phi_sum, delta, method=RECTANGLE_CDF)
    c = coefficients(state, PhaseSettings(0.0, phi_sum))
    lm = joint.grid.l_max
    cells = np.array([[bin_prob_2d(c, joint.grid, l, m, method=RECTANGLE_CDF)
                       for m in range(-lm, lm + 1)] for l in range(-lm, lm + 1)])
    assert np.max(np.abs(joint.probs - cells)) <= 1e-15
    assert joint.captured_mass == math.fsum(joint.probs.ravel().tolist())


def test_rectangle_lattice_takes_one_bvn_upper_call_per_row(monkeypatch):
    # each call holds one lattice row, never the whole (N+1)^2 lattice
    calls = []
    bvn = coarse_grain._bvn_upper

    def spy(h, k, rho, one_minus_abs_rho):
        calls.append((np.size(h), np.size(k)))
        return bvn(h, k, rho, one_minus_abs_rho)

    monkeypatch.setattr(coarse_grain, "_bvn_upper", spy)
    joint = binned_joint(TmsvParams(1.0), 0.05, 0.2, method=RECTANGLE_CDF)
    n_edges = joint.grid.n_bins + 1
    assert calls == [(1, n_edges)] * n_edges


@pytest.mark.parametrize("r, phi_sum, delta", [
    (1.0, 0.5, 2.0), (3.0, 1e-3, 1.5), (0.5, 0.2, 50.0), (2.0, 0.1, 50.0),
    (0.6, 0.5, 0.3), (1.0, 0.05, 0.2),
])
def test_captured_mass_is_the_full_fsum(r, phi_sum, delta):
    # on both routes and for the marginal, the mass is the correctly rounded
    # sum over every entry
    state = TmsvParams(r)
    for dist in (binned_joint(state, phi_sum, delta),
                 binned_joint(state, phi_sum, delta, method=RECTANGLE_CDF),
                 binned_marginal(state, make_grid(state, delta))):
        assert dist.captured_mass == math.fsum(dist.probs.ravel().tolist())


@pytest.mark.parametrize("r, phi_sum, delta", [(3.0, 1e-3, 1.5), (2.0, 0.1, 50.0)])
def test_bin_prob_2d_is_the_binned_joint_entry(r, phi_sum, delta):
    state = TmsvParams(r)
    joint = binned_joint(state, phi_sum, delta)
    c = coefficients(state, PhaseSettings(0.0, phi_sum))
    lm = joint.grid.l_max
    # the centre, the outermost windows and their neighbours
    idx = sorted({i for i in (-lm, 1 - lm, -2, -1, 0, 1, 2, lm - 1, lm) if abs(i) <= lm})
    maps = {"identity": lambda l, m: (l, m), "swap": lambda l, m: (m, l),
            "flip": lambda l, m: (-l, -m), "swap-flip": lambda l, m: (-m, -l)}
    used = set()
    for l in idx:
        for m in idx:
            # the first of the four maps that takes (l, m) into the wedge l <= -|m|
            used.add(next(name for name, f in maps.items()
                          if f(l, m)[0] <= -abs(f(l, m)[1])))
            assert bin_prob_2d(c, joint.grid, l, m, method=PANEL_QUADRATURE) \
                == joint.probs[l + lm, m + lm]
    assert used == set(maps)


def test_bin_prob_2d_is_the_binned_joint_entry_on_long_rows():
    # 43680 nodes per row, more than numpy's buffer: the contraction is
    # chunked so that a one-row call sums exactly as the joint's block does
    state = TmsvParams(4.0)
    joint = binned_joint(state, 0.0, 100.0)
    c = coefficients(state, PhaseSettings(0.0, 0.0))
    lm = joint.grid.l_max
    for l in range(-lm, lm + 1):
        for m in range(-lm, lm + 1):
            assert bin_prob_2d(c, joint.grid, l, m) == joint.probs[l + lm, m + lm]


def test_windows_beyond_the_cut_are_zero():
    # a hand-built grid reaching 15 sigma: windows past 9 sigma carry no mass
    state = TmsvParams(0.0)
    grid = CoarseGrid(delta=1.0, l_max=10, tail_epsilon=1e-12)
    c = coefficients(state, PhaseSettings(0.0, 0.3))
    assert bin_prob_2d(c, grid, 7, 0) == 0.0
    assert bin_prob_2d(c, grid, -7, 0) == 0.0
    assert bin_prob_2d(c, grid, 6, 0) > 0.0


def test_to_csv_round_trip():
    d = binned_joint(TmsvParams(1.0), 0.0, 4.0)
    buf = io.StringIO()
    d.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "l,m,p"
    assert len(lines) == 1 + d.grid.n_bins ** 2
    total = sum(float(row.split(",")[2]) for row in lines[1:])
    assert total == pytest.approx(d.captured_mass, abs=1e-12)


# -- bivariate normal building block -----------------------------------------

def test_bvn_zero_correlation_factorizes():
    # P(X > h, Y > k) = Q(h) Q(k) when independent
    for h, k in [(0.0, 0.0), (1.0, -0.5), (2.5, 2.5)]:
        q = 0.5 * special.erfc(np.array([h, k]) / math.sqrt(2.0))
        assert bvn_upper(h, k, 0.0) == pytest.approx(q[0] * q[1], rel=1e-13)


def test_bvn_high_correlation_limits():
    def q(x):
        return 0.5 * math.erfc(x / math.sqrt(2.0))

    # rho -> 1: P(X > h, Y > k) -> Q(max(h, k))
    assert bvn_upper(0.3, 1.1, 0.9999999) == pytest.approx(q(1.1), rel=1e-5)
    # rho -> -1: P(X > h, Y > k) -> max(0, Q(h) - Phi(k))
    assert bvn_upper(-0.4, 0.2, -0.9999999) == pytest.approx(
        q(-0.4) - (1.0 - q(0.2)), rel=1e-5)


def test_bvn_rectangle_consistency():
    # rectangle assembled from four orthant calls must match a 1D special
    # case: y-slab over the whole x line is a difference of normal CDFs
    val = bvn_rectangle(-30.0, 30.0, -0.7, 1.2, 0.6)
    expected = 0.5 * (special.erf(1.2 / math.sqrt(2.0))
                      - special.erf(-0.7 / math.sqrt(2.0)))
    assert val == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("rho", [0.0, 0.3, -0.95, 1.0 - 1e-12, 1.0, -1.0])
def test_bvn_upper_takes_infinite_bounds(rho):
    # an infinite bound is the limit of a finite one: a half-infinite rectangle
    assert abs(bvn_upper(math.inf, 1.2, rho)) <= 2e-16
    assert abs(bvn_upper(-math.inf, 1.2, rho) - special.ndtr(-1.2)) <= 2e-16
    assert abs(bvn_upper(1.2, -math.inf, rho) - special.ndtr(-1.2)) <= 2e-16
    assert abs(bvn_rectangle(-math.inf, math.inf, -0.7, 1.2, rho)
               - (special.ndtr(1.2) - special.ndtr(-0.7))) <= 2e-16


@given(rho=st.floats(min_value=-0.99, max_value=0.99),
       h=st.floats(min_value=-3.0, max_value=3.0),
       k=st.floats(min_value=-3.0, max_value=3.0))
def test_bvn_upper_in_unit_interval(rho, h, k):
    p = bvn_upper(h, k, rho)
    assert -1e-15 <= p <= 1.0 + 1e-15


# The scalar bvn_upper as it was before it took arrays, one row per
# (h, k, rho, value): rho = 0; |rho| in (0, 0.3), [0.3, 0.75), [0.75, 0.925)
# and [0.925, 1) of both signs; rho = +-1; rho < 0 with k > h after the
# reflection k -> -k (the (0.3, -1.0) rows); and the cut-offs of the
# high-|rho| branch, asr <= -100 at (-1, 2, 0.99) and -hk >= 100 at
# (-8, 14, 0.95) and (-8, 14, 0.99).
BVN_UPPER_TABLE = [
    (0.3, -1.2, 0.0, 0.33812177116684866),
    (2.5, 2.5, 0.0, 3.85599434581464e-05),
    (0.3, -1.2, 0.2, 0.3523510967197211),
    (6.0, 5.5, 0.2, 6.59561139658863e-15),
    (-28.0, 27.0, 0.2, 7.389481006884598e-161),
    (0.3, -1.2, -0.15, 0.3267273280622332),
    (6.0, 5.5, -0.15, 4.0785707905857696e-20),
    (-28.0, 27.0, -0.15, 7.389481006884598e-161),
    (0.3, -1.2, 0.5, 0.37066552372507894),
    (-3.0, -2.5, 0.5, 0.9926611999368546),
    (6.0, 5.5, 0.5, 2.66115110925571e-12),
    (0.3, -1.2, -0.6, 0.289798957366258),
    (-3.0, -2.5, -0.6, 0.9924404366656291),
    (6.0, 5.5, -0.6, 2.4470095501406464e-28),
    (0.3, -1.2, 0.8, 0.38139004670320836),
    (1.5, -0.5, 0.8, 0.06675815805375816),
    (-28.0, 27.0, 0.8, 7.389481006884598e-161),
    (0.3, -1.2, -0.9, 0.2681342584721594),
    (1.5, -0.5, -0.9, 0.00047678890267581486),
    (-28.0, 27.0, -0.9, 7.389481006884598e-161),
    (0.0, 1.0, 0.95, 0.1586313507705918),
    (1.5, -0.5, 0.95, 0.06680720126670328),
    (-8.0, 14.0, 0.95, 7.7935368191928e-45),
    (-28.0, 27.0, 0.95, 7.389481006884598e-161),
    (-1.0, 2.0, 0.99, 0.022750131948179195),
    (0.0, 1.0, 0.99, 0.15865525393145186),
    (-8.0, 14.0, 0.99, 7.7935368191928e-45),
    (0.3, -1.0, -0.97, 0.22348303756888105),
    (0.3, 1.1, -0.97, 8.220392017193788e-11),
    (-8.0, 14.0, -0.97, -7.3504327096541694e-155),
    (0.3, -1.0, -0.95, 0.2239162906565349),
    (-0.4, 0.2, -0.95, 0.09557387597737087),
    (6.0, 5.5, -0.95, -3.1345326212394094e-285),
    (0.3, 1.1, 1.0, 0.13566606094638267),
    (-0.4, 0.2, 1.0, 0.42074029056089696),
    (0.3, -1.0, -1.0, 0.22343332387959036),
    (0.3, 1.1, -1.0, -0.0),
    (-0.4, 0.2, -1.0, 0.07616203217122114),
    (0.3, 1.1, 0.9999999, 0.13566606094638267),
    (-0.4, 0.2, -0.9999999, 0.07616203217122114),
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bvn_upper_on_arrays_matches_the_scalar_table():
    table = np.array(BVN_UPPER_TABLE)
    for rho in np.unique(table[:, 2]):
        h, k, _, want = table[table[:, 2] == rho].T
        got = bvn_upper(h, k, float(rho))
        assert got.shape == h.shape
        assert np.max(np.abs(got - want)) <= 2e-16
        for one_h, one_k, one_want in zip(h, k, want):
            one = bvn_upper(float(one_h), float(one_k), float(rho))
            assert type(one) is float
            assert abs(one - one_want) <= 2e-16


@functools.lru_cache(maxsize=None)  # 0.0 and -0.0 are one key: the orthant is the same
def _mp_bvn_upper(h, k, rho):
    """P(X > h, Y > k) to 40 digits: int_h^inf phi(x) Phi(-(k - rho x) / sqrt(1 - rho^2)) dx."""
    with mp.workdps(40):
        h, k, rho = mp.mpf(h), mp.mpf(k), mp.mpf(rho)
        if rho == 1:
            return mp.ncdf(-max(h, k))
        if rho == -1:
            return max(mp.mpf(0), mp.ncdf(-k) - mp.ncdf(h))
        s = mp.sqrt((1 - rho) * (1 + rho))
        # the inner tail steps from 0 to 1 about x = k / rho: split there
        points = [h, k / rho, mp.inf] if rho != 0 and k / rho > h else [h, mp.inf]
        return mp.quad(lambda x: mp.npdf(x) * mp.ncdf((rho * x - k) / s), points)


# The inputs that Owen's identity writes out by hand: a zero h or k of
# either sign (a signed infinite a, and the sign-bit beta), both zero (the
# closed form), subnormals alone and in pairs (a from the scaled pair), and
# h, k a hair apart; at each sign of rho, near and at |rho| = 1.
_OWEN_EDGE_PAIRS = (
    [(h, k) for h in (0.0, -0.0) for k in (1.2, -1.2)]
    + [(k, h) for h in (0.0, -0.0) for k in (1.2, -1.2)]
    + [(h, k) for h in (0.0, -0.0) for k in (0.0, -0.0)]
    + [(5e-324, 1.2), (-1.2, 5e-324), (-5e-324, 0.0), (5e-324, -5e-324), (2.0, 2.0 + 1e-9)]
)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rho", [0.3, -0.3, 0.95, -0.95, 1.0 - 1e-12, -(1.0 - 1e-12), 1.0, -1.0])
def test_bvn_upper_matches_the_mpmath_orthant_on_owens_edge_cases(rho):
    for h, k in _OWEN_EDGE_PAIRS:
        assert abs(bvn_upper(h, k, rho) - float(_mp_bvn_upper(h, k, rho))) <= 2e-16, (h, k)
