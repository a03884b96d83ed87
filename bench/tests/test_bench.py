"""Tests of the benchmark's own code: request streams, checks, statistics, tracer.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import math

import pytest

import calibrate
import compare
import run
import stats
from tracer import Tracer
from workloads import WORKLOADS, WrongOutput, check_output

REFERENCE = json.loads((run.BENCH / "reference.json").read_text())


def _first(workload, seed, cycles=3):
    return [req.argv for cycle in itertools.islice(workload.stream(seed), cycles)
            for req in cycle]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_the_requests(name):
    w = WORKLOADS[name]
    assert _first(w, 7) == _first(w, 7)
    assert _first(w, 7) != _first(w, 8)


@pytest.mark.parametrize("name", ["minimize", "eval-fine", "sample"])
def test_every_request_has_a_recorded_output(name):
    w = WORKLOADS[name]
    made = {" ".join(argv) for seed in range(20) for argv in _first(w, seed, cycles=5)}
    assert made <= set(REFERENCE["requests"])
    assert {" ".join(r.argv) for r in w.pool()} <= set(REFERENCE["requests"])


def test_cycles_keep_their_mix():
    # Every scan cycle visits the nine row offsets once; minimize every box
    # once with each coarse-point count and each refine-start count.
    for seed in range(5):
        cycle = next(WORKLOADS["scan"].stream(seed))
        assert sorted(float(req.argv[4]) for req in cycle) == \
            sorted(o * 0.05 for o in range(9))
        cycle = next(WORKLOADS["minimize"].stream(seed))
        boxes = [3.5, 6.0, 30.0, 50.0, 100.0]
        assert sorted((float(req.argv[2]), req.argv[7]) for req in cycle) == \
            [(b, c) for b in boxes for c in ("6", "7", "8")]
        assert sorted((float(req.argv[2]), req.argv[9]) for req in cycle) == \
            [(b, s) for b in boxes for s in ("1", "2", "3")]


def test_tail_percentile_rule():
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(1000) == 90
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(30) == 66
    assert stats.tail_percentile(20) == 50
    with pytest.raises(ValueError):
        stats.tail_percentile(19)
    for n in range(20, 300):
        values = list(range(n))
        cut = stats.percentile(values, stats.tail_percentile(n))
        assert sum(v > cut for v in values) >= stats.TAIL_SAMPLES


def test_percentile_interpolates_like_numpy():
    np = pytest.importorskip("numpy")
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for q in (0, 10, 50, 66, 90, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_rescale_by_the_kernel_around_each_segment():
    ref = calibrate.REFERENCE_S
    # At half speed both the request and the kernel take twice as long.
    assert calibrate.rescale([1.0, 2.0, 3.0], [0, 0, 1], [ref, ref, 3 * ref]) == \
        pytest.approx([1.0, 2.0, 1.5])
    assert calibrate.rescale([2.0], [0], [2 * ref, 2 * ref]) == pytest.approx([1.0])
    with pytest.raises(ValueError):
        calibrate.rescale([1.0], [1], [ref, ref])


def test_eval_fine_percentiles_fall_among_the_fine_points():
    # The ridge point, the slowest request shape, is a quarter of each cycle:
    # req_p50_ms and req_tail_ms both time the fine grids, for every whole
    # number of cycles a run can measure.
    w = WORKLOADS["eval-fine"]
    cycle = next(w.stream(0))
    n_ridge = sum(req.argv[2] == "3" for req in cycle)
    tail = stats.tail_percentile(w.min_requests)
    for cycles in range(w.min_requests // len(cycle), 200):
        # 0 for a fine request, 1 for a ridge request, sorted as latencies would be.
        shapes = [0] * (cycles * (len(cycle) - n_ridge)) + [1] * (cycles * n_ridge)
        assert stats.percentile(shapes, 50) == 0
        assert stats.percentile(shapes, tail) == 0


PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


@pytest.mark.parametrize("change, better, bound, expected", [
    ([x * 0.8 for x in PARENT], "lower", 0.1, "improved"),
    ([x * 1.2 for x in PARENT], "higher", 0.1, "improved"),
    ([x * 1.3 for x in PARENT], "lower", 0.1, "worse"),
    ([x * 1.05 for x in PARENT], "lower", 0.1, "unchanged"),
    (list(reversed(PARENT)), "lower", 0.1, "unchanged"),
    # Nine wins of ten still improve; eight do not.
    ([x * 0.8 for x in PARENT[:9]] + [PARENT[9] * 1.01], "lower", 0.1, "improved"),
    ([x * 0.8 for x in PARENT[:8]] + [x * 1.01 for x in PARENT[8:]], "lower", 0.1,
     "unchanged"),
    # Per-layer metrics have no bound: the winning rule decides both ways.
    ([x * 1.3 for x in PARENT], "lower", None, "worse"),
    ([x * 0.7 for x in PARENT], "lower", None, "improved"),
    ([x + 0.05 for x in PARENT], "lower", None, "unchanged"),
])
def test_verdicts(change, better, bound, expected):
    assert stats.verdict(PARENT, change, better, bound) == expected


def test_wide_parent_spread_is_unresolved():
    noisy = [100.0, 140.0, 70.0, 120.0, 90.0, 130.0, 80.0, 110.0, 95.0, 125.0]
    assert stats.verdict(noisy, [x * 1.05 for x in noisy], "lower", 0.1) == "unresolved"
    assert stats.verdict(noisy, [60.0] * 10, "lower", 0.1) == "improved"
    # Every change run better, but by less than the parent's spread: not a gain.
    assert stats.verdict(noisy, [69.0] * 10, "lower", 0.1) == "unchanged"


def _records(values, seeds=None, seconds=15, errors=None):
    seeds = seeds or list(range(len(values)))
    errors = errors or [0] * len(values)
    return {("scan", False): [
        {"workload": "scan", "trace": 0, "seed": seed, "seconds": seconds,
         "errors": ["wrong"] * err, "metrics": {"req_p50_ms": {"value": v}}}
        for v, seed, err in zip(values, seeds, errors)]}


SPECS = {"req_p50_ms": {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}}


def test_compare_gives_verdicts_with_failures():
    (row,), skipped = compare.compare(_records(PARENT), _records([x * 0.8 for x in PARENT]),
                                      SPECS)
    assert row["verdict"] == "improved" and row["failed"] == (0, 0) and not skipped
    assert row["ratio"] == pytest.approx(0.8)
    # Faster but failing more often is no gain.
    (row,), _ = compare.compare(_records(PARENT),
                                _records([x * 0.8 for x in PARENT], errors=[0] * 9 + [1]),
                                SPECS)
    assert row["verdict"] == "unresolved" and row["failed"] == (0, 1)
    assert "failed requests 1 change, 0 parent" in compare._fmt(row)
    # As many failures as the parent does not block the verdict.
    (row,), _ = compare.compare(_records(PARENT, errors=[1] + [0] * 9),
                                _records([x * 0.8 for x in PARENT], errors=[0] * 9 + [1]),
                                SPECS)
    assert row["verdict"] == "improved"
    (row,), _ = compare.compare(_records(PARENT),
                                _records([x * 1.3 for x in PARENT], errors=[2] * 10), SPECS)
    assert row["verdict"] == "worse"


@pytest.mark.parametrize("change", [
    _records(PARENT, seeds=list(range(1, 11))),   # other seeds
    _records(PARENT, seconds=20),                   # other run length
    _records(PARENT[:9]),                           # a pair short
])
def test_compare_rejects_unpaired_records(change):
    with pytest.raises(compare.PairingError):
        compare.compare(_records(PARENT), change, SPECS)


def test_compare_gives_no_verdict_on_fewer_than_ten_pairs():
    rows, (note,) = compare.compare(_records(PARENT[:9]), _records(PARENT[:9]), SPECS)
    assert rows == [] and "at least 10" in note


def test_checks_reject_wrong_outputs():
    w = WORKLOADS["minimize"]
    req = w.pool()[0]
    recorded = REFERENCE["requests"][" ".join(req.argv)]
    good = {"Delta": float(req.argv[2]), "n_evaluations": 100, **recorded}
    assert check_output(w, req, 0, json.dumps(good), REFERENCE) == 100.0
    for bad in ({"d_min": recorded["d_min"] + 1e-9},
                {"coarse_d_min": -1e-9},
                {"d_min": math.nan}):
        with pytest.raises(WrongOutput):
            check_output(w, req, 0, json.dumps({**good, **bad}), REFERENCE)
    with pytest.raises(WrongOutput):
        check_output(w, req, 3, json.dumps(good), REFERENCE)


@pytest.fixture(scope="module")
def cli():
    run.pin_threads()
    return run.import_cli()


def test_tracer_leaves_outputs_bitwise_unchanged(cli):
    import entrobell.bell
    import entrobell.entropy

    originals = (entrobell.bell.binned_joint, entrobell.entropy.binned_joint, cli.main)
    tracer = Tracer()
    for i, w in enumerate(WORKLOADS.values()):
        plain = run.call(cli, w.warmup.argv)[:2]
        tracer.request_id = i
        with tracer:
            assert entrobell.bell.binned_joint is not originals[0]
            traced = run.call(cli, w.warmup.argv)[:2]
        assert plain[0] == 0
        assert traced == plain
    assert (entrobell.bell.binned_joint, entrobell.entropy.binned_joint, cli.main) == originals

    summary = tracer.summary()
    for name in ("cli.main", "bell.scan", "bell.minimize", "bell.evaluate_mutual_info",
                 "coarse_grain.binned_joint", "entropy.shannon",
                 "experiment_sim.empirical_d_qm", "gaussian_core.marginal_pdf"):
        assert summary[name]["calls"] > 0, name
        assert 0.0 <= summary[name]["self_s"] <= summary[name]["total_s"] + 1e-12
    assert summary["cli.main"]["calls"] == len(WORKLOADS)
    assert summary["coarse_grain.binned_joint"]["cells"] > 0
    # Self times partition the traced time of the top-level spans.
    total_self = sum(row["self_s"] for row in summary.values())
    assert total_self == pytest.approx(summary["cli.main"]["total_s"], rel=1e-9)
