"""Command-line surface: formats, config merging, exit codes."""

import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrobell
from entrobell import entropy
from entrobell.cli import _apply_config, _build_parser, main
from entrobell.coarse_grain import BinnedDistribution2D, binned_joint
from entrobell.experiment_sim import sample_pairs
from entrobell.gaussian_core import TmsvParams
from entrobell.bell import (
    SCAN_CSV_HEADER, AngleGeometry, d_qm_value, evaluate, scan, scan_zero_delta,
)


def run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    code = main(argv + ["--format", "json", "--output", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def test_eval_text_output(tmp_path):
    out = tmp_path / "eval.txt"
    code = main(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2",
                 "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "d_qm" in text
    assert "no violation" in text
    assert "S(A|B')" in text
    assert "grid" in text


def test_eval_text_to_stdout(capsys):
    assert main(["eval", "--r", "0.5", "--delta", "0.4", "--Delta", "3"]) == 0
    assert "d_qm" in capsys.readouterr().out


def test_eval_json_payload(tmp_path):
    payload = run_json(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2"],
                       tmp_path)
    expected = d_qm_value(TmsvParams(1.0), 0.6, 2.0)
    assert payload["d_qm"] == pytest.approx(expected, abs=1e-12)
    assert payload["delta"] == 0.6
    assert payload["Delta"] == 2.0
    assert "S(A|B')" in payload["terms"]
    assert "version" in payload


def test_eval_csv_row(tmp_path):
    out = tmp_path / "eval.csv"
    code = main(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,delta,Delta,d_qm"
    r, delta, delta_bin, d = (float(x) for x in lines[1].split(","))
    assert (r, delta, delta_bin) == (1.0, 0.6, 2.0)
    assert d == pytest.approx(d_qm_value(TmsvParams(1.0), 0.6, 2.0), rel=1e-10)


def test_delta_pi_matches_radians(tmp_path):
    a = run_json(["eval", "--r", "0.7", "--delta-pi", "0.25", "--Delta", "2"],
                 tmp_path, "a.json")
    b = run_json(["eval", "--r", "0.7", "--delta", repr(0.25 * math.pi),
                  "--Delta", "2"], tmp_path, "b.json")
    assert a["d_qm"] == b["d_qm"]


def test_delta_and_delta_pi_conflict():
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--r", "1", "--delta", "0.5", "--delta-pi", "0.2",
              "--Delta", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["eval", "--delta", "0.5", "--Delta", "2"],
    ["eval", "--r", "1", "--delta", "0.5"],
    ["eval", "--r", "1", "--Delta", "2"],
    ["scan"],
    ["minimize"],
    ["sample", "--n", "2000"],
    ["sample", "--r", "1"],
])
def test_missing_required_flags_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_mutual_info_margin(tmp_path):
    payload = run_json(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2",
                        "--mutual-info"], tmp_path)
    assert payload["mutual_info_margin"] == pytest.approx(-payload["d_qm"], abs=1e-10)


def test_dump_dist_writes_four_pair_files(tmp_path):
    prefix = tmp_path / "joint"
    code = main(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2",
                 "--dump-dist", str(prefix), "--output", str(tmp_path / "o.txt")])
    assert code == 0
    for tag in ("ab_prime", "aprime_bprime", "aprime_b", "ab"):
        lines = (tmp_path / f"joint.{tag}.csv").read_text().splitlines()
        assert lines[0] == "l,m,p"
        total = sum(float(row.split(",")[2]) for row in lines[1:])
        assert 1 - 1e-6 <= total <= 1 + 1e-10


def test_dump_dist_reuses_the_four_joints(tmp_path, monkeypatch):
    # the dumps are the joints of the evaluation: one kernel pass builds the
    # joint of each distinct |phase sum| once, and each dump equals the joint
    # of its own pair's phase sum
    state, geometry = TmsvParams(1.2), AngleGeometry(0.9, theta=0.3)
    expected = {}
    for tag, phs in zip(("ab_prime", "aprime_bprime", "aprime_b", "ab"), geometry.pair_sums()):
        buf = io.StringIO()
        binned_joint(state, phs, 1.5).to_csv(buf)
        expected[tag] = buf.getvalue()
    batches = []
    batched = entropy._binned_joints

    def counted(points, grids):
        batches.append([phi_sum for _, phi_sum in points])
        return batched(points, grids)

    monkeypatch.setattr(entropy, "_binned_joints", counted)
    prefix = tmp_path / "joint"
    payload = run_json(["eval", "--r", "1.2", "--delta", "0.9", "--theta", "0.3",
                        "--Delta", "1.5", "--dump-dist", str(prefix)], tmp_path)
    assert batches == [list(dict.fromkeys(abs(s) for s in geometry.pair_sums()))]
    assert len(batches[0]) < 4
    assert payload["d_qm"] == evaluate(state, geometry, 1.5).d_qm
    for tag, text in expected.items():
        assert (tmp_path / f"joint.{tag}.csv").read_text() == text


def test_config_supplies_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.8, "delta": 0.5, "delta_bin": 2.0}))
    payload = run_json(["eval", "--config", str(cfg)], tmp_path)
    assert payload["r"] == 0.8
    assert payload["delta"] == 0.5


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.8, "delta": 0.5, "delta_bin": 2.0}))
    payload = run_json(["eval", "--config", str(cfg), "--r", "1.2"], tmp_path)
    assert payload["r"] == 1.2


@pytest.mark.parametrize("spelling", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]])
def test_config_spellings(spelling, tmp_path):
    # both argparse spellings, and an abbreviation argparse accepts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"r": 0.8, "delta": 0.5, "delta_bin": 2.0}))
    payload = run_json(["eval"] + [tok.format(cfg) for tok in spelling], tmp_path)
    assert (payload["r"], payload["delta"], payload["Delta"]) == (0.8, 0.5, 2.0)


def test_ambiguous_config_abbreviation_exits_2(tmp_path, capsys):
    # in minimize, --co could be --coarse-points or --config
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"delta_bin": 30.0}))
    assert exit_code(["minimize", "--co", str(cfg)]) == 2
    assert "ambiguous option: --co" in capsys.readouterr().err


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"squeeze": 1.0}))
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_must_be_object(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--config", str(cfg)])
    assert exc.value.code == 2


def test_scan_csv_schema(tmp_path):
    out = tmp_path / "scan.csv"
    code = main(["scan", "--Delta", "2", "--r-range", "0", "1", "--r-points", "3",
                 "--delta-range", "0", "1", "--delta-points", "4",
                 "--format", "csv", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,delta,Delta,d_qm"
    assert len(lines) == 1 + 3 * 4
    assert all(row.split(",")[2] == "2" for row in lines[1:])


def test_scan_text_reports_minimum(tmp_path):
    out = tmp_path / "scan.txt"
    code = main(["scan", "--Delta", "2", "--r-range", "0", "1", "--r-points", "3",
                 "--delta-range", "0", "1", "--delta-points", "3",
                 "--output", str(out)])
    assert code == 0
    assert "grid minimum d_qm" in out.read_text()


def test_scan_rejects_reversed_range():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--Delta", "2", "--r-range", "1", "0"])
    assert exc.value.code == 2


def test_minimize_json(tmp_path):
    payload = run_json(["minimize", "--Delta", "6", "--r-range", "1.7", "1.9",
                        "--delta-range", "0.55", "0.75", "--coarse-points", "6",
                        "--refine-starts", "1"], tmp_path)
    assert payload["kind"] == "minimize"
    assert 1.7 <= payload["r_star"] <= 1.9
    assert 0.55 <= payload["delta_star"] <= 0.75
    assert payload["d_min"] <= payload["coarse_d_min"] + 1e-12


def test_validate_quick_passes(tmp_path):
    out = tmp_path / "val.txt"
    code = main(["validate", "--quick", "--output", str(out)])
    assert code == 0
    text = out.read_text()
    assert "FAIL" not in text
    assert "/8 checks passed" in text


def test_validate_full_passes(tmp_path):
    # the full suite, with its larger samples and the three ridge points of
    # the method check
    payload = run_json(["validate"], tmp_path)
    assert payload["quick"] is False
    assert len(payload["checks"]) == 8
    assert all(check["passed"] for check in payload["checks"])
    assert payload["failed"] == []
    (method,) = [c for c in payload["checks"] if c["name"] == "method-cross-validation"]
    assert method["detail"].endswith("over 20 parameter draws and 3 ridge points")


def test_validate_perturbed_norm_fails(tmp_path, capsys, monkeypatch):
    # joints whose captured mass is off by 1e-3 fail the normalization check alone
    monkeypatch.setattr(BinnedDistribution2D, "captured_mass",
                        property(lambda d: math.fsum(d.probs.ravel().tolist()) + 1e-3))
    code = main(["validate", "--quick", "--output", str(tmp_path / "val.txt")])
    assert code == 1
    assert capsys.readouterr().err == "failed checks: normalization\n"


def test_sample_shot_dump(tmp_path):
    out = tmp_path / "shots.csv"
    code = main(["shots", "--r", "0.5", "--n", "1500", "--phi-sum", "0.3",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,b"
    assert len(lines) == 1501
    buf = io.StringIO()
    sample_pairs(TmsvParams(0.5), 0.3, 1500, 0).to_csv(buf)
    assert out.read_text() == buf.getvalue()


def test_sample_estimate_deterministic(tmp_path):
    argv = ["sample", "--r", "0.5", "--n", "2000", "--delta", "0.9",
            "--Delta", "1.5", "--bootstrap", "30"]
    a = run_json(argv, tmp_path, "a.json")
    b = run_json(argv, tmp_path, "b.json")
    assert a == b
    assert a["std_error"] > 0
    assert a["miller_madow"] is True


def test_sample_no_miller_madow_changes_estimate(tmp_path):
    base = ["sample", "--r", "0.5", "--n", "2000", "--delta", "0.9",
            "--Delta", "1.5", "--bootstrap", "10"]
    a = run_json(base, tmp_path, "a.json")
    b = run_json(base + ["--no-miller-madow"], tmp_path, "b.json")
    assert b["miller_madow"] is False
    assert a["d_qm_estimate"] != b["d_qm_estimate"]


def test_sample_estimate_requires_delta():
    with pytest.raises(SystemExit) as exc:
        main(["sample", "--r", "0.5", "--n", "2000"])
    assert exc.value.code == 2


def test_sample_small_n_exit_2(capsys):
    code = main(["sample", "--r", "0.5", "--n", "500", "--delta", "0.9",
                 "--Delta", "1.5"])
    assert code == 2
    assert "invalid arguments" in capsys.readouterr().err


def test_negative_r_exit_2(capsys):
    code = main(["eval", "--r", "-1", "--delta", "0.5", "--Delta", "2"])
    assert code == 2


def test_tiny_bin_width_exit_3(capsys):
    code = main(["eval", "--r", "4", "--delta", "0.6", "--Delta", "1e-5"])
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_figure_fig1_csv(tmp_path):
    out = tmp_path / "fig1.csv"
    code = main(["figure", "fig1", "--Delta", "6", "--r-range", "0", "1",
                 "--r-points", "3", "--delta-points", "5", "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,delta,Delta,d_qm"
    assert len(lines) == 1 + 3 * 5


def test_figure_fig1_csv_is_the_panels_scan_csv(tmp_path):
    # one header, then the rows that each panel's ScanResult.to_csv writes
    out = tmp_path / "fig1.csv"
    assert main(["figure", "fig1", "--Delta", "4", "8", "--r-range", "0", "1",
                 "--r-points", "3", "--delta-points", "5", "--format", "csv",
                 "--output", str(out)]) == 0
    expected = SCAN_CSV_HEADER + "\n"
    for delta_bin in (4.0, 8.0):
        buf = io.StringIO()
        scan(np.linspace(0.0, 1.0, 3), np.linspace(0.0, math.pi, 5), delta_bin).to_csv(buf)
        expected += buf.getvalue().split("\n", 1)[1]
    assert out.read_text() == expected


def test_figure_fig1_json_panels(tmp_path):
    payload = run_json(["figure", "fig1", "--Delta", "4", "8", "--r-range",
                        "0", "1", "--r-points", "2", "--delta-points", "3"],
                       tmp_path)
    assert payload["kind"] == "fig1"
    assert len(payload["panels"]) == 2
    assert payload["panels"][0]["delta_bin"] == 4.0


def test_figure_fig2_nonnegative(tmp_path):
    out = tmp_path / "fig2.csv"
    code = main(["figure", "fig2", "--r-range", "0", "1", "--r-points", "3",
                 "--Delta-range", "2", "8", "--Delta-points", "4",
                 "--output", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,delta,Delta,d_qm"
    assert len(lines) == 1 + 3 * 4
    for row in lines[1:]:
        _, delta, _, d = row.split(",")
        assert delta == "0"
        assert float(d) >= -1e-12


def test_figure_fig2_is_the_zero_offset_scan_csv(tmp_path):
    out = tmp_path / "fig2.csv"
    assert main(["figure", "fig2", "--r-range", "0", "1", "--r-points", "3",
                 "--Delta-range", "2", "8", "--Delta-points", "4",
                 "--output", str(out)]) == 0
    buf = io.StringIO()
    scan_zero_delta(np.linspace(0.0, 1.0, 3), np.linspace(2.0, 8.0, 4)).to_csv(buf)
    assert out.read_text() == buf.getvalue()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "entrobell" in capsys.readouterr().out


# -- the settable surface: every flag and format a subcommand offers acts ----------

def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SAMPLE_ARGV = ["sample", "--r", "0.5", "--n", "1000", "--delta", "0.9", "--Delta", "1.5",
               "--bootstrap", "5"]

# each subcommand's formats, the default first
SURFACE = [
    (["eval", "--r", "1", "--delta", "0.6", "--Delta", "2"], ("text", "json", "csv")),
    (["scan", "--Delta", "2", "--r-range", "0", "1", "--r-points", "2",
      "--delta-points", "2"], ("text", "json", "csv")),
    (["minimize", "--Delta", "6", "--r-range", "1.7", "1.9", "--delta-range", "0.55", "0.75",
      "--coarse-points", "3", "--refine-starts", "1"], ("text", "json")),
    (SAMPLE_ARGV, ("text", "json")),
    (["shots", "--r", "0.5", "--n", "3", "--phi-sum", "0.3"], ("csv",)),
    (["validate", "--quick"], ("text", "json")),
    (["figure", "fig1", "--Delta", "4", "--r-range", "0", "1", "--r-points", "2",
      "--delta-points", "2"], ("csv", "json")),
    (["figure", "fig2", "--r-range", "0", "1", "--r-points", "2", "--Delta-range", "2", "8",
      "--Delta-points", "2"], ("csv", "json")),
]


def _leaf(argv):
    return argv[1] if argv[0] == "figure" else argv[0]


def test_surface_covers_every_subcommand():
    assert {_leaf(argv) for argv, _ in SURFACE} == set(_build_parser().subparser_map)


@pytest.mark.parametrize("argv,formats", SURFACE, ids=[_leaf(a) for a, _ in SURFACE])
def test_each_offered_format_writes_its_own_output(argv, formats, tmp_path):
    leaf = _build_parser().subparser_map[_leaf(argv)]
    (action,) = [a for a in leaf._actions if "--format" in a.option_strings]
    assert tuple(action.choices) == formats
    assert action.default == formats[0]
    written = {}
    for fmt in formats:
        out = tmp_path / f"out.{fmt}"
        assert main(argv + ["--format", fmt, "--output", str(out)]) == 0
        written[fmt] = out.read_bytes()
    assert len(set(written.values())) == len(formats)


@pytest.mark.parametrize("argv", [
    ["minimize", "--Delta", "6", "--format", "csv"],
    SAMPLE_ARGV + ["--format", "csv"],
    ["validate", "--quick", "--format", "csv"],
    ["figure", "fig1", "--format", "text"],
    ["figure", "fig2", "--format", "text"],
    SAMPLE_ARGV + ["--tail-epsilon", "1e-10"],
    ["validate", "--quick", "--tail-epsilon", "1e-10"],
    ["figure", "fig2", "--Delta", "4"],
    ["figure", "fig1", "--Delta-range", "2", "8"],
    ["figure", "fig1", "--Delta"],
    ["figure"],
])
def test_unsupported_flag_or_format_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("figure,cfg,rows", [
    ("fig1", {"r_points": 2, "delta_points": 3, "delta_bins": [4.0]}, 2 * 3),
    ("fig2", {"r_points": 2, "delta_bin_points": 3, "delta_bin_range": [2.0, 8.0]}, 2 * 3),
])
def test_config_sets_figure_leaf_flags(figure, cfg, rows, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "fig.csv"
    assert main(["figure", figure, "--config", str(path), "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,delta,Delta,d_qm"
    assert len(lines) == 1 + rows
    # a key of the other figure is not a flag of this one
    path.write_text(json.dumps({"delta_bin_points": 3} if figure == "fig1"
                               else {"delta_points": 3}))
    assert exit_code(["figure", figure, "--config", str(path)]) == 2


@pytest.mark.parametrize("argv", [
    ["figure", "fig1", "--r-points", "0"],
    ["figure", "fig1", "--delta-points", "0"],
    ["figure", "fig2", "--r-points", "0"],
    ["figure", "fig2", "--Delta-points", "0"],
])
def test_figure_point_counts_must_be_positive(argv, capsys):
    assert exit_code(argv) == 2
    assert "point counts must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv,usage", [
    (["figure", "fig1", "--r-points", "0"], "usage: entrobell figure fig1 "),
    (["scan", "--Delta", "1", "--r-points", "0"], "usage: entrobell scan "),
])
def test_handler_errors_print_the_leaf_usage(argv, usage, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().err.startswith(usage)


EXTREME = ["--delta", "0.5", "--Delta", "1", "--n", "2000", "--bootstrap", "2"]


# r = 400 overflows cosh; at r = 300 v^2 - w^2 underflows to 0; at r = 12 and 30
# the sampled window box is far beyond the cell budget
@pytest.mark.parametrize("argv", [
    ["eval", "--r", "400", "--delta", "0.5", "--Delta", "1"],
    ["scan", "--Delta", "1", "--r-range", "400", "400", "--r-points", "1",
     "--delta-points", "2"],
    ["minimize", "--Delta", "1", "--r-range", "400", "400"],
    ["sample", "--r", "400", *EXTREME],
    ["shots", "--r", "400", "--phi-sum", "0.3", "--n", "3"],
    ["sample", "--r", "300", *EXTREME],
    ["sample", "--r", "12", *EXTREME],
    ["sample", "--r", "30", *EXTREME],
], ids=["eval", "scan", "minimize", "sample", "shots", "sample-r300", "sample-r12",
        "sample-r30"])
def test_extreme_squeezing_exits_3(argv, capsys):
    assert exit_code(argv) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("entrobell: numeric failure:")


@pytest.mark.parametrize("argv, key", [
    (["scan", "--Delta", "3000", "--r-range", "6", "6", "--r-points", "1",
      "--delta-points", "2"], "d_qm"),
    (["minimize", "--Delta", "3000", "--r-range", "5", "6"], "d_min"),
], ids=["scan", "minimize"])
def test_one_bin_ridge_is_an_exact_zero_where_its_joint_exceeds_the_panel_cap(
        argv, key, tmp_path, capsys):
    # at Delta = 3000 every grid of r <= 6 has one bin, so d_qm is exactly 0
    # and scan and minimize build no joint; eval reads the joint's cells.  Its
    # uniform panels at r = 6 on the ridge would exceed the panel cap (605144),
    # but the row takes 70 edge-adapted ones, and the cap reads those
    payload = run_json(argv, tmp_path)
    assert np.ravel(payload[key]).tolist() in ([0.0], [0.0, 0.0])
    payload = run_json(["eval", "--r", "6", "--delta", "0", "--Delta", "3000"], tmp_path)
    assert (payload["grid_l_max"], payload["d_qm"]) == (0, 0.0)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("r, delta_bin, l_max", [("10", "100", 796), ("9", "60", 488)])
def test_ridge_eval_under_the_panel_cap_of_its_adapted_rows(r, delta_bin, l_max, tmp_path):
    # over a million uniform panels per window at r = 10, 243093 at r = 9;
    # every row takes 11 edge-adapted ones
    payload = run_json(["eval", "--r", r, "--delta", "0", "--Delta", delta_bin], tmp_path)
    assert payload["grid_l_max"] == l_max
    assert 0.0 <= payload["d_qm"] < 1e-4


@pytest.mark.parametrize("argv", [
    ["minimize", "--Delta", "6", "--coarse-points", "4", "--refine-starts", "-1"],
    ["minimize", "--Delta", "6", "--coarse-points", "0"],
    SAMPLE_ARGV[:-1] + ["1"],
    SAMPLE_ARGV[:-1] + ["0"],
    SAMPLE_ARGV[:-1] + ["10001"],
    SAMPLE_ARGV[:-1] + [str(10 ** 12)],
    # more than 1e5 points in one request
    ["scan", "--Delta", "2", "--r-points", "1000", "--delta-points", "1000"],
    ["scan", "--Delta", "2", "--r-points", "1", "--delta-points", "100001"],
    ["minimize", "--Delta", "6", "--coarse-points", "1000"],
    ["figure", "fig1", "--r-points", "1000", "--delta-points", "1000"],
    ["figure", "fig2", "--r-points", "1000", "--Delta-points", "1000"],
])
def test_empty_or_negative_counts_exit_2(argv, capsys):
    assert exit_code(argv) == 2
    assert "invalid arguments" in capsys.readouterr().err


# -- one input checker: --config values parse exactly like the flags they name -----

def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


EVAL_ARGV = ["eval", "--r", "1", "--delta", "0.6", "--Delta", "2"]


@pytest.mark.parametrize("argv,cfg", [
    (EVAL_ARGV, {"format": "xml"}),
    (EVAL_ARGV, {"mutual_info": "no"}),
    (EVAL_ARGV, {"mutual_info": 1}),
    (EVAL_ARGV, {"output": None}),
    (EVAL_ARGV, {"r": True}),
    (["scan", "--Delta", "2"], {"r_points": 5.5}),
    (["figure", "fig1"], {"delta_bins": ["wide"]}),
])
def test_config_value_that_its_flag_rejects_exits_2(argv, cfg, tmp_path):
    assert exit_code(argv + ["--config", write_config(tmp_path, cfg)]) == 2


def test_config_list_or_scalar_for_a_multi_value_flag(tmp_path):
    # a scalar for the nargs="+" --Delta of fig1 is one width, as on the command line
    base = ["figure", "fig1", "--r-range", "0", "1", "--r-points", "2", "--delta-points", "3"]
    out = {}
    for name, extra in [("flag", ["--Delta", "4"]),
                        ("scalar", ["--config", write_config(tmp_path, {"delta_bins": 4}, "a")]),
                        ("list", ["--config", write_config(tmp_path, {"delta_bins": [4]}, "b")])]:
        path = tmp_path / f"{name}.csv"
        assert main(base + extra + ["--output", str(path)]) == 0
        out[name] = path.read_bytes()
    assert out["scalar"] == out["flag"] == out["list"]


def test_config_value_is_converted_like_its_flag(tmp_path):
    out = tmp_path / "out.json"
    cfg = write_config(tmp_path, {"r": 1, "delta": 0.6, "delta_bin": 2, "mutual_info": True})
    assert main(["eval", "--config", cfg, "--format", "json", "--output", str(out)]) == 0
    text = out.read_text()
    assert '"Delta": 2.0' in text and '"r": 1.0' in text
    assert "mutual_info_margin" in json.loads(text)


def test_config_leaves_the_parser_unchanged(tmp_path):
    parser = _build_parser()
    cfg = write_config(tmp_path, {"r_points": 3, "delta_bin": 2.0})
    assert _apply_config(parser, ["scan", "--config", cfg]).r_points == 3
    args = _apply_config(parser, ["scan", "--Delta", "5"])
    assert (args.r_points, args.delta_bin, args.config) == (41, 5.0, None)


def test_sample_has_no_shot_dump_mode():
    assert exit_code(SAMPLE_ARGV + ["--phi-sum", "0.3"]) == 2


@pytest.mark.parametrize("argv", [
    ["sample", "--r", "0.5", "--n", "2000", "--delta", "nan", "--Delta", "1.5"],
    ["sample", "--r", "0.5", "--n", "2000", "--delta", "0.9", "--Delta", "nan"],
    ["sample", "--r", "0.5", "--n", "2000", "--delta", "0.9", "--Delta", "inf"],
    ["shots", "--r", "0.5", "--n", "3", "--phi-sum", "nan"],
    EVAL_ARGV + ["--theta", "nan"],
])
def test_non_finite_input_exits_2(argv, capsys):
    assert exit_code(argv) == 2
    assert "finite" in capsys.readouterr().err


def test_tail_epsilon_without_a_finite_coverage_exits_2(tmp_path, capsys):
    argv = ["eval", "--r", "1", "--delta", "0.5", "--Delta", "1", "--tail-epsilon"]
    assert exit_code(argv + ["5e-324"]) == 2
    assert "tail_epsilon" in capsys.readouterr().err
    assert run_json(argv + ["1e-320"], tmp_path)["grid_l_max"] == 53


@pytest.mark.parametrize("argv", [
    ["minimize", "--Delta", "6", "--r-range", "1", "0"],
    ["minimize", "--Delta", "6", "--r-range", "-1", "1"],
    ["shots", "--r", "0.5", "--n", "0", "--phi-sum", "0.3"],
    ["shots", "--r", "0.5", "--n", "10000001", "--phi-sum", "0.3"],
])
def test_library_range_checks_exit_2(argv, capsys):
    assert exit_code(argv) == 2
    assert "invalid arguments" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "malformed"])
def test_unreadable_config_exits_2(case, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    if case == "malformed":
        path.write_text("{")
    assert exit_code(EVAL_ARGV + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if line.startswith("entrobell")]
    assert line.startswith(f"entrobell: error: cannot read config {path}: ")


@pytest.mark.parametrize("flag", ["--output", "--dump-dist"])
def test_unwritable_path_exits_2(flag, tmp_path, capsys):
    assert exit_code(EVAL_ARGV + [flag, str(tmp_path / "missing" / "out")]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("entrobell: cannot write output:")


def test_cached_parser_gives_the_output_of_a_fresh_one(tmp_path, capsys):
    # main reuses one parser per process; a sequence of calls on it, errors
    # included, writes byte for byte what a freshly built parser writes
    cfg = write_config(tmp_path, {"r_points": 2, "delta_points": 3, "delta_bin": 4.0})
    sequence = [
        ["scan", "--config", cfg, "--r-range", "0", "1", "--format", "csv"],
        ["figure", "fig1", "--r-points", "0"],
        ["figure", "fig1", "--r-range", "0", "1", "--r-points", "2", "--delta-points", "3"],
        EVAL_ARGV + ["--format", "json", "--mutual-info"],
    ]

    def run(fresh):
        outputs = []
        for argv in sequence:
            if fresh:
                _build_parser.cache_clear()
            code = exit_code(argv)
            outputs.append((code, *capsys.readouterr()))
        return outputs

    fresh = run(fresh=True)
    assert _build_parser() is _build_parser()
    # twice over, so that anything a call left in the parser shows in the next pass
    cached = run(fresh=False) + run(fresh=False)
    assert [code for code, _, _ in cached] == [0, 2, 0, 0] * 2
    assert cached == fresh * 2


@pytest.mark.parametrize("argv", [
    ["eval", "--r", "0.2", "--delta-pi", "0.05", "--Delta", "0.1062", "--mutual-info"],
    ["sample", "--r", "1.817", "--delta-pi", "0.213", "--Delta", "0.05", "--n", "1000000",
     "--seed", "7"],
])
def test_output_does_not_depend_on_the_blas_thread_count(argv):
    # the entropies of a 101 x 101 joint and of the seeded sample's tables
    # have parts of more than 10,000 entries, whose dots OpenBLAS would split
    # across its threads.  It reads the variable when numpy is imported, so
    # each thread count runs in a process of its own
    env = dict(os.environ, PYTHONPATH=str(Path(entrobell.__file__).parents[1]))
    code = "import sys; from entrobell.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [subprocess.Popen([sys.executable, "-c", code, *argv, "--format", "json"],
                             env=dict(env, OPENBLAS_NUM_THREADS=threads), stdout=subprocess.PIPE)
            for threads in ("1", "2")]
    (one, code_one), (two, code_two) = ((run.communicate()[0], run.returncode) for run in runs)
    assert code_one == code_two == 0
    assert one == two


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and sched_setaffinity")
def test_sample_does_not_depend_on_the_cpu_count():
    # the shots are drawn and binned on every CPU the process may run on; one
    # process is pinned to a single CPU, the other may use them all
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(Path(entrobell.__file__).parents[1]))
    code = "import sys; from entrobell.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = [sys.executable, "-c", code, "sample", "--r", "1.817", "--delta-pi", "0.213",
            "--Delta", "0.05", "--n", "1000000", "--seed", "7", "--format", "json"]
    runs = [subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, preexec_fn=pin)
            for pin in (lambda: os.sched_setaffinity(0, {cpu}), None)]
    (one, code_one), (all_, code_all) = ((run.communicate()[0], run.returncode) for run in runs)
    assert code_one == code_all == 0
    assert one == all_


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
                    reason="needs two CPUs and sched_setaffinity")
@pytest.mark.parametrize("argv", [
    ["scan", "--Delta", "1.5", "--r-range", "0.2", "1.8", "--r-points", "5",
     "--delta-range", "0.15", "0.45", "--delta-points", "4"],
    ["eval", "--r", "0.2", "--delta-pi", "0.05", "--Delta", "0.1062", "--mutual-info"],
    ["minimize", "--Delta", "3.5", "--r-range", "0", "2", "--coarse-points", "8",
     "--refine-starts", "3"],
])
def test_kernel_output_does_not_depend_on_the_cpu_count(argv):
    # kernel passes of at least _SPLIT_ELEMENTS slab elements run on every CPU
    # the process may run on; one process is pinned to a single CPU, the other
    # may use them all
    cpu = min(os.sched_getaffinity(0))
    env = dict(os.environ, PYTHONPATH=str(Path(entrobell.__file__).parents[1]))
    code = "import sys; from entrobell.cli import main; sys.exit(main(sys.argv[1:]))"
    runs = [subprocess.Popen([sys.executable, "-c", code, *argv, "--format", "json"], env=env,
                             stdout=subprocess.PIPE, preexec_fn=pin)
            for pin in (lambda: os.sched_setaffinity(0, {cpu}), None)]
    (one, code_one), (all_, code_all) = ((run.communicate()[0], run.returncode) for run in runs)
    assert code_one == code_all == 0
    assert one == all_


def test_no_command_imports_scipy_optimize():
    # the package's one minimiser is its own, so no command loads
    # scipy.optimize, nor the scipy.linalg it pulls in
    env = dict(os.environ, PYTHONPATH=str(Path(entrobell.__file__).parents[1]))
    code = """if True:
        import contextlib, io, sys
        from entrobell.cli import main
        for argv in (["minimize", "--Delta", "3.5", "--coarse-points", "4", "--refine-starts", "2"],
                     ["scan", "--Delta", "2", "--r-points", "2", "--delta-points", "2"],
                     ["eval", "--r", "1", "--delta", "0.5", "--Delta", "1"],
                     ["sample", "--r", "1", "--delta", "0.5", "--Delta", "1", "--n", "1000"],
                     ["validate", "--quick"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        print("scipy.optimize" in sys.modules)
    """
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"
