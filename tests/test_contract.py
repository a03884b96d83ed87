"""The behaviour contract: the public names and the key set of every JSON payload."""

import ast
import json
from pathlib import Path

import pytest

import entrobell
from entrobell.cli import _build_parser, main

PUBLIC_NAMES = [
    "AngleGeometry", "BellEvaluation", "BinnedDistribution1D", "BinnedDistribution2D",
    "CheckResult", "CoarseGrid", "DEFAULT_TAIL_EPSILON", "EntropyTerms", "GridTooLarge",
    "InvalidDistribution", "JointGaussianCoefficients", "MinimizationResult",
    "MinimizeOptions", "PANEL_QUADRATURE", "PROBABILITY_FLOOR", "PhaseSettings",
    "QuadratureBudgetExceeded", "RECTANGLE_CDF", "SCAN_CSV_HEADER", "ScanResult",
    "ShotBatch", "TmsvParams", "TruncationNotConverged", "ZeroOffsetScanResult",
    "__version__", "bin_counts", "bin_prob_1d", "bin_prob_2d", "binned_joint",
    "binned_marginal", "bvn_rectangle", "bvn_upper", "closed_form_amplitude",
    "coefficients", "conditional_entropy", "d_qm_value", "differential_entropies",
    "empirical_d_qm", "evaluate", "evaluate_general", "evaluate_mutual_info",
    "fock_amplitude", "hermite_functions", "joint_pdf", "make_grid", "marginal_pdf",
    "minimize", "mutual_information", "plugin_entropies", "run_checks", "s_qm",
    "sample_pairs", "scan", "scan_zero_delta", "shannon", "write_json",
]

EVAL_KEYS = {"version", "method", "tail_epsilon", "r", "delta", "Delta", "theta",
             "theta_prime", "phi", "phi_prime", "terms", "d_qm", "grid_l_max"}
TERM_KEYS = {"S(A|B')", "S(B'|A')", "S(A'|B)", "S(A|B)"}
SCAN_KEYS = {"version", "method", "tail_epsilon", "kind", "delta_bin", "grid_l_range",
             "r_values", "delta_values", "d_qm"}
MINIMIZE_KEYS = {"version", "method", "tail_epsilon", "kind", "r_star", "delta_star",
                 "delta_star_over_pi", "d_min", "Delta", "converged", "n_evaluations",
                 "coarse_d_min", "r_bounds", "delta_bounds"}
FIG2_KEYS = {"version", "method", "tail_epsilon", "kind", "r_values", "delta_bin_values",
             "d_qm"}
SAMPLE_KEYS = {"version", "kind", "r", "delta", "Delta", "n_per_setting", "seed",
               "miller_madow", "bootstrap", "d_qm_estimate", "std_error"}
VALIDATE_KEYS = {"version", "quick", "checks", "failed"}
CHECK_KEYS = {"name", "passed", "detail", "seconds"}

# the flags of each subcommand leaf, --help aside: a knob is added or removed here first
COMMON_FLAGS = {"--config", "--format", "--output"}
FLAGS = {
    "eval": COMMON_FLAGS | {"--r", "--delta", "--delta-pi", "--Delta", "--theta",
                            "--mutual-info", "--dump-dist", "--tail-epsilon"},
    "scan": COMMON_FLAGS | {"--Delta", "--r-range", "--r-points", "--delta-range",
                            "--delta-points", "--tail-epsilon"},
    "minimize": COMMON_FLAGS | {"--Delta", "--r-range", "--delta-range", "--coarse-points",
                                "--refine-starts", "--tail-epsilon"},
    "validate": COMMON_FLAGS | {"--quick"},
    "sample": COMMON_FLAGS | {"--r", "--n", "--seed", "--delta", "--delta-pi", "--Delta",
                              "--no-miller-madow", "--bootstrap"},
    "shots": COMMON_FLAGS | {"--r", "--n", "--seed", "--phi-sum"},
    "fig1": COMMON_FLAGS | {"--Delta", "--r-range", "--r-points", "--delta-points",
                            "--tail-epsilon"},
    "fig2": COMMON_FLAGS | {"--r-range", "--r-points", "--Delta-range", "--Delta-points",
                            "--tail-epsilon"},
}


def run_json(argv, tmp_path):
    out = tmp_path / "out.json"
    assert main(argv + ["--format", "json", "--output", str(out)]) == 0
    return json.loads(out.read_text())


def test_public_names_are_frozen_and_resolve():
    assert sorted(entrobell.__all__) == PUBLIC_NAMES
    assert len(set(entrobell.__all__)) == len(entrobell.__all__)
    for name in PUBLIC_NAMES:
        assert getattr(entrobell, name) is not None


def test_every_private_name_is_read_by_the_package():
    # a module-level _name (function, class or constant) that no module of
    # the package reads is code kept for the tests alone
    trees = {path.name: ast.parse(path.read_text())
             for path in Path(entrobell.__file__).parent.glob("*.py")}
    defined, read = set(), set()
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                defined |= {(module, t.id) for t in ast.walk(node)
                            if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    unread = sorted(f"{module}:{name}" for module, name in defined
                    if name.startswith("_") and not name.startswith("__") and name not in read)
    assert unread == []


def test_flag_sets_are_frozen():
    leaves = _build_parser().subparser_map
    assert {name: {flag for action in leaf._actions if action.dest != "help"
                   for flag in action.option_strings}
            for name, leaf in leaves.items()} == FLAGS


@pytest.mark.parametrize("extra, keys", [
    ([], EVAL_KEYS),
    (["--mutual-info"], EVAL_KEYS | {"mutual_info_margin"}),
])
def test_eval_payload_keys(tmp_path, extra, keys):
    payload = run_json(["eval", "--r", "1.0", "--delta", "0.6", "--Delta", "2"] + extra,
                       tmp_path)
    assert set(payload) == keys
    assert set(payload["terms"]) == TERM_KEYS


def test_scan_payload_keys(tmp_path):
    payload = run_json(["scan", "--Delta", "2", "--r-range", "0", "1", "--r-points", "2",
                        "--delta-points", "3"], tmp_path)
    assert set(payload) == SCAN_KEYS


def test_minimize_payload_keys(tmp_path):
    payload = run_json(["minimize", "--Delta", "6", "--r-range", "1.7", "1.9",
                        "--delta-range", "0.55", "0.75", "--coarse-points", "4",
                        "--refine-starts", "1"], tmp_path)
    assert set(payload) == MINIMIZE_KEYS


def test_figure_payload_keys(tmp_path):
    fig1 = run_json(["figure", "fig1", "--Delta", "4", "8", "--r-range", "0", "1",
                     "--r-points", "2", "--delta-points", "3"], tmp_path)
    assert set(fig1) == {"version", "kind", "panels"}
    assert [set(panel) for panel in fig1["panels"]] == [SCAN_KEYS, SCAN_KEYS]
    fig2 = run_json(["figure", "fig2", "--r-range", "0", "1", "--r-points", "2",
                     "--Delta-range", "2", "8", "--Delta-points", "2"], tmp_path)
    assert set(fig2) == FIG2_KEYS


def test_sample_payload_keys(tmp_path):
    payload = run_json(["sample", "--r", "0.5", "--n", "2000", "--delta", "0.9",
                        "--Delta", "1.5", "--bootstrap", "5"], tmp_path)
    assert set(payload) == SAMPLE_KEYS


def test_validate_payload_keys(tmp_path):
    payload = run_json(["validate", "--quick"], tmp_path)
    assert set(payload) == VALIDATE_KEYS
    assert payload["checks"] and all(set(check) == CHECK_KEYS for check in payload["checks"])
