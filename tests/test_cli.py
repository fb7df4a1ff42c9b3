import csv
import json
import math
import warnings

import pytest
import yaml
from click.testing import CliRunner

import nondim
from nondim import errors, models, odes, runio, scenarios
from nondim.cli import EXIT_CODES, main
from nondim.scenarios import DESK, latex_scenario


def read_csv(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# manifest: ")
        manifest = json.loads(header[len("# manifest: "):])
        rows = list(csv.DictReader(fh))
    return manifest, rows


#: A valid two-coefficient problem file.
PROBLEM = (
    "factors: [a]\n"
    "monomials:\n"
    "  - {label: l1, kappa: 3.0, exponents: [1]}\n"
    "  - {label: l2, kappa: 2.0, exponents: [-1]}\n"
)


@pytest.fixture()
def runner():
    return CliRunner()


class TestScale:
    def test_projectile_euclid_solution_csv(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "scale", "--preset", "projectile"]
        )
        assert result.exit_code == 0, result.output
        manifest, rows = read_csv(tmp_path / "scale_solution.csv")
        assert manifest["command"] == "scale"
        row = rows[0]
        assert float(row["theta_t_c"]) == pytest.approx(math.sqrt(6.3781e6 / 9.8), rel=1e-10)
        assert float(row["lambda_lambda1"]) == pytest.approx(6.813, rel=1e-3)

    def test_manifest_version_is_the_package_version(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "scale", "--preset", "projectile"]
        )
        assert result.exit_code == 0, result.output
        manifest, _ = read_csv(tmp_path / "scale_solution.csv")
        assert manifest["version"] == nondim.__version__

    def test_ldg_reaches_target_coefficients(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "scale", "--preset", "ldg", "--q", "3"]
        )
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "scale_solution.csv")
        assert float(rows[0]["lambda_lambda2"]) == pytest.approx(1e-3, rel=1e-9)

    def test_missing_source_is_config_error(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "scale"])
        assert result.exit_code == 64

    @pytest.mark.parametrize("args, message", [
        (["scale", "--preset", "latex", "--method", "anneal-max", "--max-evals", "0"],
         "max_evaluations"),
        (["scale", "--preset", "ldg", "--q", "0"], "q must be"),
        (["enumerate", "--preset", "projectile", "--cap", "0"], "cap must be >= 1, got --cap 0"),
    ])
    def test_out_of_domain_option_exits_64(self, runner, tmp_path, args, message):
        result = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert result.exit_code == 64, result.output
        assert message in result.output
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_problem_exits_2(self, runner, tmp_path):
        config = tmp_path / "degenerate.yaml"
        config.write_text(
            "factors: [a, b]\n"
            "monomials:\n"
            "  - {label: l1, kappa: 2.0, exponents: [1, 0]}\n"
            "  - {label: l2, kappa: 3.0, exponents: [2, 0]}\n"
        )
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "scale"]
        )
        assert result.exit_code == 2
        assert "rank" in result.output

    def test_malformed_config_exits_64(self, runner, tmp_path):
        config = tmp_path / "broken.yaml"
        config.write_text("factors: [a]\nmonomials: not-a-list\n")
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "scale"]
        )
        assert result.exit_code == 64

    @pytest.mark.parametrize("old, new, key", [
        ("exponents: [1]}", "exponents: [1], tagret: 1}", "monomials[0].tagret"),
        ("factors: [a]", "factors: [a]\nfactor: [b]", "unknown factor"),
        ("kappa: 2.0, ", "", "monomials[1].kappa"),
        ("kappa: 2.0", "kappa: two", "monomials[1].kappa"),
        ("kappa: 2.0", "kappa: true", "monomials[1].kappa must be a number, got True"),
        ("exponents: [1]}", "exponents: 1}", "monomials[0].exponents"),
        ("factors: [a]\nmonomials:\n", "", "top level must be a mapping"),
        ("factors: [a]", "factors: []", "need at least one factor and one monomial"),
        ("monomials:\n  - {label: l1, kappa: 3.0, exponents: [1]}\n"
         "  - {label: l2, kappa: 2.0, exponents: [-1]}\n", "monomials: []\n",
         "need at least one factor and one monomial"),
    ], ids=["unknown-monomial-key", "unknown-top-key", "missing-key", "not-a-number",
            "bool", "not-a-list", "top-level-list", "no-factor", "no-monomial"])
    def test_bad_problem_key_is_named(self, runner, tmp_path, old, new, key):
        config = tmp_path / "bad.yaml"
        config.write_text(PROBLEM.replace(old, new, 1))
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "scale"]
        )
        assert result.exit_code == 64, result.output
        assert key in result.output

    def test_anneal_max_is_seeded(self, runner, tmp_path):
        args = ["--out", str(tmp_path), "--seed", "11", "scale",
                "--preset", "projectile", "--method", "anneal-max",
                "--max-evals", "3000"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output


class TestEnumerate:
    def test_projectile_rows(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "enumerate", "--preset", "projectile"]
        )
        assert result.exit_code == 0
        _, rows = read_csv(tmp_path / "enumeration.csv")
        assert len(rows) == 3
        ratios = [float(r["ratio"]) for r in rows]
        assert ratios == sorted(ratios)
        assert ratios[0] == pytest.approx(316.2, rel=1e-3)

    @pytest.mark.parametrize("command, factors, exponents, code, message", [
        ("enumerate", "[a, b]", ("[1, 0]", "[2, 0]", "[3, 0]"), 2,
         "degenerate exponent structure: rank 1 < 2"),
        # Every pair of rows is 1e-13 of Hadamard's bound from collinear,
        # though the rank is 2; scale solves it past the normal floats.
        ("enumerate", "[a, b]", ("[1, 0]", "[1, 1.0e-13]", "[1, 2.0e-13]"), 2,
         "no subset is solvable: all 3 have |det| <= 1e-12 x the product of their rows' norms"),
        ("scale", "[a, b]", ("[1, 0]", "[1, 1.0e-13]", "[1, 2.0e-13]"), 5,
         "euclid: the factors leave the normal floats, log10 theta = ["),
        # Every det is 1e-14, but each subset is 1e-7 times a well-posed one,
        # so both commands solve it, past the normal floats.
        ("enumerate", "[a, b]", ("[1.0e-7, 0]", "[0, 1.0e-7]", "[1.0e-7, 1.0e-7]"), 5,
         "subset:0,1: the factors leave the normal floats, log10 theta = ["),
        # log10 theta_a = -log10(2) / 1e-11 sends theta_a to 0.
        ("enumerate", "[a]", ("[1.0e-11]", "[1]"), 5,
         "subset:0: the factors leave the normal floats, log10 theta = ["),
        ("scale", "[a, b]", ("[1.0e-7, 0]", "[0, 1.0e-7]", "[1.0e-7, 1.0e-7]"), 5,
         "euclid: the factors leave the normal floats, log10 theta = ["),
    ], ids=["rank-deficient", "near-collinear", "near-collinear-scale", "every-det-tiny",
            "subset-past-normal", "euclid-past-normal"])
    def test_problem_with_no_usable_factors_exits_before_writing(
            self, runner, tmp_path, command, factors, exponents, code, message):
        config = tmp_path / "problem.yaml"
        config.write_text(f"factors: {factors}\nmonomials:\n" + "".join(
            f"  - {{label: l{i}, kappa: {i + 2}.0, exponents: {row}}}\n"
            for i, row in enumerate(exponents)))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "--config", str(config), command])
        assert result.exit_code == code, result.output
        assert f"error: {message}" in result.output
        assert not out.exists()

    def test_cap_exceeded_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "enumerate", "--preset", "latex",
                   "--cap", "1000"]
        )
        assert result.exit_code == 3
        assert "75582" in result.output


@pytest.mark.parametrize("command", [
    ["scale"], ["enumerate"], ["scale", "--method", "anneal-max", "--max-evals", "100"],
], ids=["scale", "enumerate", "anneal-max"])
@pytest.mark.parametrize("old, new, field", [
    ("kappa: 3.0", "kappa: .inf", "kappa"),
    ("kappa: 3.0", "kappa: 1e400", "kappa"),
    ("exponents: [1]}", "exponents: [.nan]}", "exponents[0]"),
    ("exponents: [1]}", "exponents: [1], target: -.inf}", "target"),
], ids=["inf-kappa", "overflowing-kappa", "nan-exponent", "inf-target"])
def test_non_finite_problem_value_exits_64_before_writing(
        runner, tmp_path, command, old, new, field):
    config = tmp_path / "problem.yaml"
    config.write_text(PROBLEM.replace(old, new, 1))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--config", str(config), *command])
    assert result.exit_code == 64, result.output
    assert f"monomial 'l1': {field} must be" in result.output
    assert not out.exists()


@pytest.mark.parametrize("command", [["scale"], ["enumerate"]], ids=["scale", "enumerate"])
@pytest.mark.parametrize("factors, labels, named", [
    (("a",), ("x;y", "x", "z"), "monomial label 'x;y' holds ';'"),
    (("a",), ("l1", "l2", "l1"), "monomial label 'l1' is not unique"),
    (("x [m]", "x [s]"), ("l1", "l2", "l3"),
     "factor names 'x [m]' and 'x [s]' share the CSV column 'theta_x'"),
    (("a b", "a_b"), ("l1", "l2", "l3"),
     "factor names 'a b' and 'a_b' share the CSV column 'theta_a_b'"),
], ids=["semicolon", "duplicate", "unit", "space"])
def test_ambiguous_label_exits_64_before_writing(runner, tmp_path, command, factors, labels,
                                                 named):
    # A forced subset is written as its labels joined by ';', and a factor
    # as the column theta_<name up to '[', spaces as '_'>.
    config = tmp_path / "problem.yaml"
    config.write_text(f"factors: {list(factors)}\nmonomials:\n" + "".join(
        f"  - {{label: '{label}', kappa: {i + 2}.0, exponents: {[(-1) ** i] * len(factors)}}}\n"
        for i, label in enumerate(labels)))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--config", str(config), *command])
    assert result.exit_code == 64, result.output
    assert named in result.output
    assert not out.exists()


@pytest.mark.parametrize("args, code, message", [
    (["pbe", "--v-window", "1e300", "--steps", "1"], 64,
     "grid spacing h must be > 0 and finite, got --v-window 1e+300"),
    (["pbe", "--nodes", "100000000", "--steps", "1"], 64, "grid needs N <= 1000000"),
    (["pbe", "--theta", "eucl", "--nodes", "16", "--v-window", "0.05e-16",
      "--t-horizon", "250"], 64, "is not below N = 16"),
    (["enumerate", "--preset", "projectile", "--cap", "0"], 64, "cap must be >= 1"),
    (["enumerate", "--preset", "latex", "--cap", "1000"], 3,
     "subset count 75582 exceeds cap 1000"),
    (["scale", "--preset", "bogus"], 64, "'bogus' is not one of"),
    (["--config", "{missing}", "projectile"], 64, "projectile reads no --config file"),
    (["projectile", "--t-max", "inf"], 64, "--t-max must be > 0 and finite"),
    (["--config", "{missing}", "scale"], 64, "cannot read problem file {missing}"),
    (["--config", "{missing}", "pbe"], 64, "cannot read scenario file {missing}"),
    (["pbe", "--steps", "0"], 64, "steps must be >= 1"),
    (["pbe", "--steps", "1000001"], 64, "steps must be <= 1000000, got 1000001"),
], ids=["v-window", "oversized-grid", "source-outside", "cap-zero", "cap-exceeded",
        "usage", "group-config", "t-max", "unreadable-problem", "unreadable-scenario",
        "steps-zero", "steps-over-budget"])
def test_refused_command_leaves_no_out_directory(runner, tmp_path, args, code, message):
    # --out is made with a command's first artifact, never before.
    out = tmp_path / "out"
    missing = tmp_path / "missing.yaml"
    args = [arg.format(missing=missing) for arg in args]
    result = runner.invoke(main, ["--out", str(out), *args])
    assert result.exit_code == code, result.output
    assert message.format(missing=missing) in result.output
    assert not out.exists()


class TestProjectile:
    def test_run_with_roundtrip(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "projectile", "--steps", "400",
                   "--roundtrip"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "projectile_summary.json") as fh:
            summary = json.load(fh)
        assert summary["roundtrip_max_relative_deviation"] < 1e-10
        assert summary["manifest"]["command"] == "projectile"
        _, rows = read_csv(tmp_path / "projectile_trajectory.csv")
        assert len(rows) == 401

    def test_singular_flow_points_listed_but_exit_zero(self, runner, tmp_path):
        # lambda2 = 1.568e-7 * x_c = 0.49999999999999994, so the pole
        # 1 + lambda2 * w1 == 0 falls exactly on the lattice column
        # w1 = -2.0000000000000004, once for each of the three w2 rows.
        result = runner.invoke(
            main, ["--out", str(tmp_path), "projectile", "--steps", "50",
                   "--theta", "1.0", "3189050.0",
                   "--flow-range", "-2.0000000000000004", "0.0", "-1.0", "1.0",
                   "--flow-grid", "2", "3"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "projectile_summary.json") as fh:
            summary = json.load(fh)
        assert summary["singular_flow_points"] == [
            [-2.0000000000000004, w2] for w2 in (-1.0, 0.0, 1.0)]
        _, rows = read_csv(tmp_path / "projectile_flow.csv")
        nan_rows = [r for r in rows if math.isnan(float(r["dw1"]))]
        assert len(nan_rows) == 3
        assert all(math.isnan(float(r["dw2"])) for r in nan_rows)

    def test_subnormal_theta_exits_5_before_writing(self, runner, tmp_path):
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "projectile", "--theta", "1", "1e-320"])
        assert result.exit_code == 5, result.output
        assert "error: theta: the factors leave the normal floats, log10 theta = [0.0, -320.0" \
            in result.output
        assert not out.exists()

    def test_lattice_rate_past_the_float_range_is_minus_zero(self, runner, tmp_path):
        # lambda2 = 1.568e293, so d * d overflows off the column w1 = 0 and
        # the rate rounds to -0.0, with no warning and no singular point.
        result = runner.invoke(main, ["--out", str(tmp_path), "projectile", "--steps", "10",
                                      "--theta", "1", "1e300", "--flow-grid", "3", "2"])
        assert result.exit_code == 0, result.output
        _, rows = read_csv(tmp_path / "projectile_flow.csv")
        assert [r["dw2"] for r in rows if r["w1"] != "0.0"] == ["-0.0"] * 4
        with open(tmp_path / "projectile_summary.json") as fh:
            assert json.load(fh)["singular_flow_points"] == []

    @pytest.mark.parametrize("args, message", [
        (["projectile", "--t-max", "inf", "--steps", "10"],
         "--t-max must be > 0 and finite, got inf"),
        (["projectile", "--t-max", "nan"], "--t-max must be > 0 and finite, got nan"),
        (["projectile", "--t-max", "-1"], "--t-max must be > 0 and finite, got -1.0"),
        (["projectile", "--flow-range", "0", "inf", "-2", "2"],
         "ranges must be finite and nonempty"),
        (["projectile", "--flow-range", "0", "nan", "-2", "2"],
         "ranges must be finite and nonempty"),
        (["--config", "/nonexistent.yaml", "projectile"],
         "projectile reads no --config file"),
        (["projectile", "--theta", "inf", "1"],
         "theta must be finite and > 0, got [inf, 1.0]"),
        (["projectile", "--flow-grid", "1", "10"], "grid counts must be >= 2"),
        (["projectile", "--flow-range", "-1e308", "1e308", "-1", "1", "--flow-grid", "3", "3"],
         "ranges must be finite and nonempty with a finite width hi - lo, "
         "got w1 (-1e+308, 1e+308), w2 (-1.0, 1.0)"),
        (["projectile", "--theta", "1e300", "1e-300"], "lambdas must be positive and finite"),
        (["projectile", "--theta", "1e-200", "1e200"], "lambdas must be positive and finite"),
        (["projectile", "--roundtrip", "--theta", "1e200", "1"],
         "lambdas must be positive and finite"),
    ], ids=["t-max-inf", "t-max-nan", "t-max-negative", "flow-range-inf",
            "flow-range-nan", "group-config", "theta-inf", "flow-grid-one",
            "flow-range-width-overflows", "lambda-inf", "lambda-underflows-to-0",
            "roundtrip-lambda-inf"])
    def test_non_finite_input_exits_64_before_writing(self, runner, tmp_path, args, message):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert result.exit_code == 64, result.output
        assert f"error: {message}" in result.output
        assert not list(tmp_path.iterdir())
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("bound, fits, over, message", [
        ("MAX_FLOW_POINTS", ["--flow-grid", "10", "10"], ["--flow-grid", "11", "10"],
         "lattice needs at most 100 points, got 11 x 10"),
        ("MAX_RK4_STEPS", ["--steps", "100"], ["--steps", "101"],
         "steps must be in 1..100 (30 bytes a step), got 101"),
        ("MAX_RK4_STEPS", ["--steps", "100", "--roundtrip"], ["--steps", "101", "--roundtrip"],
         "steps must be in 1..100 (30 bytes a step), got 101"),
    ], ids=["flow-grid", "steps", "steps-roundtrip"])
    def test_oversized_run_exits_64_before_writing(
        self, runner, tmp_path, monkeypatch, bound, fits, over, message
    ):
        # The bound is cut to 100, so that no test makes a large array.
        monkeypatch.setattr(odes, bound, 100)
        theta = ["projectile", "--theta", "1", "1"]
        result = runner.invoke(main, ["--out", str(tmp_path / "fits"), *theta, *fits])
        assert result.exit_code == 0, result.output
        out = tmp_path / "over"
        result = runner.invoke(main, ["--out", str(out), *theta, *over])
        assert result.exit_code == 64, result.output
        assert f"error: {message}" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, method", [
        ([], "euclid"),
        (["--theta", "1", "1"], None),
    ], ids=["method", "theta"])
    def test_manifest_records_how_theta_was_chosen(self, runner, tmp_path, args, method):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "projectile", "--steps", "50", *args])
        assert result.exit_code == 0, result.output
        for name in ("projectile_trajectory.csv", "projectile_flow.csv"):
            manifest, _ = read_csv(tmp_path / name)
            assert manifest["config"]["method"] == method
        with open(tmp_path / "projectile_summary.json") as fh:
            assert json.load(fh)["manifest"]["config"]["method"] == method


@pytest.mark.parametrize("args", [
    ["scale", "--preset", "projectile"],
    ["pbe", "--t-horizon", "10", "--steps", "10"],
], ids=["scale", "pbe"])
def test_same_inputs_write_identical_artifacts_in_any_out(runner, tmp_path, args):
    first, second = tmp_path / "first", tmp_path / "second" / "nested"
    for out in (first, second):
        result = runner.invoke(main, ["--out", str(out), *args])
        assert result.exit_code == 0, result.output
    names = sorted(path.name for path in first.iterdir())
    assert names == sorted(path.name for path in second.iterdir())
    assert names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name


def no_nucleation_scenario():
    lambdas = {name: 1.0 for name in
               ("a_m", "a_w", "d", "p", "c", "mu_m", "mu_w",
                "dm_mat", "dw_mat", "s_mat", "pol1_pol2", "pol1_mat",
                "p_m", "p_w", "p_pol2", "p_pol1", "p_mat")}
    lambdas["n"] = 0.0
    lambdas["s_m"] = 0.0
    return (
        "lambdas:\n"
        + "".join(f"  {k}: {v}\n" for k, v in lambdas.items())
        + "constants: {Phi_s: 1.0e-3, Psi_bar: 1.0, Psi_r: 1.05}\n"
        + "sigma_c: 0.02\n"
        + "grid: {N: 16, v_max: 4.0}\n"
        + "t_max: 0.2\n"
    )


class TestPbe:
    def test_lambda_file_without_nucleation_gives_zero_distributions(
        self, runner, tmp_path
    ):
        config = tmp_path / "custom.yaml"
        config.write_text(no_nucleation_scenario())
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe",
                   "--steps", "100"]
        )
        assert result.exit_code == 0, result.output
        _, rows = read_csv(tmp_path / "pbe_distributions.csv")
        assert all(float(r["m"]) == 0.0 for r in rows)
        assert all(float(r["w"]) == 0.0 for r in rows)
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        assert summary["max_eps_m"] is None

    def test_missing_scenario_keys_exit_64(self, runner, tmp_path):
        config = tmp_path / "incomplete.yaml"
        config.write_text("lambdas: {a_m: 1.0}\n")
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe"]
        )
        assert result.exit_code == 64

    @pytest.mark.parametrize("old, new, key", [
        ("  a_w: 1.0", "  a_ww: 1.0", "lambdas.a_ww"),
        ("  a_w: 1.0\n", "", "lambdas.a_w"),
        ("N: 16", "N: sixteen", "grid.N"),
        ("t_max: 0.2", "t_max: [0.2]", "t_max"),
        ("N: 16", "N: 16.7", "grid.N"),
        ("t_max: 0.2", "t_max: -0.2", "t_max"),
        ("t_max: 0.2", "t_max: .inf", "t_max must be > 0 and finite"),
        ("N: 16", "N: 4", "grid.N"),
        ("N: 16", "N: 100000000", "grid.N must be in [8, 1000000], got 100000000"),
        ("v_max: 4.0", "v_max: 0.0", "grid.v_max"),
        ("v_max: 4.0", "v_max: .inf", "grid.v_max"),
        ("v_max: 4.0", "v_max: 1.0e+300", "grid span N h must be below 1.341e+154, got 1e+300"),
        ("sigma_c: 0.02", "sigma_c: 0.0", "sigma_c"),
        ("sigma_c: 0.02", "sigma_c: 5.0e-324", "sigma_c must keep the Gaussian's peak"),
        ("  a_w: 1.0", "  a_w: .inf", "lam_a_w must be finite"),
        ("Psi_bar: 1.0", "Psi_bar: .nan", "Psi_bar must be finite"),
        ("Psi_r: 1.05", "Psi_r: 0.0", "Psi_r must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: -1.0", "Phi_s must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: 1.0", "Phi_s must be < 1"),
        ("t_max: 0.2", "t_max: 0.2\nstpes: 10", "unknown stpes"),
        ("t_max: 0.2", "t_max: 0.2\nsteps: 100", "unknown steps"),
        ("sigma_c: 0.02", "sigma-c: 0.5", "unknown sigma-c"),
        ("t_max: 0.2", "", "missing t_max"),
        ("  n: 0.0", "  n: -1.0", "lam_n must be >= 0, got -1.0"),
        ("v_max: 4.0", "v_max: 5.0e-324", "grid spacing h must be > 0 and finite, got 0.0"),
        ("Psi_bar: 1.0", "Psi_bar: 1.0e+70", "Psi_bar must keep (Psi_bar + 1)^(14/3) finite"),
        # With no --steps the run steps adaptively, and its stable step is
        # 1.35e-15 against t_max = 0.2.
        ("  mu_m: 1.0", "  mu_m: 1.0e+15",
         "the run needs more than 1000000 steps: step 1's stable step"),
        ("t_max: 0.2", "t_max: 1.0e-320", "t_max must be >= 2.2250738585072014e-306"),
        ("Psi_r: 1.05", "Psi_r: yes", "constants.Psi_r must be a number, got True"),
        ("  n: 0.0\n", "  n: false\n", "lambdas.n must be a number, got False"),
        ("t_max: 0.2", "t_max: true", "t_max must be a number, got True"),
    ])
    def test_bad_scenario_key_is_named(self, runner, tmp_path, old, new, key):
        config = tmp_path / "bad.yaml"
        config.write_text(no_nucleation_scenario().replace(old, new))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "--config", str(config), "pbe"])
        assert result.exit_code == 64, result.output
        assert key in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args, named", [
        (["--nodes", "400"], ["--nodes"]),
        (["--theta", "test"], ["--theta"]),
        (["--full"], ["--desk/--full"]),
        (["--desk"], ["--desk/--full"]),
        (["--v-window", "1e-16", "--t-horizon", "9", "--sigma-rule", "25"],
         ["--v-window", "--t-horizon", "--sigma-rule"]),
    ], ids=["nodes", "theta", "full", "desk", "window"])
    def test_window_options_beside_scenario_file_exit_64(
        self, runner, tmp_path, args, named
    ):
        config = tmp_path / "custom.yaml"
        config.write_text(no_nucleation_scenario())
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe", *args]
        )
        assert result.exit_code == 64, result.output
        for name in named:
            assert name in result.output
        assert not (tmp_path / "pbe_summary.json").exists()

    def test_steps_overrides_scenario_file(self, runner, tmp_path):
        # The file fixes no step count; --steps is the one way to give it.
        config = tmp_path / "custom.yaml"
        config.write_text(no_nucleation_scenario())
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe",
                   "--steps", "30"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        assert summary["settings"]["steps"] == 30
        assert summary["manifest"]["config"]["config"] == str(config)

    def blowup(self, runner, tmp_path):
        """A run whose absurd aggregation coefficient overflows the state."""
        config = tmp_path / "blowup.yaml"
        config.write_text(
            no_nucleation_scenario().replace("  a_m: 1.0", "  a_m: 1.0e300")
            .replace("  n: 0.0", "  n: 1.0").replace("  s_m: 0.0", "  s_m: 1.0")
            .replace("t_max: 0.2", "t_max: 0.5")
        )
        return runner.invoke(
            main, ["--out", str(tmp_path / "out"), "--config", str(config), "pbe",
                   "--steps", "50"]
        )

    def test_non_finite_state_exits_5(self, runner, tmp_path):
        # The first step's state names the nodes of m that overflowed.
        result = self.blowup(runner, tmp_path)
        assert result.exit_code == 5, result.output
        assert "error: non-finite state after step 1: m at nodes [1, 2, 3, 4, 5]" in result.output

    @pytest.mark.parametrize("old, new, message", [
        ("  p_pol1: 1.0", "  p_pol1: 1.0e-310", "state corruption: Psi + 1 <= 0"),
        ("  p_pol2: 1.0", "  p_pol2: 3.0", "state corruption: V_p <= 0"),
    ], ids=["psi", "v_p"])
    def test_corrupted_state_exits_5_before_writing(self, runner, tmp_path, old, new, message):
        # One step of the whole horizon drives Psi below -1, where
        # (Psi + 1)^(2/3) would be complex.
        config = tmp_path / "corrupt.yaml"
        config.write_text(
            no_nucleation_scenario().replace("  n: 0.0", "  n: 1.0")
            .replace("  s_m: 0.0", "  s_m: 1.0").replace("t_max: 0.2", "t_max: 5.0")
            .replace(old, new))
        out = tmp_path / "out"
        result = runner.invoke(main, ["--out", str(out), "--config", str(config), "pbe",
                                      "--steps", "1"])
        assert result.exit_code == 5, result.output
        assert f"error: {message}" in result.output
        assert not out.exists()

    def test_non_finite_state_exits_5_when_runtime_warnings_are_errors(
        self, runner, tmp_path
    ):
        # The state overflows before it stops being finite; that overflow
        # must not surface as a RuntimeWarning, which -W error turns into a
        # traceback and exit 1.
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            result = self.blowup(runner, tmp_path)
        assert result.exit_code == 5, result.output
        assert "non-finite" in result.output
        assert not (tmp_path / "out").exists()

    def test_negative_horizon_option_exits_64(self, runner, tmp_path):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pbe", "--theta", "eucl", "--desk",
                   "--t-horizon", "-1", "--steps", "5"]
        )
        assert result.exit_code == 64
        assert "t_max" in result.output

    @pytest.mark.parametrize("option, named", [
        ("--t-horizon", "t_max must be > 0 and finite"),
        ("--v-window", "grid spacing h must be > 0 and finite"),
    ])
    def test_non_finite_window_option_exits_64(self, runner, tmp_path, option, named):
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pbe", "--theta", "eucl", "--desk",
                   option, "inf"]
        )
        assert result.exit_code == 64, result.output
        assert named in result.output
        assert not (tmp_path / "pbe_summary.json").exists()

    @pytest.mark.parametrize("option, value, named", [
        ("--sigma-rule", "0", "sigma_c must be > 0 and finite, got --sigma-rule 0.0"),
        ("--sigma-rule", "-2", "sigma_c must be > 0 and finite, got --sigma-rule -2.0"),
        ("--v-window", "0", "grid spacing h must be > 0 and finite, got --v-window 0.0"),
        # Finite, but it overflows once divided by nu0 (about 1e-17).
        ("--v-window", "1e300", "grid spacing h must be > 0 and finite, got --v-window 1e+300"),
        ("--t-horizon", "nan", "t_max must be > 0 and finite, got --t-horizon nan"),
        # A subnormal sample spacing would end the run off its last sample.
        ("--t-horizon", "1e-310", "t_max must be >= 2.2250738585072014e-306"),
        # Finite, but lambda_c over it overflows.
        ("--sigma-rule", "1e-310", "sigma_c must be > 0 and finite, got --sigma-rule 1e-310"),
        ("--nodes", "0", "grid needs N >= 8"),
    ])
    def test_window_option_out_of_domain_exits_64_without_warning(
            self, runner, tmp_path, option, value, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["--out", str(tmp_path), "pbe", option, value])
        assert result.exit_code == 64, result.output
        assert named in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "pbe_summary.json").exists()

    @pytest.mark.parametrize("rule, sigma_over_h", [("1e300", "3.537e-299"),
                                                    ("1e6", "3.537e-05")])
    def test_source_the_grid_cannot_see_exits_64_before_writing(
            self, runner, tmp_path, rule, sigma_over_h):
        # sigma_c so narrow that the Gaussian is 0 at every node: nothing
        # could nucleate, so the run is refused rather than reported.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["--out", str(tmp_path), "pbe",
                                          "--sigma-rule", rule, "--steps", "10"])
        assert result.exit_code == 64, result.output
        assert (f"its discrete mass is 0 (sigma_c/h = {sigma_over_h}, "
                "lambda_c/h = 3.537e+01)") in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert list(tmp_path.iterdir()) == []

    def test_source_outside_the_window_exits_64_before_writing(self, runner, tmp_path):
        # The old guard-stop window puts lam_c at 28.3 grid spacings of 16.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, ["--out", str(tmp_path), "pbe", "--theta", "eucl",
                                          "--nodes", "16", "--v-window", "0.05e-16",
                                          "--t-horizon", "250"])
        assert result.exit_code == 64, result.output
        assert "lambda_c/h = 2.830e+01 is not below N = 16" in result.output
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert list(tmp_path.iterdir()) == []

    def test_oversized_grid_exits_64_before_writing(self, runner, tmp_path):
        result = runner.invoke(main, ["--out", str(tmp_path), "pbe",
                                      "--nodes", "100000000", "--steps", "1"])
        assert result.exit_code == 64, result.output
        assert "grid needs N <= " in result.output
        assert list(tmp_path.iterdir()) == []

    def test_bare_theta_test_runs_the_desk_window(self, runner, tmp_path):
        # The poorly-scaled desk run nucleates and oscillates below zero;
        # only the optimal scaling exits 4 for that.
        result = runner.invoke(main, ["--out", str(tmp_path), "pbe", "--theta", "test"])
        assert result.exit_code == 0, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        config = summary["manifest"]["config"]
        desk = latex_scenario("test")
        assert (config["N"], config["h"], config["t_max"]) == (
            DESK["n_nodes"], desk.grid.h, desk.t_max)
        assert summary["max_m"] > 0
        assert summary["negative_minima"] is True
        assert summary["settings"]["source_mass"] == pytest.approx(0.422598, rel=1e-6)
        assert summary["settings"]["guard_step"] is None

    def test_guard_stop_reports_its_step_and_source_moments(self, runner, tmp_path):
        # CI's guard-stop run: lam_c sits at 14.15 of the 16 grid spacings,
        # so the support reaches the last node at step 3.
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pbe", "--theta", "eucl", "--nodes", "16",
                   "--v-window", "0.1e-16", "--t-horizon", "250"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        settings = summary["settings"]
        assert f"at step {settings['guard_step']}:" in summary["aborted"]
        assert settings["rhs_evaluations"] == 4 * settings["steps"] == 12
        assert settings["source_mass"] == pytest.approx(0.905047, rel=1e-6)
        assert settings["source_first_moment_ratio"] == pytest.approx(0.888258, rel=1e-6)

    def test_decay_limited_scenario_without_steps_stays_finite(self, runner, tmp_path):
        # lam_mu_m * t_max / 100 = 6 lies beyond RK4's real-axis limit 2.785,
        # so steps taken from transport and the sample spacing alone blow up
        # (exit 5); the decay limit keeps the run finite.
        config = tmp_path / "decay.yaml"
        config.write_text(
            no_nucleation_scenario()
            .replace("  n: 0.0", "  n: 1.0").replace("  s_m: 0.0", "  s_m: 1.0")
            .replace("  mu_m: 1.0", "  mu_m: 3000.0")
        )
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        assert summary["max_m"] > 0
        assert all(math.isfinite(summary[key])
                   for key in ("min_m", "min_w", "max_m", "max_w"))
        steps = summary["settings"]["steps"]
        assert steps > 100
        assert summary["manifest"]["config"]["steps"] == steps

    def test_eucl_desk_small_grid_guard_failure_exits_4(self, runner, tmp_path):
        # An under-resolved grid breaks non-negativity under the optimal
        # scaling, which is exactly what the guard exists to catch: min m
        # reaches -2.31e-6 against a final peak of 1.52e-3.
        result = runner.invoke(
            main, ["--out", str(tmp_path), "pbe", "--theta", "eucl",
                   "--nodes", "64", "--t-horizon", "120.0", "--steps", "3000"]
        )
        assert result.exit_code == 4, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        assert summary["negative_minima"] is True
        assert summary["settings"]["first_negative"] is not None


class TestPureYamlLoader:
    """Config loading under PyYAML's pure-Python ``SafeLoader``, which runio
    falls back to where PyYAML lacks libyaml: the same objects as the chosen
    loader, and the same exit 64 naming a malformed, missing or unknown key.
    The config-loading tests below are the ones above, run again here."""

    chosen = runio.YAML_LOADER

    @pytest.fixture(autouse=True)
    def pure_loader(self, monkeypatch):
        monkeypatch.setattr(runio, "YAML_LOADER", yaml.SafeLoader)

    def test_chosen_loader_is_libyaml_where_pyyaml_has_it(self):
        assert self.chosen is (yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader)

    def test_builds_the_objects_the_chosen_loader_builds(self, tmp_path, monkeypatch):
        latex = models.build_latex()[0]
        files = {
            "problem": (runio.load_problem, PROBLEM),
            "latex": (runio.load_problem, yaml.safe_dump({
                "factors": list(latex.factor_names),
                "monomials": [{"label": m.label, "kappa": m.kappa,
                               "exponents": list(m.exponents)} for m in latex.monomials],
            })),
            "scenario": (runio.load_lambda_config, no_nucleation_scenario()),
        }
        loaded = {}
        for loader in (yaml.SafeLoader, self.chosen):
            monkeypatch.setattr(runio, "YAML_LOADER", loader)
            for name, (load, text) in files.items():
                path = tmp_path / f"{name}.yaml"
                path.write_text(text)
                loaded.setdefault(name, []).append(load(path))
        for name, (pure, chosen) in loaded.items():
            assert pure == chosen, name
        assert loaded["latex"][0] == latex

    test_malformed_config_exits_64 = TestScale.test_malformed_config_exits_64
    test_bad_problem_key_is_named = TestScale.test_bad_problem_key_is_named
    test_missing_scenario_keys_exit_64 = TestPbe.test_missing_scenario_keys_exit_64
    test_bad_scenario_key_is_named = TestPbe.test_bad_scenario_key_is_named
    test_non_finite_problem_value_exits_64_before_writing = staticmethod(
        test_non_finite_problem_value_exits_64_before_writing)


class TestExitCodes:
    def test_every_toolkit_error_has_an_exit_code(self):
        kinds = [kind for kind in vars(errors).values() if isinstance(kind, type)
                 and issubclass(kind, errors.NondimError) and kind is not errors.NondimError]
        assert kinds
        assert [kind for kind in kinds if kind not in EXIT_CODES] == []

    def test_singular_test_subset_exits_2(self, runner, tmp_path, monkeypatch):
        # Coefficients 0..7 of the latex problem give a singular system.
        monkeypatch.setattr(scenarios, "LATEX_TEST_SUBSET", tuple(range(8)))
        result = runner.invoke(main, ["--out", str(tmp_path), "pbe", "--theta", "test",
                                      "--steps", "2"])
        assert result.exit_code == 2, result.output
        assert "error: unsolvable combination (0, 1, 2, 3, 4, 5, 6, 7): |det| = 0.000e+00" \
            in result.output
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("args", [
        ["pbe", "--nodes", "abc"],
        ["scale", "--preset", "foo"],
        ["scale", "--bogus"],
        ["--seed", "abc", "scale"],
        ["bogus"],
    ], ids=["bad-int", "bad-choice", "unknown-option", "bad-group-option",
            "unknown-command"])
    def test_usage_error_exits_64(self, runner, tmp_path, args):
        result = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert result.exit_code == 64, result.output
        assert "Error" in result.output

    @pytest.mark.parametrize("command", [
        ["scale", "--preset", "projectile", "--method", "anneal-max"],
        ["projectile", "--method", "anneal-max"],
    ], ids=["scale", "projectile"])
    def test_negative_seed_with_anneal_exits_64_writing_nothing(
        self, runner, tmp_path, command
    ):
        # numpy.random.default_rng refuses a negative seed with a ValueError.
        out = tmp_path / "out"
        result = runner.invoke(main, ["--seed", "-1", "--out", str(out), *command])
        assert result.exit_code == 64, result.output
        assert "error: the annealing seed must be >= 0, got --seed -1" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("args", [["--help"], ["pbe", "--help"]])
    def test_help_exits_0(self, runner, args):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output

    @pytest.mark.parametrize("target, args", [
        pytest.param("cli.simulate", ["pbe", "--theta", "eucl"], id="pbe"),
        pytest.param("cli.solve_euclidean", ["scale", "--preset", "projectile"], id="scale"),
        pytest.param("cli.enumerate_traditional", ["enumerate", "--preset", "projectile"],
                     id="enumerate"),
        pytest.param("cli.rk4_integrate", ["projectile"], id="projectile"),
        pytest.param("runio.Monomial", ["--config", "{problem}", "scale"],
                     id="problem-loader"),
    ])
    def test_solver_bug_is_not_reported_as_config_error(
        self, runner, tmp_path, monkeypatch, target, args
    ):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the solver")

        problem = tmp_path / "problem.yaml"
        problem.write_text(PROBLEM)
        monkeypatch.setattr(f"nondim.{target}", broken)
        args = [arg.format(problem=problem) for arg in args]
        result = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert isinstance(result.exception, TypeError)
        assert result.exit_code != 64
