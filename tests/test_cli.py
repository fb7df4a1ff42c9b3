import csv
import json
import math
import warnings

import pytest
from click.testing import CliRunner

import nondim
from nondim.cli import main
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
        (["--preset", "latex", "--method", "anneal-max", "--max-evals", "0"],
         "max_evaluations"),
        (["--preset", "ldg", "--q", "0"], "q must be"),
    ])
    def test_out_of_domain_option_exits_64(self, runner, tmp_path, args, message):
        result = runner.invoke(main, ["--out", str(tmp_path), "scale", *args])
        assert result.exit_code == 64, result.output
        assert message in result.output

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
        ("exponents: [1]}", "exponents: 1}", "monomials[0].exponents"),
    ], ids=["unknown-monomial-key", "unknown-top-key", "missing-key", "not-a-number",
            "not-a-list"])
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
    assert not any(out.iterdir())


@pytest.mark.parametrize("command", [["scale"], ["enumerate"]], ids=["scale", "enumerate"])
@pytest.mark.parametrize("labels, named", [
    (("x;y", "x", "z"), "'x;y' holds ';'"),
    (("l1", "l2", "l1"), "'l1' is not unique"),
], ids=["semicolon", "duplicate"])
def test_ambiguous_label_exits_64_before_writing(runner, tmp_path, command, labels, named):
    # A forced subset is written as its labels joined by ';'.
    config = tmp_path / "problem.yaml"
    config.write_text("factors: [a]\nmonomials:\n" + "".join(
        f"  - {{label: '{label}', kappa: {i + 2}.0, exponents: [{(-1) ** i}]}}\n"
        for i, label in enumerate(labels)))
    out = tmp_path / "out"
    result = runner.invoke(main, ["--out", str(out), "--config", str(config), *command])
    assert result.exit_code == 64, result.output
    assert f"monomial label {named}" in result.output
    assert not any(out.iterdir())


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
    ], ids=["t-max-inf", "t-max-nan", "t-max-negative", "flow-range-inf",
            "flow-range-nan", "group-config"])
    def test_non_finite_input_exits_64_before_writing(self, runner, tmp_path, args, message):
        result = runner.invoke(main, ["--out", str(tmp_path), *args])
        assert result.exit_code == 64, result.output
        assert f"error: {message}" in result.output
        assert not list(tmp_path.iterdir())

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
        ("v_max: 4.0", "v_max: 0.0", "grid.v_max"),
        ("v_max: 4.0", "v_max: .inf", "grid.v_max"),
        ("sigma_c: 0.02", "sigma_c: 0.0", "sigma_c"),
        ("  a_w: 1.0", "  a_w: .inf", "lam_a_w must be finite"),
        ("Psi_bar: 1.0", "Psi_bar: .nan", "Psi_bar must be finite"),
        ("Psi_r: 1.05", "Psi_r: 0.0", "Psi_r must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: -1.0", "Phi_s must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: 1.0", "Phi_s must be < 1"),
        ("t_max: 0.2", "t_max: 0.2\nstpes: 10", "unknown stpes"),
        ("t_max: 0.2", "t_max: 0.2\nsteps: 100", "unknown steps"),
        ("sigma_c: 0.02", "sigma-c: 0.5", "unknown sigma-c"),
        ("t_max: 0.2", "", "missing t_max"),
    ])
    def test_bad_scenario_key_is_named(self, runner, tmp_path, old, new, key):
        config = tmp_path / "bad.yaml"
        config.write_text(no_nucleation_scenario().replace(old, new))
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe"]
        )
        assert result.exit_code == 64
        assert key in result.output

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

    def test_non_finite_state_exits_5(self, runner, tmp_path):
        config = tmp_path / "blowup.yaml"
        config.write_text(
            no_nucleation_scenario().replace("  a_m: 1.0", "  a_m: 1.0e300")
            .replace("  n: 0.0", "  n: 1.0").replace("  s_m: 0.0", "  s_m: 1.0")
            .replace("t_max: 0.2", "t_max: 0.5")
        )
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe",
                   "--steps", "50"]
        )
        assert result.exit_code == 5, result.output
        assert "non-finite" in result.output

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
        ("--t-horizon", "nan", "t_max must be > 0 and finite, got --t-horizon nan"),
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


class TestExitCodes:
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
