import csv
import json
import math

import pytest
import yaml
from click.testing import CliRunner

import nondim
from nondim import errors, models, odes, runio, scenarios
from nondim.cli import EXIT_CODES, main
from nondim.scenarios import DESK, latex_scenario

import cli_repros
from cli_repros import NUCLEATING, PROBLEM, SCENARIO, invoke


def read_csv(path):
    with open(path) as fh:
        header = fh.readline()
        assert header.startswith("# manifest: ")
        manifest = json.loads(header[len("# manifest: "):])
        rows = list(csv.DictReader(fh))
    return manifest, rows


@pytest.fixture()
def runner():
    return CliRunner()


def group_test(group):
    """A test of each entry of a group of the CLI repro table, by case name."""
    @pytest.mark.parametrize("repro", [pytest.param(repro, id=case)
                                       for case, repro in group.items()])
    def test(repro):
        assert invoke(repro) == []
    return staticmethod(test)


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

    def test_anneal_max_is_seeded(self, runner, tmp_path):
        args = ["--out", str(tmp_path), "--seed", "11", "scale",
                "--preset", "projectile", "--method", "anneal-max",
                "--max-evals", "3000"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.output == second.output

    test_bad_problem_key_is_named = group_test(cli_repros.PROBLEM_KEYS)


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

    test_problem_with_no_usable_factors_exits_before_writing = group_test(
        cli_repros.NO_USABLE_FACTORS)


test_non_finite_problem_value_exits_64_before_writing = group_test(cli_repros.NON_FINITE_VALUES)
test_ambiguous_label_exits_64_before_writing = group_test(cli_repros.AMBIGUOUS_LABELS)


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

    test_non_finite_input_exits_64_before_writing = group_test(cli_repros.PROJECTILE_INPUTS)

    def test_lattice_is_refused_before_the_trajectory_runs(self, monkeypatch):
        # The lattice needs only the coefficients, so each of the table's
        # lattice refusals exits 64 with its message before any RK4 step.
        def trajectory(*args, **kwargs):
            raise AssertionError("the trajectory ran before the lattice was checked")

        monkeypatch.setattr(nondim.cli, "rk4_integrate", trajectory)
        lattice = [repro for repro in cli_repros.REPROS
                   if repro.args.startswith("projectile") and "--flow-" in repro.args
                   and repro.code == 64]
        assert len(lattice) == 5
        assert [fault for repro in lattice for fault in invoke(repro)] == []

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


class TestPbe:
    def test_lambda_file_without_nucleation_gives_zero_distributions(
        self, runner, tmp_path
    ):
        config = tmp_path / "custom.yaml"
        config.write_text(SCENARIO)
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

    test_bad_scenario_key_is_named = group_test(cli_repros.SCENARIO_KEYS)
    test_window_options_beside_scenario_file_exit_64 = group_test(cli_repros.BESIDE_SCENARIO)
    test_window_option_out_of_domain_exits_64_without_warning = group_test(
        cli_repros.WINDOW_OPTIONS)

    def test_steps_overrides_scenario_file(self, runner, tmp_path):
        # The file fixes no step count; --steps is the one way to give it.
        config = tmp_path / "custom.yaml"
        config.write_text(SCENARIO)
        result = runner.invoke(
            main, ["--out", str(tmp_path), "--config", str(config), "pbe",
                   "--steps", "30"]
        )
        assert result.exit_code == 0, result.output
        with open(tmp_path / "pbe_summary.json") as fh:
            summary = json.load(fh)
        assert summary["settings"]["steps"] == 30
        assert summary["manifest"]["config"]["config"] == str(config)

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
        config.write_text(NUCLEATING.replace("  mu_m: 1.0", "  mu_m: 3000.0"))
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


class TestPureYamlLoader:
    """Config loading under PyYAML's pure-Python ``SafeLoader``, which runio
    falls back to where PyYAML lacks libyaml: the same objects as the chosen
    loader, and the same exit code and message for every config file of the
    CLI repro table.  The table's groups with a config file run here again;
    ``test_cli_repros.py`` runs its single entries and ``test_golden.py`` its
    runs that write under both loaders."""

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
            "scenario": (runio.load_lambda_config, SCENARIO),
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

    test_bad_problem_key_is_named = group_test(cli_repros.PROBLEM_KEYS)
    test_problem_with_no_usable_factors_exits_before_writing = group_test(
        cli_repros.NO_USABLE_FACTORS)
    test_non_finite_problem_value_exits_64_before_writing = group_test(
        cli_repros.NON_FINITE_VALUES)
    test_ambiguous_label_exits_64_before_writing = group_test(cli_repros.AMBIGUOUS_LABELS)
    test_bad_scenario_key_is_named = group_test(cli_repros.SCENARIO_KEYS)
    test_window_options_beside_scenario_file_exit_64 = group_test(cli_repros.BESIDE_SCENARIO)


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

    test_usage_error_exits_64 = group_test(cli_repros.USAGE_ERRORS)
    test_negative_seed_with_anneal_exits_64_writing_nothing = group_test(
        cli_repros.NEGATIVE_SEEDS)

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
