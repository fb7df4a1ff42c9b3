"""Command-line interface: scale, enumerate, projectile, pbe.

Exit codes are stable contracts:

* 0 — success (including runs whose summary flags issues like singular
  flow points or negative minima under a poorly-scaled preset)
* 2 — degenerate exponent structure (rank reported), a singular
  one-equals-one subset, or an enumeration with no solvable subset
* 3 — enumeration size exceeds the cap
* 4 — non-negativity guard violated under the optimally-scaled preset:
  ``pbe --theta eucl`` whose report holds
  :attr:`~nondim.pbe.SimulationReport.negative_minima`, that is, whose
  summary names a ``settings.first_negative`` step (m or w below
  -:data:`~nondim.pbe.NONNEG_TOL` times that distribution's final peak).
* 5 — solver state stopped being finite, a projectile trajectory that
  reaches the pole 1 + lambda2*w1 = 0, scaling factors that are not normal
  floats and a corrupted PBE state among them
* 64 — malformed configuration or command line

:data:`EXIT_CODES` maps each toolkit error to its code, for every command.
Every command computes and reports everything before :func:`_write` writes
its artifacts, so a refused or failed command writes nothing and leaves no
``--out`` directory.  Each artifact embeds the one manifest of the run's
inputs, so the same inputs write byte-identical artifacts into any
``--out`` directory.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import models, runio, scenarios
from .errors import (
    ConfigError,
    DegenerateExponentsError,
    DomainError,
    EnumerationCapError,
    NonFiniteEvaluationError,
    UnsolvableSubsetError,
)
from .odes import flow_field, projectile_system, rk4_integrate
from .pbe import GmocWorkspace, simulate
from .scaling import (
    AnnealConfig,
    ScalingProblem,
    ScalingSolution,
    anneal_minimize,
    enumerate_traditional,
    eval_coefficients,
    solve_euclidean,
)

#: Exit code of each error a command may raise; any other error propagates.
#: 64 is sysexits' EX_USAGE, which click usage errors exit with too.
EXIT_CODES = {
    DegenerateExponentsError: 2,
    UnsolvableSubsetError: 2,
    EnumerationCapError: 3,
    NonFiniteEvaluationError: 5,
    ConfigError: 64,
    DomainError: 64,
}
EXIT_NONNEG = 4


#: The problem each ``--preset`` builds, from the ``--q`` option.
PRESETS = {
    "projectile": lambda q: models.build_projectile(),
    "schrodinger": lambda q: models.build_schrodinger(),
    "ldg": lambda q: models.build_ldg(models.LdGParams(q=q)),
    "latex": lambda q: models.build_latex()[0],
}


def _load_preset(preset: str | None, config: str | None, q: int) -> ScalingProblem:
    if (preset is None) == (config is None):
        raise ConfigError("give exactly one of --preset or --config")
    if config is not None:
        return runio.load_problem(config)
    return PRESETS[preset](q)


def _solve(problem: ScalingProblem, method: str, **anneal) -> ScalingSolution:
    """The exact Euclidean optimum (``euclid``) or the annealed max-norm
    minimum under ``AnnealConfig(**anneal)`` (``anneal-max``)."""
    if method == "euclid":
        return solve_euclidean(problem)
    return anneal_minimize(problem, config=AnnealConfig(**anneal))


def _write(ctx: click.Context, artifacts, **resolved) -> None:
    """Write each ``(name, writer, *payload)`` of ``artifacts`` as
    ``writer(<--out>/name, *payload, manifest)``, and print its path.

    The manifest is the command's parameters, the group's ``--config`` and
    what the command ``resolved`` from them, which replaces a parameter of
    the same name.  A command calls this last, after it has reported.
    """
    manifest = runio.RunManifest(
        command=ctx.info_name,
        config={**ctx.params, "config": ctx.obj["config"], **resolved},
        seed=ctx.obj["seed"],
    )
    for name, writer, *payload in artifacts:
        path = ctx.obj["out"] / name
        writer(path, *payload, manifest)
        click.echo(f"wrote {path}")


class _Cli(click.Group):
    """A group whose commands exit by :data:`EXIT_CODES`."""

    def make_context(self, info_name, args, parent=None, **extra):
        try:
            return super().make_context(info_name, args, parent=parent, **extra)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CODES[ConfigError]
            raise

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except click.UsageError as exc:
            exc.exit_code = EXIT_CODES[ConfigError]
            raise
        except tuple(EXIT_CODES) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind)))


@click.group(cls=_Cli)
@click.option("--out", type=click.Path(file_okay=False), default=".",
              help="Directory for output artifacts.")
@click.option("--seed", type=int, default=0, help="Seed for stochastic methods.")
@click.option("--config", type=click.Path(exists=False, dir_okay=False), default=None,
              help="Problem/scenario configuration file (YAML).")
@click.pass_context
def main(ctx, out, seed, config):
    """Scaling-factor optimization and the latex population balance solver."""
    ctx.obj = {"out": Path(out), "seed": seed, "config": config}


@main.command()
@click.option("--preset", type=click.Choice(list(PRESETS)), default=None)
@click.option("--method", type=click.Choice(["euclid", "anneal-max"]), default="euclid")
@click.option("--q", type=int, default=3, help="Size-separation decades (ldg preset).")
@click.option("--max-evals", type=int, default=100_000)
@click.pass_context
def scale(ctx, preset, method, q, max_evals):
    """Compute scaling factors by one method and write the solution CSV."""
    problem = _load_preset(preset, ctx.obj["config"], q)
    solution = _solve(problem, method, max_evaluations=max_evals, seed=ctx.obj["seed"])
    for name, value in zip(problem.factor_names, solution.theta):
        click.echo(f"theta  {name:>14} = {value:.6e}")
    for label, value in zip(problem.labels, solution.lambdas):
        click.echo(f"lambda {label:>14} = {value:.6e}")
    click.echo(f"cost  = {solution.cost:.6e}")
    click.echo(f"ratio = {solution.ratio:.6e}")
    _write(ctx, [("scale_solution.csv", runio.write_solution_csv, problem, solution)])


@main.command("enumerate")
@click.option("--preset", type=click.Choice(list(PRESETS)), default=None)
@click.option("--q", type=int, default=3)
@click.option("--cap", type=int, default=10**6, help="Largest allowed subset count.")
@click.pass_context
def enumerate_cmd(ctx, preset, q, cap):
    """Survey all traditional one-equals-one scalings, sorted by ratio."""
    problem = _load_preset(preset, ctx.obj["config"], q)
    result = enumerate_traditional(problem, cap=cap)
    click.echo(f"candidate subsets : {result.total_subsets}")
    click.echo(f"solvable subsets  : {result.solvable_count}")
    click.echo(f"fraction r > 1e10 : {result.fraction_with_ratio_above(1e10):.4f}")
    for row, name, tag in ((0, "best ", "m"), (-1, "worst", "M")):
        click.echo(f"{name} r = {result.ratio[row]:.6e}  subset "
                   + ",".join(problem.labels[c] for c in result.subsets[row]))
        click.echo(f"       theta_{tag} = "
                   + " ".join(f"{v:.6e}" for v in 10.0 ** result.rho[row]))
    _write(ctx, [("enumeration.csv", runio.write_enumeration_csv, problem, result)])


@main.command()
@click.option("--method", type=click.Choice(["euclid", "anneal-max"]), default="euclid",
              help="Scaling choice; --theta 1 1 runs dimensionally.")
@click.option("--theta", type=float, nargs=2, default=None,
              help="Explicit (t_c, x_c) overriding --method.")
@click.option("--steps", type=int, default=2000)
@click.option("--t-max", type=float, default=5.0, help="Flight time bound in seconds.")
@click.option("--flow-range", type=float, nargs=4, default=(0.0, 2.0, -2.0, 2.0),
              help="w1_lo w1_hi w2_lo w2_hi for the phase-plane lattice.")
@click.option("--flow-grid", type=int, nargs=2, default=(21, 21))
@click.option("--roundtrip", is_flag=True,
              help="Check the scaled run against the dimensional one.")
@click.pass_context
def projectile(ctx, method, theta, steps, t_max, flow_range, flow_grid, roundtrip):
    """Integrate the scaled throw and sample its phase-plane flow."""
    if ctx.obj["config"] is not None:
        raise ConfigError("projectile reads no --config file; drop --config")
    if not 0.0 < t_max < math.inf:
        raise DomainError(f"--t-max must be > 0 and finite, got {t_max!r}")
    problem = models.build_projectile()
    if theta:
        method = None  # the manifest records that no solve chose theta
        theta = np.asarray(theta, dtype=float)
    else:
        theta = _solve(problem, method, seed=ctx.obj["seed"]).theta
    lambdas = eval_coefficients(problem, theta)
    flow = flow_field(lambdas, flow_range[:2], flow_range[2:], flow_grid)
    t_c = float(theta[0])
    tau_max = t_max / t_c
    rhs = projectile_system(lambdas)
    trajectory = rk4_integrate(rhs, [0.0, lambdas[2]], 0.0, tau_max, steps)

    summary = {
        "theta": [float(v) for v in theta],
        "lambda": [float(v) for v in lambdas],
        "tau_max": tau_max,
        "singular_flow_points": flow.singular_points,
        "final_state": [float(v) for v in trajectory.states[-1]],
    }
    if roundtrip:
        unit_lambdas = eval_coefficients(problem, np.ones(2))
        dimensional = rk4_integrate(
            projectile_system(unit_lambdas), [0.0, unit_lambdas[2]],
            0.0, t_max, steps,
        )
        # Scaling equivariance: x(t) = x_c * w1(t / t_c) on matching grids.
        x_c = float(theta[1])
        rescaled = x_c * trajectory.states[:, 0]
        scale_ref = max(np.max(np.abs(dimensional.states[:, 0])), 1.0)
        deviation = float(np.max(np.abs(rescaled - dimensional.states[:, 0])) / scale_ref)
        summary["roundtrip_max_relative_deviation"] = deviation
        click.echo(f"roundtrip max relative deviation = {deviation:.3e}")
    if flow.singular_points:
        click.echo(f"singular flow points: {len(flow.singular_points)} (see summary)")
    _write(ctx, [
        ("projectile_trajectory.csv", runio.write_trajectory_csv,
         trajectory.times, trajectory.states, ["w1", "w2"]),
        ("projectile_flow.csv", runio.write_flow_csv, flow),
        ("projectile_summary.json", runio.write_summary_json, summary),
    ], method=method, theta=summary["theta"])


@main.command()
@click.option("--theta", type=click.Choice(["eucl", "test"]), default="eucl",
              help="Scaling: 'eucl', the Euclidean optimum, or 'test', a poorly-"
                   "scaled one-equals-one subset.  Either runs the window the "
                   "other options give.")
@click.option("--desk/--full", default=True,
              help="Desk-scale (default) or full-scale window defaults.")
@click.option("--nodes", type=int, default=None)
@click.option("--steps", type=int, default=None,
              help="Fixed RK4 step count, also beside --config; unset, each "
                   "step comes from the stability limit.")
@click.option("--v-window", type=float, default=None, help="Physical volume bound in L.")
@click.option("--t-horizon", type=float, default=None, help="Physical time bound in s.")
@click.option("--sigma-rule", type=float, default=None,
              help="Gaussian width divisor: sigma_c = lambda_c / RULE.")
@click.pass_context
def pbe(ctx, theta, desk, nodes, steps, v_window, t_horizon, sigma_rule):
    """Run the population balance solver and write its artifacts."""
    if ctx.obj["config"] is not None:
        fixed = [
            "/".join(param.opts + param.secondary_opts) for param in ctx.command.params
            if param.name != "steps"
            and ctx.get_parameter_source(param.name) is not ParameterSource.DEFAULT
        ]
        if fixed:
            raise ConfigError("the --config scenario file fixes the window; drop "
                              + ", ".join(fixed))
        scenario = runio.load_lambda_config(ctx.obj["config"])
    else:
        scenario = scenarios.latex_scenario(
            theta, n_nodes=nodes, v_window=v_window,
            t_horizon=t_horizon, sigma_rule=sigma_rule, desk=desk,
        )
    coeffs, grid, t_max = scenario.coeffs, scenario.grid, scenario.t_max
    report = simulate(GmocWorkspace(coeffs, grid), t_max, steps)

    summary = {
        "theta": scenario.theta_tag,
        "min_m": report.min_m, "min_w": report.min_w,
        "max_m": report.max_m, "max_w": report.max_w,
        "negative_minima": report.negative_minima,
        "max_eps_m": report.max_eps_m, "max_eps_w": report.max_eps_w,
        "aborted": report.aborted,
        "settings": report.settings,
    }
    click.echo(f"min m = {report.min_m:.6e}  min w = {report.min_w:.6e}")
    click.echo(f"max eps_m = {report.max_eps_m}  max eps_w = {report.max_eps_w}")
    if report.aborted:
        click.echo(f"early stop: {report.aborted}")
    if report.negative_minima:
        click.echo("negative minima beyond tolerance")
    _write(ctx, [
        ("pbe_distributions.csv", runio.write_distributions_csv, grid, report),
        ("pbe_diagnostics.csv", runio.write_diagnostics_csv, report),
        ("pbe_summary.json", runio.write_summary_json, summary),
    ], theta=scenario.theta_tag, N=grid.N, h=grid.h, t_max=t_max, sigma_c=coeffs.sigma_c,
        steps=report.settings["steps"] if steps is None else steps)
    if report.negative_minima and scenario.theta_tag == "eucl":
        sys.exit(EXIT_NONNEG)


if __name__ == "__main__":
    main()
