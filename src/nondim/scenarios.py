"""Pinned latex-model simulation scenarios.

The full-scale experiment tracks particle volumes up to 1e-16 L over 450 s
of process time on an N = 1000 grid.  The desk-scale scenario is a
scaled-down equivalent sized so the regularized nucleation source stays
resolved on an N = 200 grid and the distribution support stays inside the
grid: the physical window shrinks to 0.5e-16 L over 250 s and the Gaussian
width widens from lambda_c/50 to lambda_c/10.  The width-to-spacing ratios
differ: sigma_c/h is 3.54 on the desk defaults but 1.77 on the full-scale
defaults, so ``--full`` at the paper's lambda_c/50 is under-resolved.
``--sigma-rule 25`` gives the full grid the desk ratio, but that ratio is
not enough for the full 450 s run: min m dips to -1.196e-8 (the first value
below -1e-8 of its running peak is w at node 114, t ~ 54 s), and the
truncation guard stops the run near 386 s, when the support reaches v_max.
On coarser grids the lambda_c/50 source falls below grid resolution and
the non-monotone fourth-order transport scheme answers with order-one
oscillations, so a literal parameter-for-parameter shrink has no
non-negative regime.

Each window is one record, :data:`FULL` or :data:`DESK`, holding the node
count, volume window, time horizon and Gaussian width divisor
(sigma_c = lambda_c / sigma_rule); latex_scenario() takes from it every
value it is not given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DomainError
from .models import LATEX_TEST_SUBSET, build_latex
from .pbe import Grid, LatexCoefficients
from .scaling import solve_euclidean, solve_subset

#: The paper's full-scale window and the desk-scale one (volumes in L, time
#: in s; see the module docstring).
FULL = dict(n_nodes=1000, v_window=1.0e-16, t_horizon=450.0, sigma_rule=50.0)
DESK = dict(n_nodes=200, v_window=0.5e-16, t_horizon=250.0, sigma_rule=10.0)

#: Fixed RK4 step count of both runs of :func:`matched_pair`.
MATCHED_STEPS = 16000


@dataclass(frozen=True)
class LatexScenario:
    """simulate()'s inputs but the step count, tagged with their scaling."""

    theta_tag: str
    coeffs: LatexCoefficients
    grid: Grid
    t_max: float


def latex_scenario(
    theta: str,
    n_nodes: int | None = None,
    v_window: float | None = None,
    t_horizon: float | None = None,
    sigma_rule: float | None = None,
    desk: bool = True,
) -> LatexScenario:
    """Build a ready-to-run scenario for 'eucl' (optimal) or 'test' (poorly scaled).

    The physical window (v_window in L, t_horizon in s) is converted into
    the chosen scaling's own units, so 'eucl' and 'test' scenarios with the
    same window describe the same physical experiment.  Unset values come
    from the :data:`DESK` (default) or :data:`FULL` record.  The step
    count is simulate()'s own argument.  A v_window, t_horizon or
    sigma_rule that is not > 0 and finite raises :class:`DomainError`
    naming the option that sets it and the value it got.
    """
    given = dict(n_nodes=n_nodes, v_window=v_window, t_horizon=t_horizon,
                 sigma_rule=sigma_rule)
    defaults = DESK if desk else FULL
    window = {key: defaults[key] if value is None else value
              for key, value in given.items()}
    for key, scaled in (("v_window", "grid spacing h"), ("t_horizon", "t_max"),
                        ("sigma_rule", "sigma_c")):
        if not 0 < window[key] < math.inf:
            option = "--" + key.replace("_", "-")
            raise DomainError(f"{scaled} must be > 0 and finite, "
                              f"got {option} {window[key]!r}")
    problem, constants = build_latex()
    if theta == "eucl":
        solution = solve_euclidean(problem)
    elif theta == "test":
        solution = solve_subset(problem, LATEX_TEST_SUBSET)
    else:
        raise ConfigError(f"unknown theta selector {theta!r} (want 'eucl' or 'test')")
    lambdas = dict(zip(problem.labels, solution.lambdas))
    coeffs = LatexCoefficients.from_labels(
        lambdas, constants, sigma_c=lambdas["c"] / window["sigma_rule"]
    )
    nu0, t0 = solution.theta[0], solution.theta[1]
    grid = Grid.from_vmax(window["n_nodes"], window["v_window"] / nu0)
    return LatexScenario(theta, coeffs, grid, window["t_horizon"] / t0)


def matched_pair() -> tuple[LatexScenario, LatexScenario]:
    """The well/poorly-scaled contrast pair, to run at :data:`MATCHED_STEPS`.

    Both scenarios discretize the same physical experiment with the same
    node count and step count; only the scaling differs.  The advective
    stability number is scale-invariant, so one step count serves both.
    This is the smallest matched pair whose poorly-scaled grid can still
    see the nucleation site.
    """
    kw = dict(n_nodes=300, v_window=0.7e-16, t_horizon=313.0, sigma_rule=DESK["sigma_rule"])
    return latex_scenario("eucl", **kw), latex_scenario("test", **kw)
