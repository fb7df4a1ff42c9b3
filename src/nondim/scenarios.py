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
below -1e-8 of its final peak is m at node 115, t ~ 63.5 s, step 48), and the
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


#: The scaled value each window option sets, as a refusal of the option names it.
_SCALED = {"v_window": "grid spacing h", "t_horizon": "t_max", "sigma_rule": "sigma_c"}


def _refused(key: str, value: float) -> DomainError:
    option = "--" + key.replace("_", "-")
    return DomainError(f"{_SCALED[key]} must be > 0 and finite, got {option} {value!r}")


@dataclass(frozen=True)
class LatexScenario:
    """What ``GmocWorkspace(coeffs, grid)`` and ``simulate(op, t_max, steps)``
    take, but the step count, tagged with its scaling."""

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
    naming the option that sets it and the value it got, and so does a
    v_window that overflows once divided by the scaling's nu0.
    """
    given = dict(n_nodes=n_nodes, v_window=v_window, t_horizon=t_horizon,
                 sigma_rule=sigma_rule)
    defaults = DESK if desk else FULL
    window = {key: defaults[key] if value is None else value
              for key, value in given.items()}
    for key in _SCALED:
        if not 0 < window[key] < math.inf:
            raise _refused(key, window[key])
    problem, constants = build_latex()
    if theta == "eucl":
        solution = solve_euclidean(problem)
    elif theta == "test":
        solution = solve_subset(problem, LATEX_TEST_SUBSET)
    else:
        raise ConfigError(f"unknown theta selector {theta!r} (want 'eucl' or 'test')")
    # Python floats: every value built from them is one, and a finite option
    # that overflows once scaled (nu0 is about 1e-17, and sigma_rule may be
    # subnormal) gives inf with no warning.
    lambdas = dict(zip(problem.labels, solution.lambdas.tolist()))
    nu0, t0 = solution.theta[:2].tolist()
    scaled = {"sigma_rule": lambdas["c"] / window["sigma_rule"],
              "v_window": window["v_window"] / nu0}
    for key, value in scaled.items():
        if value == math.inf:
            raise _refused(key, window[key])
    coeffs = LatexCoefficients.from_labels(lambdas, constants, sigma_c=scaled["sigma_rule"])
    grid = Grid.from_vmax(window["n_nodes"], scaled["v_window"])
    return LatexScenario(theta, coeffs, grid, window["t_horizon"] / t0)


def matched_pair() -> tuple[LatexScenario, LatexScenario]:
    """The well/poorly-scaled contrast pair, to run at :data:`MATCHED_STEPS`.

    Both scenarios discretize the same physical experiment with the same
    node count and step count; only the scaling differs.  The advective
    stability number is scale-invariant, so one step count serves both.
    This is the smallest matched pair whose poorly-scaled grid can still
    see the nucleation site.

    The two halves differ in more than the coefficient spread.  The
    nucleation Gaussian sits at lambda_c in scaled volume, the physical
    volume v_c / (nu0 delta0), and nu0 delta0 is 2.83e-5 under 'eucl' but
    1.23e-3 under 'test'.  So the 'test' half puts its source at 0.87 grid
    spacings with a width of 0.087, where the quadrature cannot resolve
    it: the contrast includes source placement and source quadrature.
    """
    kw = dict(n_nodes=300, v_window=0.7e-16, t_horizon=313.0, sigma_rule=DESK["sigma_rule"])
    return latex_scenario("eucl", **kw), latex_scenario("test", **kw)
