"""Scaling equivariance of the PBE solver.

A run rebuilt from other scaling factors describes the same physical
experiment, so its results in physical units must not move.  Each factor
direction below doubles factors of theta_eucl, rebuilds the coefficients
from ``build_latex``'s exponent table, the grid from the physical volume
window and t_max from the physical horizon, and runs the same fixed steps.
The nucleation site lies at the physical volume v_c / (nu0 delta0), so every
direction keeps nu0 delta0 fixed.  This ties the exponent table to the rate
laws of ``GmocWorkspace.rhs``: a term whose coefficient carries the wrong
factors moves the physical solution.
"""

import numpy as np
import pytest

from nondim.models import LATEX_FACTOR_NAMES, build_latex
from nondim.pbe import SERIES, GmocWorkspace, Grid, LatexCoefficients, simulate
from nondim.scaling import eval_coefficients, solve_euclidean

FACTORS = tuple(name.split()[0] for name in LATEX_FACTOR_NAMES)
#: Physical unit of each result as factor exponents: scaled value times
#: prod(theta ** exponents) is the physical value.
UNITS = {
    "times": {"t0": 1},
    "V_mat": {"M0": 1},
    "V_cm": {"nu0": 2, "m0": 1},
    "V_cw": {"nu0": 2, "w0": 1},
    "Psi": {},
    "V_pol2": {"P0": 1},
    "F_m": {"nu0": 2, "m0": 1},
    "F_w": {"nu0": 2, "w0": 1},
    "final_m": {"m0": 1},
    "final_w": {"w0": 1},
}
#: Factor directions that keep nu0 delta0 fixed, as exponents of 2.
DIRECTIONS = {
    **{name: {name: 1} for name in ("t0", "m0", "w0", "M0", "P0", "Pi0")},
    "nu0/delta0": {"nu0": 1, "delta0": -1},
}
#: A small window past the nucleation onset (near 5.4 s): N = 100, 30 s.
V_WINDOW, T_HORIZON, N_NODES, STEPS, SIGMA_RULE = 0.5e-16, 30.0, 100, 60, 10.0


def physical_run(direction: dict) -> dict:
    """Every result of the run from theta_eucl times 2**direction, in
    physical units."""
    problem, constants = build_latex()
    theta = solve_euclidean(problem).theta * 2.0 ** np.array(
        [direction.get(name, 0) for name in FACTORS])
    factor = dict(zip(FACTORS, theta))
    lambdas = dict(zip(problem.labels, eval_coefficients(problem, theta)))
    coeffs = LatexCoefficients.from_labels(lambdas, constants,
                                           sigma_c=lambdas["c"] / SIGMA_RULE)
    grid = Grid.from_vmax(N_NODES, V_WINDOW / factor["nu0"])
    report = simulate(GmocWorkspace(coeffs, grid), T_HORIZON / factor["t0"], STEPS)
    assert report.aborted is None
    return {
        name: getattr(report, name) * np.prod([factor[f] ** e for f, e in units.items()])
        for name, units in UNITS.items()
    }


@pytest.fixture(scope="module")
def reference():
    assert set(SERIES) <= set(UNITS)
    results = physical_run({})
    # Nucleation has seeded both distributions, so every series carries data.
    assert results["final_m"].max() > 0 and results["final_w"].max() > 0
    assert results["F_m"][-1] > 0 and results["F_w"][-1] > 0
    return results


@pytest.mark.parametrize("direction", list(DIRECTIONS))
def test_physical_results_do_not_depend_on_the_scaling(reference, direction):
    results = physical_run(DIRECTIONS[direction])
    for name, want in reference.items():
        peak = np.abs(want).max()
        assert np.abs(results[name] - want).max() <= 1e-12 * peak, name
