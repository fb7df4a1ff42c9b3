"""Oracles for the scaling solvers that need no reference values.

Scale equivariance: multiplying each kappa_i by prod_j s_j**alpha_ij is the
same problem in factors theta_j / s_j, so every solver must return the same
coefficients and shift rho = log10(theta) by exactly -log10(s).

Self-consistency: the cost and ratio each solver reports must equal the
cost re-evaluated at its factors and max(lambda) / min(lambda) of its
coefficients.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from nondim import models
from nondim.scaling import (
    AnnealConfig,
    Monomial,
    ScalingProblem,
    anneal_minimize,
    enumerate_traditional,
    eval_coefficients,
    evaluate_cost,
    solve_euclidean,
    solve_subset,
)

PRESETS = {
    "projectile": models.build_projectile,
    "schrodinger": models.build_schrodinger,
    "ldg": lambda: models.build_ldg(models.LdGParams(q=3)),
    "latex": lambda: models.build_latex()[0],
}

#: Largest change of lambda (relative) and of rho or log10 ratio (decades)
#: that a change of units may cause.
TOL = 1e-12


def rescaled(problem, log_s):
    """The problem with each kappa_i multiplied by prod_j s_j**alpha_ij."""
    log_kappas = problem.log_kappas() + problem.exponent_matrix() @ log_s
    return ScalingProblem(problem.factor_names, tuple(
        Monomial(m.label, 10.0**lk, m.exponents, m.target)
        for m, lk in zip(problem.monomials, log_kappas)
    ))


@pytest.fixture(params=sorted(PRESETS), scope="module")
def pair(request):
    """(problem, rescaled problem, log10 s) with seeded log10 s in [-5, 5]."""
    problem = PRESETS[request.param]()
    rng = np.random.default_rng(sorted(PRESETS).index(request.param))
    log_s = rng.uniform(-5.0, 5.0, problem.n_factors)
    return problem, rescaled(problem, log_s), log_s


@pytest.fixture(scope="module")
def enumerations(pair):
    problem, scaled, _ = pair
    return enumerate_traditional(problem), enumerate_traditional(scaled)


def assert_equivariant(sol, scaled_sol, log_s):
    np.testing.assert_allclose(scaled_sol.lambdas, sol.lambdas, rtol=TOL, atol=0)
    np.testing.assert_allclose(np.log10(scaled_sol.theta), np.log10(sol.theta) - log_s,
                               rtol=0, atol=TOL)


class TestScaleEquivariance:
    def test_euclidean(self, pair):
        problem, scaled, log_s = pair
        assert_equivariant(solve_euclidean(problem), solve_euclidean(scaled), log_s)

    def test_subset(self, pair, enumerations):
        problem, scaled, log_s = pair
        survey = enumerations[0]
        for subset in (survey.subsets[0], survey.subsets[-1]):
            assert_equivariant(solve_subset(problem, subset), solve_subset(scaled, subset),
                               log_s)

    def test_enumeration_rows_match_by_subset(self, enumerations, pair):
        # Tied ratios may sort differently after rescaling, so rows are
        # compared subset by subset rather than by position.
        _, _, log_s = pair
        survey, scaled_survey = enumerations
        assert scaled_survey.total_subsets == survey.total_subsets

        def by_subset(result):
            order = np.lexsort(result.subsets.T[::-1])
            return result.subsets[order], result.rho[order], result.ratio[order]

        subsets, rho, ratio = by_subset(survey)
        scaled_subsets, scaled_rho, scaled_ratio = by_subset(scaled_survey)
        np.testing.assert_array_equal(scaled_subsets, subsets)
        np.testing.assert_allclose(scaled_rho, rho - log_s, rtol=0, atol=TOL)
        np.testing.assert_allclose(np.log10(scaled_ratio), np.log10(ratio), rtol=0, atol=TOL)


def assert_self_consistent(problem, sol, kind):
    assert sol.cost == pytest.approx(evaluate_cost(problem, sol.theta, kind), rel=TOL)
    assert sol.ratio == pytest.approx(np.max(sol.lambdas) / np.min(sol.lambdas), rel=TOL)


class TestReportedFigures:
    def test_euclidean(self, pair):
        problem = pair[0]
        assert_self_consistent(problem, solve_euclidean(problem), "euclid")

    def test_subset(self, pair, enumerations):
        problem = pair[0]
        for subset in (enumerations[0].subsets[0], enumerations[0].subsets[-1]):
            assert_self_consistent(problem, solve_subset(problem, subset), "euclid")

    # The annealer minimizes the max norm only; the parameter keeps it in the ids.
    @pytest.mark.parametrize("kind", ["max"])
    def test_anneal(self, pair, kind):
        problem = pair[0]
        sol = anneal_minimize(problem, config=AnnealConfig(max_evaluations=2000, seed=5))
        assert_self_consistent(problem, sol, kind)

    def test_enumeration_best_and_worst(self, pair, enumerations):
        problem, survey = pair[0], enumerations[0]
        for row in (0, -1):
            theta = 10.0 ** survey.rho[row]
            sol = SimpleNamespace(theta=theta, lambdas=eval_coefficients(problem, theta),
                                  cost=survey.cost[row], ratio=survey.ratio[row])
            assert_self_consistent(problem, sol, "euclid")
