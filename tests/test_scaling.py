import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondim import scaling
from nondim.errors import (
    DegenerateExponentsError,
    DomainError,
    EnumerationCapError,
    UnsolvableSubsetError,
)
from nondim.models import build_latex, build_schrodinger
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
    subset_table,
)


def toy_problem():
    return ScalingProblem(
        factor_names=("a", "b"),
        monomials=(
            Monomial("l1", 2.0, (1.0, 0.0)),
            Monomial("l2", 5.0, (0.0, 1.0)),
            Monomial("l3", 1.0, (1.0, 1.0)),
        ),
    )


class TestValidation:
    def test_kappa_must_be_positive(self):
        with pytest.raises(DomainError):
            Monomial("bad", -1.0, (1.0,))

    def test_exponent_length_mismatch(self):
        with pytest.raises(DomainError):
            ScalingProblem(("a",), (Monomial("l", 1.0, (1.0, 2.0)),))

    def test_duplicate_factor_names(self):
        with pytest.raises(DomainError):
            ScalingProblem(("a", "a"), (Monomial("l", 1.0, (1.0, 1.0)),))

    def test_theta_must_be_positive(self):
        with pytest.raises(DomainError):
            eval_coefficients(toy_problem(), [1.0, -1.0])

    @pytest.mark.parametrize("theta", [[math.inf, 1.0], [1.0, math.nan]])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(DomainError, match=r"theta must be finite and > 0, got \["):
            eval_coefficients(toy_problem(), theta)


class TestEvaluation:
    def test_coefficients_by_hand(self):
        lam = eval_coefficients(toy_problem(), [10.0, 100.0])
        assert lam == pytest.approx([20.0, 500.0, 1000.0])

    def test_cost_kinds(self):
        problem = toy_problem()
        theta = [1.0, 1.0]
        res = np.log10([2.0, 5.0, 1.0])
        assert evaluate_cost(problem, theta, "euclid") == pytest.approx(np.sum(res**2))
        assert evaluate_cost(problem, theta, "max") == pytest.approx(np.max(np.abs(res)))
        with pytest.raises(DomainError):
            evaluate_cost(problem, theta, "manhattan")

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=2))
    def test_coefficients_follow_monomial_law(self, log_theta):
        problem = toy_problem()
        theta = 10.0 ** np.array(log_theta)
        lam = eval_coefficients(problem, theta)
        expected = [2.0 * theta[0], 5.0 * theta[1], theta[0] * theta[1]]
        assert lam == pytest.approx(expected, rel=1e-9)


class TestGaussianElimination:
    """The linear solve behind the Euclidean optimum (a least-squares solve
    of the exponent system) reports the rank of a singular system."""

    def test_singular_reports_rank(self):
        problem = ScalingProblem(
            ("a", "b"),
            (Monomial("l1", 1.0, (1.0, 2.0)), Monomial("l2", 1.0, (2.0, 4.0))),
        )
        with pytest.raises(DegenerateExponentsError) as err:
            solve_euclidean(problem)
        assert err.value.rank == 1
        assert err.value.size == 2


class TestEuclideanSolver:
    def test_exactly_solvable_targets_are_hit(self):
        problem = ScalingProblem(
            ("a", "b"),
            (Monomial("l1", 4.0, (1.0, 0.0)), Monomial("l2", 0.25, (0.0, 1.0))),
        )
        sol = solve_euclidean(problem)
        assert sol.lambdas == pytest.approx([1.0, 1.0], rel=1e-12)
        assert sol.cost == pytest.approx(0.0, abs=1e-20)

    def test_degenerate_exponents_raise(self):
        problem = ScalingProblem(
            ("a", "b"),
            (Monomial("l1", 2.0, (1.0, 0.0)), Monomial("l2", 3.0, (2.0, 0.0))),
        )
        with pytest.raises(DegenerateExponentsError) as err:
            solve_euclidean(problem)
        assert err.value.rank == 1
        assert err.value.size == 2

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=2))
    @settings(max_examples=50, deadline=None)
    def test_analytic_solution_is_global_minimum(self, log_theta):
        problem = toy_problem()
        best = solve_euclidean(problem)
        other = 10.0 ** np.array(log_theta)
        assert best.cost <= evaluate_cost(problem, other, "euclid") + 1e-9


class TestSubsetSolver:
    def test_chosen_coefficients_land_on_one(self):
        sol = solve_subset(toy_problem(), (0, 1))
        assert sol.lambdas[0] == pytest.approx(1.0, rel=1e-12)
        assert sol.lambdas[1] == pytest.approx(1.0, rel=1e-12)

    def test_wrong_cardinality(self):
        with pytest.raises(DomainError):
            solve_subset(toy_problem(), (0,))

    def test_out_of_range_index(self):
        with pytest.raises(DomainError):
            solve_subset(toy_problem(), (0, 5))

    def test_singular_subset(self):
        problem = ScalingProblem(
            ("a", "b"),
            (
                Monomial("l1", 2.0, (1.0, 1.0)),
                Monomial("l2", 3.0, (2.0, 2.0)),
                Monomial("l3", 5.0, (0.0, 1.0)),
            ),
        )
        with pytest.raises(UnsolvableSubsetError) as err:
            solve_subset(problem, (0, 1))
        assert err.value.subset == (0, 1)


class TestAnnealing:
    def test_deterministic_for_fixed_seed(self):
        problem = toy_problem()
        config = AnnealConfig(max_evaluations=2000, seed=7)
        a = anneal_minimize(problem, "max", config)
        b = anneal_minimize(problem, "max", config)
        assert np.array_equal(a.theta, b.theta)
        assert a.cost == b.cost

    def test_returns_best_seen_never_worse_than_start(self):
        problem = toy_problem()
        start_cost = evaluate_cost(problem, [1.0, 1.0], "euclid")
        sol = anneal_minimize(problem, "euclid", AnnealConfig(max_evaluations=500, seed=1))
        assert sol.cost <= start_cost

    def test_approaches_analytic_euclidean_optimum(self):
        problem = toy_problem()
        analytic = solve_euclidean(problem)
        annealed = anneal_minimize(
            problem, "euclid", AnnealConfig(max_evaluations=20_000, seed=3)
        )
        assert annealed.cost <= analytic.cost + 0.05


class TestEnumeration:
    def test_projectile_style_counts(self):
        result = enumerate_traditional(toy_problem())
        assert result.total_subsets == 3
        assert result.solvable_count == 3
        assert np.all(np.diff(result.ratio) >= 0)

    def test_cap_enforced(self):
        with pytest.raises(EnumerationCapError) as err:
            enumerate_traditional(toy_problem(), cap=2)
        assert err.value.count == 3

    def test_needs_more_coefficients_than_factors(self):
        problem = ScalingProblem(
            ("a", "b"),
            (Monomial("l1", 1.0, (1.0, 0.0)), Monomial("l2", 1.0, (0.0, 1.0))),
        )
        with pytest.raises(DomainError):
            enumerate_traditional(problem)

    def test_batch_solutions_match_direct_solver(self):
        # Oracle: each subset's own square system, solved on its own, whose
        # forced coefficients land on 1.
        problem = toy_problem()
        A, log_kappas = problem.exponent_matrix(), problem.log_kappas()
        result = enumerate_traditional(problem)
        assert result.solvable_count == 3
        for subset, rho, rat in zip(result.subsets, result.rho, result.ratio):
            rows = list(subset)
            direct = np.linalg.solve(A[rows], -log_kappas[rows])
            lambdas = eval_coefficients(problem, 10.0**direct)
            assert lambdas[rows] == pytest.approx(1.0, rel=1e-12)
            assert 10.0**rho == pytest.approx(10.0**direct, rel=1e-12)
            assert rat == pytest.approx(lambdas.max() / lambdas.min(), rel=1e-12)
            single = solve_subset(problem, subset)
            assert single.theta == pytest.approx(10.0**direct, rel=1e-12)
            assert single.lambdas == pytest.approx(lambdas, rel=1e-12)

    def test_subset_table_is_combinations(self):
        for n, k in [(n, k) for n in range(1, 13) for k in range(1, n + 1)] + [(19, 8)]:
            table = subset_table(n, k)
            reference = np.array(list(itertools.combinations(range(n), k)))
            np.testing.assert_array_equal(table, reference, err_msg=f"C({n}, {k})")
            assert table.dtype == np.min_scalar_type(n - 1)

    @pytest.mark.parametrize("build, chunks", [
        (build_schrodinger, (1, 3)),
        (lambda: build_latex()[0], (1000,)),
    ])
    def test_results_do_not_depend_on_chunk(self, build, chunks, monkeypatch):
        problem = build()
        reference = enumerate_traditional(problem)
        for chunk in chunks:
            monkeypatch.setattr(scaling, "ENUMERATION_CHUNK", chunk)
            result = enumerate_traditional(problem)
            assert result.total_subsets == reference.total_subsets
            for name in ("subsets", "rho", "cost", "ratio"):
                np.testing.assert_array_equal(getattr(result, name), getattr(reference, name))
