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
from nondim.cli import EXIT_CODES
from nondim.models import build_latex, build_ldg, build_projectile, build_schrodinger
from nondim.scaling import (
    AnnealConfig,
    Monomial,
    ScalingProblem,
    anneal_minimize,
    enumerate_traditional,
    eval_coefficients,
    evaluate_cost,
    solve_euclidean,
    SINGULARITY_EPS,
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

    @pytest.mark.parametrize("theta, message", [
        ([math.inf, 1.0], r"theta must be finite and > 0, got \["),
        ([1.0, math.nan], r"theta must be finite and > 0, got \["),
        ([1.0], r"theta must have length 2, got shape \(1,\)"),
    ], ids=["theta0", "theta1", "wrong-length"])
    def test_theta_must_be_finite(self, theta, message):
        with pytest.raises(DomainError, match=message):
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
        a = anneal_minimize(problem, config=config)
        b = anneal_minimize(problem, config=config)
        assert np.array_equal(a.theta, b.theta)
        assert a.cost == b.cost

    def test_returns_best_seen_never_worse_than_start(self):
        problem = toy_problem()
        start_cost = evaluate_cost(problem, [1.0, 1.0], "max")
        sol = anneal_minimize(problem, config=AnnealConfig(max_evaluations=500, seed=1))
        assert sol.cost <= start_cost


class TestLiftedMaxWindow:
    """The plain maximum over the lifted residual [r, -r] plus lifted moves
    is the max norm of r + m, bit for bit; a row that is zero throughout may
    give -0.0, which compares equal, and the chain only compares costs."""

    @pytest.mark.parametrize("seed", range(4))
    def test_lifted_reduce_is_the_max_norm(self, seed):
        rng = np.random.default_rng(seed)
        # Halves give exact sums, so ties and exact zeros of both signs.
        r = rng.integers(-4, 5, size=19) / 2.0
        moves = np.vstack([rng.integers(-4, 5, size=(12, 19)) / 2.0,
                           rng.normal(size=(12, 19)) * 10.0 ** rng.uniform(-300, 300, (12, 1))])
        r[:3] = 0.0, -0.0, -0.0
        moves[:, :2] = -0.0
        moves[:2] = -r  # rows of +0.0 sums ...
        moves[1, :3] = -0.0  # ... and of +0.0 and -0.0 sums
        moves[2, 3:] = 2.0 - r[3:]  # every entry ties at 2
        moves[2, 3::2] = -2.0 - r[3::2]
        moves[3, 5] = np.nan
        plain = scaling._cost("max")(r + moves)
        lifted = np.maximum.reduce(scaling._lift(r) + scaling._lift(moves), axis=-1)

        zero, nan = plain == 0.0, np.isnan(plain)
        assert zero[:2].all() and plain[2] == 2.0 and nan[3]
        np.testing.assert_array_equal(np.isnan(lifted), nan)
        exact = ~zero & ~nan
        assert lifted[exact].tobytes() == plain[exact].tobytes()
        assert np.all(lifted[zero] == 0.0)


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


def planted_problem():
    """10 factors over 13 coefficients, so the column-support bits span two
    bytes.  Column 0 is planted zero outside rows 0-2 and column 9 (in the
    second byte) outside rows 11 and 12, and row 12 is twice row 11, so some
    subsets that cover every column are singular too."""
    rng = np.random.default_rng(0)
    A = rng.integers(-3, 4, size=(13, 10)).astype(float)
    A[3:, 0] = 0.0
    A[:11, 9] = 0.0
    A[12] = 2.0 * A[11]
    kappas = 10.0 ** rng.uniform(-6.0, 6.0, size=13)
    return ScalingProblem(
        tuple(f"x{j}" for j in range(10)),
        tuple(Monomial(f"l{i}", float(k), tuple(row))
              for i, (k, row) in enumerate(zip(kappas, A))),
    )


PRESETS = [lambda: build_latex()[0], build_ldg, build_projectile, build_schrodinger]
PRESET_IDS = ["latex", "ldg", "projectile", "schrodinger"]


class TestStructuralSingularity:
    """Oracle for the column-support test: one ``np.linalg.det`` per subset.

    A subset whose rows leave a factor's column all zero is never factored;
    its det must be the exact 0 the LU gives such a matrix, so every verdict
    and every factor is the per-subset loop's.  A verdict compares |det|
    with Hadamard's bound, the product of the rows' norms.
    """

    @pytest.mark.parametrize("build", PRESETS + [planted_problem], ids=PRESET_IDS + ["planted"])
    def test_verdicts_match_a_det_per_subset(self, build, monkeypatch):
        problem = build()
        A = problem.exponent_matrix()
        forced = problem.targets() - problem.log_kappas()
        idx = subset_table(*A.shape)
        reference = np.array([np.linalg.det(A[list(s)]) for s in idx])
        hadamard = np.abs(reference) / [np.prod(np.linalg.norm(A[list(s)], axis=1)) for s in idx]
        missing = (A[idx] == 0).all(axis=1)  # (subsets, factors): column all zero
        uncovered = missing.any(axis=1)

        factored, det = [], np.linalg.det
        monkeypatch.setattr(np.linalg, "det", lambda mats: factored.append(len(mats)) or det(mats))
        dets, solvable, rhos = scaling._solve_subsets(A, forced, idx)
        monkeypatch.undo()
        assert factored == [np.count_nonzero(~uncovered)]
        assert np.all(reference[uncovered] == 0.0)
        assert np.array_equal(dets, reference)
        assert not np.signbit(dets[uncovered]).any()
        np.testing.assert_array_equal(solvable, hadamard > SINGULARITY_EPS)
        direct = [np.linalg.solve(A[list(s)], forced[list(s)]) for s in idx[solvable]]
        np.testing.assert_array_equal(rhos, np.reshape(direct, rhos.shape))
        if build is planted_problem:
            covered_singular = ~uncovered & ~solvable
            assert uncovered.any() and covered_singular.any() and solvable.any()
            assert np.all(hadamard[covered_singular] <= SINGULARITY_EPS)
            # Some subsets miss only column 9, whose bit is in the second byte.
            assert (missing[:, 9] & ~missing[:, :9].any(axis=1)).any()

    @pytest.mark.parametrize("build", PRESETS, ids=PRESET_IDS)
    def test_rescaled_exponents_keep_every_verdict(self, build):
        # Times 2^-20, each det scales by 2^(-20 N_x) and each factor by
        # 2^20; an absolute bound on |det| would drop every latex subset.
        problem = build()
        A = problem.exponent_matrix()
        forced = problem.targets() - problem.log_kappas()
        idx = subset_table(*A.shape)
        _, solvable, rhos = scaling._solve_subsets(A, forced, idx)
        _, scaled_solvable, scaled_rhos = scaling._solve_subsets(A * 2.0**-20, forced, idx)
        assert solvable.any()
        np.testing.assert_array_equal(scaled_solvable, solvable)
        np.testing.assert_array_equal(scaled_rhos, rhos * 2.0**20)

    def test_uncovered_subset_is_unsolvable_with_zero_det(self):
        problem = build_latex()[0]
        subset = tuple(range(8))  # leaves columns 4 and 5 all zero
        assert (problem.exponent_matrix()[list(subset)] == 0).all(axis=0).any()
        with pytest.raises(UnsolvableSubsetError) as err:
            solve_subset(problem, subset)
        assert err.value.determinant == 0.0
        assert "|det| = 0.000e+00" in str(err.value)
        assert EXIT_CODES[UnsolvableSubsetError] == 2
