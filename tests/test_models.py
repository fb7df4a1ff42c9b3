import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nondim.errors import DomainError
from nondim.models import (
    LATEX_FACTOR_NAMES,
    LATEX_LABELS,
    LATEX_TEST_SUBSET,
    LatexParams,
    LdGParams,
    ProjectileParams,
    SchrodingerParams,
    atomic_units,
    build_latex,
    build_ldg,
    build_projectile,
    build_schrodinger,
    ldg_reference_factors,
)
from nondim.scaling import eval_coefficients, solve_euclidean, solve_subset
from nondim.scenarios import latex_scenario


class TestProjectile:
    def test_coefficients_at_closed_form_factors(self):
        p = ProjectileParams()
        problem = build_projectile(p)
        theta = [math.sqrt(p.R / p.g), p.R]
        lam = eval_coefficients(problem, theta)
        assert lam[0] == pytest.approx(1.0, rel=1e-12)
        assert lam[1] == pytest.approx(1.0, rel=1e-12)
        assert lam[2] == pytest.approx(math.sqrt(p.v0**2 / (p.g * p.R)), rel=1e-12)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(DomainError):
            ProjectileParams(g=0.0)


class TestSchrodinger:
    def test_atomic_units_neutralize_three_coefficients(self):
        problem = build_schrodinger()
        lam = eval_coefficients(problem, atomic_units())
        assert lam[0] == pytest.approx(1.0, rel=1e-9)
        assert lam[3] == pytest.approx(1.0, rel=1e-9)
        assert lam[4] == pytest.approx(1.0, rel=1e-9)

    def test_atomic_length_is_bohr_scale(self):
        alpha0, beta0, _ = atomic_units()
        assert alpha0 == pytest.approx(5.29e-11, rel=0.01)
        assert beta0 == pytest.approx(2.42e-17, rel=0.01)


class TestLandauDeGennes:
    def test_reference_factors_are_the_euclidean_optimum(self):
        params = LdGParams()
        sol = solve_euclidean(build_ldg(params))
        assert sol.theta == pytest.approx(ldg_reference_factors(params), rel=1e-10)

    def test_coefficients_at_reference(self):
        params = LdGParams()
        lam = eval_coefficients(build_ldg(params), ldg_reference_factors(params))
        assert lam == pytest.approx([1.0, 1e-3, 1.0, 1.0], rel=1e-9)

    def test_q_controls_the_small_coefficient(self):
        params = LdGParams(q=5)
        sol = solve_euclidean(build_ldg(params))
        assert sol.lambdas[1] == pytest.approx(1e-5, rel=1e-6)

    def test_quadratic_weight_is_factor_free(self):
        params = LdGParams(A=0.5)
        assert params.vartheta == pytest.approx(0.5 / params.A_NI)


class TestLatex:
    def test_problem_shape(self, latex_problem):
        problem, constants = latex_problem
        assert problem.labels == LATEX_LABELS
        assert problem.factor_names == LATEX_FACTOR_NAMES
        assert problem.n_coefficients == 19
        assert problem.n_factors == 8
        assert constants.Psi_bar == pytest.approx(1.0)
        assert constants.Psi_r == pytest.approx(0.1 / 0.095)

    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_nucleation_moment_identity(self, log_theta):
        # The first moment the nucleation source injects must equal the
        # monomer sink that feeds it, for every factor choice:
        # lambda_n * lambda_c = lambda_s_m.
        problem, _ = build_latex()
        lam = dict(zip(LATEX_LABELS, eval_coefficients(problem, 10.0 ** np.array(log_theta))))
        assert lam["n"] * lam["c"] == pytest.approx(lam["s_m"], rel=1e-9)

    @given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_aggregation_pair_tracks_distribution_scales(self, log_theta):
        # a_m / a_w = m0 / w0 by construction.
        problem, _ = build_latex()
        theta = 10.0 ** np.array(log_theta)
        lam = dict(zip(LATEX_LABELS, eval_coefficients(problem, theta)))
        assert lam["a_m"] / lam["a_w"] == pytest.approx(theta[2] / theta[3], rel=1e-9)

    def test_test_subset_lands_on_one(self, latex_problem, latex_test):
        problem, _ = latex_problem
        for index in LATEX_TEST_SUBSET:
            assert latex_test.lambdas[index] == pytest.approx(1.0, rel=1e-9)

    def test_test_subset_ratio_scale(self, latex_test):
        assert 1e5 < latex_test.ratio < 1e7

    def test_headline_spreads(self, latex_problem, latex_eucl):
        # The abstract's 49 decades unscaled and 4 under Optimal Scaling.
        # This model spans 42.1 unscaled in its units (L, s, mol); in m^3
        # and s it spans 43.146, in cm^3 41.146, and with mixed volume units
        # 36.1 to 100.4 (see README), so the unscaled spread is a unit
        # choice.  The spread at the optimum does not depend on units.
        problem, _ = latex_problem
        unscaled = eval_coefficients(problem, np.ones(8))
        assert math.log10(unscaled.max() / unscaled.min()) == pytest.approx(42.146, abs=5e-4)
        assert math.log10(latex_eucl.ratio) == pytest.approx(4.0458, abs=5e-5)

    @pytest.mark.parametrize("theta, solution, nu0_delta0", [
        ("eucl", "latex_eucl", 2.83e-5), ("test", "latex_test", 1.23e-3),
    ])
    def test_nucleation_volume_moves_with_nu0_delta0(self, request, theta, solution,
                                                     nu0_delta0):
        # lambda_c = v_c nu0^-2 delta0^-1, and pbe centres the nucleation
        # Gaussian at lambda_c in scaled volume, so it sits at the physical
        # volume lambda_c nu0 = v_c / (nu0 delta0), not at v_c.  Pinned so
        # that any change to this dependence is deliberate.
        factors = request.getfixturevalue(solution).theta
        nu0, delta0 = factors[0], factors[LATEX_FACTOR_NAMES.index("delta0 [1/L]")]
        assert nu0 * delta0 == pytest.approx(nu0_delta0, rel=5e-3)
        lam_c = latex_scenario(theta).coeffs.lam_c
        assert lam_c * nu0 == pytest.approx(LatexParams().v_c / (nu0 * delta0), rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            LatexParams(Phi_s=1.5)
