import math
import warnings

import numpy as np
import pytest

from nondim.errors import DomainError, NonFiniteEvaluationError
from nondim.models import ProjectileParams, build_projectile
from nondim.odes import (
    flow_field,
    projectile_system,
    rk4_dense_step,
    rk4_integrate,
)
from nondim.scaling import eval_coefficients, solve_euclidean


class TestRk4:
    def test_exact_on_quartic_polynomial_rhs(self):
        # One RK4 step integrates polynomial time dependence up to t^3
        # exactly; y' = 4 t^3 gives y = t^4 with zero local error.
        y, _ = rk4_dense_step(lambda t, y: np.array([4.0 * t**3]), 0.0, np.array([0.0]), 1.0)
        assert y[0] == pytest.approx(1.0, abs=1e-14)

    def test_fourth_order_convergence_on_exponential(self):
        def err(steps):
            traj = rk4_integrate(lambda t, y: -y, [1.0], 0.0, 2.0, steps)
            return abs(traj.states[-1][0] - math.exp(-2.0))

        order = math.log2(err(40) / err(80))
        assert order > 3.9

    @pytest.mark.parametrize("theta", [0.25, 0.5, 0.75])
    def test_continuous_extension_one_step_error_is_fourth_order(self, theta):
        # From an exact point of y' = lam y, the extension's value at
        # t0 + theta tau is off the exact one by O(tau^4): the order-3
        # continuous extension of classical RK4.
        lam, t0 = -1.5, 0.3

        def err(tau):
            _, dense = rk4_dense_step(lambda t, y: lam * y, t0,
                                      np.array([math.exp(lam * t0)]), tau)
            return abs(dense(theta)[0] - math.exp(lam * (t0 + theta * tau)))

        for tau in (0.4, 0.2, 0.1):
            assert math.log2(err(tau) / err(tau / 2)) >= 3.7

    def test_continuous_extension_spans_the_step(self):
        # theta = 0 gives the step's start exactly and theta = 1 its end up
        # to rounding; the step's state is the one rk4_integrate takes.
        def rhs(t, y):
            return np.array([y[1], -y[0] + np.sin(t)])

        y0 = np.array([0.3, -1.2])
        y1, dense = rk4_dense_step(rhs, 0.125, y0, 0.25)
        assert np.array_equal(y1, rk4_integrate(rhs, y0, 0.125, 0.375, 1).states[1])
        assert np.array_equal(dense(0.0), y0)
        np.testing.assert_allclose(dense(1.0), y1, rtol=1e-14, atol=1e-14)

    def test_endpoints_included(self):
        traj = rk4_integrate(lambda t, y: y * 0.0, [1.0, 2.0], 0.5, 1.5, 10)
        assert traj.times[0] == pytest.approx(0.5)
        assert traj.times[-1] == pytest.approx(1.5)
        assert traj.states.shape == (11, 2)

    def test_last_time_is_t1_exactly(self):
        # The projectile's Euclidean tau_max at 3000 steps: t0 + tau * steps
        # misses t1 by an ulp there.
        theta = solve_euclidean(build_projectile()).theta
        t1 = 5.0 / float(theta[0])
        assert 0.0 + (t1 / 3000) * 3000 != t1
        traj = rk4_integrate(lambda t, y: -y, [1.0], 0.0, t1, 3000)
        assert traj.times[-1] == t1
        assert np.array_equal(traj.times[:-1], (t1 / 3000) * np.arange(3000))

    def test_nonfinite_state_aborts_with_step_index(self):
        with pytest.raises(NonFiniteEvaluationError) as err:
            rk4_integrate(lambda t, y: y**3, [10.0], 0.0, 10.0, 50)
        assert err.value.step is not None
        assert err.value.state is not None

    def test_invalid_interval(self):
        with pytest.raises(DomainError):
            rk4_integrate(lambda t, y: y, [1.0], 1.0, 1.0, 10)

    @pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
    def test_non_finite_interval(self, t0, t1):
        with pytest.raises(DomainError, match="finite"):
            rk4_integrate(lambda t, y: y, [1.0], t0, t1, 10)


class TestProjectileSystem:
    def test_trajectory_from_the_pole_is_non_finite(self):
        # 1 + lambda2*w1 = 0 at w1 = -0.5: the rate there is -inf.  The
        # divide by zero is no warning, so it is no error under -W error.
        with pytest.raises(NonFiniteEvaluationError) as err, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rk4_integrate(projectile_system([1.0, 2.0, 3.0]), [-0.5, 0.0], 0.0, 1.0, 10)
        assert err.value.step == 1

    def test_small_lambda2_recovers_flat_gravity(self):
        # With lambda2 -> 0 the equation is w2' = -lambda1; apex time
        # is lambda3 / lambda1 for initial slope lambda3.
        lam = [2.0, 1e-12, 1.0]
        traj = rk4_integrate(projectile_system(lam), [0.0, lam[2]], 0.0, 1.0, 200)
        apex = traj.states[np.argmax(traj.states[:, 0])]
        assert traj.times[np.argmax(traj.states[:, 0])] == pytest.approx(0.5, abs=5e-3)
        assert apex[0] == pytest.approx(lam[2] ** 2 / (2 * lam[0]), rel=1e-3)

    def test_scaling_equivariance_roundtrip(self):
        # Integrating in scaled variables and mapping back must equal the
        # dimensional integration on the same physical time grid.
        p = ProjectileParams()
        problem = build_projectile(p)
        sol = solve_euclidean(problem)
        t_c, x_c = sol.theta
        t_max = 5.0
        scaled = rk4_integrate(
            projectile_system(sol.lambdas), [0.0, sol.lambdas[2]],
            0.0, t_max / t_c, 400,
        )
        unit_lam = eval_coefficients(problem, [1.0, 1.0])
        dimensional = rk4_integrate(
            projectile_system(unit_lam), [0.0, unit_lam[2]], 0.0, t_max, 400
        )
        np.testing.assert_allclose(
            x_c * scaled.states[:, 0], dimensional.states[:, 0],
            rtol=1e-8, atol=1e-6,
        )


class TestFlowField:
    def test_singular_points_reported_as_nan(self):
        lam = [1.0, 1.0, 1.0]
        flow = flow_field(lam, (-2.0, 0.0), (-1.0, 1.0), (5, 3))
        # w1 = -1 is the pole of 1/(1 + w1)^2 and lies on this lattice.
        assert flow.singular_points
        for a, b in flow.singular_points:
            assert a == pytest.approx(-1.0)
        assert np.isnan(flow.dw2).sum() == len(flow.singular_points)
        assert np.array_equal(np.isnan(flow.dw1), np.isnan(flow.dw2))
        # Row-major: one pole per w2 row, in the lattice's order.
        assert flow.singular_points == [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 1.0)]

    @pytest.mark.parametrize("lam, w1, w2, counts", [
        ([2.0, 0.5, 1.0], (0.0, 2.0), (-2.0, 2.0), (21, 21)),
        ([1.0, 1.0, 1.0], (-2.0, 0.0), (-1.0, 1.0), (5, 3)),
        ([0.3, 7.0, 1.0], (-1.0, 1.0), (-3.0, 3.0), (101, 53)),
    ], ids=["default", "poles", "wide"])
    def test_lattice_is_the_law_at_each_point(self, lam, w1, w2, counts):
        flow = flow_field(lam, w1, w2, counts)
        rhs = projectile_system(lam)
        for (i, j), pole in np.ndenumerate(np.isnan(flow.dw2)):
            a, b = flow.w1[j], flow.w2[i]
            if pole:
                assert (a, b) in flow.singular_points
                continue
            expect = rhs(0.0, np.array([a, b]))
            assert [flow.dw1[i, j], flow.dw2[i, j]] == expect.tolist(), (a, b)

    def test_lattice_is_the_trajectory_law_where_pow_rounds_apart(self):
        # The trajectory passes numpy scalars, the lattice arrays; squaring by
        # ``** 2`` would call libm pow on the first and multiply on the second.
        lam = [0.7, 1.3, 1.0]
        rng = np.random.default_rng(2)
        for w1 in rng.uniform(0.0, 1.0, 100_000):
            d = 1.0 + lam[1] * w1
            if d ** 2 != d * d:
                break
        else:
            pytest.fail("no argument where pow and the product differ")
        flow = flow_field(lam, (w1, w1 + 1.0), (-1.0, 1.0), (3, 3))
        assert flow.w1[0] == w1
        law = projectile_system(lam)(0.0, np.array([w1, flow.w2[0]]))
        assert law[1] == -lam[0] / (d * d) != -lam[0] / d ** 2
        assert [flow.dw1[0, 0], flow.dw2[0, 0]] == law.tolist()

    def test_regular_lattice_values(self):
        lam = [2.0, 0.5, 1.0]
        flow = flow_field(lam, (0.0, 1.0), (-1.0, 1.0), (3, 3))
        assert flow.dw1 == pytest.approx(np.tile(flow.w2[:, None], (1, 3)))
        assert flow.dw2[0, 0] == pytest.approx(-2.0)

    def test_range_validation(self):
        with pytest.raises(DomainError):
            flow_field([1.0, 1.0, 1.0], (1.0, 0.0), (0.0, 1.0), (3, 3))

    @pytest.mark.parametrize("w1, w2", [((0.0, math.inf), (0.0, 1.0)),
                                        ((0.0, 1.0), (-math.inf, 1.0))],
                             ids=["w1-inf", "w2-inf"])
    def test_non_finite_range(self, w1, w2):
        with pytest.raises(DomainError, match="finite"):
            flow_field([1.0, 1.0, 1.0], w1, w2, (3, 3))
