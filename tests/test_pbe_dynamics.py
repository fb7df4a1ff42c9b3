import warnings

import numpy as np
import pytest

from nondim import pbe
from nondim.errors import ConfigError, DomainError, NonFiniteEvaluationError
from nondim.odes import MAX_RK4_STEPS, rk4_integrate
from nondim.pbe import (
    GmocWorkspace,
    Grid,
    error_series,
    growth_law,
    simulate,
)
from nondim.scenarios import latex_scenario, matched_pair

from test_pbe_kernels import unit_coeffs


def run(scenario, steps=None):
    """:func:`simulate` of a latex scenario on its own operator."""
    return simulate(GmocWorkspace(scenario.coeffs, scenario.grid), scenario.t_max, steps)


def auxiliary_oracle_rhs(coeffs):
    """Scalar form of the auxiliary subsystem with zero distributions."""

    def rhs(t, y):
        v_mat, v_cm, v_cw, psi, v_pol2 = y
        psi1 = psi + 1.0
        phi = max(v_mat / (psi1 * (v_mat + coeffs.lam_pol1_mat)) - coeffs.Phi_s, 0.0)
        v_p = psi1 * (
            coeffs.lam_p_mat * v_mat + coeffs.lam_p_m * v_cm
            + coeffs.lam_p_w * v_cw + coeffs.lam_p_pol1
        )
        transfer = coeffs.lam_p * psi / v_p
        return np.array([
            transfer * (v_mat + coeffs.lam_pol1_mat) - phi * coeffs.lam_s_mat,
            transfer * v_cm + phi * coeffs.lam_s_m - coeffs.lam_mu_m * v_cm,
            transfer * v_cw + coeffs.lam_mu_w * v_cm,
            -coeffs.lam_p_pol2 * psi / psi1 * (psi + coeffs.Psi_r)
            / (v_pol2 + coeffs.lam_pol1_pol2),
            coeffs.lam_p_pol2 * psi / psi1,
        ])

    return rhs


class TestZeroNucleation:
    def test_distributions_stay_identically_zero(self):
        coeffs = unit_coeffs(lam_n=0.0, lam_s_m=0.0)
        grid = Grid(16, 0.25)
        report = simulate(GmocWorkspace(coeffs, grid), 0.5, 200)
        assert np.all(report.final_m == 0.0)
        assert np.all(report.final_w == 0.0)
        assert report.min_m == 0.0 and report.min_w == 0.0

    def test_error_series_absent_without_cluster_volume(self):
        coeffs = unit_coeffs(lam_n=0.0, lam_s_m=0.0)
        report = simulate(GmocWorkspace(coeffs, Grid(16, 0.25)), 0.5, 100)
        assert report.eps_m is None
        assert report.eps_w is None
        assert report.max_eps_m is None

    def test_auxiliaries_match_decoupled_scalar_oracle(self):
        coeffs = unit_coeffs(lam_n=0.0, lam_s_m=0.0)
        grid = Grid(16, 0.25)
        steps = 400
        report = simulate(GmocWorkspace(coeffs, grid), 1.0, steps)
        y0 = [0.0, 0.0, 0.0, coeffs.Psi_bar, 0.0]
        oracle = rk4_integrate(auxiliary_oracle_rhs(coeffs), y0, 0.0, 1.0, steps)
        final = oracle.states[-1]
        assert report.V_mat[-1] == pytest.approx(final[0], abs=1e-10)
        assert report.V_cm[-1] == pytest.approx(final[1], abs=1e-10)
        assert report.V_cw[-1] == pytest.approx(final[2], abs=1e-10)
        assert report.Psi[-1] == pytest.approx(final[3], abs=1e-10)
        assert report.V_pol2[-1] == pytest.approx(final[4], abs=1e-10)


def state_derivative(ws, y):
    """The solver's own right-hand side at one packed state: the
    distributions' part and the five auxiliary scalars."""
    out = ws.rhs(y)
    return ws.distributions(out), out[-5:].tolist()


class TestRhsStructure:
    def test_boundary_node_derivative_is_zero(self):
        grid = Grid(16, 0.25)
        ws = GmocWorkspace(unit_coeffs(), grid)
        y = ws.initial_state()
        y[-5] = 0.5  # V_mat
        y[1 : grid.N + 1] = np.linspace(0.0, 1.0, grid.N + 1)[1:]  # m
        (dm, dw), _ = state_derivative(ws, y)
        assert dm[0] == 0.0
        assert dw[0] == 0.0

    def test_monomer_sink_balances_nucleated_volume_initially(self):
        # At the empty state the only cluster-volume fluxes are the direct
        # source terms; dV_cm picks up Phi * lam_s_m exactly.
        coeffs = unit_coeffs()
        ws = GmocWorkspace(coeffs, Grid(16, 0.25))
        y = ws.initial_state()
        y[-5] = 0.5  # V_mat
        phi, _, _ = growth_law(coeffs, y[-5:].tolist())
        _, (_, dv_cm, _, _, _) = state_derivative(ws, y)
        assert dv_cm == pytest.approx(phi * coeffs.lam_s_m)

    def test_no_monomer_supply_means_no_nucleation(self):
        # V_mat = 0 clamps the availability Phi at 0, so with empty
        # distributions nothing nucleates and no cluster volume appears.
        coeffs = unit_coeffs()
        ws = GmocWorkspace(coeffs, Grid(16, 0.25))
        y = ws.initial_state()
        assert growth_law(coeffs, y[-5:].tolist())[0] == 0.0
        dists, (_, dv_cm, _, _, _) = state_derivative(ws, y)
        assert np.all(dists == 0.0)
        assert dv_cm == 0.0

    def test_swollen_volume_is_refused(self):
        # Psi = -2 gives V_p < 0; pbe --config reaches such a state too, and
        # exits 5 (the CLI repro table pins that route).
        with pytest.raises(NonFiniteEvaluationError, match="state corruption: V_p <= 0"):
            growth_law(unit_coeffs(), [0.0, 0.0, 0.0, -2.0, 0.0])

    def test_psi_decreases_monotonically(self):
        coeffs = unit_coeffs()
        report = simulate(GmocWorkspace(coeffs, Grid(16, 0.25)), 0.1, 200)
        assert np.all(np.diff(report.Psi) <= 0)
        assert np.all(np.diff(report.V_pol2) >= 0)


class TestSimulate:
    def test_bitwise_deterministic(self):
        scenario = latex_scenario("eucl", n_nodes=32)
        a = run(scenario, 150)
        b = run(scenario, 150)
        assert np.array_equal(a.final_m, b.final_m)
        assert np.array_equal(a.final_w, b.final_w)
        assert np.array_equal(a.V_cm, b.V_cm)
        assert a.min_m == b.min_m

    def test_truncation_guard_stops_early_without_warning(self):
        # A grid far smaller than where the dynamics want to go: mass
        # reaches the last node at step 3 and the run must stop, saying so
        # in the report alone.
        scenario = latex_scenario("eucl", n_nodes=16, v_window=0.1e-16,
                                  t_horizon=250.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            report = run(scenario)
        prefix = "support reached the grid boundary at step "
        assert report.aborted.startswith(prefix)
        assert report.times[-1] < scenario.t_max
        named = int(report.aborted[len(prefix):].split(":")[0])
        assert report.settings["guard_step"] == named == report.settings["steps"] == 3

    @pytest.mark.parametrize("theta, dips", [("test", True), ("eucl", False)])
    def test_verdict_is_whether_a_first_negative_step_exists(self, theta, dips):
        # The desk window: the poorly-scaled run falls below -1e-8 of its
        # final peak at step 3, the optimally scaled one never does.
        scenario = latex_scenario(theta)
        report = run(scenario)
        assert report.negative_minima is dips
        assert report.negative_minima == (report.settings["first_negative"] is not None)
        assert report.aborted is None and report.settings["guard_step"] is None

    def test_overflowing_dynamics_raise_nonfinite(self):
        # An absurd aggregation coefficient sends the quadratic gain term
        # past the float range once nucleation has seeded some mass.
        # The overflow on the way is no warning, so it is no error under -W
        # error either.
        coeffs = unit_coeffs(lam_a_m=1e300)
        with warnings.catch_warnings(), pytest.raises(NonFiniteEvaluationError) as err:
            warnings.simplefilter("error", RuntimeWarning)
            simulate(GmocWorkspace(coeffs, Grid(16, 0.25)), 0.5, 50)
        assert err.value.step == 1
        assert str(err.value).startswith("non-finite state after step 1: m at nodes [")
        assert not np.isfinite(err.value.state).all()

    def test_blow_up_names_what_of_the_state_is_not_finite(self):
        # The first five non-finite nodes of each distribution, then the
        # auxiliary scalars by name.
        ws = GmocWorkspace(unit_coeffs(), Grid(16, 0.25))
        y = ws.initial_state()
        dists = ws.distributions(y)
        dists[0, 2:10] = np.inf
        dists[1, 16] = np.nan
        y[-4] = -np.inf  # V_cm
        y[-1] = np.nan  # V_pol2
        assert ws.describe_nonfinite(y) == (
            "m at nodes [2, 3, 4, 5, 6]; w at nodes [16]; V_cm; V_pol2")

    @pytest.mark.parametrize("scenario, mass, first_moment, rel", [
        (latex_scenario("eucl"), 1.0, 1.0, 1e-6),
        (latex_scenario("test"), 0.422598, 0.521582, 1e-6),
        (matched_pair()[1], 1.93173, 2.22525, 1e-5),
        # The contrast benchmark's window: the 7b grid cut to 1200 steps.
        (latex_scenario("test", n_nodes=300, v_window=0.7e-16,
                        t_horizon=1200 * 313.0 / 16000, sigma_rule=10.0),
         1.93173, 2.22525, 1e-5),
        # CI's guard-stop run: lam_c at 14.15 of the 16 grid spacings.
        (latex_scenario("eucl", n_nodes=16, v_window=0.1e-16, t_horizon=250.0),
         0.905047, 0.888258, 1e-6),
    ], ids=["desk-eucl", "desk-test", "matched-test", "contrast", "guard"])
    def test_source_moments_in_settings(self, scenario, mass, first_moment, rel):
        # The discrete source's Simpson mass and first moment over lam_c;
        # a resolved unit Gaussian gives 1 and 1.
        settings = run(scenario, 1).settings
        assert settings["source_mass"] == pytest.approx(mass, rel=rel)
        assert settings["source_first_moment_ratio"] == pytest.approx(first_moment, rel=rel)

    def test_sampling_includes_initial_and_final_times(self, monkeypatch):
        # A fixed run samples on the adaptive runs' grid.  Sample i falls on
        # a step's end exactly when i * steps is a multiple of 100 (at 80
        # steps every 5th sample, at 205 every 20th) and is the stepped state,
        # also where k * t_max / steps misses the sample time by rounding.
        # The others lie inside a step and are read from its continuous
        # extension, well inside it.  The last sample is the final state.
        coeffs, grid, t_max = unit_coeffs(), Grid(16, 0.25), 0.1
        ws = GmocWorkspace(coeffs, grid)
        thetas = []
        step = pbe.rk4_dense_step

        def recorded(rhs, t, y, tau):
            out, dense = step(rhs, t, y, tau)

            def read(theta):
                thetas.append(theta)
                return dense(theta)

            return out, read

        monkeypatch.setattr(pbe, "rk4_dense_step", recorded)
        for steps in (3, 7, 80, 99, 101, 205, 250, 1200, 4197):
            thetas.clear()
            report = simulate(ws, t_max, steps)
            np.testing.assert_array_equal(report.times, t_max * np.arange(101) / 100)
            assert report.times[0] == 0.0 and report.times[-1] == t_max
            settings = report.settings
            assert settings["steps"] == steps
            assert settings["rhs_evaluations"] == 4 * steps
            assert settings["tau_min"] == settings["tau_max"] == t_max / steps
            assert all(len(getattr(report, name)) == 101 for name in pbe.SERIES)
            inside = sum(i * steps % 100 != 0 for i in range(101))
            assert len(thetas) == inside
            assert all(1e-9 < theta < 1 - 1e-9 for theta in thetas)
            assert [report.F_m[-1], report.F_w[-1]] == [
                float(ws.moment0_weights @ (ws.nodes * d))
                for d in (report.final_m, report.final_w)]


class TestAdaptiveSteps:
    def test_lands_on_uniform_samples_with_four_rhs_calls_per_step(self, monkeypatch):
        # The desk defaults, whose stability step is 0.44 to 5.4 sample
        # spacings, and a small grid whose decay rate holds every step below
        # the spacing.  In both, the last step ends on t_max.
        desk = latex_scenario("eucl")
        scenarios = [(desk.coeffs, desk.grid, desk.t_max, 150),
                     (unit_coeffs(lam_mu_m=1000.0), Grid(16, 0.25), 0.2, 160)]
        calls, starts, ends, thetas = [], [], [], []
        step, rhs = pbe.rk4_dense_step, GmocWorkspace.rhs

        def counted(ws, y):
            calls.append(None)
            return rhs(ws, y)

        def recorded(rhs, t, y, tau):
            out, dense = step(rhs, t, y, tau)
            starts.append(t)
            ends.append(out)

            def read(theta):
                thetas.append(theta)
                return dense(theta)

            return out, read

        monkeypatch.setattr(GmocWorkspace, "rhs", counted)
        monkeypatch.setattr(pbe, "rk4_dense_step", recorded)
        reports = []
        for coeffs, grid, t_max, most_steps in scenarios:
            calls.clear()
            starts.clear()
            ends.clear()
            thetas.clear()
            ws = GmocWorkspace(coeffs, grid)
            report = simulate(ws, t_max)
            reports.append(report)
            np.testing.assert_array_equal(report.times, t_max * np.arange(101) / 100)
            assert report.times[-1] == t_max
            settings = report.settings
            assert len(calls) == settings["rhs_evaluations"] == 4 * settings["steps"]
            assert 100 <= settings["steps"] <= most_steps
            assert 0 < settings["tau_min"] <= settings["tau_max"] <= t_max / 100
            assert report.aborted is None
            # Most samples fall strictly inside a step and are read from its
            # continuous extension, and only those: a step that ends within
            # rounding of a sample time ends on it, and that sample is the
            # stepped state.  The last is the final state, bit for bit.
            assert len(thetas) == np.setdiff1d(report.times[1:-1], starts).size >= 60
            assert all(1e-9 < theta < 1 - 1e-9 for theta in thetas)
            assert t_max - starts[-1] < t_max / 100
            dists, aux = ws.distributions(ends[-1]), ends[-1][-5:].tolist()
            final = aux + [float(ws.moment0_weights @ (ws.nodes * d)) for d in dists]
            assert [getattr(report, name)[-1] for name in pbe.SERIES] == final
        assert reports[0].settings["first_negative"] is None  # the desk run

    def test_first_negative_step_matches_a_replay(self, monkeypatch):
        # The under-resolved N = 64 grid dips below -1e-8 of the final peak.
        scenario = latex_scenario("eucl", n_nodes=64, v_window=0.25e-16,
                                  t_horizon=120.0)
        ws = GmocWorkspace(scenario.coeffs, scenario.grid)
        history = []
        step = pbe.rk4_dense_step

        def recorded(rhs, t, y, tau):
            out, dense = step(rhs, t, y, tau)
            history.append((t + tau, tau, ws.distributions(out).copy()))
            return out, dense

        monkeypatch.setattr(pbe, "rk4_dense_step", recorded)
        report = simulate(ws, scenario.t_max)
        taus = [tau for _, tau, _ in history]
        assert report.settings["steps"] == len(history)
        assert report.settings["tau_min"] == min(taus)
        assert report.settings["tau_max"] == max(taus)
        dists = np.array([d for _, _, d in history])
        peaks = np.maximum(dists[-1].max(axis=1), 0.0)
        negative = dists.min(axis=2) < -1e-8 * peaks
        k = int(np.argmax(negative.any(axis=1)))
        assert negative[k].any()
        which = int(np.argmax(negative[k]))
        first = report.settings["first_negative"]
        assert first == {"step": k + 1, "time": pytest.approx(history[k][0]),
                         "distribution": "mw"[which],
                         "node": int(np.argmin(dists[k, which]))}
        assert report.min_m == dists[:, 0].min()
        assert report.min_w == dists[:, 1].min()
        # Here t_max * 100 / 100 rounds off t_max; the last sample is t_max.
        assert report.times[-1] == scenario.t_max

    def test_without_transport_the_decay_rate_limits_the_step(self):
        # Psi = 0 and V_mat = 0 make g vanish; on empty distributions the
        # diagonal decay rate is lam_mu_m alone.
        ws = GmocWorkspace(unit_coeffs(lam_mu_m=50.0), Grid(16, 0.25))
        y = ws.initial_state()
        y[-2] = 0.0  # Psi
        tau = ws.stable_step(y)
        assert tau == pytest.approx(
            pbe.COURANT * pbe.RK4_REAL_LIMIT / (pbe.TRANSPORT_LIMIT * 50.0))

    @pytest.mark.parametrize("m_scale, w_scale, fastest", [
        (0.0, 0.0, "m"), (1.0, 0.2, "m"), (0.2, 2.0, "w"),
    ], ids=["empty", "m-decays-fastest", "w-decays-fastest"])
    def test_transport_and_loss_rates_set_the_step(self, m_scale, w_scale, fastest):
        # V_mat = 0.5 makes Phi and so g positive.  tau follows in closed
        # form from g(v_N), dg/dv(v_1) and the Simpson aggregation loss rate
        # of each distribution at node 1.
        coeffs = unit_coeffs(lam_a_w=2.0)
        grid = Grid(16, 0.25)
        n, h, v = grid.N, grid.h, grid.nodes()
        v_mat, psi1 = 0.5, coeffs.Psi_bar + 1.0
        ws = GmocWorkspace(coeffs, grid)
        y = ws.initial_state()
        y[-5] = v_mat
        shape = v * np.exp(-v)
        y[: n + 1] = m_scale * shape
        y[n + 1 : 2 * n + 2] = w_scale * shape

        phi = v_mat / (psi1 * (v_mat + coeffs.lam_pol1_mat)) - coeffs.Phi_s
        a = coeffs.lam_d * phi * psi1 ** (2.0 / 3.0)
        b = coeffs.lam_p * coeffs.Psi_bar / (
            psi1 * (coeffs.lam_p_mat * v_mat + coeffs.lam_p_pol1))
        g_n = a * v[n] ** (2.0 / 3.0) + b * v[n]
        dg_1 = (2.0 / 3.0) * a * v[1] ** (-1.0 / 3.0) + b
        simpson = np.full(n + 1, 2.0 * h / 3.0)
        simpson[1::2] = 4.0 * h / 3.0
        simpson[n] = h / 3.0
        simpson[0] = 0.0  # the kernel is singular at u = 0

        def loss_rate(dist, lam_a):
            kernel = v[1] ** (-1.0 / 3.0) + np.r_[0.0, v[1:] ** (-1.0 / 3.0)]
            return lam_a * psi1 ** (14.0 / 3.0) * (simpson @ (kernel * dist))

        loss_m = loss_rate(m_scale * shape, coeffs.lam_a_m)
        loss_w = loss_rate(w_scale * shape, coeffs.lam_a_w)
        assert (coeffs.lam_mu_m + loss_m > loss_w) == (fastest == "m")
        decay = dg_1 + max(coeffs.lam_mu_m + loss_m, loss_w)
        expected = pbe.COURANT / (
            g_n / h + decay * pbe.TRANSPORT_LIMIT / pbe.RK4_REAL_LIMIT)
        tau = ws.stable_step(y)
        assert tau == pytest.approx(expected, rel=1e-12)

    def test_a_run_past_the_step_budget_is_refused(self):
        # The stable step is 1.35e-15 against a sample spacing of 0.002, so
        # the run would take about 1.5e14 steps; it is refused at its first.
        with pytest.raises(DomainError, match=(
                f"more than {MAX_RK4_STEPS} steps: step 1's stable step 1.352e-15 "
                rf"is below t_max / {MAX_RK4_STEPS} \(t_max = 0.2\)")):
            simulate(GmocWorkspace(unit_coeffs(lam_mu_m=1e15), Grid(16, 0.25)), 0.2)

    def test_fixed_steps_report_their_constant_step(self):
        coeffs = unit_coeffs()
        report = simulate(GmocWorkspace(coeffs, Grid(16, 0.25)), 0.1, 40)
        assert report.settings["steps"] == 40
        assert report.settings["tau_min"] == report.settings["tau_max"] == 0.1 / 40
        assert report.times[-1] == 40 * (0.1 / 40)

    @pytest.mark.parametrize("t_max, steps", [
        (1e-320, 250), (1e-310, 3), (np.nextafter(pbe.MIN_T_MAX, 0.0), None),
    ])
    def test_a_subnormal_sample_spacing_is_refused(self, t_max, steps):
        # Below MIN_T_MAX the sample spacing is subnormal, and a step's end
        # could overshoot the last sample (an IndexError) or fall short of it.
        with pytest.raises(DomainError, match=(
                rf"t_max must be >= 2.2250738585072014e-306, .* got {float(t_max)!r}")):
            simulate(GmocWorkspace(unit_coeffs(), Grid(16, 0.25)), t_max, steps)

    @pytest.mark.parametrize("steps", [None, 3, 7, 13])
    def test_the_shortest_run_takes_its_steps_and_every_sample(self, steps):
        report = simulate(GmocWorkspace(unit_coeffs(), Grid(16, 0.25)), pbe.MIN_T_MAX, steps)
        assert report.settings["steps"] == (steps or pbe.SAMPLES)
        assert len(report.times) == pbe.SAMPLES + 1
        assert report.times[-1] == pbe.MIN_T_MAX


@pytest.mark.parametrize("call, error, message", [
    (lambda: latex_scenario("bogus"), ConfigError, "unknown theta selector 'bogus'"),
], ids=["theta-selector"])
def test_call_no_command_can_make_is_refused(call, error, message):
    # The CLI offers only 'eucl' and 'test'.
    with pytest.raises(error, match=message):
        call()


class TestErrorSeries:
    @pytest.mark.parametrize("times, v_c, f, eps", [
        ([0.0, 2.0], [1.0, 3.0], [1.0, 2.0], [0.0, 1.0 / np.sqrt(10.0)]),
        ([0.0, 0.5, 1.0], [0.0, 3.0, 6.0], [0.0, 3.0, 5.0], [0.0, 0.0, 1.0 / np.sqrt(12.0)]),
        ([0.0], [1.0], [1.0], None),
    ], ids=["trapezoid", "simpson", "one-sample"])
    def test_normalized_by_the_time_integral(self, times, v_c, f, eps):
        # The L2 norm in time of V_c: the trapezoid on one interval, Simpson
        # on two (exact for V_c^2 = 36 t^2), and none at a single sample.
        got = error_series(np.array(times), np.array(v_c), np.array(f))
        if eps is None:
            assert got is None
        else:
            np.testing.assert_allclose(got, eps, rtol=1e-15)

    def test_consistent_series_has_small_error(self):
        scenario = latex_scenario("eucl", n_nodes=64, v_window=0.25e-16,
                                  t_horizon=120.0)
        report = run(scenario)
        assert report.max_eps_m < 1e-3
        assert report.max_eps_w < 1e-3

    def test_recompute_matches_report(self):
        scenario = latex_scenario("eucl", n_nodes=32)
        report = run(scenario, 200)
        np.testing.assert_array_equal(
            error_series(report.times, report.V_cm, report.F_m), report.eps_m)
        np.testing.assert_array_equal(
            error_series(report.times, report.V_cw, report.F_w), report.eps_w)
