import math

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nondim.errors import DomainError
from nondim.models import LATEX_LABELS
from nondim.pbe import (
    GmocWorkspace,
    Grid,
    LatexCoefficients,
    fd4_derivative,
    gaussian_delta,
    simpson_weights,
)
from nondim.runio import load_lambda_config


def unit_coeffs(**overrides):
    values = {f"lam_{label}": 1.0 for label in LATEX_LABELS}
    values.update(Phi_s=1e-3, Psi_bar=1.0, Psi_r=1.05, sigma_c=0.02)
    values.update(overrides)
    return LatexCoefficients(**values)


def direct_aggregation(grid, dist, pref):
    """(gain, loss) at nodes 1..N as direct sums, the reference for
    :meth:`GmocWorkspace.aggregation`.

    The gain at node k sums over its own Simpson row on [0, phi_k] (the 3/8
    rule closing an odd row) with the open-interval endpoints j = 0 and
    j = k dropped; the loss sums over the full grid without the origin.
    Every node adds its terms one at a time in order of j, as a loop over j
    inside a loop over k would; the loop over k is vectorized.
    """
    n, h = grid.N, grid.h
    phi = grid.nodes()
    c = np.array([0.0] + [p ** (-1 / 3) for p in phi[1:]])
    rows = np.zeros((n + 1, n + 1))  # row k: the Simpson weights on [0, phi_k]
    for k in range(2, n + 1):
        rows[k, :k + 1] = simpson_weights(k, h)
    full_w = rows[n]
    gain, loss = np.zeros(n + 1), np.zeros(n + 1)
    for j in range(1, n + 1):
        loss[1:] += full_w[j] * pref * (c[1:] + c[j]) * dist[j]
        k = np.arange(j + 1, n + 1)
        gain[k] += rows[k, j] * pref * (c[k - j] + c[j]) * dist[k - j] * dist[j]
    return 0.5 * gain[1:], dist[1:] * loss[1:]


class TestFd4:
    def test_exact_on_quartics_at_every_node(self):
        h = 0.3
        x = h * np.arange(12)
        poly = 2.0 * x**4 - x**3 + 5.0 * x - 7.0
        exact = 8.0 * x**3 - 3.0 * x**2 + 5.0
        assert fd4_derivative(poly, h) == pytest.approx(exact[1:], rel=1e-11, abs=1e-10)

    def test_fourth_order_on_smooth_function(self):
        def err(n):
            h = 1.0 / n
            x = h * np.arange(n + 1)
            return np.max(np.abs(fd4_derivative(np.sin(3 * x), h) - 3 * np.cos(3 * x)[1:]))

        assert math.log2(err(40) / err(80)) > 3.7

    def test_needs_five_nodes(self):
        with pytest.raises(DomainError):
            fd4_derivative([1.0, 2.0, 3.0], 0.1)


class TestSimpson:
    @pytest.mark.parametrize("upto", [2, 3, 4, 5, 10, 11])
    def test_exact_on_cubics_for_both_parities(self, upto):
        h = 0.7
        x = h * np.arange(upto + 1)
        value = simpson_weights(upto, h) @ (x**3 - 2.0 * x + 1.0)
        exact = (upto * h) ** 4 / 4 - (upto * h) ** 2 + upto * h
        assert value == pytest.approx(exact, rel=1e-12)

    @pytest.mark.parametrize("h", [0.7, 1.0 / 3.0])
    def test_odd_count_weights_exactly(self, h):
        # Simpson on the first upto - 3 subintervals, the 3/8 rule on the
        # last three, the two sharing node upto - 3.
        third, four_thirds, two_thirds = h / 3.0, 4.0 * h / 3.0, 2.0 * h / 3.0
        three_eighths, nine_eighths = 3.0 * h / 8.0, 9.0 * h / 8.0
        tail = [nine_eighths, nine_eighths, three_eighths]
        expected = {
            3: [three_eighths] + tail,
            5: [third, four_thirds, third + three_eighths] + tail,
            7: [third, four_thirds, two_thirds, four_thirds, third + three_eighths] + tail,
        }
        for upto, weights in expected.items():
            np.testing.assert_array_equal(simpson_weights(upto, h), weights)

    def test_weights_sum_to_interval_length(self):
        for upto in (2, 3, 6, 9):
            assert simpson_weights(upto, 0.5).sum() == pytest.approx(0.5 * upto)

    def test_fourth_order_convergence(self):
        def err(n):
            h = 1.0 / n
            return abs(simpson_weights(n, h) @ np.exp(h * np.arange(n + 1)) - (math.e - 1))

        assert math.log2(err(41) / err(81)) > 3.7

    def test_too_few_subintervals(self):
        with pytest.raises(DomainError):
            simpson_weights(1, 0.1)


class TestGaussianDelta:
    def test_unit_mass(self):
        h = 0.01
        v = h * np.arange(2001)
        mass = simpson_weights(2000, h) @ gaussian_delta(v, 10.0, 0.5)
        assert mass == pytest.approx(1.0, rel=1e-10)

    def test_mean_recovers_nucleation_volume(self):
        h = 0.01
        v = h * np.arange(2001)
        mean = simpson_weights(2000, h) @ (v * gaussian_delta(v, 10.0, 0.5))
        assert mean == pytest.approx(10.0, rel=1e-10)

    def test_width_must_be_positive(self):
        with pytest.raises(DomainError):
            gaussian_delta(1.0, 1.0, 0.0)


class TestAggregation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 41))
        h = float(rng.uniform(0.1, 1.0))
        grid = Grid(n, h)
        coeffs = unit_coeffs(lam_a_m=float(rng.uniform(0.5, 2.0)))
        dist = rng.uniform(0.0, 2.0, n + 1)
        dist[0] = 0.0
        psi = float(rng.uniform(0.1, 1.5))
        pref = coeffs.lam_a_m * (psi + 1.0) ** (14.0 / 3.0)
        gain, loss = GmocWorkspace(coeffs, grid).aggregation(dist, pref)
        expected_gain, expected_loss = direct_aggregation(grid, dist, pref)
        assert gain == pytest.approx(expected_gain, rel=1e-12, abs=1e-12)
        assert loss == pytest.approx(expected_loss, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", [200, 300, 1000])
    def test_gain_node_relative_at_benchmark_sizes(self, n):
        # Every product in the row of node k has the size 10^(-250 k / n),
        # so a sum whose error scales with the largest gain (as an FFT's
        # does) fails here by hundreds of decades at the last nodes.
        h = 0.37
        grid = Grid(n, h)
        dist = 10.0 ** (-250.0 * np.arange(n + 1) / n)
        pref = 1.7
        gain, _ = GmocWorkspace(unit_coeffs(), grid).aggregation(dist, pref)
        expected, _ = direct_aggregation(grid, dist, pref)
        assert gain[0] == 0.0
        assert np.max(np.abs(gain[1:] / expected[1:] - 1.0)) <= 1e-12

    @given(st.integers(200, 1000), st.floats(0.05, 0.35), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_aggregation_conserves_volume(self, n, a, spread):
        # A sin^4 bump on [a, b] with b - a >= 0.1 v_max and b <= 0.45 v_max,
        # so the gain's support (up to 2b) stays inside the grid.  What is
        # left is quadrature error: largest, about 9.4e-6, for the narrowest
        # bumps (b - a = 0.1, some 20 nodes) near N = 210; 6e-9 by N = 900.
        b = a + 0.1 + spread * (0.35 - a)
        grid = Grid.from_vmax(n, 1.0)
        phi = grid.nodes()
        z = (phi - a) / (b - a)
        dist = np.where((z > 0.0) & (z < 1.0), np.sin(np.pi * z) ** 4, 0.0)
        gain, loss = GmocWorkspace(unit_coeffs(), grid).aggregation(dist, 1.0)
        weights = simpson_weights(n, grid.h)
        net = weights @ np.concatenate(([0.0], phi[1:] * (gain - loss)))
        lost = weights @ np.concatenate(([0.0], phi[1:] * loss))
        assert abs(net) <= 1e-5 * lost

    def test_first_node_has_no_gain(self):
        dist = np.ones(9)
        dist[0] = 0.0
        gain, _ = GmocWorkspace(unit_coeffs(), Grid(8, 0.5)).aggregation(dist, 1.0)
        assert gain[0] == 0.0

    def test_workspace_holds_no_dense_matrix(self):
        ws = GmocWorkspace(unit_coeffs(), Grid(1000, 0.01))
        total = sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray))
        assert total < 2**20


class TestCoefficientBundle:
    def test_default_width_rule(self, tmp_path):
        # A scenario file without sigma_c gets the paper's lambda_c / 50.
        lambdas = dict.fromkeys(LATEX_LABELS, 1.0)
        lambdas["c"] = 5.0
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump({
            "lambdas": lambdas,
            "constants": {"Phi_s": 1e-3, "Psi_bar": 1.0, "Psi_r": 1.05},
            "grid": {"N": 16, "v_max": 4.0},
            "t_max": 0.2,
        }))
        assert load_lambda_config(path).coeffs.sigma_c == lambdas["c"] / 50

    def test_width_separation_invariant(self):
        with pytest.raises(DomainError):
            unit_coeffs(lam_c=1.0, sigma_c=0.5)

    def test_positive_coefficients_required(self):
        with pytest.raises(DomainError):
            unit_coeffs(lam_d=0.0)

    def test_from_labels_maps_by_label(self, latex_problem, latex_eucl):
        problem, constants = latex_problem
        lam = dict(zip(problem.labels, latex_eucl.lambdas))
        coeffs = LatexCoefficients.from_labels(lam, constants, sigma_c=lam["c"] / 25.0)
        assert coeffs.lam_d == lam["d"]
        assert coeffs.lam_mu_m == lam["mu_m"]
        assert coeffs.lam_c == lam["c"]
        assert coeffs.sigma_c == lam["c"] / 25.0
        assert coeffs.Phi_s == constants.Phi_s
