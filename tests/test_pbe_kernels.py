import math
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from nondim.errors import DomainError
from nondim.models import LATEX_LABELS
from nondim.pbe import (
    MAX_GRID_N,
    MIN_GRID_N,
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


def kernel_workspace(grid):
    """A workspace for the aggregation kernel alone.  Nucleation is off, so
    a grid that cannot hold the unit source (span below lam_c = 1, or
    nodes too far apart to see a width of 0.02) is not refused."""
    return GmocWorkspace(unit_coeffs(lam_n=0.0, lam_s_m=0.0), grid)


def direct_aggregation(grid, dist, pref, exact=False):
    """(gain, loss) at nodes 1..N as direct sums, the reference for
    :meth:`GmocWorkspace.aggregation`.

    The gain at node k sums over its own Simpson row on [0, phi_k] (the 3/8
    rule closing an odd row) with the open-interval endpoints j = 0 and
    j = k dropped; the loss sums over the full grid without the origin.
    Every node adds its terms one at a time in order of j, as a loop over j
    inside a loop over k would; the loop over k is vectorized.  With
    ``exact`` every float that enters becomes a :class:`Fraction`, so the
    sums are the exact ones of these inputs, with nothing rounded.
    """
    n, h = grid.N, grid.h
    phi = grid.nodes()
    c = np.array([0.0] + [p ** (-1 / 3) for p in phi[1:]])
    rows = np.zeros((n + 1, n + 1))  # row k: the Simpson weights on [0, phi_k]
    for k in range(2, n + 1):
        rows[k, :k + 1] = simpson_weights(k, h)
    half = 0.5
    if exact:
        rational = np.vectorize(Fraction, otypes=[object])
        c, rows, dist = rational(c), rational(rows), rational(dist)
        pref, half = Fraction(pref), Fraction(1, 2)
    full_w = rows[n]
    gain, loss = np.zeros(n + 1, dtype=c.dtype), np.zeros(n + 1, dtype=c.dtype)
    for j in range(1, n + 1):
        loss[1:] += full_w[j] * pref * (c[1:] + c[j]) * dist[j]
        k = np.arange(j + 1, n + 1)
        gain[k] += rows[k, j] * pref * (c[k - j] + c[j]) * dist[k - j] * dist[j]
    return half * gain[1:], dist[1:] * loss[1:]


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


class TestGrid:
    def test_node_count_is_bounded_on_both_sides(self):
        # A Grid allocates nothing, so the largest one is cheap to build.
        assert Grid(MAX_GRID_N, 1.0).N == MAX_GRID_N
        with pytest.raises(DomainError, match=f"N <= {MAX_GRID_N}.*got {MAX_GRID_N + 1}"):
            Grid(MAX_GRID_N + 1, 1.0)
        with pytest.raises(DomainError, match=f"N >= {MIN_GRID_N}"):
            Grid(MIN_GRID_N - 1, 1.0)


class TestAggregation:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_matches_brute_force_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 41))
        h = float(rng.uniform(0.1, 1.0))
        grid = Grid(n, h)
        lam_a_m = float(rng.uniform(0.5, 2.0))
        dist = rng.uniform(0.0, 2.0, n + 1)
        dist[0] = 0.0
        psi = float(rng.uniform(0.1, 1.5))
        pref = lam_a_m * (psi + 1.0) ** (14.0 / 3.0)
        gain, loss = kernel_workspace(grid).aggregation(dist, pref)
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
        gain, loss = kernel_workspace(grid).aggregation(dist, 1.0)
        weights = simpson_weights(n, grid.h)
        net = weights @ np.concatenate(([0.0], phi[1:] * (gain - loss)))
        lost = weights @ np.concatenate(([0.0], phi[1:] * loss))
        assert abs(net) <= 1e-5 * lost

    def test_gain_where_products_underflow(self):
        # |d| falls from 1e-6 to 1e-320 with alternating sign, so the products
        # of a row k all have the sign (-1)^k and many fall below 2^-1022.
        # Where the exact gain is normal it must hold its relative accuracy,
        # though unscaled its sum would lose the bits of a subnormal.
        n = 64
        grid = Grid(n, 0.37)
        rng = np.random.default_rng(5)
        decades = np.clip(-6.0 - 314.0 * np.arange(n + 1) / n + rng.uniform(-3, 3, n + 1),
                          -320.0, -6.0)
        dist = (-1.0) ** np.arange(n + 1) * 10.0 ** decades
        dist[0] = 0.0
        pref = 1e9
        gain, _ = GmocWorkspace(unit_coeffs(), grid).aggregation(dist, pref)
        exact, _ = direct_aggregation(grid, dist, pref, exact=True)
        tiny = Fraction(2.0 ** -1022)
        normal = np.array([abs(e) >= tiny for e in exact])
        assert 10 < normal.sum() < n  # both kinds of node are tested
        rel = [abs(Fraction(g) / e - 1) for g, e in zip(gain[normal], exact[normal])]
        assert max(rel) <= 1e-14
        assert all(abs(Fraction(g) - e) < n * tiny
                   for g, e in zip(gain[~normal], exact[~normal]))

    @pytest.mark.parametrize("k", [-400, -37, 5, 300])
    def test_power_of_two_equivariance(self, k):
        # Products of |d| in [2^-401, 2^302] neither underflow nor overflow,
        # so scaling d by 2^k scales gain and loss by exactly 2^(2k).
        grid = Grid(40, 0.3)
        dist = np.random.default_rng(1).uniform(0.5, 2.0, 41) * (-1.0) ** np.arange(41)
        dist[0] = 0.0
        ws = GmocWorkspace(unit_coeffs(), grid)
        gain, loss = ws.aggregation(dist, 1.7)
        gain_k, loss_k = ws.aggregation(np.ldexp(dist, k), 1.7)
        np.testing.assert_array_equal(gain_k, np.ldexp(gain, 2 * k))
        np.testing.assert_array_equal(loss_k, np.ldexp(loss, 2 * k))

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # the loss at n - 3
    def test_large_peak_is_not_scaled_into_overflow(self):
        # A 1e300 node pairs only with nodes of order 1 below N, so its gain
        # is finite; scaling d up would overflow it.
        n = 40
        grid = Grid(n, 0.37)
        dist = np.random.default_rng(2).uniform(0.5, 2.0, n + 1)
        dist[0] = 0.0
        dist[n - 3] = 1e300
        gain, _ = GmocWorkspace(unit_coeffs(), grid).aggregation(dist, 1.7)
        expected, _ = direct_aggregation(grid, dist, 1.7)
        assert np.all(np.isfinite(gain))
        assert gain == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("h", [1e-10, 1e10, 1e20])
    def test_extreme_spacing_keeps_the_scaled_gain_finite(self, h):
        # The scale leaves room for the weights: the kernel factor h^(-1/3)
        # and the parity weights up to h, at 1e20 far more than the 2^24
        # that the scale keeps in reserve.
        n = 40
        grid = Grid(n, h)
        dist = np.random.default_rng(3).uniform(0.5, 2.0, n + 1) * (-1.0) ** np.arange(n + 1)
        dist[0] = 0.0
        gain, loss = kernel_workspace(grid).aggregation(dist, 1.0)
        expected_gain, expected_loss = direct_aggregation(grid, dist, 1.0)
        assert np.all(np.isfinite(gain))
        assert gain == pytest.approx(expected_gain, rel=1e-12, abs=0.0)
        assert loss == pytest.approx(expected_loss, rel=1e-12, abs=0.0)

    def test_tiny_prefactor_keeps_the_gain_normal(self):
        # The scale comes out through the prefactor, which must stay normal.
        grid = Grid(40, 0.37)
        dist = np.random.default_rng(4).uniform(0.5, 2.0, 41)
        dist[0] = 0.0
        gain, _ = GmocWorkspace(unit_coeffs(), grid).aggregation(dist, 1e-290)
        expected, _ = direct_aggregation(grid, dist, 1e-290)
        assert gain == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_distribution_gives_exact_zeros(self):
        gain, loss = GmocWorkspace(unit_coeffs(), Grid(40, 0.37)).aggregation(np.zeros(41), 1.7)
        np.testing.assert_array_equal(gain, np.zeros(40))
        np.testing.assert_array_equal(loss, np.zeros(40))

    def test_first_node_has_no_gain(self):
        dist = np.ones(9)
        dist[0] = 0.0
        gain, _ = GmocWorkspace(unit_coeffs(), Grid(8, 0.5)).aggregation(dist, 1.0)
        assert gain[0] == 0.0

    def test_workspace_holds_no_dense_matrix(self):
        ws = GmocWorkspace(unit_coeffs(), Grid(1000, 0.01))
        total = sum(v.nbytes for v in vars(ws).values() if isinstance(v, np.ndarray))
        assert total < 2**20

    @pytest.mark.parametrize("n", [8, 9, 200, 300, 1000, 1001])
    def test_reversed_operands_start_on_a_cache_line(self, n):
        # np.correlate runs fastest on them there: at N = 1000 an aggregation
        # call took about a fifth longer with both operands 8 bytes off.
        ws = kernel_workspace(Grid(n, 0.01))
        ws.aggregation(np.linspace(0.0, 1.0, n + 1), 1.0)
        assert ws._r.ctypes.data % 64 == 0
        assert ws._r_odd.ctypes.data % 64 == 0


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
