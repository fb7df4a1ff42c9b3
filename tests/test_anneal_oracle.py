"""Oracle for the windowed annealing chain: a one-proposal-at-a-time replay.

``anneal_minimize`` costs several proposals per numpy call and keeps the
first accepted one.  The replay below draws the same random stream (per
level, blocks of at most DRAW_BLOCK evaluations: Gaussian steps, then
uniforms) and walks the Metropolis chain one proposal at a time on single
rows of the plain max norm, so both must end at the same best point.
DRAW_BLOCK is patched small so that levels span several blocks and windows
run past a block's end; the shipped budget and block size are checked too.
"""

import numpy as np
import pytest

from nondim import models, scaling
from nondim.scaling import AnnealConfig, anneal_minimize, evaluate_cost, solve_euclidean

PROBLEMS = {
    "latex": lambda: models.build_latex()[0],
    "ldg": models.build_ldg,
    "projectile": models.build_projectile,
    "schrodinger": models.build_schrodinger,
}

#: Largest difference of the best rho (decades) and relative difference of
#: its cost between the windowed chain and the replay.
TOL = 1e-12


def replay(problem, config):
    residuals = scaling._log_residuals(problem)
    cost = scaling._cost("max")
    rng = np.random.default_rng(config.seed)
    n_x = problem.n_factors
    budget = config.max_evaluations
    per_level = max(1, budget // 100)

    rho = np.zeros(n_x)
    current = float(cost(residuals(rho)))
    best_rho, best_cost = rho, current
    evaluation = 0
    while evaluation < budget:
        level = evaluation // per_level
        temperature = 0.95**level
        level_end = min((level + 1) * per_level, budget)
        size = min(scaling.DRAW_BLOCK, level_end - evaluation)
        steps = rng.normal(0.0, 2.0 * temperature, size=(size, n_x))
        uniforms = rng.random(size)
        for step, uniform in zip(steps, uniforms):
            proposal = rho + step
            proposed = float(cost(residuals(proposal)))
            if proposed <= current - temperature * np.log1p(-uniform):
                rho, current = proposal, proposed
                if current < best_cost:
                    best_rho, best_cost = rho, current
        evaluation += size
    return best_rho, best_cost


def assert_matches_replay(problem, config):
    sol = anneal_minimize(problem, config=config)
    best_rho, best_cost = replay(problem, config)
    np.testing.assert_allclose(np.log10(sol.theta), best_rho, rtol=0, atol=TOL)
    assert sol.cost == pytest.approx(best_cost, rel=TOL, abs=TOL)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
# The chain anneals the max norm only; the parameter keeps it in the ids.
@pytest.mark.parametrize("kind", ["max"])
# Budget 7 makes seven one-proposal levels; 1025 (one shipped block plus
# one) makes levels of 10 = a block of 7 and one of 3, then a last level of 5.
@pytest.mark.parametrize("budget", [1, 7, 99, 150, 1025, 2000])
def test_windowed_chain_matches_one_at_a_time_replay(monkeypatch, name, kind, budget):
    monkeypatch.setattr(scaling, "DRAW_BLOCK", 7)
    config = AnnealConfig(max_evaluations=budget, seed=budget)
    assert_matches_replay(PROBLEMS[name](), config)


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_shipped_budget_matches_one_at_a_time_replay(name):
    """The benchmark's setting: 1e5 evaluations in full DRAW_BLOCKs, max cost.

    On latex the chain accepts about 32,000 proposals, each of which moves
    the carried residual, so this bounds the rounding the residual gathers
    within a block.
    """
    assert_matches_replay(PROBLEMS[name](), AnnealConfig(max_evaluations=100_000, seed=0))


def test_latex_max_beats_the_euclidean_optimum():
    """The benchmark's bound on the annealed latex max cost (2.3955)."""
    problem = PROBLEMS["latex"]()
    euclid = evaluate_cost(problem, solve_euclidean(problem).theta, "max")
    sol = anneal_minimize(problem, config=AnnealConfig(max_evaluations=100_000, seed=0))
    assert sol.cost <= euclid


#: The shipped chain's result at seed 0 and 1e5 evaluations, as ``float.hex``:
#: the cost (latex 1.6651299938416315, projectile 1.250297943517545), then
#: theta.  Any change to the chain's arithmetic moves these bits.
PINNED = {
    "latex": ("0x1.aa45f59323740p+0", [
        "0x1.aefd601c1721cp-50", "0x1.0e4247db6c802p+11", "0x1.c2e86a29d06e7p+99",
        "0x1.bead76d30e8dcp+99", "0x1.3cf7f37aae159p+1", "0x1.629ac2d44fe4bp+1",
        "0x1.a80c5eccbe75cp+1", "0x1.5b4cb141d384bp+28"]),
    "projectile": ("0x1.401386a9a9f61p+0", ["0x1.93802bb7fb6dcp+9", "0x1.5e99ab676c4d1p+18"]),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_shipped_budget_is_pinned_bit_for_bit(name):
    cost, theta = PINNED[name]
    sol = anneal_minimize(PROBLEMS[name](), config=AnnealConfig(max_evaluations=100_000, seed=0))
    assert sol.cost.hex() == cost
    assert [float(t).hex() for t in sol.theta] == theta
