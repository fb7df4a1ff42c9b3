"""The PBE time loop, :func:`nondim.pbe.simulate`, on an operator with an
exact solution.

:class:`Decay` has the methods the loop calls on :class:`GmocWorkspace`, but
its state relaxes linearly, y' = -k (y - target), entry by entry: two
"distributions" of four nodes each, then the five auxiliary scalars, held
constant (k = 0).  So y(t) = target + (y0 - target) exp(-k t) is the oracle
for the samples, the observed order, the step-end samples, the run's
minima, the guard and the step budget, with no fd4 grid involved.
"""

import math

import numpy as np
import pytest

from nondim.errors import DomainError, NonFiniteEvaluationError
from nondim.odes import MAX_RK4_STEPS, rk4_integrate
from nondim.pbe import SAMPLES, SERIES, simulate

NODES = 4
#: m, then w, then V_mat, V_cm, V_cw, Psi and V_pol2.
RATES = np.r_[1.0, 2.0, 3.0, 4.0, 0.5, 1.5, 2.5, 3.5, np.zeros(5)]
START = np.r_[1.0, 2.0, 1.5, 0.5, 2.0, 1.0, 0.5, 0.25, 0.3, 1.2, 0.7, 0.9, 0.1]


class Decay:
    """y' = -k (y - target) on the packed state (m, w, five scalars)."""

    def __init__(self, rates=RATES, target=None, stop_after=None):
        self.rates = np.asarray(rates, dtype=float)
        self.target = np.zeros(len(START)) if target is None else np.asarray(target)
        self.stop_after = stop_after
        self.calls = 0

    def exact(self, t):
        return self.target + (START - self.target) * np.exp(-self.rates * t)

    def initial_state(self):
        return START.copy()

    def rhs(self, y):
        self.calls += 1
        return -self.rates * (y - self.target)

    def stable_step(self, y):
        return 2.0 / self.rates.max()

    def distributions(self, y):
        return y[: 2 * NODES].reshape(2, NODES)

    def sample(self, y):
        return y[-5:].tolist() + [float(d.sum()) for d in self.distributions(y)]

    def guard(self, y, step):
        return f"stopped after step {step}" if step == self.stop_after else None

    def describe_nonfinite(self, y):
        return f"entries {np.flatnonzero(~np.isfinite(y)).tolist()}"

    def settings(self):
        return {"operator": "decay"}


@pytest.mark.parametrize("steps", [50, 137, None])
def test_samples_follow_the_exact_solution(steps):
    op = Decay()
    report = simulate(op, 1.0, steps)
    np.testing.assert_array_equal(report.times, np.arange(SAMPLES + 1) / SAMPLES)
    exact = np.array([op.sample(op.exact(t)) for t in report.times])
    for column, name in enumerate(SERIES):
        np.testing.assert_allclose(getattr(report, name), exact[:, column],
                                   rtol=0.0, atol=2e-6, err_msg=name)
    final_m, final_w = op.distributions(op.exact(1.0))
    np.testing.assert_allclose(report.final_m, final_m, rtol=3e-6)
    np.testing.assert_allclose(report.final_w, final_w, rtol=3e-6)
    settings = report.settings
    assert settings["operator"] == "decay"
    assert settings["rhs_evaluations"] == op.calls == 4 * settings["steps"]
    assert settings["steps"] == (steps or 100)  # the stable step 0.5 is capped at 0.01
    assert settings["first_negative"] is None and not report.negative_minima
    assert report.aborted is None and settings["guard_step"] is None
    assert report.min_m == report.min_w == 0.0


def test_fixed_steps_converge_at_order_four():
    errors = []
    for steps in (20, 40, 80, 160):
        op = Decay()
        report = simulate(op, 2.0, steps)
        final = np.concatenate([report.final_m, report.final_w])
        errors.append(np.abs(final - op.exact(2.0)[: 2 * NODES]).max())
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders == pytest.approx(4.0, abs=0.15)


def test_a_sample_on_a_step_end_is_the_stepped_state():
    # 50 steps end on every second sample time; rk4_integrate takes the
    # same steps of 1/50, so its states are the loop's, bit for bit.
    op = Decay()
    report = simulate(op, 1.0, 50)
    states = rk4_integrate(lambda t, y: op.rhs(y), START, 0.0, 1.0, 50).states
    series = np.array([getattr(report, name) for name in SERIES]).T
    for k, state in enumerate(states):
        assert series[2 * k].tolist() == op.sample(state)
    np.testing.assert_array_equal(np.concatenate([report.final_m, report.final_w]),
                                  states[-1][: 2 * NODES])


def test_a_negative_going_node_sets_first_negative():
    # m at node 2 falls from 1.5 towards -1 and crosses 0 at ln(2.5) / 3;
    # the first step that ends past it is the first negative one.
    target = np.zeros(len(START))
    target[2] = -1.0
    op = Decay(target=target)
    steps = 50
    report = simulate(op, 1.0, steps)
    crossing = math.log(2.5) / 3.0
    step = math.ceil(crossing * steps)
    assert report.negative_minima
    first = report.settings["first_negative"]
    assert first == {"step": step, "time": pytest.approx(step / steps),
                     "distribution": "m", "node": 2}
    assert report.min_m == pytest.approx(op.exact(1.0)[2], rel=1e-6)
    assert report.min_w == 0.0


def test_the_guard_stops_the_run():
    op = Decay(stop_after=7)
    report = simulate(op, 1.0, 50)
    assert report.aborted == "stopped after step 7"
    assert report.settings["guard_step"] == report.settings["steps"] == 7
    assert op.calls == 28
    # Steps of 1/50: the run ends at 0.14, on sample 14.
    np.testing.assert_array_equal(report.times, np.arange(15) / SAMPLES)
    np.testing.assert_allclose(report.final_m, op.distributions(op.exact(0.14))[0], rtol=1e-6)


def test_a_blow_up_is_described_by_the_operator():
    op = Decay(rates=np.r_[-1e300, np.ones(len(START) - 1)])
    with pytest.raises(NonFiniteEvaluationError,
                       match=r"^non-finite state after step 1: entries \[0\]$") as err:
        simulate(op, 1.0, 10)
    assert err.value.step == 1


def test_more_fixed_steps_than_the_budget_are_refused():
    op = Decay()
    with pytest.raises(DomainError, match=f"steps must be <= {MAX_RK4_STEPS}, "
                                          f"got {MAX_RK4_STEPS + 1}"):
        simulate(op, 1.0, MAX_RK4_STEPS + 1)
    assert op.calls == 0
