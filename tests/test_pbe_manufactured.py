"""Manufactured-solution oracle for the aggregation kernel.

For d(u) = u^p e^(-u) and the kernel u^(-1/3) + v^(-1/3) (prefactor 1), the
gain and loss of :meth:`GmocWorkspace.aggregation` have closed forms:

    gain(v) = e^(-v) v^(2p+2/3) B(p+2/3, p+1),
    loss(v) = d(v) (v^(-1/3) Gamma(p+1) + Gamma(p+2/3)),

the loss integrals taken over [0, inf); cutting them at V = 40 drops less
than 1e-12.  The integrands behave like u^(p-1/3) at the origin, so the
Simpson quadrature converges at order p + 2/3 there, not 4.
"""

import math

import numpy as np
import pytest

from nondim.pbe import GmocWorkspace, Grid

from test_pbe_kernels import unit_coeffs

V_MAX = 40.0
NODES = (100, 200, 400, 800, 1600)


def beta(a, b):
    return math.gamma(a) * math.gamma(b) / math.gamma(a + b)


def peak_errors(p, n):
    """Max |error| of the gain and of the loss over the nodes where the
    closed form is at least a tenth of its peak, on an N = n grid."""
    grid = Grid(n, V_MAX / n)
    v = grid.nodes()
    d = v ** p * np.exp(-v)
    gain, loss = GmocWorkspace(unit_coeffs(), grid).aggregation(d, 1.0)
    v = v[1:]
    exact_gain = np.exp(-v) * v ** (2 * p + 2.0 / 3.0) * beta(p + 2.0 / 3.0, p + 1.0)
    exact_loss = d[1:] * (v ** (-1.0 / 3.0) * math.gamma(p + 1.0) + math.gamma(p + 2.0 / 3.0))
    return tuple(
        float(np.abs(got - exact)[exact >= 0.1 * exact.max()].max())
        for got, exact in ((gain, exact_gain), (loss, exact_loss))
    )


@pytest.mark.parametrize("p, gain_order, loss_order", [
    (1, 1.68, 1.68), (2, 2.78, 2.77), (3, 3.82, 3.72),
])
def test_aggregation_converges_to_the_closed_forms(p, gain_order, loss_order):
    errors = np.array([peak_errors(p, n) for n in NODES])
    # Both errors fall with every refinement; at N = 1600 they are 3e-5 to
    # 4e-5 for p = 1 and 6e-8 to 8e-8 for p = 3.
    assert np.all(np.diff(errors, axis=0) < 0)
    assert errors[-1].max() < 1e-4
    orders = np.log2(errors[-2] / errors[-1])
    assert orders == pytest.approx([gain_order, loss_order], abs=0.05)
