"""Dimensionless two-phase cluster population balance solver.

A fixed-grid method of lines: the transport + nucleation + migration +
aggregation system for the non-equilibrium distribution ``m`` and the
equilibrium distribution ``w`` is semi-discretized on a fixed uniform volume
grid, with central fourth-order five-point (fd4) transport, composite
Simpson aggregation integrals and classical RK4 in time.
:class:`GmocWorkspace` only carries the paper's Generalised Method of
Characteristics name; nothing moves along characteristics.
The aggregation gain is evaluated from truncated correlations: the Simpson
weight of an inner node depends only on its parity, so the two parity
weights of each product add to 2h in an odd row and depend only on the
parity of the node in an even row.  One correlation of the full arrays and
one of their odd-index halves, each computing just the N+1 (or N/2) outputs
kept, give every row, plus an O(N) correction for the 3/8-rule tail of odd
rows.  The gain is summed at an exact power-of-two scale that lifts
products which would underflow, so only values below about 1e-300 differ
from an unscaled sum.  The grid workspace is O(N).

The point-mass nucleation source is regularized as a narrow Gaussian of
width ``sigma_c``; when the grid cannot resolve that width the solution
develops the negative oscillations the diagnostics here are built to expose.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, NonFiniteEvaluationError
from .models import LatexConstants
from .odes import rk4_dense_step

TRUNCATION_TOLERANCE = 1e-6
#: A distribution is negative where it falls below -NONNEG_TOL times its
#: final peak (see SimulationReport).
NONNEG_TOL = 1e-8
#: Every run samples at the SAMPLES + 1 uniform times t_max * i / SAMPLES, and
#: no adaptive step is longer than their spacing.
SAMPLES = 100
#: The sampled series of a run, in the order :func:`_sample` returns them.
SERIES = ("V_mat", "V_cm", "V_cw", "Psi", "V_pol2", "F_m", "F_w")
#: Stability limits of classical RK4 with fd4 transport: tau * max|g| / h
#: (2 sqrt 2 over the peak 1.372 of the central stencil's symbol; the
#: eigenvalues of the whole operator, boundary rows included, give 2.10 to
#: 2.34 for N = 1000 to 100) and tau * decay rate on the negative real axis.
TRANSPORT_LIMIT = 2.06
RK4_REAL_LIMIT = 2.785
#: Adaptive steps keep tau * max|g| / h at COURANT when nothing decays.
#: Measured on the desk run, whose steps are also capped at the sample
#: spacing: at 1 (142 steps) its final m and w stay within 5.7e-6 and
#: 1.6e-5 of their peaks of a 10,494-step run, at 1.5 (111 steps) w drifts
#: by 2.7e-5, and from 2.3 on the spacing sets all 100 steps (5.4e-5).
COURANT = 1.0
MIN_GRID_N = 8  # the five-point stencils need nodes 0..4 and N-4..N apart
#: Largest node count a Grid accepts.  A run holds about 300 bytes per node:
#: GmocWorkspace keeps 16.5 float arrays of N + 1 (the padded correlation
#: operands and the (3, N/2) tail tables among them, 132 bytes), and an RK4
#: step adds 21 more (the packed state, k1..k3, the stage argument and the
#: right-hand side's temporaries, 168 bytes); tracemalloc measures 301 at
#: N = 4000 and 10,000.  So the largest grid needs about 300 MB, and a
#: larger one is refused before anything is allocated.
MAX_GRID_N = 1_000_000


@dataclass(frozen=True)
class LatexCoefficients:
    """The 19 dimensionless rate coefficients plus scale-free constants.

    ``sigma_c`` is the width of the Gaussian standing in for the nucleation
    point mass; it must stay well below the nucleation volume ``lam_c``.
    Every value is finite and positive, but ``lam_n`` and ``lam_s_m`` may
    be zero and ``Phi_s`` stays below 1 (the domain of
    :class:`nondim.models.LatexParams`).
    """

    lam_a_m: float
    lam_a_w: float
    lam_d: float
    lam_p: float
    lam_n: float
    lam_c: float
    lam_mu_m: float
    lam_mu_w: float
    lam_dm_mat: float
    lam_dw_mat: float
    lam_s_m: float
    lam_s_mat: float
    lam_pol1_pol2: float
    lam_pol1_mat: float
    lam_p_m: float
    lam_p_w: float
    lam_p_pol2: float
    lam_p_pol1: float
    lam_p_mat: float
    Phi_s: float
    Psi_bar: float
    Psi_r: float
    sigma_c: float

    def __post_init__(self):
        # lam_n and lam_s_m may be zero together (the nucleation off-switch;
        # they are tied by the moment identity lam_s_m = lam_n * lam_c).
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value!r}")
            if f.name in ("lam_n", "lam_s_m"):
                if value < 0:
                    raise DomainError(f"{f.name} must be >= 0, got {value!r}")
            elif not value > 0:
                raise DomainError(f"{f.name} must be > 0, got {value!r}")
        if not self.Phi_s < 1:
            raise DomainError(f"Phi_s must be < 1, got {self.Phi_s!r}")
        if self.lam_c / self.sigma_c < 10.0:
            raise DomainError("lam_c must dominate sigma_c (ratio >= 10)")

    @classmethod
    def from_labels(
        cls, lambdas, constants: LatexConstants, sigma_c: float
    ) -> "LatexCoefficients":
        """Bundle the 19 coefficients given by label (``a_m`` -> ``lam_a_m``)."""
        return cls(
            **{f"lam_{label}": value for label, value in lambdas.items()},
            Phi_s=constants.Phi_s, Psi_bar=constants.Psi_bar,
            Psi_r=constants.Psi_r, sigma_c=sigma_c,
        )


@dataclass(frozen=True)
class Grid:
    """Uniform volume grid phi_k = k*h for k = 0..N."""

    N: int
    h: float

    def __post_init__(self):
        if self.N < MIN_GRID_N:
            raise DomainError(f"grid needs N >= {MIN_GRID_N} (five-point stencils)")
        if self.N > MAX_GRID_N:
            raise DomainError(f"grid needs N <= {MAX_GRID_N} (about 300 bytes a node), "
                              f"got {self.N}")
        if not 0 < self.h < math.inf:
            raise DomainError(f"grid spacing h must be > 0 and finite, got {self.h!r}")

    @classmethod
    def from_vmax(cls, N: int, v_max: float) -> "Grid":
        return cls(N=N, h=v_max / N)

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(self.N + 1)


def gaussian_delta(v: float, lc: float, sc: float):
    """Gaussian density of mean lc and width sc, the mollified point mass."""
    if not sc > 0:
        raise DomainError("sigma must be > 0")
    z = (np.asarray(v, dtype=float) - lc) / sc
    with np.errstate(over="ignore"):  # z * z = inf far out, where exp gives the right 0
        return np.exp(-0.5 * z * z) / (sc * math.sqrt(2.0 * math.pi))


def growth_law(coeffs: LatexCoefficients, aux) -> tuple[float, float, float]:
    """Monomer availability Phi (clamped at 0) and (a, b) of the growth rate
    g(v) = a v^(2/3) + b v: surface growth and dilation.

    ``aux`` holds the five auxiliary scalars of the packed state.  A swollen
    volume V_p <= 0, a corrupted state, raises
    :class:`NonFiniteEvaluationError`.
    """
    v_mat, v_cm, v_cw, psi, _ = aux
    psi1 = psi + 1.0
    phi = max(v_mat / (psi1 * (v_mat + coeffs.lam_pol1_mat)) - coeffs.Phi_s, 0.0)
    v_p = psi1 * (
        coeffs.lam_p_mat * v_mat
        + coeffs.lam_p_m * v_cm
        + coeffs.lam_p_w * v_cw
        + coeffs.lam_p_pol1
    )
    if v_p <= 0:
        raise NonFiniteEvaluationError("state corruption: V_p <= 0")
    return phi, coeffs.lam_d * phi * psi1 ** (2.0 / 3.0), coeffs.lam_p * psi / v_p


# Five-point stencils of the fourth-order first derivative, times 12h: the
# central one, the one-sided one at node 1 (on nodes 0..4) and those at
# nodes N-1 and N (on nodes N-4..N).
FD4_CENTRAL = np.array([1.0, -8.0, 0.0, 8.0, -1.0])
FD4_HEAD = np.array([-3.0, -10.0, 18.0, -6.0, 1.0])
FD4_TAIL = np.array([[-1.0, 6.0, -18.0, 10.0, 3.0],
                     [3.0, -16.0, 36.0, -48.0, 25.0]])


def fd4_derivative(values, h: float) -> np.ndarray:
    """Fourth-order first derivative at nodes 1..N of a uniform grid.

    Central five-point formula in the interior, one-sided variants at the
    last three nodes and at node 1.  Node 0 feeds the stencils but gets no
    derivative (its value is a boundary condition).
    """
    values = np.asarray(values, dtype=float)
    n = values.size - 1
    if n < 4:
        raise DomainError("fd4 needs at least 5 nodes")
    scale = 1.0 / (12.0 * h)
    out = np.empty(n)
    out[1:n - 2] = np.correlate(values, FD4_CENTRAL * scale)
    out[0] = (FD4_HEAD @ values[:5]) * scale
    out[n - 2:] = (FD4_TAIL @ values[n - 4:]) * scale
    return out


def simpson_weights(upto: int, h: float) -> np.ndarray:
    """Quadrature weights on nodes 0..upto for the integral over [0, upto*h].

    Even subinterval counts use composite Simpson; odd counts use Simpson on
    the first upto-3 subintervals plus the 3/8 rule on the last three, which
    keeps the global order at four.
    """
    if upto < 2:
        raise DomainError("quadrature needs at least 2 subintervals")
    w = np.zeros(upto + 1)
    head = upto - 3 * (upto % 2)
    if head >= 2:
        w[0] = w[head] = h / 3.0
        w[1:head:2] = 4.0 * h / 3.0
        w[2:head:2] = 2.0 * h / 3.0
    if head < upto:
        w[head:] += np.array([3.0, 9.0, 9.0, 3.0]) * h / 8.0
    return w


def _cache_aligned(size: int) -> np.ndarray:
    """Zeros of length ``size`` that start on a 64-byte boundary."""
    buf = np.zeros(size + 7)
    start = -buf.ctypes.data % 64 // buf.itemsize
    return buf[start:start + size]


class GmocWorkspace:
    """Grid-dependent precomputations for the right-hand side of the fixed-grid
    method of lines with central fd4 transport.  The class only carries the
    paper's Generalised Method of Characteristics name."""

    def __init__(self, coeffs: LatexCoefficients, grid: Grid):
        self.coeffs = coeffs
        self.grid = grid
        n = grid.N
        nodes = grid.nodes()
        self.nodes = nodes
        inv_cbrt = np.zeros(n + 1)
        inv_cbrt[1:] = nodes[1:] ** (-1.0 / 3.0)
        self.inv_cbrt = inv_cbrt
        self.moment0_weights = simpson_weights(n, grid.h)
        # The full-grid weights with the origin excluded (the kernel is
        # singular at u = 0 and the open-interval indicator drops it anyway),
        # as rows for the two loss sums: of dist and of phi^(-1/3) * dist.
        self.loss_weights = np.array([self.moment0_weights, self.moment0_weights * inv_cbrt])
        self.loss_weights[0, 0] = 0.0
        # Gain term: for each target node k the convolution integral runs
        # over [0, phi_k] with its own Simpson row; endpoints j = 0 and
        # j = k are excluded by the open-interval indicator.  Inside the row
        # of an even k the weight of node j depends only on the parity of j
        # (4h/3 odd, 2h/3 even).  Half the sum of the weights of the two
        # nodes of a product is h in the row of an odd k, and 2h/3 in the row
        # of an even k, doubled when j is odd (aggregation() adds the odd-j
        # sum once more); gain_parity holds the h and 2h/3.
        self.gain_parity = np.full(n + 1, 2.0 * grid.h / 3.0)
        self.gain_parity[1::2] = grid.h
        # The row of an odd k ends in the 3/8 rule on nodes k-3, k-2, k-1
        # (and k).  tail_weights[i - 1] is half the weight correction at
        # j = k - i (the 1/2 of the gain) times the kernel factor
        # phi_i^(-1/3) + phi_{k-i}^(-1/3), over the odd k >= 3, and
        # tail_index[i - 1] holds those k - i.  The corrections are those of
        # any odd k >= 5; at k = 3 node k - 3 is the origin, where the term
        # vanishes anyway.
        odd = np.arange(3, n + 1, 2)
        parity = np.array([2.0 * grid.h / 3.0, 4.0 * grid.h / 3.0, 2.0 * grid.h / 3.0])
        delta = 0.5 * (simpson_weights(5, grid.h)[4:1:-1] - parity)
        self.tail_weights = np.array([
            delta[i - 1] * (inv_cbrt[i] + inv_cbrt[odd - i]) for i in (1, 2, 3)
        ])
        self.tail_index = odd - np.array([[1], [2], [3]])
        # For |d| <= P every intermediate of the gain stays below P^2 bound:
        # the correlation sums (S + T at even k) below 2(N+1) max(c) P^2,
        # then the parity weights (at most h) and the tail add.
        corr = 2.0 * (n + 1) * inv_cbrt[1]
        bound = max(corr, corr * grid.h + np.abs(self.tail_weights).sum(axis=0).max())
        #: Binary exponent that sum(d^2) may reach once aggregation() has
        #: scaled d: every intermediate of the gain then stays below 2^1000.
        self.gain_headroom = 1000 - math.frexp(bound)[1]
        # Zero-padded operands of the truncated correlations: the padding
        # stays zero, aggregation() writes c * d (all of it, and its
        # odd-index half) into the views behind it.
        self._pad = np.zeros(2 * n + 1)
        self._pad_odd = np.zeros(2 * ((n + 1) // 2) - 1)
        self._cd = self._pad[n:]
        self._cd_odd = self._pad_odd[(n + 1) // 2 - 1:]
        # The other operands, the scaled d reversed and its odd-index half,
        # start on a cache line: np.correlate's dot products run fastest
        # there (at N = 1000 about a fifth faster than at other alignments).
        self._r = _cache_aligned(n + 1)
        self._r_odd = _cache_aligned((n + 1) // 2)
        self.surface_integrand = nodes ** (2.0 / 3.0)
        self.surface_weights = self.moment0_weights * self.surface_integrand
        self.nucleation_shape = gaussian_delta(nodes, coeffs.lam_c, coeffs.sigma_c)

    def aggregation(self, dist: np.ndarray, prefactor: float) -> tuple[np.ndarray, np.ndarray]:
        """(gain, loss) at nodes 1..N for kernel prefactor*(v^-1/3 + u^-1/3).

        With d = dist (d_0 = 0), c = phi^(-1/3) and parity weights p, the
        gain at node k is prefactor/2 * sum_j c_j d_j d_{k-j} (p_j + p_{k-j}),
        plus the 3/8-rule tail when k is odd.  The two parity weights add to
        2h when k is odd and to (4h/3)(1 + [j odd]) when k is even, so with
        S_k = sum_j c_j d_j d_{k-j} and T_k the same sum over odd j only:

            odd k:  h S_k (+ tail),    even k:  (2h/3) (S_k + T_k).

        S_0..S_N are exactly the N+1 sums of a 'valid' correlation of c*d,
        zero-padded in front, with reversed d; T is the same on the
        odd-index halves, at a quarter of the cost.  Each output is its own
        direct sum (no FFT), so each node's rounding error stays relative to
        that node's own terms.

        The gain is summed on d * 2^s, and prefactor * 2^(-2s) takes the
        scale out.  s >= 0 is as large as keeps every intermediate below
        about 2^1000 and prefactor * 2^(-2s) normal.  Scaling by a power of
        two is exact, so an output differs from the unscaled sum only where
        one of its products would fall below 2^-1022 unscaled; there it is
        closer to the exact sum.  In practice only values below about 1e-300
        change.
        """
        n = self.grid.N
        # s keeps 2^(2s) sum(d^2) below 2^gain_headroom.  frexp gives a sum
        # that underflowed to 0 the exponent 0, which still bounds it; an
        # overflowed sum, or a NaN, leaves d unscaled.
        squares = np.dot(dist, dist)
        room = self.gain_headroom - math.frexp(squares)[1] if squares < math.inf else 0
        s = max(0, min(room, math.frexp(prefactor)[1] + 1021) // 2)
        r = np.multiply(dist[::-1], 2.0 ** s, out=self._r)
        r[n] = 0.0
        d = r[::-1]
        cd = np.multiply(self.inv_cbrt, d, out=self._cd)
        gain = np.correlate(self._pad, r)
        self._cd_odd[:] = cd[1::2]
        self._r_odd[:] = r[(n + 1) % 2::2]
        gain[2::2] += np.correlate(self._pad_odd, self._r_odd)[: n // 2]
        gain *= self.gain_parity
        # Odd k = 3, 5, ...: the sum over i = 1, 2, 3 of t_i d_i d_(k-i).
        gain[3::2] += np.add.reduce(self.tail_weights * d[1:4, None] * d[self.tail_index])
        gain *= math.ldexp(prefactor, -2 * s)
        s0, s1 = np.dot(self.loss_weights, dist)
        loss = prefactor * dist * (self.inv_cbrt * s0 + s1)
        return gain[1:], loss[1:]


def initial_state(grid: Grid, psi_bar: float) -> np.ndarray:
    """The empty packed state: m and w on nodes 0..N, then the five
    auxiliary scalars V_mat, V_cm, V_cw, Psi = psi_bar and V_pol2."""
    y = np.zeros(2 * grid.N + 7)
    y[-2] = psi_bar
    return y


def split_state(y: np.ndarray, n: int) -> tuple[np.ndarray, list[float]]:
    """The (2, N+1) view of m and w in the packed state ``y`` of an N = n
    grid, and its five auxiliary scalars as floats."""
    return y[: 2 * n + 2].reshape(2, n + 1), y[-5:].tolist()


def _rates(ws: GmocWorkspace, aux) -> tuple[float, float, np.ndarray, np.ndarray, tuple]:
    """Phi, the dilation rate b, g and dg/dv at nodes 1..N, and the
    aggregation prefactors lam_a_m (Psi+1)^(14/3) and lam_a_w (Psi+1)^(14/3)
    of m and w, at the auxiliary scalars ``aux``."""
    c = ws.coeffs
    phi, a, b = growth_law(c, aux)
    g = a * ws.surface_integrand[1:] + b * ws.nodes[1:]
    dg = (2.0 / 3.0) * a * ws.inv_cbrt[1:] + b
    factor = (aux[3] + 1.0) ** (14.0 / 3.0)
    return phi, b, g, dg, (c.lam_a_m * factor, c.lam_a_w * factor)


def rhs_vector(ws: GmocWorkspace, y: np.ndarray) -> np.ndarray:
    """Time derivative of the packed state ``y`` (see :func:`initial_state`).

    Per distribution: transport at the growth rate g(v) of
    :func:`growth_law` with its -dg/dv term, and aggregation gain and loss;
    nucleation feeds m, and m migrates into w.  Then the five auxiliary
    ODEs.  Node 0 of both distributions is a boundary condition and gets
    zero derivative.  V_p <= 0 raises :class:`NonFiniteEvaluationError`; a
    non-finite result is returned as it is, for :func:`simulate`'s check
    of the stepped state to report.
    """
    c = ws.coeffs
    n = ws.grid.N
    h = ws.grid.h
    dists, aux = split_state(y, n)
    m, w = dists
    v_mat, v_cm, v_cw, psi, v_pol2 = aux
    phi, dilation, g, dg, (agg_m, agg_w) = _rates(ws, aux)
    psi1 = psi + 1.0
    sigma_m, sigma_w = psi1 ** (2.0 / 3.0) * (dists @ ws.surface_weights)

    out = np.empty_like(y)
    derivs, _ = split_state(out, n)
    # Per distribution: its aggregation prefactor, its decay beyond dg/dv
    # and what feeds it.
    for dist, deriv, prefactor, decay, feed in (
        (m, derivs[0], agg_m, dg + c.lam_mu_m, c.lam_n * phi * ws.nucleation_shape[1:]),
        (w, derivs[1], agg_w, dg, c.lam_mu_w * m[1:]),
    ):
        gain, loss = ws.aggregation(dist, prefactor)
        deriv[0] = 0.0
        deriv[1:] = -g * fd4_derivative(dist, h) - decay * dist[1:] + feed + gain - loss

    out[-5:] = (
        dilation * (v_mat + c.lam_pol1_mat) - phi * (
            c.lam_s_mat + c.lam_dm_mat * sigma_m + c.lam_dw_mat * sigma_w),
        dilation * v_cm + phi * (c.lam_s_m + c.lam_d * sigma_m) - c.lam_mu_m * v_cm,
        dilation * v_cw + c.lam_d * phi * sigma_w + c.lam_mu_w * v_cm,
        -c.lam_p_pol2 * psi / psi1 * (psi + c.Psi_r) / (v_pol2 + c.lam_pol1_pol2),
        c.lam_p_pol2 * psi / psi1,
    )
    return out


def _diagnose_nonfinite(y: np.ndarray, n: int) -> str:
    """What of the packed state ``y`` of an N = n grid is not finite: the
    first five such nodes of m and of w, then the auxiliary scalars."""
    dists, aux = split_state(y, n)
    bad = [f"{name} at nodes {np.flatnonzero(~np.isfinite(d)).tolist()[:5]}"
           for name, d in zip("mw", dists) if not np.isfinite(d).all()]
    bad.extend(name for name, v in zip(SERIES, aux) if not math.isfinite(v))
    return "; ".join(bad)


@dataclass(frozen=True)
class SimulationReport:
    """Sampled series, diagnostics, and final distributions of one run.

    ``eps_m`` and ``eps_w`` are the :func:`error_series` of the two phases.
    ``settings["first_negative"]`` is the first step at which m or w falls
    below -NONNEG_TOL times that distribution's final peak (``max_m``,
    ``max_w``, clamped at 0), or None; ``negative_minima``, the verdict
    behind exit code 4, says whether there is one.  ``min_m`` and ``min_w``
    are the minima over the run.
    ``settings["lam_c_over_h"]`` and ``settings["sigma_c_over_h"]`` give
    the nucleation Gaussian's centre and width in grid spacings; with
    nucleation on, a centre not below N is refused before the run.
    ``settings["source_mass"]`` is the discrete source's Simpson mass
    ``moment0_weights @ nucleation_shape`` (1 for a resolved unit Gaussian) and
    ``settings["source_first_moment_ratio"]`` its first moment over
    lambda_c (also 1 when resolved); the auxiliary ODEs assume both are 1.
    ``settings["rhs_evaluations"]`` counts right-hand side calls, four per
    RK4 step.  ``aborted`` says why the run stopped early, or is None, and
    ``settings["guard_step"]`` is the step at which the truncation guard
    stopped it, or None.
    """

    times: np.ndarray
    V_mat: np.ndarray
    V_cm: np.ndarray
    V_cw: np.ndarray
    Psi: np.ndarray
    V_pol2: np.ndarray
    F_m: np.ndarray
    F_w: np.ndarray
    eps_m: np.ndarray | None
    eps_w: np.ndarray | None
    min_m: float
    min_w: float
    max_m: float
    max_w: float
    negative_minima: bool
    final_m: np.ndarray
    final_w: np.ndarray
    settings: dict
    aborted: str | None

    @property
    def max_eps_m(self) -> float | None:
        return None if self.eps_m is None else float(np.max(self.eps_m))

    @property
    def max_eps_w(self) -> float | None:
        return None if self.eps_w is None else float(np.max(self.eps_w))


def stable_step(ws: GmocWorkspace, y: np.ndarray) -> float:
    """Largest RK4 step the state ``y`` allows (``inf`` when nothing limits it).

    Transport puts the eigenvalues of the fd4 operator near the imaginary
    axis, up to 1.372 max|g| / h, where RK4 is stable up to 2 sqrt 2: tau
    max|g| / h may reach TRANSPORT_LIMIT.  g = a v^(2/3) + b v grows with v,
    so max|g| is |g| at node N.  The diagonal decay rate (dg/dv + lam_mu_m +
    aggregation loss of m, dg/dv + aggregation loss of w) is largest at
    node 1 and puts eigenvalues on the negative real axis, where RK4 is
    stable up to RK4_REAL_LIMIT.  The line between the two axis limits lies
    inside RK4's stability region, so the step keeps tau (max|g| / h +
    decay TRANSPORT_LIMIT / RK4_REAL_LIMIT) at COURANT.  No right-hand side
    is evaluated: g, dg/dv, the aggregation prefactors and each
    distribution's loss sums come from the same calls as
    :func:`rhs_vector`'s.
    """
    dists, aux = split_state(y, ws.grid.N)
    _, _, g, dg, agg = _rates(ws, aux)
    sums = [np.dot(ws.loss_weights, d) for d in dists]
    loss_m, loss_w = (p * (ws.inv_cbrt[1] * s0 + s1) for p, (s0, s1) in zip(agg, sums))
    decay = dg[0] + max(ws.coeffs.lam_mu_m + loss_m, loss_w)
    rate = abs(g[-1]) / ws.grid.h + max(decay, 0.0) * TRANSPORT_LIMIT / RK4_REAL_LIMIT
    return COURANT / rate if rate > 0 else math.inf


def simulate(
    coeffs: LatexCoefficients,
    grid: Grid,
    t_max: float,
    steps: int | None = None,
) -> SimulationReport:
    """Integrate from the empty initial state and collect diagnostics.

    With ``steps`` the run takes that many steps of tau = t_max / steps,
    step k ending at k tau.  Without, each step is :func:`stable_step` of
    the current state, capped at the sample spacing t_max / SAMPLES and at
    t_max - t; the desk run takes 142 steps.  Either way the run samples at
    the SAMPLES + 1 times t_max * i / SAMPLES, and a step that ends within
    1e-9 of the spacing of a sample time ends on it, so the last step ends
    on t_max.  A sample inside a step is read from the step's continuous
    extension (:func:`~nondim.odes.rk4_dense_step`), at no extra right-hand
    side call; a sample on a step's end is the stepped state.

    Deterministic for identical inputs.  The run stops early, and says why
    in the report's ``aborted``, if the distribution support reaches the
    upper grid boundary, where the truncated aggregation integral stops
    being a valid approximation.  A step whose state is not finite raises
    :class:`NonFiniteEvaluationError`, naming the step and what of the
    state is not finite.  A run with nucleation on (``lam_n > 0``) whose
    nucleation volume lam_c lies outside the grid's (0, N h), or whose
    discrete source mass is exactly 0, a Gaussian the grid cannot see,
    raises :class:`DomainError` before its first step.
    """
    if not 0 < t_max < math.inf:
        raise DomainError(f"t_max must be > 0 and finite, got {t_max!r}")
    if steps is not None and steps < 1:
        raise DomainError("steps must be >= 1")
    spacing = t_max / SAMPLES
    sample_times = t_max * np.arange(SAMPLES + 1) / SAMPLES
    sample_times[-1] = t_max  # t_max * SAMPLES / SAMPLES may round off it
    if coeffs.lam_n > 0 and coeffs.lam_c >= grid.N * grid.h:
        raise DomainError(
            "the nucleation volume lies outside the grid: "
            f"lambda_c/h = {coeffs.lam_c / grid.h:.3e} is not below N = {grid.N}"
        )
    ws = GmocWorkspace(coeffs, grid)
    source_mass = float(ws.moment0_weights @ ws.nucleation_shape)
    if coeffs.lam_n > 0 and source_mass == 0.0:
        raise DomainError(
            "the grid cannot see the nucleation source: its discrete mass is 0 "
            f"(sigma_c/h = {coeffs.sigma_c / grid.h:.3e}, "
            f"lambda_c/h = {coeffs.lam_c / grid.h:.3e})"
        )

    evaluations = 0

    def rhs(t, y):
        nonlocal evaluations
        evaluations += 1
        return rhs_vector(ws, y)

    n = grid.N
    y = initial_state(grid, coeffs.Psi_bar)
    samples = [_sample(ws, y)]
    t = 0.0
    taken = 0
    tau_min, tau_max = math.inf, 0.0
    min_m = min_w = 0.0
    # The first step below a floor lowers a running minimum, so the steps
    # that do hold it: six numbers each, step, t, min m, min w, argmin m
    # and argmin w.
    dips = array("d")
    aborted = guard_step = None
    # A state that blows up may overflow before it stops being finite; the
    # finiteness check below reports it, not a warning.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while len(samples) < len(sample_times):
            tau = t_max / steps if steps else min(stable_step(ws, y), spacing, t_max - t)
            end = (taken + 1) * tau if steps else t + tau
            # A step that ends within rounding of a sample time ends on it.
            near = float(sample_times[min(round(end / spacing), SAMPLES)])
            if abs(end - near) <= 1e-9 * spacing:
                end = near
            y, dense = rk4_dense_step(rhs, t, y, tau)
            taken += 1
            if not np.isfinite(y).all():
                raise NonFiniteEvaluationError(
                    f"non-finite state after step {taken}: {_diagnose_nonfinite(y, n)}",
                    step=taken, state=y,
                )
            tau_min, tau_max = min(tau_min, tau), max(tau_max, tau)
            # Samples strictly inside the step come from its continuous
            # extension, one on its end from the stepped state.
            while sample_times[len(samples)] < end:
                samples.append(_sample(ws, dense((sample_times[len(samples)] - t) / tau)))
            if sample_times[len(samples)] == end:
                samples.append(_sample(ws, y))
            del dense  # frees the stages before the next step makes its own
            t = end
            dists, _ = split_state(y, n)
            lows = dists.min(axis=1).tolist()
            if lows[0] < min_m or lows[1] < min_w:
                min_m, min_w = min(min_m, lows[0]), min(min_w, lows[1])
                dips.extend([taken, t, *lows, *dists.argmin(axis=1).tolist()])
            m = dists[0]
            high = m.max()
            if high > 0 and m[n] > TRUNCATION_TOLERANCE * high:
                guard_step = taken
                aborted = (
                    f"support reached the grid boundary at step {taken}: "
                    f"m_N = {m[n]:.3e} vs max(m) = {high:.3e}"
                )
                break

    times = sample_times[: len(samples)]
    series = dict(zip(SERIES, np.array(samples).T))
    final_m, final_w = split_state(y, n)[0].copy()
    max_m, max_w = float(max(final_m.max(), 0.0)), float(max(final_w.max(), 0.0))
    rows = np.reshape(dips, (-1, 6))
    below = rows[:, 2:4] < [-NONNEG_TOL * max_m, -NONNEG_TOL * max_w]
    first_negative = None
    if below.any():
        k = int(np.argmax(below.any(axis=1)))
        which = int(np.argmax(below[k]))
        first_negative = {"step": int(rows[k, 0]), "time": float(rows[k, 1]),
                          "distribution": "mw"[which], "node": int(rows[k, 4 + which])}
    return SimulationReport(
        times=times, **series,
        eps_m=error_series(times, series["V_cm"], series["F_m"]),
        eps_w=error_series(times, series["V_cw"], series["F_w"]),
        min_m=min_m, min_w=min_w, max_m=max_m, max_w=max_w,
        negative_minima=first_negative is not None,
        final_m=final_m, final_w=final_w,
        settings={
            "N": n, "h": grid.h, "t_max": t_max, "steps": taken,
            "sigma_c": coeffs.sigma_c, "lam_c": coeffs.lam_c,
            "lam_c_over_h": coeffs.lam_c / grid.h, "sigma_c_over_h": coeffs.sigma_c / grid.h,
            "source_mass": source_mass,
            "source_first_moment_ratio":
                float(ws.moment0_weights @ (ws.nodes * ws.nucleation_shape)) / coeffs.lam_c,
            "tau_min": float(tau_min), "tau_max": float(tau_max),
            "rhs_evaluations": evaluations, "guard_step": guard_step,
            "first_negative": first_negative,
        },
        aborted=aborted,
    )


def _sample(ws: GmocWorkspace, y: np.ndarray) -> list[float]:
    """The five auxiliary scalars, then the first moments F_m and F_w."""
    dists, aux = split_state(y, ws.grid.N)
    return aux + [float(ws.moment0_weights @ (ws.nodes * d)) for d in dists]


def _time_integral(times: np.ndarray, values: np.ndarray) -> float:
    """Integral over uniform sample times by :func:`simpson_weights`' rule;
    the trapezoid on a single interval, 0 on none."""
    n = len(times) - 1
    if n < 2:
        return 0.5 * float(times[-1] - times[0]) * float(values[0] + values[-1])
    return float(simpson_weights(n, times[1] - times[0]) @ values)


def error_series(times: np.ndarray, v_c: np.ndarray, f: np.ndarray) -> np.ndarray | None:
    """Moment-consistency error of one phase sampled at ``times``.

    eps(t) = |V_c(t) - F(t)| normalized by the L2 norm in time of the
    cluster volume V_c.  A zero denominator (nothing ever nucleated) gives
    None, the series' absence.
    """
    denom = math.sqrt(_time_integral(times, v_c**2))
    return None if denom == 0.0 else np.abs(v_c - f) / denom
