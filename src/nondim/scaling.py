"""Scaling problems as monomials in characteristic factors, and their solvers.

A scaling problem collects the dimensionless coefficients of an equation as
monomials ``lambda_i = kappa_i * prod_j theta_j**alpha_ij`` over strictly
positive factors ``theta``.  Everything here works on ``rho = log10(theta)``,
where each ``log10(lambda_i)`` is affine and the Euclidean cost is a linear
least-squares problem.  Every solver and evaluation reports through one
log residual, range check, cost dispatch and ratio: :func:`_evaluate`.

Solvers provided:

* :func:`solve_euclidean` -- least-squares minimizer of the squared
  log-distance from the per-coefficient targets;
* :func:`anneal_minimize` -- simulated annealing of the max-norm cost, which
  has no closed-form minimizer;
* :func:`solve_subset` / :func:`enumerate_traditional` -- force a chosen set
  of ``N_x`` coefficients to 1 and survey all such choices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateExponentsError,
    DomainError,
    EnumerationCapError,
    NonFiniteEvaluationError,
    UnsolvableSubsetError,
)

SINGULARITY_EPS = 1e-12

#: Most annealing evaluations whose random draws are held at once.
DRAW_BLOCK = 1024

#: Annealing proposals costed together from one current point.  About a
#: third of all proposals are accepted, so most windows end early; on a
#: 2-core Xeon VM, 6 to 8 cost least per run on latex and projectile, and
#: 12 about 8% more.
ANNEAL_WINDOW = 8

#: Subsets solved per vectorized batch of the enumeration.
ENUMERATION_CHUNK = 8192


@dataclass(frozen=True)
class Monomial:
    """One dimensionless coefficient: kappa * prod_j theta_j**exponents[j].

    ``target`` is the desired order of magnitude (base-10 log) for this
    coefficient, 0 by default.  ``kappa`` must be positive and finite, and
    the exponents and ``target`` finite; :class:`DomainError` names the
    field that is not.
    """

    label: str
    kappa: float
    exponents: tuple[float, ...]
    target: float = 0.0

    def __post_init__(self):
        if not 0 < self.kappa < math.inf:
            raise DomainError(
                f"monomial {self.label!r}: kappa must be > 0 and finite, got {self.kappa!r}")
        object.__setattr__(self, "exponents", tuple(float(a) for a in self.exponents))
        fields = [(f"exponents[{j}]", a) for j, a in enumerate(self.exponents)]
        for name, value in fields + [("target", self.target)]:
            if not math.isfinite(value):
                raise DomainError(
                    f"monomial {self.label!r}: {name} must be finite, got {value!r}")


def factor_column(name: str) -> str:
    """The CSV column of the factor ``name``: ``theta_`` and the name up to
    any ``[`` (a unit), stripped, with its spaces as ``_``."""
    return "theta_" + name.split("[")[0].strip().replace(" ", "_")


@dataclass(frozen=True)
class ScalingProblem:
    """A set of monomial coefficients over named positive scaling factors.

    Monomial labels are unique and hold no ``;``, which joins the labels of
    a forced subset in the enumeration's output, and no two factor names
    share a :func:`factor_column`; :class:`DomainError` names a label or
    the factor names that break a rule.
    """

    factor_names: tuple[str, ...]
    monomials: tuple[Monomial, ...]

    def __post_init__(self):
        object.__setattr__(self, "factor_names", tuple(self.factor_names))
        object.__setattr__(self, "monomials", tuple(self.monomials))
        if len(self.factor_names) < 1 or len(self.monomials) < 1:
            raise DomainError("need at least one factor and one monomial")
        columns = {}
        for name in self.factor_names:
            column = factor_column(name)
            if column in columns:
                raise DomainError(f"factor names {columns[column]!r} and {name!r} "
                                  f"share the CSV column {column!r}")
            columns[column] = name
        seen = set()
        for mono in self.monomials:
            if ";" in mono.label:
                raise DomainError(
                    f"monomial label {mono.label!r} holds ';', which joins the "
                    "labels of a forced subset")
            if mono.label in seen:
                raise DomainError(f"monomial label {mono.label!r} is not unique")
            seen.add(mono.label)
            if len(mono.exponents) != len(self.factor_names):
                raise DomainError(
                    f"monomial {mono.label!r}: expected "
                    f"{len(self.factor_names)} exponents, got {len(mono.exponents)}"
                )

    @property
    def n_factors(self) -> int:
        return len(self.factor_names)

    @property
    def n_coefficients(self) -> int:
        return len(self.monomials)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.monomials)

    def exponent_matrix(self) -> np.ndarray:
        """(N_d, N_x) array of monomial exponents."""
        return np.array([m.exponents for m in self.monomials], dtype=float)

    def log_kappas(self) -> np.ndarray:
        return np.log10([m.kappa for m in self.monomials])

    def targets(self) -> np.ndarray:
        return np.array([m.target for m in self.monomials], dtype=float)


@dataclass(frozen=True)
class ScalingSolution:
    """Factor values with the realized coefficients and quality metrics."""

    theta: np.ndarray
    lambdas: np.ndarray
    cost: float
    ratio: float
    method_tag: str


@dataclass(frozen=True)
class AnnealConfig:
    """Evaluation budget and seed of :func:`anneal_minimize`.

    The published method fixes only the evaluation budget; the schedule is
    this implementation's own, and fixed (see :func:`anneal_minimize`).
    The seed must be >= 0, as ``numpy.random.default_rng`` requires.
    """

    max_evaluations: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.max_evaluations < 1:
            raise DomainError("max_evaluations must be >= 1")
        if self.seed < 0:
            raise DomainError(f"the annealing seed must be >= 0, got --seed {self.seed!r}")


def _check_theta(problem: ScalingProblem, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (problem.n_factors,):
        raise DomainError(
            f"theta must have length {problem.n_factors}, got shape {theta.shape}"
        )
    if not np.all(np.isfinite(theta) & (theta > 0)):
        raise DomainError(f"theta must be finite and > 0, got {theta.tolist()}")
    return theta


def _log_residuals(problem: ScalingProblem):
    """rho -> log10(lambda) - targets = rho A^T + (log10 kappa - targets).

    For one rho or a batch of rows; A and the shift are built once, here.
    """
    a_t = problem.exponent_matrix().T
    shift = problem.log_kappas() - problem.targets()
    return lambda rho: rho @ a_t + shift


def _cost(kind: str):
    """Cost ``kind`` (see :func:`evaluate_cost`) over the last axis of log residuals."""
    if kind == "euclid":
        return lambda res: np.add.reduce(np.square(res), axis=-1)
    if kind == "max":
        return lambda res: np.maximum.reduce(np.abs(res), axis=-1)
    raise DomainError(f"unknown cost kind {kind!r}")


def _lift(res: np.ndarray) -> np.ndarray:
    """[r, -r] over the last axis, the residual the annealing chain carries.

    The plain maximum of ``_lift(r) + _lift(m)`` is max|r + m| bit for bit,
    with no absolute value: negation is exact and rounding is sign-symmetric,
    so -r - m rounds to -(r + m).  The one exception is a row that is zero
    throughout, whose 0 may come out as -0.0, which compares equal.
    """
    return np.concatenate((res, -res), axis=-1)


def _ratio(log_lam: np.ndarray):
    """max(lambda) / min(lambda) over the last axis, from log10(lambda).

    Taken from the logs, it is ``inf`` exactly where the spread passes
    about 308 decades, even where min(lambda) itself underflows.
    """
    return 10.0 ** (np.max(log_lam, axis=-1) - np.min(log_lam, axis=-1))


def _in_range(rho: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Over the last axis: whether every factor 10**rho is a normal float
    (0, a subnormal or ``inf`` no longer solves for it) and every log
    residual is finite."""
    theta = 10.0**rho
    normal = (theta >= np.finfo(float).tiny) & (theta < math.inf)
    return normal.all(axis=-1) & np.isfinite(res).all(axis=-1)


def _evaluate(problem: ScalingProblem, rho: np.ndarray, kind: str, tag):
    """Log residuals, cost ``kind`` and ratio at one rho or a batch of rows.

    Raises :class:`NonFiniteEvaluationError` naming ``tag(i)`` for the
    first row i whose factors leave the normal floats (see :func:`_in_range`).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        res = _log_residuals(problem)(rho)
        bad = np.flatnonzero(~_in_range(rho, res))
        if len(bad):
            raise NonFiniteEvaluationError(f"{tag(bad[0])}: the factors leave the normal floats, "
                                           f"log10 theta = {np.atleast_2d(rho)[bad[0]].tolist()}")
        return res, _cost(kind)(res), _ratio(res + problem.targets())


def eval_coefficients(problem: ScalingProblem, theta) -> np.ndarray:
    """Realized coefficients lambda_i = kappa_i * prod_j theta_j**alpha_ij."""
    rho = np.log10(_check_theta(problem, theta))
    return _solution(problem, rho, "euclid", "theta").lambdas


def evaluate_cost(problem: ScalingProblem, theta, kind: str) -> float:
    """Distance of the realized coefficient magnitudes from their targets.

    ``kind='euclid'`` is the sum of squared log10 deviations; ``kind='max'``
    the largest absolute log10 deviation.
    """
    rho = np.log10(_check_theta(problem, theta))
    return _solution(problem, rho, kind, "theta").cost


def _solution(problem: ScalingProblem, rho: np.ndarray, kind: str, tag: str) -> ScalingSolution:
    """The solution at ``rho``, evaluated by :func:`_evaluate`.  A
    coefficient whose log10 passes the float range is 0 or ``inf``, as its
    target asks."""
    res, cost, ratio = _evaluate(problem, rho, kind, lambda i: tag)
    with np.errstate(over="ignore"):
        lambdas = 10.0 ** (res + problem.targets())
    return ScalingSolution(10.0**rho, lambdas, float(cost), float(ratio), tag)


def solve_euclidean(problem: ScalingProblem) -> ScalingSolution:
    """Minimizer of the Euclidean log-distance cost.

    Solves the linear least-squares problem
    ``min ||A rho - (targets - log10 kappa)||`` on the exponent matrix ``A``
    itself (no normal equations, so the condition number is not squared) and
    returns ``theta = 10**rho``.  The cost is convex in rho, so this is the
    global minimum; it is unique unless ``A`` loses column rank, which raises
    :class:`DegenerateExponentsError`.
    """
    rho, _, rank, _ = np.linalg.lstsq(
        problem.exponent_matrix(), problem.targets() - problem.log_kappas(),
        rcond=None,
    )
    if rank < problem.n_factors:
        raise DegenerateExponentsError(rank=int(rank), size=problem.n_factors)
    return _solution(problem, rho, "euclid", "euclid")


def solve_subset(problem: ScalingProblem, subset) -> ScalingSolution:
    """Force the chosen coefficients to 1 (the traditional scaling recipe).

    ``subset`` holds exactly ``N_x`` distinct 0-based coefficient indices.
    The factors solve ``sum_j alpha_cj * rho_j = target_c - log10(kappa_c)``
    for each chosen c, so the chosen lambdas land exactly on their targets
    (1, for the default zero targets).
    """
    subset = tuple(int(c) for c in subset)
    n_x, n_d = problem.n_factors, problem.n_coefficients
    if len(subset) != n_x or len(set(subset)) != n_x:
        raise DomainError(f"subset must hold {n_x} distinct indices")
    if any(c < 0 or c >= n_d for c in subset):
        raise DomainError(f"subset indices must lie in [0, {n_d - 1}]")
    dets, solvable, rhos = _solve_subsets(
        problem.exponent_matrix(), problem.targets() - problem.log_kappas(),
        np.array([subset]),
    )
    if not solvable[0]:
        raise UnsolvableSubsetError(subset, float(dets[0]))
    tag = "subset:" + ",".join(str(c) for c in subset)
    return _solution(problem, rhos[0], "euclid", tag)


def _solve_subsets(A: np.ndarray, forced: np.ndarray, idx: np.ndarray):
    """Solve a batch of subsets: ``idx`` holds one subset of rows per line.

    Returns each subset matrix's determinant, the mask of those with
    |det| > :data:`SINGULARITY_EPS` times Hadamard's bound, the product of
    their rows' norms, and the factors (log10) of the masked subsets, from
    ``A[subset] rho = forced[subset]``.  So rescaling the exponents moves no
    verdict; compared in logs, a det that overflows to ``inf`` is solvable.

    A subset whose rows leave some factor's column all zero is singular by
    structure: the OR of its rows' column-support bits misses that column.
    Such subsets are never gathered or factored and get det 0.0, which is
    what the LU gives a matrix with a zero column (an exact zero pivot), so
    the verdicts and factors are those of factoring every subset.
    """
    support = np.packbits(A != 0, axis=1)  # (N_d, ceil(N_x / 8)) column bits
    every_column = np.packbits(np.ones(A.shape[1], dtype=bool))
    covered = np.flatnonzero(
        (np.bitwise_or.reduce(support[idx], axis=1) == every_column).all(axis=1))
    rows = idx[covered]
    mats = A[rows]  # (B_covered, N_x, N_x)
    with np.errstate(over="ignore", divide="ignore"):
        det = np.linalg.det(mats)
        log_norms = np.log(np.hypot.reduce(np.abs(A), axis=1))  # finite past 1e154
        keep = np.log(np.abs(det)) > math.log(SINGULARITY_EPS) + log_norms[rows].sum(axis=1)
    dets, solvable = np.zeros(len(idx)), np.zeros(len(idx), dtype=bool)
    dets[covered], solvable[covered] = det, keep
    rhos = np.linalg.solve(mats[keep], forced[rows[keep]][..., None])[..., 0]
    return dets, solvable, rhos


def anneal_minimize(
    problem: ScalingProblem, config: AnnealConfig | None = None
) -> ScalingSolution:
    """Simulated annealing of the max-norm cost over rho = log10(theta).

    The max norm is the one cost that needs a search: the Euclidean cost is
    convex and :func:`solve_euclidean` gives its unique optimum exactly.
    The search starts at rho = 0 and is unconstrained in rho, which keeps
    theta positive by construction.  The schedule is fixed: the temperature
    T starts at 1 and is multiplied by 0.95 after every hundredth of the
    evaluation budget (one level), and each proposal adds a Gaussian step of
    width 2T to every component of rho.  A proposal is accepted iff its cost
    is at most the current cost plus the slack -T log(1 - U) of its own
    uniform U, which is the Metropolis rule.  Always returns the best point
    seen, so the result is never worse than the starting point.

    Random stream: each level is cut into blocks of at most
    :data:`DRAW_BLOCK` evaluations, and each block draws its
    (size, N_x) Gaussian steps (one row per proposal) and then its size
    uniforms, whether or not a proposal is accepted.  Proposals are costed
    :data:`ANNEAL_WINDOW` at a time from the current point; the chain keeps
    the first accepted one and goes on from the proposal after it, so the
    result is the one-at-a-time chain's.  Deterministic for a fixed seed.

    Residuals are affine in rho, so a proposal's log residual is the current
    one plus its step's move ``step A^T``.  Each block computes the moves of
    all its steps at once.  The chain carries the lifted residual [r, -r]
    and lifted moves [m, -m] (see :func:`_lift`), so a window costs one add
    and one maximum reduce, with no absolute value, and gives the max norm
    bit for bit.  The first accepted proposal is found in Python floats (the
    same IEEE sums and comparisons as a vector compare), and its row of the
    window becomes the residual.  rho is not updated per accept: at the
    block's end, one sequential accumulate of rho and the accepted steps
    gives the chain's path, with the same sums in the same order, so the
    best point and the new rho are rows of it.  The residual and the current
    cost are recomputed from rho at the start of every block, so rounding
    never builds up past one block.
    """
    config = config or AnnealConfig()
    residuals = _log_residuals(problem)

    rng = np.random.default_rng(config.seed)
    n_x = problem.n_factors
    rho = np.zeros(n_x)
    best_rho, best_cost = rho, float(np.maximum.reduce(_lift(residuals(rho))))

    a_t = problem.exponent_matrix().T
    budget = config.max_evaluations
    per_level = max(1, budget // 100)
    for level_start in range(0, budget, per_level):
        temperature = 0.95 ** (level_start // per_level)
        level_end = min(level_start + per_level, budget)
        for block_start in range(level_start, level_end, DRAW_BLOCK):
            size = min(DRAW_BLOCK, level_end - block_start)
            steps = rng.normal(0.0, 2.0 * temperature, size=(size, n_x))
            slack = (-temperature * np.log1p(-rng.random(size))).tolist()
            moves = _lift(steps @ a_t)
            res = _lift(residuals(rho))
            current = float(np.maximum.reduce(res))
            taken, best_at = [], 0
            start = 0
            while start < size:
                trial = res + moves[start:start + ANNEAL_WINDOW]
                for k, proposed in enumerate(np.maximum.reduce(trial, axis=-1).tolist(), start):
                    if proposed <= current + slack[k]:
                        res, current = trial[k - start], proposed
                        taken.append(k)
                        if current < best_cost:
                            best_at, best_cost = len(taken), current
                        break
                start = k + 1
            if taken:
                # Row i is rho after the block's i-th accept.
                path = np.add.accumulate(np.vstack([rho[None], steps[taken]]))
                if best_at:
                    best_rho = path[best_at]
                rho = path[-1]
    return _solution(problem, best_rho, "max", "anneal-max")


@dataclass(frozen=True)
class EnumerationResult:
    """All solvable traditional-scaling subsets, sorted ascending by ratio.

    Row ``i`` of ``subsets`` (0-based coefficient indices), ``rho``
    (log10 of the factors), ``cost`` and ``ratio`` describes one subset;
    equal ratios keep the subsets in lexicographic order, so row 0 is the
    best subset and row -1 the worst.
    """

    subsets: np.ndarray
    rho: np.ndarray
    cost: np.ndarray
    ratio: np.ndarray
    total_subsets: int

    @property
    def solvable_count(self) -> int:
        return len(self.ratio)

    def fraction_with_ratio_above(self, threshold: float) -> float:
        return float(np.mean(self.ratio > threshold))


def subset_table(n: int, k: int) -> np.ndarray:
    """All k-subsets of ``range(n)`` as a (C(n, k), k) table, one per row,
    in the lexicographic order of :func:`itertools.combinations`.

    Entries have the smallest unsigned dtype that holds n - 1.  The table
    for size r holds the r-subsets of {k - r, ..., n - 1}, the last r
    elements of every k-subset: those starting with i are i before the
    last C(n - i - 1, r - 1) rows of the table for size r - 1.  Each
    table has C(n - k + r, r) <= C(n, k) rows, so no step builds one
    larger than the result.
    """
    dtype = np.min_scalar_type(n - 1)
    table = np.arange(k - 1, n, dtype=dtype)[:, None]
    for r in range(2, k + 1):
        blocks = []
        for i in range(k - r, n - r + 1):
            count = math.comb(n - i - 1, r - 1)
            blocks.append(np.column_stack(
                (np.full(count, i, dtype=dtype), table[len(table) - count:])))
        table = np.concatenate(blocks)
    return table


def enumerate_traditional(problem: ScalingProblem, cap: int = 10**6) -> EnumerationResult:
    """Survey every choice of N_x coefficients forced to 1.

    Builds all C(N_d, N_x) subsets as one :func:`subset_table`, at most
    cap x N_x x itemsize bytes (one byte per entry for up to 256
    coefficients), discards the subsets whose exponent submatrix has
    |det| <= 1e-12 times the product of its rows' norms, and sorts the
    solvable ones by the ratio of their realized coefficients.  A subset
    whose rows leave a factor's column all zero is discarded by a bit test
    alone, before any matrix is built (see :func:`_solve_subsets`); on
    latex that is 50,639 of the 75,582 subsets.
    Subsets are solved in vectorized slices of :data:`ENUMERATION_CHUNK`
    rows of the table; the results do not depend on the slicing.  A cap
    below 1 raises :class:`DomainError`; a count above it,
    :class:`EnumerationCapError`; no solvable subset,
    :class:`DegenerateExponentsError`, naming the exponents' rank where it
    is below N_x; a solvable subset whose factors leave the normal floats,
    :class:`NonFiniteEvaluationError`, as in :func:`_evaluate`.
    """
    if cap < 1:
        raise DomainError(f"the subset cap must be >= 1, got --cap {cap!r}")
    n_x, n_d = problem.n_factors, problem.n_coefficients
    if n_d <= n_x:
        raise DomainError("enumeration needs more coefficients than factors")
    count = math.comb(n_d, n_x)
    if count > cap:
        raise EnumerationCapError(count, cap)

    A = problem.exponent_matrix()
    forced = problem.targets() - problem.log_kappas()  # A rho on the chosen rows
    table = subset_table(n_d, n_x)
    parts = []
    for start in range(0, count, ENUMERATION_CHUNK):
        idx = table[start:start + ENUMERATION_CHUNK]  # (B, N_x)
        _, solvable, rhos = _solve_subsets(A, forced, idx)
        solved = idx[solvable]
        _, costs, ratios = _evaluate(problem, rhos, "euclid", lambda i: "subset:" + ",".join(
            map(str, solved[i].tolist())))
        parts.append((solved, rhos, costs, ratios))

    subsets, rhos, costs, ratios = (np.concatenate(p) for p in zip(*parts))
    if not len(ratios):
        rank = int(np.linalg.matrix_rank(A))
        raise DegenerateExponentsError(rank, n_x, None if rank < n_x else (
            f"no subset is solvable: all {count} have |det| <= {SINGULARITY_EPS:g} "
            "x the product of their rows' norms"))
    # The table is in lexicographic order, so a stable sort by ratio breaks
    # ties by subset.
    order = np.argsort(ratios, kind="stable")
    return EnumerationResult(
        subsets=subsets[order], rho=rhos[order], cost=costs[order],
        ratio=ratios[order], total_subsets=count,
    )
