"""Checks of each command's artifacts, computed apart from the program.

Every check reads what a ``nondim`` command wrote and compares it with a
computation of the benchmark's own (numpy least squares, a separate RK4
integration, trapezoid moments, an exact minimax by vertex enumeration) or
with a property the method must have.  The scaling problems themselves
(kappas, exponents, targets) come from ``nondim.models`` or from the
workload's YAML inputs: they are the inputs, not results.  A failed check
raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import yaml

#: min m >= -NONNEG_TOL * max m (and the same for w) on well-scaled runs.
NONNEG_TOL = 1e-8
#: The poorly-scaled run must dip below -CONTRAST_DIP * peak |m|.
CONTRAST_DIP = 1e-3
#: Largest moment-consistency error eps_m allowed on well-scaled runs.
EPS_M_TOL = 1e-5
#: Relative gap allowed between final V_cm, V_cw and trapezoid moments.
MOMENT_RTOL = 1e-5
#: Relative gap allowed between Psi, V_pol2 and the benchmark's own RK4.
AUX_RTOL = 1e-9
#: log10 gap allowed between factor values and numpy's least squares.
LOG_TOL = 1e-8
#: Upper bound for the annealed max-norm cost of the projectile problem.
PROJECTILE_ANNEAL_MAX = 1.35
ROUNDTRIP_TOL = 1e-10


class CheckError(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    """(manifest, header, rows) of a manifest-stamped CSV artifact."""
    with open(path) as fh:
        first = fh.readline()
        _require(first.startswith("# manifest: "), f"{path.name}: no manifest line")
        reader = csv.reader(fh)
        header = next(reader)
        return json.loads(first[len("# manifest: "):]), header, list(reader)


def read_columns(path: Path) -> tuple[dict, dict[str, np.ndarray]]:
    manifest, header, rows = read_csv(path)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return manifest, {name: values[:, i] for i, name in enumerate(header)}


# ---------------------------------------------------------------------------
# scaling problems as plain arrays


class Problem:
    """Exponent matrix, log10 kappas, targets and labels of one problem."""

    def __init__(self, labels, exponents, log_kappas, targets):
        self.labels = list(labels)
        self.A = np.asarray(exponents, dtype=float)
        self.log_kappas = np.asarray(log_kappas, dtype=float)
        self.targets = np.asarray(targets, dtype=float)

    @classmethod
    def from_nondim(cls, problem) -> "Problem":
        return cls(problem.labels, problem.exponent_matrix(),
                   problem.log_kappas(), problem.targets())

    @classmethod
    def from_yaml(cls, path) -> "Problem":
        data = yaml.safe_load(Path(path).read_text())
        monos = data["monomials"]
        return cls([m["label"] for m in monos], [m["exponents"] for m in monos],
                   [math.log10(m["kappa"]) for m in monos],
                   [m.get("target", 0.0) for m in monos])

    def least_squares_rho(self) -> np.ndarray:
        return np.linalg.lstsq(self.A, self.targets - self.log_kappas, rcond=None)[0]

    def max_cost(self, rho) -> float:
        return float(np.max(np.abs(self.A @ rho + self.log_kappas - self.targets)))

    def exact_minimax(self) -> float:
        """min over rho of the max-norm cost, by enumerating LP vertices.

        The optimum of min t s.t. |A rho + c| <= t lies where n_x + 1 of the
        2 n_d constraints are active; only small problems are affordable.
        """
        c = self.log_kappas - self.targets
        n_d, n_x = self.A.shape
        rows = [(s * self.A[i], s * c[i]) for i in range(n_d) for s in (1.0, -1.0)]
        best = math.inf
        for active in itertools.combinations(rows, n_x + 1):
            lhs = np.array([np.append(a, -1.0) for a, _ in active])
            if abs(np.linalg.det(lhs)) < 1e-12:
                continue
            sol = np.linalg.solve(lhs, [-b for _, b in active])
            rho, t = sol[:n_x], sol[n_x]
            if np.max(np.abs(self.A @ rho + c)) <= t + 1e-12:
                best = min(best, t)
        return best


def preset_problem(preset: str) -> Problem:
    from nondim import models

    builders = {
        "projectile": models.build_projectile,
        "schrodinger": models.build_schrodinger,
        "ldg": lambda: models.build_ldg(models.LdGParams(q=3)),
        "latex": lambda: models.build_latex()[0],
    }
    return Problem.from_nondim(builders[preset]())


def problem_of(params: dict) -> Problem:
    if "preset" in params:
        return preset_problem(params["preset"])
    return Problem.from_yaml(params["config"])


def latex_lambdas(theta: str) -> tuple[dict[str, float], object]:
    """The latex coefficients under 'eucl' or 'test', solved with numpy."""
    from nondim import models

    raw, constants = models.build_latex()
    problem = Problem.from_nondim(raw)
    if theta == "eucl":
        rho = problem.least_squares_rho()
    else:
        subset = list(models.LATEX_TEST_SUBSET)
        rho = np.linalg.solve(problem.A[subset],
                              (problem.targets - problem.log_kappas)[subset])
    return dict(zip(problem.labels, 10.0 ** (problem.A @ rho + problem.log_kappas))), constants


# ---------------------------------------------------------------------------
# PBE checks


def _aux_rhs(lam_p_pol2, lam_pol1_pol2, psi_r):
    def rhs(psi, v_pol2):
        rate = lam_p_pol2 * psi / (psi + 1.0)
        return -rate * (psi + psi_r) / (v_pol2 + lam_pol1_pol2), rate
    return rhs


def integrate_aux(times, step, lam: dict, constants) -> tuple[np.ndarray, np.ndarray]:
    """Psi and V_pol2 at ``times`` from the closed two-variable ODE.

    Classical RK4 at half the solver's step ``step``, so the reference is
    the more accurate of the two.
    """
    rhs = _aux_rhs(lam["p_pol2"], lam["pol1_pol2"], constants.Psi_r)
    psi, vol = constants.Psi_bar, 0.0
    out_psi, out_vol = [psi], [vol]
    for t0, t1 in zip(times[:-1], times[1:]):
        n = max(2, 2 * round((t1 - t0) / step))
        h = (t1 - t0) / n
        for _ in range(n):
            a1, b1 = rhs(psi, vol)
            a2, b2 = rhs(psi + 0.5 * h * a1, vol + 0.5 * h * b1)
            a3, b3 = rhs(psi + 0.5 * h * a2, vol + 0.5 * h * b2)
            a4, b4 = rhs(psi + h * a3, vol + h * b3)
            psi += h / 6.0 * (a1 + 2 * a2 + 2 * a3 + a4)
            vol += h / 6.0 * (b1 + 2 * b2 + 2 * b3 + b4)
        out_psi.append(psi)
        out_vol.append(vol)
    return np.array(out_psi), np.array(out_vol)


def check_aux_series(out: Path, theta: str) -> None:
    manifest, diag = read_columns(out / "pbe_diagnostics.csv")
    config = manifest["config"]
    lam, constants = latex_lambdas(theta)
    psi, vol = integrate_aux(diag["t"], config["t_max"] / config["steps"], lam, constants)
    for name, ref in (("Psi", psi), ("V_pol2", vol)):
        gap = float(np.max(np.abs(diag[name] - ref)) / np.max(np.abs(ref)))
        _require(gap <= AUX_RTOL, f"{name}(t) is {gap:.2e} off the closed ODE")


def _distributions(out: Path) -> dict[str, np.ndarray]:
    return read_columns(out / "pbe_distributions.csv")[1]


def _summary(out: Path, name: str) -> dict:
    with open(out / name) as fh:
        return json.load(fh)


def check_pbe_well(out: Path, theta: str) -> None:
    summary = _summary(out, "pbe_summary.json")
    _require(summary["aborted"] is None, f"early stop: {summary['aborted']}")
    dist = _distributions(out)
    for key in ("m", "w"):
        peak = max(float(dist[key].max()), 0.0)
        low = min(float(dist[key].min()), summary[f"min_{key}"])
        _require(low >= -NONNEG_TOL * peak,
                 f"min {key} = {low:.3e} below -{NONNEG_TOL:g} * max {key} = {peak:.3e}")
    check_aux_series(out, theta)
    _, diag = read_columns(out / "pbe_diagnostics.csv")
    for key, column in (("m", "V_cm"), ("w", "V_cw")):
        moment = float(np.trapezoid(dist["v"] * dist[key], dist["v"]))
        final = float(diag[column][-1])
        _require(final > 0, f"final {column} = {final:.6e}: nothing nucleated")
        gap = abs(final - moment) / final
        _require(gap <= MOMENT_RTOL,
                 f"final {column} = {final:.6e} vs trapezoid moment {moment:.6e}")
    eps = summary["max_eps_m"]
    _require(eps is not None and eps < EPS_M_TOL, f"max eps_m = {eps} not below {EPS_M_TOL:g}")


def check_pbe_contrast(out: Path, theta: str) -> None:
    summary = _summary(out, "pbe_summary.json")
    peak = float(np.max(np.abs(_distributions(out)["m"])))
    _require(summary["min_m"] < -CONTRAST_DIP * peak,
             f"min m = {summary['min_m']:.3e} not below -{CONTRAST_DIP:g} * {peak:.3e}")
    check_aux_series(out, theta)


# ---------------------------------------------------------------------------
# scaling checks


def _factor_logs(header, rows) -> np.ndarray:
    cols = [i for i, name in enumerate(header) if name.startswith("theta_")]
    return np.log10(np.array([[float(r[i]) for i in cols] for r in rows]))


def check_euclid(out: Path, problem: Problem) -> None:
    _, header, rows = read_csv(out / "scale_solution.csv")
    gap = float(np.max(np.abs(_factor_logs(header, rows)[0] - problem.least_squares_rho())))
    _require(gap <= LOG_TOL, f"theta is {gap:.2e} decades off numpy lstsq")


def check_enumeration(out: Path, problem: Problem) -> None:
    _, header, rows = read_csv(out / "enumeration.csv")
    n_d, n_x = problem.A.shape
    index = {label: i for i, label in enumerate(problem.labels)}
    subsets = np.array([[index[s] for s in r[0].split(";")] for r in rows])
    ratios = np.array([float(r[1]) for r in rows])
    log_lam = problem.log_kappas + _factor_logs(header, rows) @ problem.A.T
    forced = np.take_along_axis(log_lam - problem.targets, subsets, axis=1)
    worst = int(np.argmax(np.max(np.abs(forced), axis=1)))
    _require(np.all(np.abs(forced) <= LOG_TOL),
             f"row {worst + 1}: forced coefficients are not 1 "
             f"(log10 off by {np.max(np.abs(forced[worst])):.2e})")
    # Spreads beyond ~308 decades overflow to inf in the program's ratio
    # and must do so here too.
    spread = np.max(log_lam, axis=1) - np.min(log_lam, axis=1)
    finite = spread < math.log10(np.finfo(float).max)
    _require(np.array_equal(np.isfinite(ratios), finite)
             and np.all(np.abs(np.log10(ratios[finite]) - spread[finite]) <= LOG_TOL),
             "a row's ratio differs from max lambda / min lambda")
    _require(bool(np.all(ratios[1:] >= ratios[:-1])), "rows are not sorted by ratio")
    text = (out / "stdout.txt").read_text()
    total = int(re.search(r"candidate subsets\s*:\s*(\d+)", text).group(1))
    solvable = int(re.search(r"solvable subsets\s*:\s*(\d+)", text).group(1))
    _require(total == math.comb(n_d, n_x), f"{total} subsets, want C({n_d}, {n_x})")
    _require(solvable == len(rows), f"{solvable} solvable subsets but {len(rows)} rows")


def _anneal_cost(out: Path) -> float:
    _, header, rows = read_csv(out / "scale_solution.csv")
    return float(rows[0][header.index("cost")])


def check_anneal_latex(out: Path) -> None:
    problem = preset_problem("latex")
    bound = problem.max_cost(problem.least_squares_rho())
    cost = _anneal_cost(out)
    _require(cost <= bound, f"annealed cost {cost:.4f} above the Euclidean optimum's {bound:.4f}")


def check_anneal_projectile(out: Path) -> None:
    exact = preset_problem("projectile").exact_minimax()
    cost = _anneal_cost(out)
    _require(exact - 1e-9 <= cost <= PROJECTILE_ANNEAL_MAX,
             f"annealed cost {cost:.4f} outside [{exact:.4f}, {PROJECTILE_ANNEAL_MAX}]")


def check_roundtrip(out: Path) -> None:
    deviation = _summary(out, "projectile_summary.json")["roundtrip_max_relative_deviation"]
    _require(deviation <= ROUNDTRIP_TOL, f"round-trip deviation {deviation:.2e}")


def check_command(cmd, out: Path, exit_code: int) -> None:
    """Judge one command's artifacts in ``out``; raise CheckError if wrong."""
    _require(exit_code == 0, f"{cmd.name} exited with code {exit_code}")
    kind, params = cmd.check, cmd.params
    if kind == "pbe_well":
        check_pbe_well(out, params["theta"])
    elif kind == "pbe_contrast":
        check_pbe_contrast(out, params["theta"])
    elif kind == "euclid":
        check_euclid(out, problem_of(params))
    elif kind == "enumeration":
        check_enumeration(out, problem_of(params))
    elif kind == "anneal_latex":
        check_anneal_latex(out)
    elif kind == "anneal_projectile":
        check_anneal_projectile(out)
    elif kind == "roundtrip":
        check_roundtrip(out)
    else:
        raise ValueError(f"unknown check {kind!r}")
