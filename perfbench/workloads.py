"""What each workload runs: CLI argument lists and their seeded inputs.

A workload is a list of commands.  Each command is the argument list given
to ``nondim`` (its ``--out`` directory prepended at run time) and the name
of the check its artifacts must pass.  The PBE workloads are the paper's
fixed scenarios and ignore the seed; the toolkit workload derives its
synthetic problems and its annealing seeds from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

#: The poorly-scaled contrast run: the 7b matched pair's grid and step size
#: (16000 steps over 313 s), cut to its first 1200 steps, by which min m has
#: fallen below -2e-3 of peak |m|.
CONTRAST_STEPS = 1200
CONTRAST_T_HORIZON = CONTRAST_STEPS * 313.0 / 16000

#: The full-scale grid over the first 8 s of the 450 s horizon (nucleation
#: sets in near 5.4 s) at a fixed step of 0.1 s.
FULL_T_HORIZON = 8.0
FULL_STEPS = 80

PRESETS = ("projectile", "schrodinger", "ldg", "latex")
SYNTHETIC_SCALE_PROBLEMS = 3

WORKLOADS = ("desk", "full", "contrast", "toolkit")


@dataclass(frozen=True)
class Command:
    """One ``nondim`` invocation and the check that judges its artifacts."""

    name: str
    args: list[str]
    check: str
    params: dict = field(default_factory=dict)


def commands(workload: str, seed: int, inputs: Path) -> list[Command]:
    """The workload's commands; writes any input files it needs into ``inputs``."""
    if workload == "desk":
        return [Command("pbe", ["pbe", "--theta", "eucl", "--desk"],
                        "pbe_well", {"theta": "eucl"})]
    if workload == "full":
        return [Command("pbe", ["pbe", "--theta", "eucl", "--full",
                                "--t-horizon", repr(FULL_T_HORIZON),
                                "--steps", str(FULL_STEPS), "--sigma-rule", "25"],
                        "pbe_well", {"theta": "eucl"})]
    if workload == "contrast":
        return [Command("pbe", ["pbe", "--theta", "test", "--nodes", "300",
                                "--v-window", "0.7e-16",
                                "--t-horizon", repr(CONTRAST_T_HORIZON),
                                "--steps", str(CONTRAST_STEPS), "--sigma-rule", "10"],
                        "pbe_contrast", {"theta": "test"})]
    if workload == "toolkit":
        return _toolkit(seed, inputs)
    raise ValueError(f"unknown workload {workload!r}")


def _toolkit(seed: int, inputs: Path) -> list[Command]:
    rng = np.random.default_rng(seed)
    inputs.mkdir(parents=True, exist_ok=True)
    cmds = [Command(f"scale-{p}", ["scale", "--preset", p], "euclid", {"preset": p})
            for p in PRESETS]
    for k in range(SYNTHETIC_SCALE_PROBLEMS):
        path = inputs / f"synthetic_scale_{k}.yaml"
        _write_problem(path, *_random_problem(rng))
        cmds.append(Command(f"scale-synthetic-{k}",
                            ["--config", str(path), "scale"], "euclid",
                            {"config": str(path)}))
    cmds.append(Command("enumerate-latex", ["enumerate", "--preset", "latex"],
                        "enumeration", {"preset": "latex"}))
    path = inputs / "synthetic_enumerate.yaml"
    _write_problem(path, *_latex_shaped_problem(rng))
    cmds.append(Command("enumerate-synthetic", ["--config", str(path), "enumerate"],
                        "enumeration", {"config": str(path)}))
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=2)]
    cmds.append(Command("anneal-latex",
                        ["--seed", str(seeds[0]), "scale", "--preset", "latex",
                         "--method", "anneal-max"],
                        "anneal_latex"))
    cmds.append(Command("anneal-projectile",
                        ["--seed", str(seeds[1]), "scale", "--preset", "projectile",
                         "--method", "anneal-max"],
                        "anneal_projectile"))
    cmds.append(Command("projectile-roundtrip", ["projectile", "--roundtrip"],
                        "roundtrip"))
    return cmds


#: Largest |log10 theta| a synthetic problem's optimum may have.  Factors
#: beyond 1e±308 cannot be written (see CHANGES.md); physical scalings stay
#: far inside this.
MAX_FACTOR_DECADES = 100.0


def _random_problem(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer exponents of full column rank, kappas over 24 decades.

    Draws again (from the same generator, so the seed still fixes the
    problem) until the least-squares factors stay within
    MAX_FACTOR_DECADES.
    """
    while True:
        n_x = int(rng.integers(2, 7))
        n_d = n_x + int(rng.integers(1, 8))
        exponents = rng.integers(-3, 4, size=(n_d, n_x)).astype(float)
        log_kappas = rng.uniform(-12.0, 12.0, size=n_d)
        targets = rng.integers(-2, 3, size=n_d).astype(float)
        if np.linalg.matrix_rank(exponents) < n_x:
            continue
        rho = np.linalg.lstsq(exponents, targets - log_kappas, rcond=None)[0]
        if np.max(np.abs(rho)) <= MAX_FACTOR_DECADES:
            return exponents, log_kappas, targets


def _latex_shaped_problem(rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """19 coefficients over 8 factors with the latex model's sparsity.

    The latex exponent rows are scaled by random nonzero integers and the
    factor columns permuted, which keeps every subset's solvability (so no
    seed can make the survey degenerate) while moving every ratio.  Every
    solvable latex subset matrix has an inverse of max-row-sum norm <= 91,
    and the row scaling only shrinks it, so kappas within 3 decades of 1
    keep every subset's factors within 1e±273.
    """
    from nondim.models import build_latex

    exponents = build_latex()[0].exponent_matrix()
    rows = rng.choice(np.array([-2.0, -1.0, 1.0, 2.0]), size=exponents.shape[0])
    exponents = (exponents * rows[:, None])[:, rng.permutation(exponents.shape[1])]
    log_kappas = rng.uniform(-3.0, 3.0, size=exponents.shape[0])
    return exponents, log_kappas, np.zeros(exponents.shape[0])


def _write_problem(path: Path, exponents, log_kappas, targets) -> None:
    n_d, n_x = exponents.shape
    document = {
        "factors": [f"f{j}" for j in range(n_x)],
        "monomials": [
            {"label": f"l{i}", "kappa": float(10.0 ** log_kappas[i]),
             "exponents": [float(a) for a in exponents[i]],
             "target": float(targets[i])}
            for i in range(n_d)
        ],
    }
    path.write_text(yaml.safe_dump(document, sort_keys=False))
