"""Every CLI run that the tests pin, in one table.

Each :class:`Repro` is one ``nondim`` run: its arguments, an optional
config file, the exit code and a fragment of its output.  The exit code
decides whether the run writes: one that exits 0 or 4 must leave its
``--out`` directory, any other must not.  The runs that write are the
:data:`RUNS`, and ``tests/golden.json`` pins the payload of each.  Tier-1
runs every entry once through click's ``CliRunner`` under the suite's
``error::RuntimeWarning``, and each one with a config file under PyYAML's
pure-Python loader too: each group of cases below in one parametrized test
of ``tests/test_cli.py``, the :data:`SINGLES` in ``tests/test_cli_repros.py``
and the :data:`RUNS` in ``tests/test_golden.py``.  Run as a script,

    python tests/cli_repros.py

runs every entry through the ``nondim`` on ``PATH`` under
``PYTHONWARNINGS=error::RuntimeWarning``, and each of the :data:`RUNS` a
second time into ``out.2``.  It fails on a wrong exit code, a missing
fragment, a ``Traceback``, a missing or leftover ``--out``, or a second
run whose files differ from the first's, and names each entry that did.
A mended CLI input, or a new pinned run, is written here, once.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from click.testing import CliRunner

from nondim import cli


@dataclass(frozen=True)
class Repro:
    id: str
    #: Command line after ``--out`` (and ``--config``), split on spaces;
    #: ``{tmp}`` is the run's own directory, here and in ``message``.
    args: str
    code: int
    message: str
    config: str | None = None

    def argv(self, tmp: Path, out: str = "out") -> list[str]:
        """The run's arguments, with ``--out`` at ``tmp / out``; writes the
        config file into ``tmp``."""
        argv = ["--out", str(tmp / out)]
        if self.config is not None:
            (tmp / "config.yaml").write_text(self.config)
            argv += ["--config", str(tmp / "config.yaml")]
        return argv + self.args.replace("{tmp}", str(tmp)).split()

    def faults(self, tmp: Path, code: int, output: str) -> list[str]:
        """What a run in ``tmp`` that exited ``code`` with ``output`` got wrong."""
        message = self.message.replace("{tmp}", str(tmp))
        writes = self.code in (0, 4)
        return [fault for fault, wrong in (
            (f"exit {code}, expected {self.code}", code != self.code),
            (f"no {message!r} in the output", message not in output),
            ("a Traceback in the output", "Traceback" in output),
            ("no --out written" if writes else "--out left behind",
             (tmp / "out").exists() != writes),
        ) if wrong]


def mismatches(first: Path, second: Path) -> list[str]:
    """A fault naming each file that directories ``first`` and ``second`` do
    not both hold with the same bytes."""
    one, two = ({path.name: path.read_bytes() for path in directory.glob("*")}
                for directory in (first, second))
    return [f"{name}: " + (f"missing from {second.name}" if name not in two
                           else f"missing from {first.name}" if name not in one
                           else "bytes differ")
            for name in sorted(one.keys() | two.keys()) if one.get(name) != two.get(name)]


def edit(base: str, *swaps: str) -> str:
    """``base`` with each ``old, new`` pair of ``swaps`` replaced, in order;
    each ``old`` must occur exactly once."""
    for old, new in zip(swaps[::2], swaps[1::2]):
        if base.count(old) != 1:
            raise ValueError(f"{old!r} occurs {base.count(old)} times")
        base = base.replace(old, new)
    return base


def problem(factors: str, *rows: str, labels: tuple[str, ...] = ()) -> str:
    """A problem file with one monomial per exponent row, kappa 2, 3, ..."""
    labels = labels or tuple(f"l{i}" for i in range(len(rows)))
    return f"factors: {factors}\nmonomials:\n" + "".join(
        f"  - {{label: '{label}', kappa: {i + 2}.0, exponents: {row}}}\n"
        for i, (label, row) in enumerate(zip(labels, rows)))


#: A valid two-coefficient problem file.
PROBLEM = (
    "factors: [a]\n"
    "monomials:\n"
    "  - {label: l1, kappa: 3.0, exponents: [1]}\n"
    "  - {label: l2, kappa: 2.0, exponents: [-1]}\n"
)

#: A valid scenario file on a 16-node grid that nucleates nothing.
SCENARIO = (
    "lambdas:\n"
    + "".join(f"  {name}: {0.0 if name in ('n', 's_m') else 1.0}\n" for name in (
        "a_m", "a_w", "d", "p", "c", "mu_m", "mu_w", "dm_mat", "dw_mat", "s_mat",
        "pol1_pol2", "pol1_mat", "p_m", "p_w", "p_pol2", "p_pol1", "p_mat", "n", "s_m"))
    + "constants: {Phi_s: 1.0e-3, Psi_bar: 1.0, Psi_r: 1.05}\n"
    + "sigma_c: 0.02\n"
    + "grid: {N: 16, v_max: 4.0}\n"
    + "t_max: 0.2\n"
)

#: :data:`SCENARIO` with nucleation on.
NUCLEATING = edit(SCENARIO, "  n: 0.0", "  n: 1.0", "  s_m: 0.0", "  s_m: 1.0")

#: :data:`NUCLEATING` whose one step over the whole horizon corrupts the
#: state under a small change to one partition coefficient.
ONE_LONG_STEP = edit(NUCLEATING, "t_max: 0.2", "t_max: 5.0")

#: Every pair of rows is 1e-13 of Hadamard's bound from collinear, though
#: the rank is 2; scale solves it past the normal floats.
NEAR_COLLINEAR = problem("[a, b]", "[1, 0]", "[1, 1.0e-13]", "[1, 2.0e-13]")
#: Every det is 1e-14, but each subset is 1e-7 times a well-posed one, so
#: both commands solve it, past the normal floats.
TINY = problem("[a, b]", "[1.0e-7, 0]", "[0, 1.0e-7]", "[1.0e-7, 1.0e-7]")

#: Exponent rows of three monomials over one and over two factors.
ONE, TWO = ("[1]", "[-1]", "[1]"), ("[1, 1]", "[-1, -1]", "[1, 1]")

MISSING = "{tmp}/missing.yaml"
PROJECTILE_LAMBDAS = "lambdas must be positive and finite"
SOURCE_UNSEEN = "its discrete mass is 0 (sigma_c/h = {}, lambda_c/h = 3.537e+01)"

# Groups of entries by case name: each group is one parametrized test of
# ``tests/test_cli.py``, whose case ids are these names.

#: :data:`PROBLEM` with one key wrong; ``scale`` names the key.
PROBLEM_KEYS = {case: Repro(f"problem-{case}", "scale", 64, key, edit(PROBLEM, old, new))
                for case, old, new, key in (
    ("unknown-monomial-key", "exponents: [1]}", "exponents: [1], tagret: 1}",
     "monomials[0].tagret"),
    ("unknown-top-key", "factors: [a]", "factors: [a]\nfactor: [b]", "unknown factor"),
    ("missing-key", "kappa: 2.0, ", "", "monomials[1].kappa"),
    ("not-a-number", "kappa: 2.0", "kappa: two", "monomials[1].kappa"),
    ("bool", "kappa: 2.0", "kappa: true", "monomials[1].kappa must be a number, got True"),
    ("not-a-list", "exponents: [1]}", "exponents: 1}", "monomials[0].exponents"),
    ("top-level-list", "factors: [a]\nmonomials:\n", "", "top level must be a mapping"),
    ("no-factor", "factors: [a]", "factors: []", "need at least one factor and one monomial"),
    ("no-monomial", PROBLEM[PROBLEM.index("monomials:"):], "monomials: []\n",
     "need at least one factor and one monomial"),
)}

#: :data:`PROBLEM` with one value not finite, under each command that reads it.
NON_FINITE_VALUES = {
    f"{case}-{command}": Repro(f"{command}-{case}", args, 64,
                               f"error: monomial 'l1': {field} must be", edit(PROBLEM, old, new))
    for command, args in (("scale", "scale"), ("enumerate", "enumerate"),
                          ("anneal-max", "scale --method anneal-max --max-evals 100"))
    for case, old, new, field in (
        ("inf-kappa", "kappa: 3.0", "kappa: .inf", "kappa"),
        ("overflowing-kappa", "kappa: 3.0", "kappa: 1e400", "kappa"),
        ("nan-exponent", "exponents: [1]}", "exponents: [.nan]}", "exponents[0]"),
        ("inf-target", "exponents: [1]}", "exponents: [1], target: -.inf}", "target"),
    )}

#: A label or factor name that would make an artifact ambiguous.  A forced
#: subset is written as its labels joined by ';', and a factor as the
#: column theta_<name up to '[', spaces as '_'>.
AMBIGUOUS_LABELS = {
    f"{case}-{command}": Repro(f"{command}-label-{case}", command, 64, named,
                               problem(factors, *rows, labels=labels))
    for command in ("scale", "enumerate") for case, factors, rows, labels, named in (
        ("semicolon", "[a]", ONE, ("x;y", "x", "z"), "monomial label 'x;y' holds ';'"),
        ("duplicate", "[a]", ONE, ("l1", "l2", "l1"), "monomial label 'l1' is not unique"),
        ("unit", "['x [m]', 'x [s]']", TWO, ("l1", "l2", "l3"),
         "factor names 'x [m]' and 'x [s]' share the CSV column 'theta_x'"),
        ("space", "['a b', a_b]", TWO, ("l1", "l2", "l3"),
         "factor names 'a b' and 'a_b' share the CSV column 'theta_a_b'"),
    )}

#: Problems that leave no factors to write.
NO_USABLE_FACTORS = {case: Repro(f"unusable-{case}", command, code, message, config)
                     for case, command, config, code, message in (
    # The rank is 1 of 2, so no subset is solvable.
    ("rank-deficient", "enumerate", problem("[a, b]", "[1, 0]", "[2, 0]", "[3, 0]"), 2,
     "error: degenerate exponent structure: rank 1 < 2"),
    ("near-collinear", "enumerate", NEAR_COLLINEAR, 2,
     "error: no subset is solvable: all 3 have |det| <= 1e-12 x the product of their "
     "rows' norms"),
    ("near-collinear-scale", "scale", NEAR_COLLINEAR, 5,
     "error: euclid: the factors leave the normal floats, log10 theta = ["),
    ("every-det-tiny", "enumerate", TINY, 5,
     "error: subset:0,1: the factors leave the normal floats, log10 theta = ["),
    # log10 theta_a = -log10(2) / 1e-11 sends theta_a to 0.
    ("subset-past-normal", "enumerate", problem("[a]", "[1.0e-11]", "[1]"), 5,
     "error: subset:0: the factors leave the normal floats, log10 theta = ["),
    ("euclid-past-normal", "scale", TINY, 5,
     "error: euclid: the factors leave the normal floats, log10 theta = ["),
)}

#: Command lines that click refuses.
USAGE_ERRORS = {case: Repro(f"usage-{case}", args, 64, f"Error: {message}")
                for case, args, message in (
    ("bad-int", "pbe --nodes abc", "Invalid value for '--nodes': 'abc' is not a valid integer"),
    ("bad-choice", "scale --preset bogus", "Invalid value for '--preset': 'bogus' is not one of"),
    ("unknown-option", "scale --bogus", "No such option '--bogus'"),
    ("bad-group-option", "--seed abc scale",
     "Invalid value for '--seed': 'abc' is not a valid integer"),
    ("unknown-command", "bogus", "No such command 'bogus'"),
    ("anneal-eucl", "scale --preset latex --method anneal-eucl",
     "Invalid value for '--method': 'anneal-eucl' is not one of"),
)}

#: numpy.random.default_rng refuses a negative seed with a ValueError.
NEGATIVE_SEEDS = {command: Repro(f"seed-negative-{command}", f"--seed -1 {args}", 64,
                                 "error: the annealing seed must be >= 0, got --seed -1")
                  for command, args in (
    ("scale", "scale --preset projectile --method anneal-max"),
    ("projectile", "projectile --method anneal-max"),
)}

#: ``projectile`` inputs out of their domain.
PROJECTILE_INPUTS = {case: Repro(f"projectile-{case}", args, 64, f"error: {message}")
                     for case, args, message in (
    ("t-max-inf", "projectile --t-max inf --steps 10", "--t-max must be > 0 and finite, got inf"),
    ("t-max-nan", "projectile --t-max nan", "--t-max must be > 0 and finite, got nan"),
    ("t-max-negative", "projectile --t-max -1", "--t-max must be > 0 and finite, got -1.0"),
    ("flow-range-inf", "projectile --flow-range 0 inf -2 2", "ranges must be finite and nonempty"),
    ("flow-range-nan", "projectile --flow-range 0 nan -2 2", "ranges must be finite and nonempty"),
    ("group-config", f"--config {MISSING} projectile", "projectile reads no --config file"),
    ("theta-inf", "projectile --theta inf 1", "theta must be finite and > 0, got [inf, 1.0]"),
    ("flow-grid-one", "projectile --flow-grid 1 10", "grid counts must be >= 2"),
    ("flow-range-width-overflows", "projectile --flow-range -1e308 1e308 -1 1 --flow-grid 3 3",
     "ranges must be finite and nonempty with a finite width hi - lo, "
     "got w1 (-1e+308, 1e+308), w2 (-1.0, 1.0)"),
    ("lambda-inf", "projectile --theta 1e300 1e-300", PROJECTILE_LAMBDAS),
    ("lambda-underflows-to-0", "projectile --theta 1e-200 1e200", PROJECTILE_LAMBDAS),
    ("roundtrip-lambda-inf", "projectile --roundtrip --theta 1e200 1", PROJECTILE_LAMBDAS),
)}

#: :data:`SCENARIO` with ``old`` made ``new``; ``pbe`` names ``key``.  Each is
#: named ``old-new-key``, and its entry by the new text or the text dropped.
SCENARIO_KEYS = {
    f"{old}-{new}-{key}": Repro("scenario-" + (new.strip() or f"no {old.strip()}"), "pbe", 64,
                                key, edit(SCENARIO, old, new))
    for old, new, key in (
        ("  a_w: 1.0", "  a_ww: 1.0", "lambdas.a_ww"),
        ("  a_w: 1.0\n", "", "lambdas.a_w"),
        ("N: 16", "N: sixteen", "grid.N"),
        ("t_max: 0.2", "t_max: [0.2]", "t_max"),
        ("N: 16", "N: 16.7", "grid.N"),
        ("t_max: 0.2", "t_max: -0.2", "t_max"),
        ("t_max: 0.2", "t_max: .inf", "t_max must be > 0 and finite"),
        ("N: 16", "N: 4", "grid.N"),
        ("N: 16", "N: 100000000", "grid.N must be in [8, 1000000], got 100000000"),
        ("v_max: 4.0", "v_max: 0.0", "grid.v_max"),
        ("v_max: 4.0", "v_max: .inf", "grid.v_max"),
        ("v_max: 4.0", "v_max: 1.0e+300", "grid span N h must be below 1.341e+154, got 1e+300"),
        ("sigma_c: 0.02", "sigma_c: 0.0", "sigma_c"),
        ("sigma_c: 0.02", "sigma_c: 5.0e-324", "sigma_c must keep the Gaussian's peak"),
        ("  a_w: 1.0", "  a_w: .inf", "lam_a_w must be finite"),
        ("Psi_bar: 1.0", "Psi_bar: .nan", "Psi_bar must be finite"),
        ("Psi_r: 1.05", "Psi_r: 0.0", "Psi_r must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: -1.0", "Phi_s must be > 0"),
        ("Phi_s: 1.0e-3", "Phi_s: 1.0", "Phi_s must be < 1"),
        ("t_max: 0.2", "t_max: 0.2\nstpes: 10", "unknown stpes"),
        ("t_max: 0.2", "t_max: 0.2\nsteps: 100", "unknown steps"),
        ("sigma_c: 0.02", "sigma-c: 0.5", "unknown sigma-c"),
        ("t_max: 0.2", "", "missing t_max"),
        ("  n: 0.0", "  n: -1.0", "lam_n must be >= 0, got -1.0"),
        ("v_max: 4.0", "v_max: 5.0e-324", "grid spacing h must be > 0 and finite, got 0.0"),
        ("Psi_bar: 1.0", "Psi_bar: 1.0e+70", "Psi_bar must keep (Psi_bar + 1)^(14/3) finite"),
        # With no --steps the run steps adaptively, and its stable step is
        # 1.35e-15 against t_max = 0.2.
        ("  mu_m: 1.0", "  mu_m: 1.0e+15",
         "the run needs more than 1000000 steps: step 1's stable step"),
        ("t_max: 0.2", "t_max: 1.0e-320", "t_max must be >= 2.2250738585072014e-306"),
        ("Psi_r: 1.05", "Psi_r: yes", "constants.Psi_r must be a number, got True"),
        ("  n: 0.0\n", "  n: false\n", "lambdas.n must be a number, got False"),
        ("t_max: 0.2", "t_max: true", "t_max must be a number, got True"),
    )}

#: Window options that a scenario file already fixes.
BESIDE_SCENARIO = {
    case: Repro(f"scenario-beside-{case}", f"pbe {args}", 64,
                f"error: the --config scenario file fixes the window; drop {named}", SCENARIO)
    for case, args, named in (
        ("nodes", "--nodes 400", "--nodes"),
        ("theta", "--theta test", "--theta"),
        ("full", "--full", "--desk/--full"),
        ("desk", "--desk", "--desk/--full"),
        ("window", "--v-window 1e-16 --t-horizon 9 --sigma-rule 25",
         "--v-window, --t-horizon, --sigma-rule"),
    )}

#: A window option out of its domain; named ``option-value-message``.
WINDOW_OPTIONS = {
    f"{option}-{value}-{message}": Repro(f"pbe{option}-{value}", f"pbe {option} {value}", 64,
                                         f"error: {message}")
    for option, value, message in (
        ("--sigma-rule", "0", "sigma_c must be > 0 and finite, got --sigma-rule 0.0"),
        ("--sigma-rule", "-2", "sigma_c must be > 0 and finite, got --sigma-rule -2.0"),
        ("--v-window", "0", "grid spacing h must be > 0 and finite, got --v-window 0.0"),
        # Finite, but it overflows once divided by nu0 (about 1e-17).
        ("--v-window", "1e300", "grid spacing h must be > 0 and finite, got --v-window 1e+300"),
        ("--t-horizon", "nan", "t_max must be > 0 and finite, got --t-horizon nan"),
        # A subnormal sample spacing would end the run off its last sample.
        ("--t-horizon", "1e-310", "t_max must be >= 2.2250738585072014e-306"),
        # Finite, but lambda_c over it overflows.
        ("--sigma-rule", "1e-310", "sigma_c must be > 0 and finite, got --sigma-rule 1e-310"),
        ("--nodes", "0", "grid needs N >= 8"),
    )}

#: The entries of no group, which ``tests/test_cli_repros.py`` runs.
SINGLES = (
    Repro("scale-no-source", "scale", 64, "error: give exactly one of --preset or --config"),
    Repro("anneal-max-evals-zero", "scale --preset latex --method anneal-max --max-evals 0", 64,
          "error: max_evaluations must be >= 1"),
    Repro("ldg-q-zero", "scale --preset ldg --q 0", 64, "error: q must be a positive integer"),
    Repro("cap-zero", "enumerate --preset projectile --cap 0", 64,
          "error: the subset cap must be >= 1, got --cap 0"),
    Repro("cap-exceeded", "enumerate --preset latex --cap 1000", 3,
          "error: subset count 75582 exceeds cap 1000"),
    Repro("problem-monomials-not-a-list", "scale", 64,
          "config.yaml: monomials must be a list, got 'not-a-list'",
          "factors: [a]\nmonomials: not-a-list\n"),
    Repro("enumerate-label-x;y-x-x", "enumerate", 64, "error: monomial label 'x;y' holds ';'",
          problem("[a]", "[1]", "[-1]", "[1]", labels=("x;y", "x", "x"))),
    Repro("scale-rank-deficient", "scale", 2, "error: degenerate exponent structure: rank 1 < 2",
          problem("[a, b]", "[1, 0]", "[2, 0]", labels=("l1", "l2"))),
    Repro("scale-subnormal-exponent", "scale", 5,
          "error: euclid: the factors leave the normal floats, log10 theta = [-inf]",
          problem("[a]", "[0]", "[0]", "[5.0e-324]")),
    Repro("scale-lone-subnormal-exponent", "scale", 5,
          "error: euclid: the factors leave the normal floats, log10 theta = [-inf]",
          problem("[a]", "[1.0e-310]")),
    Repro("problem-unreadable", f"--config {MISSING} scale", 64,
          f"error: cannot read problem file {MISSING}"),
    Repro("pbe-steps-zero", "pbe --steps 0", 64, "error: steps must be >= 1"),
    Repro("pbe-steps-over-budget", "pbe --steps 1000001", 64,
          "error: steps must be <= 1000000, got 1000001"),
    Repro("pbe-nodes-oversized", "pbe --nodes 100000000 --steps 1", 64,
          "error: grid needs N <= 1000000"),
    Repro("pbe-t-horizon-negative", "pbe --theta eucl --desk --t-horizon -1 --steps 5", 64,
          "error: t_max must be > 0 and finite, got --t-horizon -1.0"),
    Repro("pbe-t-horizon-inf", "pbe --theta eucl --desk --t-horizon inf", 64,
          "error: t_max must be > 0 and finite, got --t-horizon inf"),
    # The adaptive step budget names t_max as a float, not a numpy repr;
    # only a prefix, as lstsq may round the last digits differently.
    Repro("pbe-t-horizon-1e308", "pbe --t-horizon 1e308", 64, "(t_max = 4.470152"),
    Repro("pbe-v-window-inf", "pbe --theta eucl --desk --v-window inf", 64,
          "error: grid spacing h must be > 0 and finite, got --v-window inf"),
    Repro("pbe-v-window-1e300-steps-1", "pbe --v-window 1e300 --steps 1", 64,
          "error: grid spacing h must be > 0 and finite, got --v-window 1e+300"),
    # sigma_c so narrow that the Gaussian is 0 at every node: nothing could
    # nucleate, so the run is refused rather than reported.
    Repro("pbe-source-unseen-1e300", "pbe --sigma-rule 1e300 --steps 10", 64,
          SOURCE_UNSEEN.format("3.537e-299")),
    Repro("pbe-source-unseen-1e6", "pbe --sigma-rule 1e6 --steps 10", 64,
          SOURCE_UNSEEN.format("3.537e-05")),
    # The old guard-stop window puts lam_c at 28.3 grid spacings of 16.
    Repro("pbe-source-outside", "pbe --theta eucl --nodes 16 --v-window 0.05e-16 "
          "--t-horizon 250", 64, "error: the nucleation volume lies outside the grid: "
          "lambda_c/h = 2.830e+01 is not below N = 16"),
    Repro("scenario-unreadable", f"--config {MISSING} pbe", 64,
          f"error: cannot read scenario file {MISSING}"),
    Repro("scenario-missing-keys", "pbe", 64, "missing constants, missing grid, missing t_max",
          "lambdas: {a_m: 1.0}\n"),
    Repro("scenario-psi-bar-overflows-steps", "pbe --steps 5", 64,
          "Psi_bar must keep (Psi_bar + 1)^(14/3) finite",
          edit(SCENARIO, "Psi_bar: 1.0", "Psi_bar: 1.0e+70")),
    # The absurd aggregation coefficient overflows the state, which must
    # not surface as a RuntimeWarning first.
    Repro("scenario-blowup", "pbe --steps 50", 5,
          "error: non-finite state after step 1: m at nodes [1, 2, 3, 4, 5]",
          edit(NUCLEATING, "  a_m: 1.0", "  a_m: 1.0e300", "t_max: 0.2", "t_max: 0.5")),
    # One step of the whole horizon drives Psi below -1, where
    # (Psi + 1)^(2/3) would be complex, or swells V_p to <= 0.
    Repro("scenario-corrupt-psi", "pbe --steps 1", 5, "error: state corruption: Psi + 1 <= 0",
          edit(ONE_LONG_STEP, "  p_pol1: 1.0", "  p_pol1: 1.0e-310")),
    Repro("scenario-corrupt-v-p", "pbe --steps 1", 5, "error: state corruption: V_p <= 0",
          edit(ONE_LONG_STEP, "  p_pol2: 1.0", "  p_pol2: 3.0")),
    Repro("projectile-t-max-inf-default-steps", "projectile --t-max inf", 64,
          "error: --t-max must be > 0 and finite, got inf"),
    # The step (t_max / t_c) / steps underflows to 0, or is subnormal.
    Repro("projectile-step-underflows", "projectile --theta 1 1 --t-max 1e-318 --steps 1000000",
          64, "error: the step (t1 - t0) / steps must be a normal float, got 0.0"),
    Repro("projectile-step-subnormal", "projectile --theta 1 1 --t-max 1e-320", 64,
          "error: the step (t1 - t0) / steps must be a normal float, got 5e-324"),
    Repro("projectile-flow-grid-huge", "projectile --flow-grid 2 100000000", 64,
          "error: lattice needs at most 3000000 points, got 2 x 100000000"),
    Repro("projectile-theta-subnormal", "projectile --theta 1 1e-320", 5,
          "error: theta: the factors leave the normal floats, log10 theta = [0.0, -320.0"),
)

WROTE = "wrote {tmp}/out/"

#: The runs that write, each pinned in ``tests/golden.json`` by its id and
#: run twice by the script: the shipped PBE runs, the small truncation-guard
#: run, the benchmark's contrast and full runs, the paper's window that
#: dips below zero, and the toolkit commands.
RUNS = (
    *(Repro(f"pbe-{case}", f"pbe {args}", 0, WROTE + "pbe_summary.json") for case, args in (
        ("desk", "--theta eucl --desk"),
        ("test", "--theta test"),
        ("steps-250", "--steps 250"),
        ("guard", "--theta eucl --nodes 16 --v-window 0.1e-16 --t-horizon 250"),
        ("contrast", "--theta test --nodes 300 --v-window 0.7e-16 --t-horizon 23.475 "
                     "--steps 1200 --sigma-rule 10"),
        ("full", "--theta eucl --full --t-horizon 8.0 --steps 80 --sigma-rule 25"),
    )),
    # The paper's full window under the optimal scaling: m first dips below
    # zero at step 48, node 115, so the run exits 4 after writing.
    Repro("pbe-full-sigma-25", "pbe --theta eucl --full --sigma-rule 25", 4,
          "negative minima beyond tolerance"),
    Repro("enumerate-latex", "enumerate --preset latex", 0, WROTE + "enumeration.csv"),
    # A label with a comma, which the CSV quotes.
    Repro("enumerate-quoted-label", "enumerate", 0, WROTE + "enumeration.csv",
          problem("[a, b]", "[1, 0]", "[-1, 1]", "[0, 2]", "[1, 1]",
                  labels=("l,1", "l2", "l3", "l4"))),
    # The subset determinants overflow to inf, which is solvable.
    Repro("enumerate-huge-exponents", "enumerate", 0, "solvable subsets  : 2",
          problem("[a]", "[1.0e+300]", "[-1.0e+300]")),
    *(Repro(f"scale-{preset}", f"scale --preset {preset}", 0, WROTE + "scale_solution.csv")
      for preset in ("projectile", "schrodinger", "ldg", "latex")),
    *(Repro(f"anneal-{preset}", f"--seed 0 scale --preset {preset} --method anneal-max", 0,
            WROTE + "scale_solution.csv") for preset in ("latex", "projectile")),
    *(Repro(f"projectile-{case}", f"projectile {args}", 0, WROTE + "projectile_summary.json")
      for case, args in (("roundtrip", "--roundtrip"), ("dimensional", "--theta 1 1"))),
    # d * d overflows off the lattice column w1 = 0: the rate is -0.0, with
    # no warning.
    Repro("projectile-lattice-overflows", "projectile --theta 1 1e300", 0,
          WROTE + "projectile_flow.csv"),
)

#: Every entry.
REPROS = tuple(repro for group in (
    PROBLEM_KEYS, NON_FINITE_VALUES, AMBIGUOUS_LABELS, NO_USABLE_FACTORS, USAGE_ERRORS,
    NEGATIVE_SEEDS, PROJECTILE_INPUTS, SCENARIO_KEYS, BESIDE_SCENARIO, WINDOW_OPTIONS,
) for repro in group.values()) + SINGLES + RUNS


def invoke(repro: Repro) -> list[str]:
    """Run ``repro`` through click's ``CliRunner``: its faults, then its output."""
    # Not pytest's tmp_path, which would keep a directory for each run.
    with tempfile.TemporaryDirectory() as tmp:
        result = CliRunner().invoke(cli.main, repro.argv(Path(tmp)))
        faults = repro.faults(Path(tmp), result.exit_code, result.output)
    return [f"{repro.id}: {fault}" for fault in faults] + ([result.output] if faults else [])


def main() -> int:
    """Run every entry through the ``nondim`` on ``PATH``, and each of the
    :data:`RUNS` again into ``out.2``; 1 if any failed."""
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"}

    def nondim(argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(["nondim", *argv], env=env, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)

    failed = []
    for repro in REPROS:
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            run = nondim(repro.argv(tmp))
            faults = repro.faults(tmp, run.returncode, run.stdout)
            if repro in RUNS:
                again = nondim(repro.argv(tmp, "out.2"))
                if again.returncode != repro.code:
                    faults.append(f"second run: exit {again.returncode}, expected {repro.code}")
                faults += [f"second run: {fault}" for fault in mismatches(tmp / "out",
                                                                          tmp / "out.2")]
        if faults:
            failed.append(repro.id)
            print(f"FAIL {repro.id}: {'; '.join(faults)}\n{run.stdout}")
    print(f"{len(REPROS) - len(failed)} of {len(REPROS)} repros pass"
          + (f"; failed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
