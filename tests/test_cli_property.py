"""Every command exits with a documented code, and one that fails writes nothing.

The runs are drawn: problem files for ``scale`` and ``enumerate``, scenario
files for ``pbe``, and ``pbe`` and ``projectile`` option runs, valid and
corrupted.  A corrupted value is non-finite, overflowing, subnormal, a bool,
null, text, a list or a mapping; a corrupted file also misses keys or has
unknown ones.  Runs stay small: at most 64 nodes and 5 steps for ``pbe``,
and 50 steps and 5 x 5 lattice points for ``projectile``.  The inputs found
and mended so far are pinned, each with its exit code and message, in the
CLI repro table (``tests/cli_repros.py``).
"""

import copy
import tempfile
import traceback
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from nondim.cli import main
from nondim.models import LATEX_LABELS

#: The exit codes the CLI documents; 1, an uncaught exception, is not one.
DOCUMENTED = {0, 2, 3, 4, 5, 64}

#: YAML text that a spoiled file puts in place of a value: non-finite or
#: overflowing floats, bools, nulls, text, a list, a mapping, and numbers at
#: the edges of a domain (zeros, negatives, subnormals, extremes).
BAD = [".inf", "-.inf", ".nan", "1.0e+400", "yes", "false", "null", "~", "abc", "''",
       "[1.0]", "{x: 1.0}", "0", "-0.0", "-1.0", "5.0e-324", "1.0e-310", "1.0e+300"]


def numbers(lo: float, hi: float):
    """YAML or command-line text of a float in [lo, hi]."""
    return st.floats(lo, hi).map(repr)


def nodes(tree, path=()):
    """(path, node) of ``tree`` and of everything in it, depth first.

    A tree is a file: nested dicts and lists whose leaves are YAML text.
    """
    yield path, tree
    if isinstance(tree, (dict, list)):
        for key, sub in (tree.items() if isinstance(tree, dict) else enumerate(tree)):
            yield from nodes(sub, path + (key,))


def at(tree, path):
    for key in path:
        tree = tree[key]
    return tree


def render(tree) -> str:
    """``tree`` as one YAML flow node."""
    if isinstance(tree, dict):
        return "{" + ", ".join(f"{key}: {render(sub)}" for key, sub in tree.items()) + "}"
    if isinstance(tree, list):
        return "[" + ", ".join(map(render, tree)) + "]"
    return tree


@st.composite
def spoiled(draw, tree) -> str:
    """``tree`` rendered as it is, or with one or two of its nodes made
    :data:`BAD`, one dropped, or an unknown key added to one mapping."""
    tree = copy.deepcopy(tree)
    paths = [path for path, _ in nodes(tree) if path]
    kind = draw(st.sampled_from(["none", "none", "bad", "bad", "drop", "unknown"]))
    if kind == "bad":
        chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
        for path in sorted(chosen, key=len, reverse=True):  # a node before its parent
            at(tree, path[:-1])[path[-1]] = draw(st.sampled_from(BAD))
    elif kind == "drop":
        path = draw(st.sampled_from(paths))
        del at(tree, path[:-1])[path[-1]]
    elif kind == "unknown":
        mappings = [path for path, node in nodes(tree) if isinstance(node, dict)]
        at(tree, draw(st.sampled_from(mappings)))["unknown"] = "1.0"
    return render(tree)


@st.composite
def problem_runs(draw):
    factors = draw(st.lists(st.sampled_from(["a", "b", "c", "'x [m]'", "'x [s]'", "'a b'",
                                             "a_b"]), min_size=1, max_size=3, unique=True))
    monomials = []
    for i in range(draw(st.integers(1, 5))):
        monomial = {
            "label": draw(st.sampled_from([f"l{i}"] * 8 + ["l0", "'x;y'"])),
            "kappa": draw(numbers(1e-3, 1e3)),
            "exponents": draw(st.lists(st.integers(-3, 3).map(str),
                                       min_size=len(factors), max_size=len(factors))),
        }
        if draw(st.booleans()):
            monomial["target"] = draw(numbers(-3.0, 3.0))
        monomials.append(monomial)
    command = draw(st.sampled_from([
        ["scale"], ["enumerate"], ["enumerate", "--cap", "3"],
        ["scale", "--method", "anneal-max", "--max-evals", "50"],
    ]))
    return draw(spoiled({"factors": factors, "monomials": monomials})), command


@st.composite
def scenario_runs(draw):
    # The nucleation volume c lies inside the grid and dominates sigma_c.
    scenario = {
        "lambdas": {label: draw(numbers(0.1, 1.0 if label == "c" else 10.0))
                    for label in LATEX_LABELS},
        "constants": {"Phi_s": draw(numbers(1e-4, 0.5)), "Psi_bar": draw(numbers(0.1, 5.0)),
                      "Psi_r": draw(numbers(0.1, 5.0))},
        "sigma_c": draw(numbers(1e-3, 1e-2)),
        "grid": {"N": str(draw(st.integers(8, 64))), "v_max": draw(numbers(1.0, 10.0))},
        "t_max": draw(numbers(1e-3, 1.0)),
    }
    return draw(spoiled(scenario)), ["pbe", "--steps", str(draw(st.integers(1, 5)))]


@st.composite
def pbe_runs(draw):
    args = ["pbe", "--theta", draw(st.sampled_from(["eucl", "test"])),
            draw(st.sampled_from(["--desk", "--full"])),
            "--nodes", str(draw(st.integers(0, 64))), "--steps", str(draw(st.integers(1, 5)))]
    for option, lo, hi in (("--v-window", 1e-17, 1e-15), ("--t-horizon", 1.0, 500.0),
                           ("--sigma-rule", 1.0, 100.0)):
        if draw(st.booleans()):
            args += [option, draw(st.one_of(numbers(lo, hi), st.sampled_from(
                ["0", "-1", "inf", "nan", "1e-310", "1e300", "x"])))]
    return None, args


@st.composite
def projectile_runs(draw):
    # Factors from the subnormals to 1e308, lattice ends up to +-1e308.
    args = ["projectile", "--steps", str(draw(st.integers(1, 50))),
            "--flow-grid", *(str(draw(st.integers(2, 5))) for _ in range(2))]
    if draw(st.booleans()):
        args += ["--theta", *(draw(numbers(5e-324, 1e308)) for _ in range(2))]
    if draw(st.booleans()):
        args += ["--flow-range", *(draw(numbers(-1e308, 1e308)) for _ in range(4))]
    if draw(st.booleans()):
        args += ["--t-max", draw(st.one_of(numbers(1e-300, 1e300), st.sampled_from(
            ["0", "-1", "inf", "nan"])))]
    if draw(st.booleans()):
        args.append("--roundtrip")
    return None, args


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(run=st.one_of(problem_runs(), scenario_runs(), pbe_runs(), projectile_runs()))
def test_every_exit_is_documented_and_a_failure_writes_nothing(run):
    config, args = run
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "config.yaml"
            path.write_text(config)
            args = ["--config", str(path), *args]
        out = Path(tmp) / "out"
        result = CliRunner().invoke(main, ["--out", str(out), *args])
        trace = "".join(traceback.format_exception(*result.exc_info)) if result.exc_info else ""
        assert result.exit_code in DOCUMENTED, f"{config}\n{args}\n{result.output}\n{trace}"
        if result.exit_code not in (0, 4):
            assert not out.exists(), f"{config}\n{args}\n{result.output}"
