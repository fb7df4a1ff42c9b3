import pytest
import yaml

#: PASS/FAIL lines recorded by the acceptance gate, echoed after the run.
ACCEPTANCE_LINES = []
#: Which comparison the golden-digest test ran, echoed after the run.
GOLDEN_LINES = []


def under_both_loaders(repros):
    """Parameters ``repro, loader`` of each CLI table entry under the chosen
    YAML loader (``None``), and of each with a config file under PyYAML's
    pure-Python loader too, its id suffixed ``-pure-yaml``."""
    return [pytest.param(repro, loader, id=repro.id + suffix)
            for repro in repros
            for loader, suffix in ((None, ""), (yaml.SafeLoader, "-pure-yaml"))
            if loader is None or repro.config is not None]


def pytest_terminal_summary(terminalreporter):
    for title, lines in (("acceptance criteria", ACCEPTANCE_LINES),
                         ("golden digests", GOLDEN_LINES)):
        if lines:
            terminalreporter.section(title)
            for line in lines:
                terminalreporter.write_line(line)

from nondim.models import build_latex
from nondim.scaling import solve_euclidean, solve_subset
from nondim.models import LATEX_TEST_SUBSET


@pytest.fixture(scope="session")
def latex_problem():
    problem, constants = build_latex()
    return problem, constants


@pytest.fixture(scope="session")
def latex_eucl(latex_problem):
    problem, _ = latex_problem
    return solve_euclidean(problem)


@pytest.fixture(scope="session")
def latex_test(latex_problem):
    problem, _ = latex_problem
    return solve_subset(problem, LATEX_TEST_SUBSET)
