import pytest

#: PASS/FAIL lines recorded by the acceptance gate, echoed after the run.
ACCEPTANCE_LINES = []
#: Which comparison the golden-digest test ran, echoed after the run.
GOLDEN_LINES = []


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
