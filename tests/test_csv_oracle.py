"""Byte-identity oracle for the CSV artifact writers.

Each writer's file must equal the manifest line followed by ``csv.writer``
rows built here one row at a time, with every number written as
``repr(float(v))``.  The values include nan, +-inf, 0.0, -0.0, the smallest
subnormal and the largest double; one label holds a comma and a quote; the
row counts straddle the writers' chunk, patched small; and one column
repeats 0.0, -0.0 and nan over several chunks.  Labels and method tags
drawn from csv's special characters check the writers' own quoting.
"""

import csv
import io
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nondim import runio
from nondim.odes import FlowField
from nondim.scaling import EnumerationResult, Monomial, ScalingProblem, ScalingSolution

CHUNK = 4
ROW_COUNTS = [0, 1, CHUNK - 1, CHUNK, CHUNK + 1]
SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308]
MANIFEST = runio.RunManifest("test", {"k": 1}, "out", 0, version="0")


@pytest.fixture(autouse=True)
def small_chunk(monkeypatch):
    monkeypatch.setattr(runio, "CSV_CHUNK", CHUNK)


def values(rng, *shape):
    """Wide-range floats, about 40% of them drawn from the special values."""
    out = rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape)
    special = rng.random(shape) < 0.4
    out[special] = rng.choice(SPECIAL, size=int(special.sum()))
    return out


def expected(header, rows):
    buf = io.StringIO()
    buf.write(MANIFEST.header_line() + "\n")
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([v if isinstance(v, str) else repr(float(v)) for v in row])
    return buf.getvalue().encode()


def problem(labels=('l,"q', "m", "n")):
    return ScalingProblem(("f a[x]", "g"), tuple(
        Monomial(label, kappa, exponents) for label, kappa, exponents in zip(
            labels, (1.0, 2.0, 3.0), ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0)))
    ))


def solution_csv(path, prob, tags, rng):
    """The solution CSV of one random solution per method tag, and its oracle."""
    solutions = [
        ScalingSolution(theta=values(rng, 2), lambdas=values(rng, 3),
                        cost=float(c), ratio=float(r), method_tag=tag)
        for tag, (c, r) in zip(tags, values(rng, len(tags), 2))
    ]
    runio.write_solution_csv(path, prob, solutions, MANIFEST)
    header = ["method", "cost", "ratio", "theta_f_a", "theta_g",
              *(f"lambda_{label}" for label in prob.labels)]
    rows = [[s.method_tag, s.cost, s.ratio, *s.theta, *s.lambdas] for s in solutions]
    return path.read_bytes(), expected(header, rows)


def enumeration_csv(path, prob, n, rng):
    """The enumeration CSV of ``n`` random rows, and its oracle."""
    result = EnumerationResult(
        subsets=rng.integers(0, 3, size=(n, 2)),
        rho=rng.uniform(-400, 400, size=(n, 2)), cost=values(rng, n),
        ratio=values(rng, n), total_subsets=3,
    )
    with np.errstate(over="ignore"):  # rho beyond 308 decades writes inf
        runio.write_enumeration_csv(path, prob, result, MANIFEST)
        rows = [[";".join(prob.labels[c] for c in subset), ratio, cost, *10.0**rho]
                for subset, ratio, cost, rho in zip(
                    result.subsets, result.ratio, result.cost, result.rho)]
    header = ["subset", "ratio", "cost", "theta_f_a", "theta_g"]
    return path.read_bytes(), expected(header, rows)


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_solution_csv(tmp_path, n):
    tags = [f'x,"{i}' for i in range(n)]
    written, expect = solution_csv(tmp_path / "s.csv", problem(), tags, np.random.default_rng(n))
    assert written == expect


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_enumeration_csv(tmp_path, n):
    written, expect = enumeration_csv(tmp_path / "e.csv", problem(), n, np.random.default_rng(n))
    assert written == expect


#: Cell text from csv's special characters, near misses and a non-ASCII letter.
CELLS = st.text(alphabet='a,"\r\n ;\t\u00e9', max_size=8)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(labels=st.lists(CELLS.filter(lambda cell: ";" not in cell),
                       min_size=3, max_size=3, unique=True),
       tags=st.lists(CELLS, max_size=CHUNK + 1))
def test_string_cells_are_quoted_as_csv_writer_quotes_them(tmp_path, labels, tags):
    prob = problem(labels)
    rng = np.random.default_rng(len(tags))
    written, expect = solution_csv(tmp_path / "s.csv", prob, tags, rng)
    assert written == expect
    written, expect = enumeration_csv(tmp_path / "e.csv", prob, len(tags), rng)
    assert written == expect


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("width", [None, 2])
def test_trajectory_csv(tmp_path, n, width):
    rng = np.random.default_rng(n)
    times = values(rng, n)
    states = values(rng, n) if width is None else values(rng, n, width)
    columns = ["w1"] if width is None else ["w1", "w2"]
    runio.write_trajectory_csv(tmp_path / "t.csv", times, states, columns, MANIFEST)
    rows = [[t, *np.atleast_1d(row)] for t, row in zip(times, states)]
    assert (tmp_path / "t.csv").read_bytes() == expected(["t"] + columns, rows)


@pytest.mark.parametrize("n1, n2", [(0, 3), (1, 1), (3, 1), (2, 2), (1, 5)])
def test_flow_csv(tmp_path, n1, n2):
    rng = np.random.default_rng(n1 * 10 + n2)
    flow = FlowField(w1=values(rng, n1), w2=values(rng, n2),
                     dw1=values(rng, n2, n1), dw2=values(rng, n2, n1),
                     singular_points=[])
    runio.write_flow_csv(tmp_path / "f.csv", flow, MANIFEST)
    rows = [[a, b, flow.dw1[i, j], flow.dw2[i, j]]
            for i, b in enumerate(flow.w2) for j, a in enumerate(flow.w1)]
    expect = expected(["w1", "w2", "dw1", "dw2"], rows)
    assert (tmp_path / "f.csv").read_bytes() == expect


@pytest.mark.parametrize("n", ROW_COUNTS)
def test_distributions_csv(tmp_path, n):
    rng = np.random.default_rng(n)
    nodes = values(rng, n)
    grid = SimpleNamespace(nodes=lambda: nodes)
    report = SimpleNamespace(final_m=values(rng, n), final_w=values(rng, n))
    runio.write_distributions_csv(tmp_path / "d.csv", grid, report, MANIFEST)
    rows = zip(nodes, report.final_m, report.final_w)
    assert (tmp_path / "d.csv").read_bytes() == expected(["v", "m", "w"], rows)


@pytest.mark.parametrize("n", ROW_COUNTS)
@pytest.mark.parametrize("with_eps", [False, True])
def test_diagnostics_csv(tmp_path, n, with_eps):
    rng = np.random.default_rng(n)
    names = ["times", "V_mat", "V_cm", "V_cw", "Psi", "V_pol2", "F_m", "F_w"]
    report = SimpleNamespace(**{name: values(rng, n) for name in names},
                             eps_m=values(rng, n) if with_eps else None,
                             eps_w=values(rng, n) if with_eps else None)
    runio.write_diagnostics_csv(tmp_path / "g.csv", report, MANIFEST)
    nan = [float("nan")] * n
    rows = zip(*(getattr(report, name) for name in names),
               nan if report.eps_m is None else report.eps_m,
               nan if report.eps_w is None else report.eps_w)
    header = ["t", "V_mat", "V_cm", "V_cw", "Psi", "V_pol2",
              "F_m", "F_w", "eps_m", "eps_w"]
    assert (tmp_path / "g.csv").read_bytes() == expected(header, rows)


def test_repeated_values_across_chunks(tmp_path):
    """Equal-comparing values (0.0 and -0.0, nans of either sign) keep their own text."""
    repeats = np.tile([0.0, -0.0, np.nan, -np.nan, 1.5], 3)  # 15 rows, 4 chunks
    states = np.stack([repeats[::-1], -repeats], axis=1)
    runio.write_trajectory_csv(tmp_path / "r.csv", repeats, states, ["a", "b"], MANIFEST)
    rows = [[t, *row] for t, row in zip(repeats, states)]
    assert (tmp_path / "r.csv").read_bytes() == expected(["t", "a", "b"], rows)
