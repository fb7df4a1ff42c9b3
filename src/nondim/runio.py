"""Configuration ingestion and artifact emission.

Every artifact embeds the :class:`RunManifest` of the command that produced
it — as a ``#``-prefixed header line in CSV files and under the
``"manifest"`` key in JSON summaries — so a run can be reproduced from any
of its outputs.  All numeric output uses full-precision scientific
notation (``repr`` round-trippable), and nothing volatile (timestamps,
hostnames) enters the artifacts, so identical manifests produce
byte-identical payloads.  Each writer makes its file's directory first, so
the ``--out`` directory exists only once a command writes an artifact.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError
from .models import LATEX_LABELS, LatexConstants
from .pbe import MAX_GRID_N, MIN_GRID_N, SERIES, Grid, LatexCoefficients, SimulationReport
from .scaling import EnumerationResult, Monomial, ScalingProblem, ScalingSolution, factor_column
from .scenarios import FULL, LatexScenario

SUMMARY_SCHEMA_VERSION = 1

#: Rows of a CSV file formatted and written at a time.
CSV_CHUNK = 1024

#: libyaml's parser under PyYAML's safe constructor and resolver, which
#: builds the same objects as ``yaml.SafeLoader`` about seven times faster;
#: the pure-Python loader only where PyYAML was built without libyaml.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class RunManifest:
    """What produced an artifact: command, resolved options, seed, version."""

    command: str
    config: dict
    seed: int
    version: str = __version__

    def header_line(self) -> str:
        return "# manifest: " + json.dumps(asdict(self), sort_keys=True)


# ---------------------------------------------------------------------------
# configuration loading


def _read_yaml(path, kind: str):
    """The YAML document at ``path``, parsed by :data:`YAML_LOADER`;
    :class:`ConfigError` if it will not read."""
    try:
        with open(path) as fh:
            return yaml.load(fh, Loader=YAML_LOADER)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read {kind} file {path}: {exc}") from exc


def load_problem(path) -> ScalingProblem:
    """Read a scaling problem from YAML.

    Expected shape::

        factors: [name, ...]
        monomials:
          - {label: str, kappa: float, exponents: [float, ...], target: 0.0}

    A missing, unknown or non-numeric key raises :class:`ConfigError`
    naming it; values outside the problem's domain, a non-finite kappa,
    exponent or target among them, raise :class:`DomainError` naming the
    monomial and the field.
    """
    data = _read_yaml(path, "problem")
    _check_keys(path, data, "", ("factors", "monomials"))
    factors = _list(path, "factors", data["factors"])
    monomials = []
    for i, entry in enumerate(_list(path, "monomials", data["monomials"])):
        where = f"monomials[{i}]"
        _check_keys(path, entry, where, ("label", "kappa", "exponents"), ("target",))
        exponents = _list(path, f"{where}.exponents", entry["exponents"])
        monomials.append(Monomial(
            label=str(entry["label"]),
            kappa=_number(path, f"{where}.kappa", entry["kappa"]),
            exponents=tuple(_number(path, f"{where}.exponents[{j}]", a)
                            for j, a in enumerate(exponents)),
            target=_number(path, f"{where}.target", entry.get("target", 0.0)),
        ))
    return ScalingProblem(factor_names=tuple(str(name) for name in factors),
                          monomials=tuple(monomials))


def _check_keys(path, mapping, where: str, required, optional=()) -> None:
    """Raise :class:`ConfigError` unless ``mapping`` is a mapping holding every
    ``required`` key and no key outside ``required`` and ``optional``.

    ``where`` names the mapping in the file ("" for the top level); the
    error names each missing and unknown key under it.
    """
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: {where or 'top level'} must be a mapping")
    prefix = f"{where}." if where else ""
    bad = [f"missing {prefix}{key}" for key in required if key not in mapping]
    bad += [f"unknown {prefix}{key}" for key in mapping
            if key not in required and key not in optional]
    if bad:
        raise ConfigError(f"{path}: " + ", ".join(bad))


def _list(path, key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{path}: {key} must be a list, got {value!r}")
    return value


def _number(path, key: str, value) -> float:
    """``value`` as a float; YAML's ``yes``, ``no``, ``true`` and the like
    read as bools, which are refused rather than taken as 1 and 0."""
    if isinstance(value, bool):
        raise ConfigError(f"{path}: {key} must be a number, got {value!r}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{path}: {key} must be a number, got {value!r}") from exc


def _integer(path, key: str, value) -> int:
    number = _number(path, key, value)
    if not number.is_integer():
        raise ConfigError(f"{path}: {key} must be an integer, got {value!r}")
    return int(number)


def _section(path, data: dict, key: str, names) -> dict:
    """The numbers under ``data[key]``, which must hold exactly ``names``."""
    _check_keys(path, data[key], key, names)
    return {name: _number(path, f"{key}.{name}", data[key][name]) for name in names}


def load_lambda_config(path) -> LatexScenario:
    """Read an explicit coefficient scenario from YAML.

    Expected shape::

        lambdas: {a_m: float, ..., p_mat: float}   # the 19 by label
        constants: {Phi_s: float, Psi_bar: float, Psi_r: float}
        sigma_c: float        # optional, defaults to lambdas[c] / FULL["sigma_rule"]
        grid: {N: int, v_max: float}
        t_max: float

    Returns a :class:`LatexScenario` tagged ``"explicit"``; the file fixes
    no step count, which is the caller's to give.  A missing, unknown or
    non-numeric key, a ``grid.N`` that is not an integer or lies outside
    [MIN_GRID_N, MAX_GRID_N], or a ``grid.v_max`` that is not positive and
    finite raises :class:`ConfigError` naming it; coefficients outside the
    model's domain, non-finite ones and ``sigma_c <= 0`` among them, raise
    :class:`DomainError`, and so does a ``t_max`` outside (0, inf) once
    simulate() is given it.
    """
    data = _read_yaml(path, "scenario")
    _check_keys(path, data, "", ("lambdas", "constants", "grid", "t_max"),
                ("sigma_c",))
    lambdas = _section(path, data, "lambdas", LATEX_LABELS)
    constants = _section(path, data, "constants", ("Phi_s", "Psi_bar", "Psi_r"))
    grid_spec = _section(path, data, "grid", ("N", "v_max"))
    n = _integer(path, "grid.N", grid_spec["N"])
    if not MIN_GRID_N <= n <= MAX_GRID_N:
        raise ConfigError(f"{path}: grid.N must be in [{MIN_GRID_N}, {MAX_GRID_N}], got {n}")
    v_max = grid_spec["v_max"]
    if not 0.0 < v_max < math.inf:
        raise ConfigError(f"{path}: grid.v_max must be > 0 and finite, got {v_max!r}")
    sigma_c = _number(path, "sigma_c", data.get("sigma_c", lambdas["c"] / FULL["sigma_rule"]))
    coeffs = LatexCoefficients.from_labels(lambdas, LatexConstants(**constants), sigma_c)
    grid = Grid.from_vmax(n, v_max)
    t_max = _number(path, "t_max", data["t_max"])
    return LatexScenario("explicit", coeffs, grid, t_max)


# ---------------------------------------------------------------------------
# artifact writers


#: Characters that make ``csv.writer``'s default dialect quote a cell.
_CSV_SPECIAL = ',"\r\n'


def _needs_quoting(text: str) -> bool:
    return any(char in text for char in _CSV_SPECIAL)


def _quote(cell: str) -> str:
    """``cell`` as ``csv.writer``'s default dialect (QUOTE_MINIMAL) writes it:
    quoted, with its quotes doubled, if it holds a :data:`_CSV_SPECIAL`
    character, else as given."""
    if not _needs_quoting(cell):
        return cell
    return '"' + cell.replace('"', '""') + '"'


def _cells(column) -> list:
    """One slice of a column, as the text of its cells.

    A float array's cells are ``repr(float(v))``, which never needs
    quoting; its distinct values, told apart by bit pattern (so ``-0.0``
    and ``0.0`` stay distinct, and every nan of one pattern is formatted
    once), are each formatted once.  A list of strings goes through
    :func:`_quote`, or is passed as it is when its joined text holds no
    :data:`_CSV_SPECIAL` character, with one search in place of one per
    cell.
    """
    if not isinstance(column, np.ndarray):
        return column if not _needs_quoting("".join(column)) else [*map(_quote, column)]
    bits, index = np.unique(np.ascontiguousarray(column, dtype=float).view(np.uint64),
                            return_inverse=True)
    return np.array([*map(repr, bits.view(float).tolist())], dtype=object)[index].tolist()


def _create(path, **options):
    """``path`` opened for writing, after making its directory."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", **options)


def _write_csv(path, manifest: RunManifest, header, columns) -> None:
    """Manifest line, header, then one row per entry of the columns.

    A column is a float array or a list of strings, all of one length.
    The header and each row are their cells, quoted by :func:`_quote`,
    joined by ``,`` and ended by ``\\r\\n``: what ``csv.writer``'s default
    dialect writes for them.  The rows are formatted (see :func:`_cells`)
    and written :data:`CSV_CHUNK` at a time, so neither the file nor a
    column's text is ever held whole in memory.
    """
    with _create(path, newline="") as fh:
        fh.write(manifest.header_line() + "\n")
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, len(columns[0]), CSV_CHUNK):
            chunk = [_cells(column[start:start + CSV_CHUNK]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*chunk))) + "\r\n")


def write_solution_csv(
    path, problem: ScalingProblem, solution: ScalingSolution, manifest: RunManifest
) -> None:
    """One row: method, cost, ratio, factors, coefficients."""
    values = np.concatenate([[solution.cost, solution.ratio], solution.theta, solution.lambdas])
    _write_csv(
        path, manifest,
        ["method", "cost", "ratio", *map(factor_column, problem.factor_names)]
        + [f"lambda_{label}" for label in problem.labels],
        [[solution.method_tag], *values[:, None]],
    )


def write_enumeration_csv(
    path, problem: ScalingProblem, result: EnumerationResult, manifest: RunManifest
) -> None:
    """All solvable subsets sorted by ratio, then factor values per row."""
    labels = np.array(problem.labels, dtype=object)
    subsets = [*map(";".join, labels[result.subsets].tolist())]
    _write_csv(
        path, manifest,
        ["subset", "ratio", "cost", *map(factor_column, problem.factor_names)],
        [subsets, result.ratio, result.cost, *(10.0**result.rho).T],
    )


def write_trajectory_csv(path, times, states, columns, manifest: RunManifest) -> None:
    """Time series of an ODE solve, one state component per column."""
    states = np.atleast_2d(np.asarray(states, dtype=float).T)
    _write_csv(path, manifest, ["t"] + list(columns), [times, *states])


def write_flow_csv(path, flow, manifest: RunManifest) -> None:
    """Lattice samples of the phase-plane tangent field (NaN at poles), w1 fastest."""
    n1, n2 = len(flow.w1), len(flow.w2)
    _write_csv(
        path, manifest, ["w1", "w2", "dw1", "dw2"],
        [np.tile(flow.w1, n2), np.repeat(flow.w2, n1),
         np.ravel(flow.dw1), np.ravel(flow.dw2)],
    )


def write_distributions_csv(path, grid, report: SimulationReport, manifest: RunManifest) -> None:
    """Final distributions m and w over the volume grid."""
    _write_csv(path, manifest, ["v", "m", "w"],
               [grid.nodes(), report.final_m, report.final_w])


def write_diagnostics_csv(path, report: SimulationReport, manifest: RunManifest) -> None:
    """Sampled series (:data:`~nondim.pbe.SERIES`) and error series, nan
    where an error series is absent."""
    nan = np.full(len(report.times), np.nan)
    _write_csv(
        path, manifest, ["t", *SERIES, "eps_m", "eps_w"],
        [report.times, *(getattr(report, name) for name in SERIES),
         *(nan if eps is None else eps for eps in (report.eps_m, report.eps_w))],
    )


def write_summary_json(path, payload: dict, manifest: RunManifest) -> None:
    """Run summary with the manifest embedded; keys sorted for stability."""
    document = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "manifest": asdict(manifest),
        **payload,
    }
    with _create(path) as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
