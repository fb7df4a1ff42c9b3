"""Golden digests: every run of the CLI table that writes still writes the
same payload bytes.

The runs are the :data:`cli_repros.RUNS`, each with its id, exit code and
output fragment; each with a config file runs under PyYAML's pure-Python
loader too, against the same digests.  Each artifact's payload is the file
without its manifest: a CSV below its ``# manifest:`` line, a JSON summary
without its ``"manifest"`` key.  Its SHA-256 is stored in
``tests/golden.json`` with the numpy version and machine that wrote it.  On
a host with that key the test compares digests; on any other, where
``np.correlate`` and ``np.dot`` may round differently, it compares a few
stored scalars per artifact within 1e-12 relative.  The error series are
the exception: on well-scaled runs each ε is a difference of near-equal
moments (at most 2.4e-12 on ``pbe-full``), so moments that move by rounding
move the sums of |ε| far past 1e-12.  There each ε column must equal
:func:`nondim.pbe.error_series` of its own file's t, V_c and F columns
instead.  The mode that ran is printed in the terminal summary.  A new
pinned run is one entry of :data:`cli_repros.RUNS`, which
``python tests/cli_repros.py`` also runs twice, comparing the bytes.

A change that moves payload bytes on purpose, or adds a run, regenerates
the file with ``PYTHONPATH=src python tests/test_golden.py`` and says so in
CHANGES.md.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import platform
import sys
from pathlib import Path

import conftest
import numpy as np
import pytest
from click.testing import CliRunner

from cli_repros import RUNS, Repro
from nondim import runio
from nondim.cli import main
from nondim.pbe import error_series

GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL = 1e-12

BY_ID = {repro.id: repro for repro in RUNS}


def host_key() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine()}


def payload(path: Path) -> bytes:
    """The artifact's bytes without its manifest."""
    data = path.read_bytes()
    if path.suffix == ".csv":
        first, _, rest = data.partition(b"\n")
        assert first.startswith(b"# manifest: "), path
        return rest
    document = json.loads(data)
    del document["manifest"]
    return json.dumps(document, indent=2, sort_keys=True).encode() + b"\n"


def scalars(path: Path, data: bytes) -> dict:
    """A few values of the payload: for a CSV its row count and, per numeric
    column, the sum of the finite |x|; for JSON every numeric leaf."""
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(data.decode()))
        out = {"rows": len(rows)}
        for j, name in enumerate(header):
            try:
                column = np.array([float(row[j]) for row in rows])
            except ValueError:
                continue  # a label column
            out[f"{name}.sum_abs"] = float(np.abs(column[np.isfinite(column)]).sum())
        return out
    out = {}

    def walk(prefix, value):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(f"{prefix}{key}.", item)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                walk(f"{prefix}{i}.", item)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[prefix[:-1]] = value

    walk("", json.loads(data))
    return out


def run(repro: Repro, tmp: Path) -> dict:
    """Run one entry in ``tmp``: each artifact's digest, scalars and payload
    (which golden.json does not store)."""
    result = CliRunner().invoke(main, repro.argv(tmp))
    assert repro.faults(tmp, result.exit_code, result.output) == [], result.output
    artifacts = {}
    for path in sorted((tmp / "out").iterdir()):
        data = payload(path)
        artifacts[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                "scalars": scalars(path, data), "payload": data}
    return artifacts


def check_error_series(name: str, data: bytes) -> None:
    """Each ε column of a ``pbe_diagnostics.csv`` payload equals
    :func:`error_series` of the same file's t, V_c and F columns, or is nan
    throughout where the series is absent."""
    header, *rows = csv.reader(io.StringIO(data.decode()))
    columns = dict(zip(header, np.array(rows, dtype=float).T))
    for phase in "mw":
        written = columns[f"eps_{phase}"]
        want = error_series(columns["t"], columns[f"V_c{phase}"], columns[f"F_{phase}"])
        assert (np.isnan(written).all() if want is None
                else np.array_equal(written, want)), f"{name}: eps_{phase} moved"


@pytest.fixture(scope="module")
def golden():
    stored = json.loads(GOLDEN.read_text())
    exact = stored["key"] == host_key()
    mode = "SHA-256 of each payload" if exact else "stored scalars within 1e-12 relative"
    conftest.GOLDEN_LINES.append(f"{mode} (host {host_key()}, stored {stored['key']})")
    return stored["commands"], exact


def compare(name: str, got: dict, expected: dict, exact: bool) -> None:
    assert sorted(got) == sorted(expected)
    for artifact, entry in expected.items():
        if exact:
            assert got[artifact]["sha256"] == entry["sha256"], f"{name}: {artifact} moved"
            continue
        values = got[artifact]["scalars"]
        assert sorted(values) == sorted(entry["scalars"]), f"{name}: {artifact}"
        for key, want in entry["scalars"].items():
            if key.startswith("eps_"):
                continue  # checked against the file's own moments below
            assert math.isclose(values[key], want, rel_tol=REL_TOL, abs_tol=0.0), (
                f"{name}: {artifact} {key} = {values[key]!r}, stored {want!r}")
        if artifact == "pbe_diagnostics.csv":
            check_error_series(name, got[artifact]["payload"])


@pytest.mark.parametrize("repro, loader", conftest.under_both_loaders(RUNS))
def test_artifacts_match_golden(golden, repro, loader, tmp_path, monkeypatch):
    if loader is not None:
        monkeypatch.setattr(runio, "YAML_LOADER", loader)
    commands, exact = golden
    compare(repro.id, run(repro, tmp_path), commands[repro.id], exact)


def test_scalar_fallback_catches_a_moved_value(golden, tmp_path):
    # The comparison another host runs, on CI's small truncation-guard run.
    commands, _ = golden
    got = run(BY_ID["pbe-guard"], tmp_path)
    compare("pbe-guard", got, commands["pbe-guard"], exact=False)
    scalars = got["pbe_summary.json"]["scalars"]
    written = scalars["max_eps_m"]
    scalars["max_eps_m"] = written * (1 + 1e-11)
    with pytest.raises(AssertionError, match="max_eps_m"):
        compare("pbe-guard", got, commands["pbe-guard"], exact=False)
    scalars["max_eps_m"] = written
    compare("pbe-guard", got, commands["pbe-guard"], exact=False)
    # A written eps_m, the last row's, moved by 1e-11 relative.
    diagnostics = got["pbe_diagnostics.csv"]
    *rows, last = diagnostics["payload"].decode().splitlines()
    cells = last.split(",")
    column = rows[0].split(",").index("eps_m")
    cells[column] = repr(float(cells[column]) * (1 + 1e-11))
    diagnostics["payload"] = "\n".join([*rows, ",".join(cells), ""]).encode()
    with pytest.raises(AssertionError, match="eps_m moved"):
        compare("pbe-guard", got, commands["pbe-guard"], exact=False)


def test_every_golden_entry_has_a_command(golden):
    commands, _ = golden
    assert sorted(commands) == sorted(BY_ID)


def write_golden(workdir: Path) -> None:
    """Run every entry of :data:`RUNS` under ``workdir`` and rewrite golden.json."""
    commands = {}
    for repro in RUNS:
        (workdir / repro.id).mkdir()
        commands[repro.id] = {artifact: {key: entry[key] for key in ("sha256", "scalars")}
                              for artifact, entry in run(repro, workdir / repro.id).items()}
    GOLDEN.write_text(json.dumps({"key": host_key(), "commands": commands},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        write_golden(Path(workdir))
    print(f"wrote {GOLDEN}", file=sys.stderr)
