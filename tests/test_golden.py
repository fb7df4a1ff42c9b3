"""Golden digests: every pinned command still writes the same payload bytes.

Each artifact's payload is the file without its manifest: a CSV below its
``# manifest:`` line, a JSON summary without its ``"manifest"`` key.  Its
SHA-256 is stored in ``tests/golden.json`` with the numpy version and
machine that wrote it.  On a host with that key the test compares digests;
on any other, where ``np.correlate`` and ``np.dot`` may round differently,
it compares a few stored scalars per artifact within 1e-12 relative.  The
mode that ran is printed in the terminal summary.

A change that moves payload bytes on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden.py`` and says so in CHANGES.md.
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

from nondim.cli import main

GOLDEN = Path(__file__).with_name("golden.json")
REL_TOL = 1e-12

#: The pinned commands: the shipped PBE runs, CI's truncation-guard run, the
#: benchmark's contrast and full runs, and the toolkit commands.
COMMANDS = {
    "pbe-desk": ["pbe", "--theta", "eucl", "--desk"],
    "pbe-test": ["pbe", "--theta", "test"],
    "pbe-steps-250": ["pbe", "--steps", "250"],
    "pbe-guard": ["pbe", "--theta", "eucl", "--nodes", "16", "--v-window", "0.1e-16",
                  "--t-horizon", "250"],
    "pbe-contrast": ["pbe", "--theta", "test", "--nodes", "300", "--v-window", "0.7e-16",
                     "--t-horizon", "23.475", "--steps", "1200", "--sigma-rule", "10"],
    "pbe-full": ["pbe", "--theta", "eucl", "--full", "--t-horizon", "8.0",
                 "--steps", "80", "--sigma-rule", "25"],
    "enumerate-latex": ["enumerate", "--preset", "latex"],
    **{f"scale-{preset}": ["scale", "--preset", preset]
       for preset in ("projectile", "schrodinger", "ldg", "latex")},
    **{f"anneal-{preset}": ["--seed", "0", "scale", "--preset", preset,
                            "--method", "anneal-max"]
       for preset in ("latex", "projectile")},
    "projectile-roundtrip": ["projectile", "--roundtrip"],
}


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


def run(name: str, out: Path) -> dict:
    """Run one pinned command into ``out``: each artifact's digest and scalars."""
    result = CliRunner().invoke(main, ["--out", str(out), *COMMANDS[name]])
    assert result.exit_code == 0, result.output
    artifacts = {}
    for path in sorted(out.iterdir()):
        data = payload(path)
        artifacts[path.name] = {"sha256": hashlib.sha256(data).hexdigest(),
                                "scalars": scalars(path, data)}
    return artifacts


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
            assert math.isclose(values[key], want, rel_tol=REL_TOL, abs_tol=0.0), (
                f"{name}: {artifact} {key} = {values[key]!r}, stored {want!r}")


@pytest.mark.parametrize("name", list(COMMANDS))
def test_artifacts_match_golden(golden, name, tmp_path):
    commands, exact = golden
    compare(name, run(name, tmp_path), commands[name], exact)


def test_scalar_fallback_catches_a_moved_value(golden, tmp_path):
    # The comparison another host runs, on CI's small truncation-guard run.
    commands, _ = golden
    got = run("pbe-guard", tmp_path)
    compare("pbe-guard", got, commands["pbe-guard"], exact=False)
    scalars = got["pbe_summary.json"]["scalars"]
    scalars["max_eps_m"] *= 1 + 1e-11
    with pytest.raises(AssertionError, match="max_eps_m"):
        compare("pbe-guard", got, commands["pbe-guard"], exact=False)


def test_every_golden_entry_has_a_command(golden):
    commands, _ = golden
    assert sorted(commands) == sorted(COMMANDS)


def write_golden(workdir: Path) -> None:
    """Run every pinned command under ``workdir`` and rewrite golden.json."""
    commands = {name: run(name, workdir / name) for name in COMMANDS}
    GOLDEN.write_text(json.dumps({"key": host_key(), "commands": commands},
                                 indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        write_golden(Path(workdir))
    print(f"wrote {GOLDEN}", file=sys.stderr)
