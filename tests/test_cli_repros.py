"""The CLI table (``tests/cli_repros.py``) is well formed, its rules catch
what they should, and its single entries pass, each with a config file
under both YAML loaders."""

import pytest

from cli_repros import REPROS, RUNS, SINGLES, Repro, invoke, mismatches
from conftest import under_both_loaders
from nondim import runio
from nondim.cli import EXIT_CODES


def test_table_is_well_formed():
    ids = [repro.id for repro in REPROS]
    assert len(ids) == len(set(ids))
    assert {repro.code for repro in REPROS} <= {0, 4, *EXIT_CODES.values()}
    assert {repro.code for repro in RUNS} <= {0, 4}
    assert [repro.id for repro in REPROS if repro.code in (0, 4) and repro not in RUNS] == []


def test_a_writing_entry_that_writes_nothing_fails():
    assert invoke(Repro("help", "scale --help", 0, "Usage"))[0] == "help: no --out written"


def test_mismatches_name_each_file_that_differs(tmp_path):
    first, second = tmp_path / "out", tmp_path / "out.2"
    for directory in (first, second):
        directory.mkdir()
        for name in ("a.csv", "b.json"):
            (directory / name).write_bytes(b"1,2\n")
    assert mismatches(first, second) == []
    (second / "a.csv").write_bytes(b"1,3\n")
    (second / "b.json").unlink()
    (second / "c.csv").write_bytes(b"")
    assert mismatches(first, second) == [
        "a.csv: bytes differ", "b.json: missing from out.2", "c.csv: missing from out"]


@pytest.mark.parametrize("repro, loader", under_both_loaders(SINGLES))
def test_repro(repro, loader, monkeypatch):
    if loader is not None:
        monkeypatch.setattr(runio, "YAML_LOADER", loader)
    assert invoke(repro) == []
