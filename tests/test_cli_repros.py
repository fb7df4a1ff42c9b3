"""The CLI repro table (``tests/cli_repros.py``) is well formed, and its single
entries pass, each with a config file under both YAML loaders."""

import pytest
import yaml

from cli_repros import REPROS, SINGLES, invoke
from nondim import runio
from nondim.cli import EXIT_CODES


def test_table_is_well_formed():
    ids = [repro.id for repro in REPROS]
    assert len(ids) == len(set(ids))
    assert {repro.code for repro in REPROS} <= {0, 4, *EXIT_CODES.values()}
    assert [repro.id for repro in REPROS if repro.out and repro.code not in (0, 4)] == []


@pytest.mark.parametrize("repro, loader", [
    pytest.param(repro, loader, id=repro.id + suffix)
    for repro in SINGLES
    for loader, suffix in ((None, ""), (yaml.SafeLoader, "-pure-yaml"))
    if loader is None or repro.config is not None
])
def test_repro(repro, loader, monkeypatch):
    if loader is not None:
        monkeypatch.setattr(runio, "YAML_LOADER", loader)
    assert invoke(repro) == []
