"""The benchmark's checks accept real artifacts and reject corrupted ones.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import CheckError, read_columns, check_command  # noqa: E402
from nondim.cli import main  # noqa: E402
from worker import invoke  # noqa: E402
from workloads import Command  # noqa: E402

#: A short well-scaled run: the desk grid over the first 20 s.
SHORT_PBE = Command("pbe", ["pbe", "--theta", "eucl", "--desk",
                            "--t-horizon", "20", "--steps", "200"],
                    "pbe_well", {"theta": "eucl"})
ENUMERATE = Command("enumerate", ["enumerate", "--preset", "schrodinger"],
                    "enumeration", {"preset": "schrodinger"})


def _run(cmd: Command, out: Path) -> Path:
    assert invoke(main, cmd.args, out) == 0
    return out


@pytest.fixture(scope="module")
def pbe_run(tmp_path_factory):
    return _run(SHORT_PBE, tmp_path_factory.mktemp("pbe"))


@pytest.fixture(scope="module")
def enumeration_run(tmp_path_factory):
    return _run(ENUMERATE, tmp_path_factory.mktemp("enumerate"))


def _copy(src: Path, tmp_path: Path) -> Path:
    out = tmp_path / "copy"
    shutil.copytree(src, out)
    return out


def _edit_csv(path: Path, row: int, column: str, edit) -> None:
    """Replace one field (data row ``row``, 0-based) by ``edit(old_value)``."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    fields = lines[2 + row].split(",")
    fields[header.index(column)] = edit(fields[header.index(column)])
    lines[2 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def test_short_pbe_run_passes(pbe_run):
    check_command(SHORT_PBE, pbe_run, 0)


def test_nonzero_exit_is_rejected(pbe_run):
    with pytest.raises(CheckError, match="exited with code 4"):
        check_command(SHORT_PBE, pbe_run, 4)


def test_negative_node_in_m_is_rejected(pbe_run, tmp_path):
    out = _copy(pbe_run, tmp_path)
    peak = read_columns(out / "pbe_distributions.csv")[1]["m"].max()
    _edit_csv(out / "pbe_distributions.csv", 30, "m", lambda v: repr(-1e-7 * float(peak)))
    with pytest.raises(CheckError, match="min m"):
        check_command(SHORT_PBE, out, 0)


def test_moved_psi_sample_is_rejected(pbe_run, tmp_path):
    out = _copy(pbe_run, tmp_path)
    _edit_csv(out / "pbe_diagnostics.csv", 50, "Psi",
              lambda v: repr(float(v) * (1.0 + 1e-7)))
    with pytest.raises(CheckError, match="Psi"):
        check_command(SHORT_PBE, out, 0)


def test_contrast_check_rejects_a_non_negative_run(pbe_run):
    contrast = Command("pbe", [], "pbe_contrast", {"theta": "eucl"})
    with pytest.raises(CheckError, match="not below"):
        check_command(contrast, pbe_run, 0)


def test_enumeration_passes(enumeration_run):
    check_command(ENUMERATE, enumeration_run, 0)


def test_row_with_forced_coefficient_off_one_is_rejected(enumeration_run, tmp_path):
    out = _copy(enumeration_run, tmp_path)
    _edit_csv(out / "enumeration.csv", 2, "theta_alpha0",
              lambda v: repr(float(v) * 1.001))
    with pytest.raises(CheckError, match="row 3: forced coefficients are not 1"):
        check_command(ENUMERATE, out, 0)
