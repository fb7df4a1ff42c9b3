"""The CSV writers' memory is bounded by a chunk of rows, not by the file."""

import tracemalloc

import numpy as np

from nondim import runio

MANIFEST = runio.RunManifest("test", {"k": 1}, 0, version="0")


def test_trajectory_write_peak_is_independent_of_row_count(tmp_path):
    # 100,000 rows of three distinct-valued float columns are 2.4 MB of
    # data; formatting them a chunk at a time holds about half a megabyte.
    rows = 100_000
    rng = np.random.default_rng(0)
    times, states = np.linspace(0.0, 1.0, rows), rng.standard_normal((rows, 2))
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        runio.write_trajectory_csv(path, times, states, ["a", "b"], MANIFEST)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert path.read_text().count("\n") == rows + 2
    assert peak < 2_000_000, peak
