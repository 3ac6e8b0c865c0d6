"""The benchmark's seed-0 inputs run through `gravlink run` and pass its output checks.

perfbench/workloads.py writes the inputs (its CPF through EphemerisRecord,
EphemerisTable(records=...) and serialize_cpf) and checks the outputs,
pass_analytic's and pass_ephemeris's against the seed-0 reference s to
1e-8 rad. It is imported as the benchmark imports it, unchanged.
"""

import importlib
from pathlib import Path

import pytest

from gravlink import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = ("pass_analytic", "pass_ephemeris", "forecast", "weak_scan")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def test_every_workload_is_covered(workloads):
    assert workloads.WORKLOADS == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_0_run_passes_the_output_check(workloads, workload, tmp_path, monkeypatch):
    inputs = workloads.generate(workload, 0, tmp_path / "inputs")
    out = tmp_path / "out"
    monkeypatch.setenv("GRAVLINK_OUTPUT_DIR", str(out))
    assert cli.main(["run", str(inputs.config)]) == 0
    assert workloads.check(inputs, out) == []
