"""Every benchmark input is a scenario the package accepts.

perfbench/workloads.py generates plain scenario mappings; a change to the
catalog or to scenario parsing that rejected one would fail the benchmark
only when it runs. The first round of each workload holds every task family
it draws from. The generator is loaded from its file and only read.
"""

import importlib.util
import pathlib

import pytest

from wavetraj.scenario import parse_scenario

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["integrate", "gpw_certify"])
def test_the_first_round_of_each_workload_parses(workload):
    workloads = _workloads()
    assert workload in workloads.WORKLOADS
    tasks = workloads.generate(workload, 7)[:workloads.round_length(workload)]
    families = set()
    for task in tasks:
        sc = parse_scenario(task.raw)
        assert sc.name == task.name
        families.add(task.family)
    assert len(families) >= 4
