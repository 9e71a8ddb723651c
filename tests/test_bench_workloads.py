"""The benchmark's own output checks (perfbench/workloads.py) run here too,
so a change that breaks one fails the suite, not only a benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("seed", [0, 101])
@pytest.mark.parametrize("cls", WORKLOADS.Workload.__subclasses__(), ids=lambda cls: cls.name)
def test_one_pass_of_every_job_passes_its_check(tmp_path, cls, seed):
    workload = cls(seed)
    workload.setup(tmp_path)
    for k, job in enumerate(workload.jobs):
        problems, _margins = job.check(job.run(tmp_path / f"job{k}"))
        assert problems == [], f"{cls.name} seed {seed}, job {job.name}: {problems}"
