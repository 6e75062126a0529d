"""The benchmark's traced run fails when a layer it expects records no
spans, for instance after a library function stops calling another through
its module attribute.  Run every workload small and traced, so that such a
change fails here too and not only in the benchmark."""

import importlib.util
import pathlib

import pytest

_RUN = pathlib.Path(__file__).resolve().parents[1] / "bench" / "run.py"


def _load_bench_run():
    spec = importlib.util.spec_from_file_location("rootatlas_bench_run", _RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_run = _load_bench_run()


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_workload_reports_no_failures(workload):
    result = bench_run.run(workload, seed=1, seconds=0, trace=1, small=True)
    assert result["details"]["failures"] == []
    assert result["correct"]
