"""The benchmark's seed-0 ``--quick`` jobs, run through the CLI in process and
checked by the benchmark's own output checks (``perfbench/checks.py``)
against its stored quick reference, so a change that would fail the
benchmark's gate fails here first.  The provenance line of every file they
write must re-resolve to the same configuration."""

import json

import pytest

from eoscatter.cli import main
from eoscatter.config import resolve_config


@pytest.mark.parametrize("workload", ["run", "mms", "stability"])
def test_quick_benchmark_jobs_pass_the_benchmark_checks(bench_module, tmp_path,
                                                        workload):
    workloads, checks = bench_module("workloads"), bench_module("checks")
    for job in workloads.jobs(workload, 0, quick=True):
        cfg = job["config"]
        path = tmp_path / f"{job['name']}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / job["name"]
        rc = main([cfg["mode"], str(path), "--out", str(out)])
        ref = checks.load_reference("quick", workload, job["name"])
        assert ref is not None, job["name"]
        assert checks.check_job(cfg, out, rc, ref) == [], job["name"]
        for csv in sorted(out.glob("*.csv")):
            prov = json.loads(csv.read_text().partition("\n")[0][2:])
            assert resolve_config(prov).provenance() == prov, csv.name
