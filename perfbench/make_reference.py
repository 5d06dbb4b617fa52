"""Regenerate ``reference.json``, the seed-0 outputs the checks compare with.

    python3 perfbench/make_reference.py

Runs every workload's seed-0 jobs, full size and quick, through
``eoscatter.cli.main`` and keeps a summary of each job's outputs
(``checks.summarize``).  Run it only when the program's numbers are meant to
change, and say so in the change that commits the new file.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from checks import REFERENCE, check_job, summarize  # noqa: E402
from workloads import WORKLOADS, jobs  # noqa: E402


def main() -> int:
    from eoscatter.cli import main as eos

    reference = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for size in ("full", "quick"):
            for workload in WORKLOADS:
                for job in jobs(workload, 0, quick=size == "quick"):
                    cfg = job["config"]
                    base = Path(tmp) / size / workload / job["name"]
                    base.mkdir(parents=True)
                    (base / "config.json").write_text(json.dumps(cfg))
                    rc = eos([cfg["mode"], str(base / "config.json"),
                              "--out", str(base / "out")])
                    fails = check_job(cfg, base / "out", rc)
                    if fails:
                        print(f"{size} {workload} {job['name']}: {fails}")
                        return 1
                    reference.setdefault(size, {}).setdefault(workload, {})[
                        job["name"]] = summarize(cfg, base / "out")
                    print(f"{size} {workload} {job['name']}: ok", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
