import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench_module():
    """Import a module of the benchmark (``perfbench/``) by name, read-only:
    its modules import each other by bare name, so the directory is on the
    path while the test module runs."""
    sys.path.insert(0, str(BENCH))
    try:
        yield importlib.import_module
    finally:
        sys.path.remove(str(BENCH))
