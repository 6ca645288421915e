"""Examples are importable and expose a main() (cheap smoke check).

Importing them catches syntax errors, missing modules and API drift at
module level without executing the workloads (every example guards
execution behind ``if __name__ == "__main__"``). A call that drifts
inside an example's body only fails when the example runs: CI's tier-1
job runs each one end to end (about a second each).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports_and_has_main(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.modules.pop(spec.name, None)
    assert callable(getattr(module, "main", None)), f"{path.name} needs a main()"


def test_there_are_at_least_seven_examples():
    assert len(EXAMPLES) >= 7
