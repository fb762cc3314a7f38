"""Every example imports cleanly.

Each ``examples/*.py`` runs its walkthrough only under a ``__main__``
guard, so loading it executes just its imports and definitions: a
deleted or renamed library name breaks this test, not a reader's first
run.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=[p.stem for p in EXAMPLES])
def test_example_imports(path: Path) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None)), f"{path.name} has no main()"
