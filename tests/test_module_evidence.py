"""Every module under ``src/repro/`` names its evidence.

A module is kept only if something that runs reaches it: the CLI
(``repro/cli.py``) or a bench, test or example file EXPERIMENTS.md
cites.  The check is a static walk of the import graph with :mod:`ast`
(nothing is imported), function-level imports included:

* ``import a.b.c`` and ``from a.b import c`` (``c`` a submodule) reach
  ``a.b.c``; the enclosing packages' files are loaded but their own
  imports are not followed.
* ``import a.b`` (``a.b`` a package) and ``from a.b import name``
  (``name`` not a submodule) import the package by name, so its
  ``__init__``'s imports are followed.
* A cited file under a directory with a ``conftest.py`` also loads that
  ``conftest.py``, as pytest does.

DESIGN.md §3 is one table, ``module | role | evidence``, with a row for
exactly the files on disk.  Evidence is a CLI verb (``repro run``) or
a file EXPERIMENTS.md cites, and a cited file must itself reach the
module it vouches for.
"""

from __future__ import annotations

import ast
import functools
import re
from collections import deque
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
CLI = PACKAGE / "cli.py"
EXEMPT = {"__main__.py"}


def _module_file(name: str) -> Path | None:
    """The file defining module ``name``, looked up under src/ then the root."""
    for base in (SRC, ROOT):
        stem = base.joinpath(*name.split("."))
        if stem.with_suffix(".py").is_file():
            return stem.with_suffix(".py")
        if (stem / "__init__.py").is_file():
            return stem / "__init__.py"
    return None


def _is_package(path: Path) -> bool:
    return path.name == "__init__.py"


@functools.cache
def _imports(path: Path) -> frozenset[tuple[str, bool]]:
    """``(module, by_name)`` pairs for every import statement in ``path``.

    ``by_name`` is true when a package is imported by name, i.e. when its
    ``__init__``'s own imports come along.
    """
    found: set[tuple[str, bool]] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add((alias.name, True))
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            for alias in node.names:
                sub = f"{node.module}.{alias.name}"
                if _module_file(sub) is not None:
                    found.add((sub, False))
                else:
                    found.add((node.module, True))
    return frozenset(found)


def reached_from(seeds: list[Path]) -> set[Path]:
    """Every local file the import walk reaches from ``seeds``."""
    reached: set[Path] = set()
    followed: set[Path] = set()
    queue = deque(seeds)
    for seed in seeds:
        conftest = seed.parent / "conftest.py"
        if conftest.is_file():
            queue.append(conftest)
    while queue:
        path = queue.popleft()
        if path in followed:
            continue
        followed.add(path)
        reached.add(path)
        for name, by_name in _imports(path):
            target = _module_file(name)
            if target is None:
                continue
            parts = name.split(".")
            for depth in range(1, len(parts)):
                parent = _module_file(".".join(parts[:depth]))
                if parent is not None:
                    reached.add(parent)
            if _is_package(target) and not by_name:
                reached.add(target)
            else:
                queue.append(target)
    return reached


def cited_files() -> dict[str, Path]:
    """Backticked ``.py`` paths in EXPERIMENTS.md, resolved to files."""
    text = (ROOT / "EXPERIMENTS.md").read_text()
    cited: dict[str, Path] = {}
    for ref in re.findall(r"`([\w/]+\.py)`", text):
        for base in (ROOT, ROOT / "benchmarks"):
            if (base / ref).is_file():
                cited[ref] = base / ref
                break
        else:
            raise AssertionError(f"EXPERIMENTS.md cites {ref}, which does not exist")
    return cited


def cli_verbs() -> set[str]:
    """Top-level verbs registered by ``repro/cli.py``."""
    tree = ast.parse(CLI.read_text())
    verbs = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "add_parser"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "sub"
            and node.args
            and isinstance(node.args[0], ast.Constant)
        ):
            verbs.add(node.args[0].value)
    return verbs


def design_table() -> dict[str, str]:
    """DESIGN.md §3's rows: module path (relative to src/repro) -> evidence."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 3.", 1)[1].split("\n## ", 1)[0]
    rows: dict[str, str] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 3 or not cells[0].startswith("`"):
            continue
        module = cells[0].strip("`")
        assert module not in rows, f"DESIGN.md §3 lists {module} twice"
        rows[module] = cells[2]
    return rows


def modules_on_disk() -> set[str]:
    return {path.relative_to(PACKAGE).as_posix() for path in PACKAGE.rglob("*.py")}


def test_every_module_is_reached_from_the_cli_or_a_cited_file() -> None:
    reached = reached_from([CLI, *cited_files().values()])
    unreached = sorted(
        module
        for module in modules_on_disk()
        if module not in EXEMPT and PACKAGE / module not in reached
    )
    assert not unreached, (
        "modules nothing runs (not reached from repro/cli.py or any file "
        f"EXPERIMENTS.md cites): {unreached}"
    )


def test_design_table_matches_the_tree() -> None:
    rows = set(design_table())
    on_disk = modules_on_disk()
    assert not rows - on_disk, f"DESIGN.md §3 lists missing: {sorted(rows - on_disk)}"
    assert not on_disk - rows, f"DESIGN.md §3 omits: {sorted(on_disk - rows)}"


def test_every_design_row_names_evidence_that_reaches_it() -> None:
    verbs = cli_verbs()
    cited = cited_files()
    from_cli = reached_from([CLI])
    for module, evidence in design_table().items():
        tokens = re.findall(r"`([^`]+)`", evidence)
        assert tokens, f"DESIGN.md §3: {module} names no evidence"
        for token in tokens:
            if token.startswith("repro "):
                verb = token.split()[1]
                assert verb in verbs, f"{module}: `{token}` is not a CLI verb"
                reaches = from_cli
            else:
                assert token in cited, f"{module}: {token} is not in EXPERIMENTS.md"
                reaches = reached_from([cited[token]])
            if module not in EXEMPT:
                assert PACKAGE / module in reaches, f"`{token}` does not reach {module}"
