"""Every settable config value names its caller.

A leaf field of a dataclass in :mod:`repro.config` (a field that is not
itself a config class) is kept only if

1. something in ``src/`` outside ``config.py`` reads it as an
   attribute, and
2. a config-class call in ``src/`` or ``benchmarks/`` sets it by
   keyword — ``tests/`` and ``examples/`` do not count — or it is one
   of the on/off toggles the robustness ablation turns off.

A value nothing sets belongs beside the code that reads it, as a module
constant.  DESIGN.md §8 is one table, ``knob | set by``, with a row for
exactly these fields; each caller it names must set that field.  The
check is a static walk with :mod:`ast` (only ``repro.config`` is
imported).
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from pathlib import Path

import repro.config

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIG = SRC / "repro" / "config.py"

#: The ROADMAP item that rules on the robustness mechanisms by ablation.
ABLATION_ITEM = "Robustness mechanisms earn their place by ablation"
#: On/off values that item turns off; kept settable until it rules.
ABLATION_TOGGLES = {
    "ResilienceConfig.enabled",
    "ResilienceConfig.max_attempts",
    "ResilienceConfig.quarantine_after_opens",
    "OperatingModeConfig.enabled",
}


def config_classes() -> dict[str, type]:
    return {
        name: obj
        for name, obj in vars(repro.config).items()
        if dataclasses.is_dataclass(obj)
        and isinstance(obj, type)
        and obj.__module__ == repro.config.__name__
    }


def leaf_fields() -> set[str]:
    """``Class.field`` for every field that is not a nested config."""
    classes = set(config_classes().values())
    return {
        f"{name}.{f.name}"
        for name, cls in config_classes().items()
        for f in dataclasses.fields(cls)
        if f.default_factory not in classes
    }


@functools.cache
def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


def attributes_read() -> set[str]:
    """Attribute names loaded anywhere in ``src/`` outside config.py."""
    names: set[str] = set()
    for path in SRC.rglob("*.py"):
        if path == CONFIG:
            continue
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def keyword_setters() -> dict[str, set[str]]:
    """``Class.field`` -> files (relative to the root) that set it by keyword."""
    classes = config_classes()
    setters: dict[str, set[str]] = {}
    for base in (SRC, ROOT / "benchmarks"):
        for path in base.rglob("*.py"):
            for node in ast.walk(_tree(path)):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                if name not in classes:
                    continue
                for keyword in node.keywords:
                    if keyword.arg is not None:
                        setters.setdefault(f"{name}.{keyword.arg}", set()).add(
                            path.relative_to(ROOT).as_posix()
                        )
    return setters


def design_table() -> dict[str, str]:
    """DESIGN.md §8's rows: ``Class.field`` -> its set-by cell."""
    text = (ROOT / "DESIGN.md").read_text()
    section = text.split("\n## 8.", 1)[1].split("\n## ", 1)[0]
    rows: dict[str, str] = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) != 2 or not cells[0].startswith("`"):
            continue
        knob = cells[0].strip("`")
        assert knob not in rows, f"DESIGN.md §8 lists {knob} twice"
        rows[knob] = cells[1]
    return rows


def test_every_knob_is_read_outside_config() -> None:
    read = attributes_read()
    unread = sorted(k for k in leaf_fields() if k.split(".")[1] not in read)
    assert not unread, f"config values nothing in src/ reads: {unread}"


def test_every_knob_is_set_by_a_caller_or_is_an_ablation_toggle() -> None:
    setters = keyword_setters()
    unset = sorted(
        k for k in leaf_fields() if k not in setters and k not in ABLATION_TOGGLES
    )
    assert not unset, (
        "config values no src/ or benchmarks/ caller sets (make them module "
        f"constants beside their reader): {unset}"
    )


def test_ablation_toggles_are_knobs_the_roadmap_still_rules_on() -> None:
    assert ABLATION_TOGGLES <= leaf_fields()
    assert ABLATION_ITEM in (ROOT / "ROADMAP.md").read_text()


def test_design_table_matches_the_knobs() -> None:
    rows = set(design_table())
    knobs = leaf_fields()
    assert not rows - knobs, f"DESIGN.md §8 lists missing: {sorted(rows - knobs)}"
    assert not knobs - rows, f"DESIGN.md §8 omits: {sorted(knobs - rows)}"


def test_every_design_row_names_callers_that_set_it() -> None:
    setters = keyword_setters()
    for knob, cell in design_table().items():
        if knob in ABLATION_TOGGLES:
            assert "ablation" in cell, f"DESIGN.md §8: {knob} names no reason"
            continue
        paths = [t for t in re.findall(r"`([^`]+)`", cell) if t.endswith(".py")]
        assert paths, f"DESIGN.md §8: {knob} names no caller"
        for path in paths:
            assert path in setters.get(knob, set()), f"`{path}` does not set {knob}"
