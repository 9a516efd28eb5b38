#!/usr/bin/env python3
"""Fail when TwigM transition internals are used outside the kernel.

``core/transitions.py`` is the one implementation of the paper's transition
functions and ``core/stack.py`` owns the stack entries they manipulate.
Every source must hand its tags to ``core/kernel.py``, the one code that
calls ``process_start_element`` / ``process_end_element`` /
``process_characters``, rather than inline its own copy of their bodies.  A
hand-inlined copy gives itself away by touching the internals those bodies
use, so this walks the AST of every module under ``src/repro/`` and reports
any name, attribute or import of:

    acquire_entry, release_entry, absorb_candidates, _resolve_attributes

outside those two modules, and under ``core/`` also the text accumulators
``string_parts`` / ``direct_parts`` (a hand copy of ``process_characters``
appends to them; ``baselines/naive.py``, the reference implementation,
keeps its own).  It also keeps one kernel and one driver per input format:

* only ``core/kernel.py`` imports from ``core/transitions.py``, plus
  ``core/__init__.py``, which re-exports the functions;
* no module under ``core/`` imports an underscore name from
  ``xmlstream/`` (a second frame or tag decoder would need one).

Usage::

    python tools/check_single_kernel.py            # checks src/repro
    python tools/check_single_kernel.py PACKAGE    # checks another package root
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Iterator, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")

INTERNALS = frozenset(
    {"acquire_entry", "release_entry", "absorb_candidates", "_resolve_attributes"}
)
ACCUMULATORS = frozenset({"string_parts", "direct_parts"})
KERNEL = frozenset({os.path.join("core", "transitions.py"), os.path.join("core", "stack.py")})
IMPORTERS = frozenset(os.path.join("core", name) for name in ("__init__.py", "kernel.py"))


def _references(tree: ast.AST, names: frozenset) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in names:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in names:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in names:
                    yield node.lineno, alias.name


def _driver_imports(
    tree: ast.AST, in_core: bool, may_import: bool
) -> Iterator[Tuple[int, str]]:
    """Imports of the transition module outside the kernel, and core
    imports of xmlstream private names."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        module = node.module
        if not may_import and module.rpartition(".")[2] == "transitions" and (
            node.level == 1 and in_core or module.endswith("core.transitions")
        ):
            yield node.lineno, f"import from {module}"
        if in_core and "xmlstream" in module.split("."):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"{module}.{alias.name}"


def violations(package: str) -> List[str]:
    """``path:line: name`` for every internal referenced outside the kernel."""
    found = []
    for directory, _, files in os.walk(package):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(directory, filename)
            relative = os.path.relpath(path, package)
            if relative in KERNEL:
                continue
            with open(path, encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename=path)
            in_core = relative.split(os.sep)[0] == "core"
            names = INTERNALS | ACCUMULATORS if in_core else INTERNALS
            references = list(_references(tree, names))
            references.extend(_driver_imports(tree, in_core, relative in IMPORTERS))
            for line, name in sorted(references):
                found.append(f"{relative}:{line}: {name}")
    return found


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("package", nargs="?", default=PACKAGE)
    args = parser.parse_args(argv)
    found = violations(args.package)
    if found:
        print(
            "FAIL: transition internals referenced outside core/transitions.py "
            "and core/stack.py (hand the tags to core/kernel.py instead), or "
            "the transition functions imported outside core/kernel.py:",
            file=sys.stderr,
        )
        for entry in found:
            print(f"  {entry}", file=sys.stderr)
        return 1
    print("OK: one transition kernel (core/kernel.py over core/transitions.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
