#!/usr/bin/env python3
"""Fail when TwigM transition internals are used outside the kernel.

``core/transitions.py`` is the one implementation of the paper's transition
functions and ``core/stack.py`` owns the stack entries they manipulate.
Every driver (the fused pure scan, expat callbacks, frame feeds, the event
push path) must call ``process_start_element`` / ``process_end_element`` /
``process_characters`` rather than inline its own copy of their bodies.  A
hand-inlined copy gives itself away by touching the internals those bodies
use, so this walks the AST of every module under ``src/repro/`` and reports
any name, attribute or import of:

    acquire_entry, release_entry, absorb_candidates, _resolve_attributes

outside those two modules.

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
KERNEL = frozenset({os.path.join("core", "transitions.py"), os.path.join("core", "stack.py")})


def _references(tree: ast.AST) -> Iterator[Tuple[int, str]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in INTERNALS:
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in INTERNALS:
            yield node.lineno, node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name.rpartition(".")[2] in INTERNALS:
                    yield node.lineno, alias.name


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
            for line, name in sorted(_references(tree)):
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
            "and core/stack.py — call the process_* functions instead:",
            file=sys.stderr,
        )
        for entry in found:
            print(f"  {entry}", file=sys.stderr)
        return 1
    print("OK: one transition kernel (core/transitions.py)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
