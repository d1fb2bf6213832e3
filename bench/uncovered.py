"""Statements of fourcurv that the tier-1 suite never runs.

    python3 bench/uncovered.py

Runs the tier-1 suite (pytest over ``tests/``) in this process under a
``sys.settrace`` hook that traces only the frames of code in
``src/fourcurv``.  It then prints each statement inside a function or class
body that never ran, as ``module:line: source``, then their count, and exits
with pytest's exit code.  A statement ran when any of its own lines (those of
its header, for a compound statement) had a line event; lines that compile to
no instruction, such as docstrings, are not statements here.

Tests that run fourcurv in a subprocess (``python -m fourcurv``, ``python -X
importtime``) are not traced, so what only they run is listed too.  Some of
the listed lines are safety code that no test input reaches, and they stay:
``numgeom.py:196``, ``jsonio.py:74`` and ``secsign.py:191, 208``.
"""

from __future__ import annotations

import ast
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fourcurv"


def trace(prefix: str):
    """``(hook, hits)``: a ``sys.settrace`` hook that adds the ``(file, line)``
    of every line event in files under ``prefix`` to the set ``hits``."""
    hits: set[tuple[str, int]] = set()
    traced: dict[types.CodeType, bool] = {}

    def local(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        if code not in traced:
            traced[code] = code.co_filename.startswith(prefix)
        return local if traced[code] else None

    return hook, hits


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines that carry an instruction of a function or class body."""
    lines, stack = set(), [compile(source, filename, "exec")]
    while stack:
        for const in stack.pop().co_consts:
            if isinstance(const, types.CodeType):
                lines.update(line for *_, line in const.co_lines() if line is not None)
                stack.append(const)
    return lines


def statements(tree: ast.Module):
    """``(first line, own lines)`` of each statement or except clause inside a
    function or class body; a compound statement owns the lines of its header,
    not those of the statements it holds."""
    def walk(node, inside):
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, (ast.stmt, ast.excepthandler)):
                continue
            first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", [])])
            own = set(range(first, child.end_lineno + 1))
            for inner in ast.walk(child):
                if inner is not child and isinstance(inner, (ast.stmt, ast.excepthandler)):
                    own -= set(range(inner.lineno, inner.end_lineno + 1))
            if inside:
                yield first, own
            yield from walk(child, inside or isinstance(child, (ast.FunctionDef,
                                                                ast.AsyncFunctionDef,
                                                                ast.ClassDef)))
    yield from walk(tree, False)


def main() -> int:
    hook, hits = trace(str(PACKAGE) + "/")
    sys.settrace(hook)
    try:
        code = int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
    finally:
        sys.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        executable = executable_lines(source, str(path))
        ran = {line for name, line in hits if name == str(path)}
        for first, own in statements(ast.parse(source)):
            own &= executable
            if own and not own & ran:
                missed += 1
                print(f"{path.name}:{first}: {text[first - 1].strip()}")
    print(f"{missed} statements never ran")
    return code


if __name__ == "__main__":
    sys.exit(main())
