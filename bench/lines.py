"""Lines of each fourcurv module at two commits: all lines and code lines.

    python3 bench/lines.py BASE HEAD

Both commits are read through git (``git show COMMIT:path``), never from the
working tree.  The total is the file's line count, as ``wc -l`` gives it.  A
code line holds a token that is neither a comment nor a docstring, so blank
lines, comment-only lines and the lines of a docstring (a statement that is a
string literal alone) are not code.  One row per module of ``src/fourcurv``
at either commit, then the sums; a module missing at one commit counts 0
there.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "src/fourcurv"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout


def counts(source: str) -> tuple[int, int]:
    """``(total, code)`` lines of a Python source."""
    docstrings = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code)


def modules(commit: str) -> dict[str, tuple[int, int]]:
    """``(total, code)`` of each module of the package at ``commit``."""
    paths = git("ls-tree", "--name-only", commit, f"{PACKAGE}/").split()
    return {Path(p).name: counts(git("show", f"{commit}:{p}")) for p in paths if p.endswith(".py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="the parent commit")
    parser.add_argument("head", help="the commit with the change")
    args = parser.parse_args(argv)
    base, head = modules(args.base), modules(args.head)
    rows = [(name, *base.get(name, (0, 0)), *head.get(name, (0, 0)))
            for name in sorted(base.keys() | head.keys())]
    rows.append(("total", *(sum(r[k] for r in rows) for k in range(1, 5))))
    print(f"{'':<14}{'total lines':^24}   {'code lines':^23}".rstrip())
    print(f"{'module':<14}{'base':>7}{'':>4}{'head':>6}{'diff':>7}   {'base':>6}{'':>4}{'head':>6}"
          f"{'diff':>7}")
    for name, bt, bc, ht, hc in rows:
        print(f"{name:<14}{bt:>7}{'->':>4}{ht:>6}{ht - bt:>+7}   {bc:>6}{'->':>4}{hc:>6}"
              f"{hc - bc:>+7}")
    print(f"(base {args.base}, head {args.head})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
