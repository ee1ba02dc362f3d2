"""Count the code lines of the Python modules in a directory.

A code line holds a token other than a comment or a docstring; blank lines
and lines that only continue a comment or a docstring do not count. A
docstring is the string that opens a module, class or function body, as
``ast.get_docstring`` reads it. Lines inside any other multi-line string
count, since that string is code.

Usage: python tools/code_lines.py [--rev REV] <dir>

Prints one line per module (sorted by name) and then the total. With
--rev, counts the modules of <dir> as committed at the git revision REV
(read through git ls-tree and git show) instead of the files on disk.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) where each module, class and function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                first = node.body[0]
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """Number of lines of source that hold a token of code."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def _git(directory: str, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=directory, capture_output=True, text=True, check=True
    ).stdout


def _committed_sources(directory: str, rev: str) -> list[tuple[str, str]]:
    """(name, source) of each .py file directly in directory at revision rev."""
    listing = _git(directory, "ls-tree", "--full-name", "--name-only", rev, ".")
    paths = sorted(path for path in listing.splitlines() if path.endswith(".py"))
    return [(Path(path).name, _git(directory, "show", f"{rev}:{path}")) for path in paths]


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="python tools/code_lines.py", description="Count the code lines of a package."
    )
    parser.add_argument("--rev", help="count the files as committed at this git revision")
    parser.add_argument("dir", help="directory whose *.py files are counted")
    args = parser.parse_args(argv)
    if not Path(args.dir).is_dir():
        parser.error(f"not a directory: {args.dir}")
    if args.rev is None:
        sources = [(path.name, path.read_text()) for path in sorted(Path(args.dir).glob("*.py"))]
    else:
        try:
            sources = _committed_sources(args.dir, args.rev)
        except subprocess.CalledProcessError as exc:
            print(f"git failed: {exc.stderr.strip()}", file=sys.stderr)
            return 2
    total = 0
    for name, source in sources:
        count = code_lines(source)
        total += count
        print(f"{count:6d}  {name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
