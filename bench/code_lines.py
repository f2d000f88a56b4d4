"""Count the code lines and physical lines of Python sources.

Run from the root of a checkout:

    python3 bench/code_lines.py src/cycletrim [more files or directories ...]

A code line is a line that holds a token other than a comment, a line
break, an indent or dedent, or a docstring. A docstring here is any
statement that is only a string, wherever it stands. A token that spans
several lines, such as a string inside an expression, makes each of them
a code line. Directories are searched for ``*.py`` files. The output is
one line per file, ``<code lines> <physical lines> <path>``, in path
order, then ``<code lines> <physical lines> total``. Stdlib only.
"""

from __future__ import annotations

import argparse
import sys
import tokenize
from pathlib import Path

#: tokens that never make a line a code line
LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def code_lines(path: Path) -> int:
    """The number of code lines in the Python file ``path``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with path.open("rb") as source:
        for token in tokenize.tokenize(source.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                # one logical line ends: a statement that is only a string
                # is a docstring and counts for nothing
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement.clear()
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    found: set[Path] = set()
    for name in paths:
        path = Path(name)
        found.update(path.rglob("*.py") if path.is_dir() else [path])
    return sorted(found)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+")
    args = parser.parse_args()
    code = physical = 0
    for path in python_files(args.paths):
        counted = code_lines(path)
        lines = len(path.read_bytes().splitlines())
        code += counted
        physical += lines
        print(f"{counted} {lines} {path}")
    print(f"{code} {physical} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
