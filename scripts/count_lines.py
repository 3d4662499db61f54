"""Count the lines of Python files: physical lines, and code lines.

A physical line is any line of the file. A code line is a line that holds
part of a token other than a comment, a line break, indentation or a
docstring; a docstring is a string literal that is a statement by itself
(a module, class or function docstring, or any bare string). A token that
spans lines, such as a triple-quoted string in an expression, makes every
line it spans a code line. Only the standard library's ``tokenize`` is
used. Run from the root of a checkout:

    python scripts/count_lines.py [PATH ...]

Each PATH is a file or a directory of ``*.py`` files (not recursive;
default ``src/phasorstats``). Prints one line per file and a total line:
physical lines, code lines, name.
"""

from __future__ import annotations

import argparse
import tokenize
from pathlib import Path

#: Tokens that make no line a code line.
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
#: Tokens after which a string begins a statement (ENCODING: the file's start).
_STATEMENT_START = {tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT,
                    tokenize.DEDENT}


def count(path: Path) -> tuple[int, int]:
    """The physical lines and the code lines of one Python file."""
    data = path.read_bytes()
    with path.open("rb") as f:
        tokens = [t for t in tokenize.tokenize(f.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    code: set[int] = set()
    previous = tokenize.ENCODING
    for token, after in zip(tokens, tokens[1:]):
        docstring = (token.type == tokenize.STRING and previous in _STATEMENT_START
                     and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))
        if token.type not in _LAYOUT and not docstring:
            code.update(range(token.start[0], token.end[0] + 1))
        previous = token.type
    return len(data.splitlines()), len(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="*", type=Path,
                        default=[Path("src/phasorstats")])
    args = parser.parse_args()
    files = [f for p in args.paths
             for f in (sorted(p.glob("*.py")) if p.is_dir() else [p])]
    totals = [0, 0]
    for f in files:
        physical, code = count(f)
        totals[0] += physical
        totals[1] += code
        print(f"{physical:6d} {code:6d}  {f}")
    print(f"{totals[0]:6d} {totals[1]:6d}  total")


if __name__ == "__main__":
    main()
