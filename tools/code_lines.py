"""Count the code lines of the Python modules in a directory.

A code line is a source line that holds at least one token other than a
comment, a blank line, an indent or dedent, or a docstring.  A docstring is
a string that is a statement of its own, as the first statement of a
module, class or function is.  A token that spans lines, such as a
triple-quoted string that is not a docstring, counts every line it spans.

Usage: ``python tools/code_lines.py DIR`` prints each module's count, in
path order, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# layout tokens: they hold no code of their own
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python source file ``path``."""
    with tokenize.open(path) as f:
        tokens = [t for t in tokenize.generate_tokens(f.readline) if t.type not in _LAYOUT - {tokenize.NEWLINE}]
    lines: set[int] = set()
    for i, t in enumerate(tokens):
        if t.type == tokenize.NEWLINE:
            continue
        statement_start = i == 0 or tokens[i - 1].type == tokenize.NEWLINE
        statement_end = i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE
        if t.type == tokenize.STRING and statement_start and statement_end:
            continue
        lines.update(range(t.start[0], t.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not Path(argv[0]).is_dir():
        print("usage: python tools/code_lines.py DIR", file=sys.stderr)
        return 1
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
