"""Count the lines of ``src/symqm``, by ``wc -l`` and as code lines.

A code line is a physical line that holds part of a token other than a
comment, a docstring, indentation or a line break; blank lines fall out
with them.  A docstring is a string literal that is a statement of its own.
Lines are read with :mod:`tokenize`, so a string or bracket that spans
lines counts every line it spans.

Usage, from the root of a checkout::

    python3 tools/count_lines.py
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "symqm"
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}
LAYOUT = STATEMENT_START | {tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the Python file ``path``."""
    with path.open("rb") as fh:  # comments and blank or continued lines hold no code
        tokens = [tok for tok in tokenize.tokenize(fh.readline) if tok.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        docstring = (tok.type == tokenize.STRING and tokens[i - 1].type in STATEMENT_START
                     and tokens[i + 1].type == tokenize.NEWLINE)
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> int:
    total_wc = total_code = 0
    print(f"{'module':<20} {'wc -l':>6} {'code':>6}")
    for path in sorted(PACKAGE.glob("*.py")):
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{path.stem:<20} {wc:>6} {code:>6}")
    print(f"{'total':<20} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
