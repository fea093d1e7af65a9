"""Line counts of the package source, one line a file and a total.

For each ``src/propaudit/*.py`` file, prints its ``wc -l`` count (every
newline) and its code lines: the non-blank lines that hold some token
other than a comment, outside module, class and function docstrings.

    python tools/loc.py [SRC_DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def counts(text: str) -> tuple:
    """(wc -l count, code line count) of one Python source."""
    docs = docstring_lines(ast.parse(text))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    lines = text.splitlines()
    return text.count("\n"), sum(1 for i in code - docs if lines[i - 1].strip())


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("src", nargs="?", type=Path,
                   default=Path(__file__).resolve().parent.parent / "src" / "propaudit")
    args = p.parse_args(argv)
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>7}  file")
    for path in sorted(args.src.glob("*.py")):
        wc, code = counts(path.read_text())
        total_wc, total_code = total_wc + wc, total_code + code
        print(f"{wc:7d} {code:7d}  {path.name}")
    print(f"{total_wc:7d} {total_code:7d}  total")


if __name__ == "__main__":
    main()
