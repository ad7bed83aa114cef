"""Print the code lines of src/quantstab, per module and in total, and the
size of quantstab.__all__.

A code line is a source line that holds a token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count.  A statement that spans
several lines counts each of them.

Usage, from the repository root:

    python3 tools/code_lines.py [CHECKOUT]

CHECKOUT is the root of the checkout to count (default: the one holding
this script), so the same script counts an older checkout too.
"""

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source):
    """The number of code lines of a Python source text."""
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, _BODIES) and node.body
                and isinstance(node.body[0], ast.Expr)
                and isinstance(node.body[0].value, ast.Constant)
                and isinstance(node.body[0].value.value, str)):
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv):
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    src = root / "src"
    total = 0
    for path in sorted((src / "quantstab").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:20s} {count:5d}")
    print(f"{'total':20s} {total:5d}")
    # a fresh interpreter, so that the checkout counted is the one imported
    exported = subprocess.run(
        [sys.executable, "-c",
         "import quantstab; print(len(quantstab.__all__))"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True).stdout.strip()
    print(f"{'quantstab.__all__':20s} {exported:>5s}")


if __name__ == "__main__":
    main(sys.argv[1:])
