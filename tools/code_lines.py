"""Print the code lines of src/quantstab, per module and in total, the
size of quantstab.__all__, the CLI's option slots and the defaulted
public parameters.

A code line is a source line that holds a token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a
module, class or function body) do not count.  A statement that spans
several lines counts each of them.

An option slot is an option string that a CLI subcommand accepts, other
than --help: each subcommand's options are counted, then the total.  A
defaulted public parameter is a parameter with a default value in the
signature (inspect.signature) of a function or class named in
quantstab.__all__.

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
    print(subprocess.run(
        [sys.executable, "-c", _API_COUNTS],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, check=True).stdout, end="")


_API_COUNTS = """
import argparse, inspect
import quantstab
from quantstab.cli import build_parser

print(f"{'quantstab.__all__':20s} {len(quantstab.__all__):5d}")
sub = next(action for action in build_parser()._actions
           if isinstance(action, argparse._SubParsersAction))
slots = {name: sum(1 for action in parser._actions
                   if action.option_strings and action.dest != "help")
         for name, parser in sub.choices.items()}
for name, count in slots.items():
    print(f"{'cli ' + name:20s} {count:5d}")
print(f"{'cli option slots':20s} {sum(slots.values()):5d}")
defaulted = sum(
    1 for name in quantstab.__all__
    if callable(obj := getattr(quantstab, name))
    for param in inspect.signature(obj).parameters.values()
    if param.default is not inspect.Parameter.empty)
print(f"{'defaulted params':20s} {defaulted:5d}")
"""


if __name__ == "__main__":
    main(sys.argv[1:])
