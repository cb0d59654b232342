"""Code lines of the ``anoctl`` package, per module and in total.

A code line is a source line that holds a token other than a comment,
and that is not part of a docstring (the string that opens a module,
class or function body).  Blank lines, comment lines and docstrings do
not count.

    python tests/codelines.py           count src/anoctl
    python tests/codelines.py DIR       count the .py files under DIR
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source):
    """The number of code lines of one module's source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv):
    top = argv[0] if argv else os.path.join(ROOT, "src", "anoctl")
    total = 0
    for path in sorted(os.path.join(d, f) for d, _, files in os.walk(top)
                       for f in files if f.endswith(".py")):
        with open(path) as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:6d}  {os.path.relpath(path, top)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
