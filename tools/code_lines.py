"""Code lines of the package: lines that hold code, per module and in total.

Run from anywhere, with the standard library only:

    python tools/code_lines.py [package directory]

The default directory is src/gpchannels beside this tools/ directory.  A line
counts when it holds a token of code; blank lines, comment lines and the lines
of docstrings (the leading string of a module, class or function, as ast finds
them) do not.  Continuation lines of a statement count, since they hold code.
Modules are printed largest first, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gpchannels"
# tokens that hold no code of their own
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code, docstrings left out."""
    source = path.read_bytes()
    skip = docstring_lines(ast.parse(source))
    lines = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv) -> int:
    package = Path(argv[1]) if len(argv) > 1 else PACKAGE
    counts = {path.stem: code_lines(path) for path in sorted(package.glob("*.py"))}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
