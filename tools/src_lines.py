"""Line counts of the stpdft package: each src/stpdft/*.py module's `wc -l`
and its split into code, docstring, comment and blank lines, plus the totals.

A docstring line lies in the line span (by ast) of a module, class or
function docstring; a comment line holds a comment and nothing else (by
tokenize); a blank line holds only whitespace; every other line is code.

Usage: python tools/src_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "stpdft"
KINDS = ("code", "docstring", "comment", "blank")
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(text: str) -> dict:
    """The number of lines of each kind in the module source text."""
    kind = ["blank" if not line.strip() else "code" for line in text.splitlines()]
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.COMMENT and not tok.line[: tok.start[1]].strip():
            kind[tok.start[0] - 1] = "comment"
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            for i in range(doc.lineno - 1, doc.end_lineno):
                kind[i] = "docstring"
    return {k: kind.count(k) for k in KINDS}


def main():
    rows = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        rows.append((path.name, text.count("\n"), split(text)))
    totals = {k: sum(counts[k] for _, _, counts in rows) for k in KINDS}
    rows.append(("total", sum(wc for _, wc, _ in rows), totals))
    print(f"{'module':<20} {'wc -l':>6}" + "".join(f" {k:>9}" for k in KINDS))
    for name, wc, counts in rows:
        print(f"{name:<20} {wc:>6}" + "".join(f" {counts[k]:>9}" for k in KINDS))


if __name__ == "__main__":
    main()
