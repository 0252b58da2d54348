"""Print the total lines and the code lines of src/quantum_rod.

Code lines leave out blank lines, comment-only lines and docstrings.
Usage: python3 tools/src_lines.py
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "quantum_rod"
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)

total = code = 0
for path in sorted(SRC.glob("*.py")):
    text = path.read_text()
    lines = text.splitlines()
    skip = {i for i, line in enumerate(lines, 1)
            if not line.strip() or line.lstrip().startswith("#")}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, DOC_OWNERS) and ast.get_docstring(node, clean=False) is not None:
            skip.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    total += len(lines)
    code += len(lines) - len(skip)
print(f"src/quantum_rod: {total:,} lines, {code:,} code lines")
