"""``reporting`` is the one module that writes files.

The numeric modules compute; every report and CSV series a run leaves
behind is opened, formatted and written in ``reporting``.  This parses each
module of the package and fails on a file call or a CSV writer anywhere
else.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractrace"

# callables that open or write a file, by their bare or attribute name
FILE_CALLS = {"open", "fdopen", "savetxt", "tofile", "write_text",
              "write_bytes"}


def called_name(node):
    func = node.func
    return func.id if isinstance(func, ast.Name) else \
        func.attr if isinstance(func, ast.Attribute) else None


def file_output(path):
    """(line, what) of every file call, CSV writer and ``csv`` import."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Call) and called_name(node) in FILE_CALLS:
            yield node.lineno, f"calls {called_name(node)}"
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and "csv" in node.name.lower():
            yield node.lineno, f"defines {node.name}"
        elif isinstance(node, ast.Import) and any(
                a.name.split(".")[0] == "csv" for a in node.names):
            yield node.lineno, "imports csv"
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "csv":
            yield node.lineno, "imports csv"


def test_only_reporting_writes_files():
    found = [(path.name, line, what)
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "reporting.py"
             for line, what in file_output(path)]
    assert found == []


def test_the_csv_writer_lives_in_reporting():
    found = {what for _, what in file_output(PACKAGE / "reporting.py")}
    assert {"calls open", "defines _write_csv"} <= found
