"""Print the four size numbers tracked for the package as one JSON line.

    python3 scripts/size_report.py [SRC]

SRC defaults to src/conicfin of the checkout the script sits in. The
numbers are:
- lines: the line count of SRC/*.py;
- exports: the names imported in SRC/__init__.py;
- defaulted_params: the defaulted parameters of public functions and
  methods (names without a leading underscore, plus __init__), plus the
  defaulted fields of dataclasses;
- test_lines: the line count of tests/*.py two directories above SRC, so
  that code moved from SRC into the tests shows up as moved, not removed.
"""

import argparse
import ast
import glob
import json
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any("dataclass" in ast.unparse(dec) for dec in node.decorator_list)


def _defaulted(tree: ast.Module) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_") or node.name == "__init__":
                args = node.args
                count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(
                isinstance(stmt, ast.AnnAssign) and stmt.value is not None for stmt in node.body
            )
    return count


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(ROOT, "src", "conicfin"))
    src = parser.parse_args().src
    lines = defaulted = 0
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        with open(path) as f:
            text = f.read()
        lines += len(text.splitlines())
        defaulted += _defaulted(ast.parse(text))
    with open(os.path.join(src, "__init__.py")) as f:
        init = ast.parse(f.read())
    exports = sum(
        len(node.names) for node in ast.walk(init) if isinstance(node, (ast.Import, ast.ImportFrom))
    )
    test_lines = 0
    root = os.path.dirname(os.path.dirname(os.path.abspath(src)))
    for path in glob.glob(os.path.join(root, "tests", "*.py")):
        with open(path) as f:
            test_lines += len(f.read().splitlines())
    sizes = {"lines": lines, "exports": exports, "defaulted_params": defaulted, "test_lines": test_lines}
    print(json.dumps(sizes))


if __name__ == "__main__":
    main()
