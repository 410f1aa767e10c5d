"""Size of the package's public surface, in three numbers.

Prints, one per line:

    src_lines <n>          lines of src/bipexp/*.py (as `wc -l` counts them)
    exports <n>            len(bipexp.__all__)
    defaulted_params <n>   parameters and fields with a default value

A defaulted parameter is a default of a public module-level function or
of a public method of a public class; a defaulted field is an annotated
class attribute with a value in a public class. Public means the name
does not start with an underscore. Nested functions do not count. The
numbers are read from the `src/` directory of the checkout this script
lives in:

    python3 tools/api_census.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "bipexp"


def _public(name: str) -> bool:
    return not name.startswith("_")


def _defaults(fn: ast.FunctionDef) -> int:
    args = fn.args
    return len(args.defaults) + sum(d is not None for d in args.kw_defaults)


def defaulted_params(tree: ast.Module) -> int:
    """Defaults of the public functions, methods and class fields in one module."""
    count = 0
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            count += _defaults(node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    count += _defaults(item)
                elif isinstance(item, ast.AnnAssign) and item.value is not None:
                    count += 1
    return count


def census() -> dict[str, int]:
    files = sorted(PACKAGE.glob("*.py"))
    texts = [f.read_text(encoding="utf-8") for f in files]
    sys.path.insert(0, str(SRC))
    import bipexp

    return {
        "src_lines": sum(t.count("\n") for t in texts),
        "exports": len(bipexp.__all__),
        "defaulted_params": sum(defaulted_params(ast.parse(t)) for t in texts),
    }


def main() -> int:
    for key, value in census().items():
        print(f"{key} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
