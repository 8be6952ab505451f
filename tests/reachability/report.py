"""Per-module reachability of ``src/repro``: system, tests-only, never.

Reads the JSON files ``sitecustomize.py`` wrote for two traced runs, the
system set (``system.sh``) and tier-1, and classifies each function of
``src/repro`` by whether the system ran it, only tier-1 ran it, or
nothing did.  A function is a ``def`` at module or class level; nested
functions and lambdas count within the function that holds them.  Its
lines are its source lines, decorators included::

    python tests/reachability/report.py SYSTEM_DIR TESTS_DIR \\
        [--markdown] [--list {system,tests-only,never}]
"""

from __future__ import annotations

import argparse
import ast
import json
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
KINDS = ("system", "tests-only", "never")


def functions(path: Path) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of each function."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # A code object's first line is its first decorator's.
                first = min(
                    [child.lineno] + [d.lineno for d in child.decorator_list]
                )
                found.append((first, child.end_lineno, prefix + child.name))
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.stmt):
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def entered(directory: Path) -> set[tuple[str, int]]:
    """(path under ``src/``, first line) of every code object entered."""
    seen = set()
    for file in directory.glob("*.json"):
        for name, firsts in json.loads(file.read_text()).items():
            module = Path(name).as_posix().rsplit("/src/", 1)[-1]
            seen.update((module, first) for first in firsts)
    return seen


def classify(system: set, tests: set) -> list[tuple[str, str, int, str, int]]:
    """One (kind, module, first line, name, lines) row per function."""
    rows = []
    for path in sorted((SRC / "repro").rglob("*.py")):
        module = path.relative_to(SRC).as_posix()
        for first, last, name in functions(path):
            key = (module, first)
            if key in system:
                kind = "system"
            elif key in tests:
                kind = "tests-only"
            else:
                kind = "never"
            rows.append((kind, module, first, name, last - first + 1))
    return rows


def table(rows: list, markdown: bool) -> str:
    per_module: dict[str, dict[str, int]] = {}
    for kind, module, __, __, lines in rows:
        per_module.setdefault(module, dict.fromkeys(KINDS, 0))[kind] += lines
    total = {
        kind: sum(counts[kind] for counts in per_module.values())
        for kind in KINDS
    }
    body = [*per_module.items(), ("total", total)]
    if markdown:
        out = ["| module | " + " | ".join(KINDS) + " |", "|---|---:|---:|---:|"]
        out += [
            f"| {module} | " + " | ".join(str(c[k]) for k in KINDS) + " |"
            for module, c in body
        ]
    else:
        width = max(len(module) for module, __ in body)
        out = [f"{'module':<{width}}" + "".join(f"{k:>12}" for k in KINDS)]
        out += [
            f"{module:<{width}}" + "".join(f"{c[k]:>12}" for k in KINDS)
            for module, c in body
        ]
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("system", type=Path, help="the system set's traces")
    parser.add_argument("tests", type=Path, help="tier-1's traces")
    parser.add_argument("--markdown", action="store_true")
    parser.add_argument("--list", choices=KINDS, help="list one kind's functions")
    args = parser.parse_args(argv)
    rows = classify(entered(args.system), entered(args.tests))
    if args.list:
        for kind, module, first, name, lines in rows:
            if kind == args.list:
                print(f"{module}:{first} {name} ({lines} lines)")
    else:
        print(table(rows, args.markdown))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
