"""Scan ``src/repro`` for metric/instant emissions and diff them against
the canonical registry in :mod:`repro.obs.names` — both directions.

Usable two ways: ``python tests/obs/check_metric_names.py`` from the
repo root (exits nonzero and prints each drift), and imported by
``tests/obs/test_names.py`` which asserts :func:`find_drift` is empty.

What counts as an emission (string literals only):

* ``<...>metrics.inc("name"`` / ``counters.inc("name"`` — counter
* ``<...>metrics.register_counter("name"``              — counter (its
  owner registers the reader once; a name is incremented or read,
  never both)
* ``<...>metrics.observe("name"``                       — histogram
* ``<...>metrics.register_gauge("name"``                — gauge (its
  owner registers the reader once)
* ``<...>.instant("name"``                              — trace instant
* a ``"name":`` key of the dict the scheduler's ``_folded_counters``
  returns                                              — counter (the
  totals of a job's kept attempts, added by one ``inc`` when it ends)

Receivers other than ``metrics``/``counters`` (e.g. the shuffle layer's
``collector.observe`` or columnar ``stats.observe``) are different
registries and intentionally out of scope.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
SRC = REPO_ROOT / "src" / "repro"

_EMISSION_PATTERNS = {
    "counter": re.compile(
        r"\b(?:metrics|counters)\s*\.\s*inc\(\s*\n?\s*\"([^\"]+)\""
    ),
    "read_counter": re.compile(
        r"\bmetrics\s*\.\s*register_counter\(\s*\n?\s*\"([^\"]+)\""
    ),
    "histogram": re.compile(
        r"\bmetrics\s*\.\s*observe\(\s*\n?\s*\"([^\"]+)\""
    ),
    "gauge": re.compile(
        r"\bmetrics\s*\.\s*register_gauge\(\s*\n?\s*\"([^\"]+)\""
    ),
    "instant": re.compile(r"\.instant\(\s*\n?\s*\"([^\"]+)\""),
}

#: The fold table: ``_folded_counters``' body, to its closing brace.
_FOLD_TABLE = re.compile(r"^def _folded_counters\(.*?^    \}$", re.M | re.S)
_FOLD_KEY = re.compile(r'^\s*"([^"]+)":', re.M)


def emitted_names(src: Path = SRC) -> dict[str, dict[str, set[str]]]:
    """kind -> name -> set of emitting files (repo-relative)."""
    out: dict[str, dict[str, set[str]]] = {
        kind: {} for kind in _EMISSION_PATTERNS
    }
    for path in sorted(src.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        try:
            rel = str(path.relative_to(REPO_ROOT))
        except ValueError:  # scanning a tree outside the repo (tests)
            rel = str(path)
        for kind, pattern in _EMISSION_PATTERNS.items():
            for name in pattern.findall(text):
                out[kind].setdefault(name, set()).add(rel)
        for table in _FOLD_TABLE.findall(text):
            for name in _FOLD_KEY.findall(table):
                out["counter"].setdefault(name, set()).add(rel)
    return out


def find_drift(src: Path = SRC) -> list[str]:
    """Every mismatch between emissions and the registry, as messages."""
    from repro.obs import names

    declared = names.all_names()
    emitted = emitted_names(src)
    problems: list[str] = []
    read = emitted.pop("read_counter")
    for name in sorted(set(read) & set(emitted["counter"])):
        where = ", ".join(sorted(read[name] | emitted["counter"][name]))
        problems.append(
            f"counter {name!r} is both incremented and read ({where})"
        )
    for name, files in read.items():
        emitted["counter"].setdefault(name, set()).update(files)
    for kind, by_name in emitted.items():
        for name, files in sorted(by_name.items()):
            if name not in declared[kind]:
                where = ", ".join(sorted(files))
                problems.append(
                    f"{kind} {name!r} emitted in {where} but not "
                    f"declared in repro/obs/names.py"
                )
    for kind, declared_names in declared.items():
        for name in sorted(declared_names - set(emitted[kind])):
            problems.append(
                f"{kind} {name!r} declared in repro/obs/names.py but "
                f"never emitted under src/repro"
            )
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = find_drift()
    for problem in problems:
        print(f"DRIFT: {problem}", file=sys.stderr)
    if problems:
        print(
            f"{len(problems)} metric-name drift(s); fix the call site "
            "or declare the name in src/repro/obs/names.py",
            file=sys.stderr,
        )
        return 1
    emitted = emitted_names()
    total = sum(len(by_name) for by_name in emitted.values())
    print(f"metric names OK: {total} distinct names, no drift")
    return 0


if __name__ == "__main__":
    sys.exit(main())
