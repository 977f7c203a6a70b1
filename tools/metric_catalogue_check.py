#!/usr/bin/env python3
"""Metric-catalogue check (runs as the `metric_catalogue` ctest test).

Every series that src/ registers under a literal name, through
counter("..."), gauge("...") or histogram("..."), must have a row in the
metric catalogue table of docs/OBSERVABILITY.md with the same type:

  | `pool.admitted` | counter | transactions accepted into a pool |

Series whose names are built at run time (validate.stage.*) are documented
by hand and not checked here.

Usage: metric_catalogue_check.py --root <repo-root>
       metric_catalogue_check.py --self-test
Exit status: 0 clean, 1 undocumented or mistyped series, 2 bad usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SRC_EXTENSIONS = {".cpp", ".hpp", ".h", ".cc"}
REGISTRATION = re.compile(r'\b(counter|gauge|histogram)\(\s*"([^"]+)"')
CATALOGUE_ROW = re.compile(
    r"^\|\s*`([^`]+)`\s*\|\s*(counter|gauge|histogram)\s*\|", re.MULTILINE)


def registered(sources: dict[str, str]) -> list[tuple[str, int, str, str]]:
    """(path, line, type, name) of every literal registration."""
    out = []
    for path, text in sources.items():
        for match in REGISTRATION.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            out.append((path, line, match.group(1), match.group(2)))
    return out


def catalogue(doc: str) -> dict[str, str]:
    """Series name -> type, from the catalogue table rows."""
    return {m.group(1): m.group(2) for m in CATALOGUE_ROW.finditer(doc)}


def problems(sources: dict[str, str], doc: str) -> list[str]:
    documented = catalogue(doc)
    out = []
    for path, line, kind, name in registered(sources):
        if name not in documented:
            out.append(f"{path}:{line}: {kind} `{name}` is not in the "
                       f"docs/OBSERVABILITY.md metric catalogue")
        elif documented[name] != kind:
            out.append(f"{path}:{line}: `{name}` is a {kind} but the "
                       f"catalogue lists it as a {documented[name]}")
    return out


def self_test() -> int:
    doc = ("| series | type | meaning |\n|---|---|---|\n"
           "| `a.count` | counter | documented |\n"
           "| `a.level` | histogram | documented with the wrong type |\n")
    sources = {"src/x.cpp": 'm.counter("a.count");\n'
                            'm.gauge("a.level");\n'
                            'm.histogram(\n    "a.missing");\n'}
    found = problems(sources, doc)
    expected = [
        "src/x.cpp:2: `a.level` is a gauge but the catalogue lists it as a "
        "histogram",
        "src/x.cpp:3: histogram `a.missing` is not in the "
        "docs/OBSERVABILITY.md metric catalogue",
    ]
    if found != expected:
        print("metric_catalogue_check: self-test failed:", *found, sep="\n  ")
        return 1
    print("metric_catalogue_check: self-test ok")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=Path("."),
                        help="repository root (containing src/ and docs/)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in fixture and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    src = args.root / "src"
    doc = args.root / "docs" / "OBSERVABILITY.md"
    if not src.is_dir() or not doc.is_file():
        print(f"metric_catalogue_check: no src/ or docs/OBSERVABILITY.md "
              f"under {args.root}", file=sys.stderr)
        return 2

    sources = {
        p.relative_to(args.root).as_posix(): p.read_text(errors="replace")
        for p in sorted(src.rglob("*")) if p.suffix in SRC_EXTENSIONS
    }
    found = problems(sources, doc.read_text())
    for line in found:
        print(line)
    print(f"metric_catalogue_check: {len(registered(sources))} registered "
          f"series, {len(found)} problem(s)")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
