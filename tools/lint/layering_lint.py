#!/usr/bin/env python3
"""Layering lint: enforce the subsystem include DAG.

src/ is layered — every subsystem may include only subsystems strictly
below it (the order lives in layering_lint.json):

  common → mem → dram → cache → tlb → paging → mmu → kernel → cpu
         → attack → harness

and tools/, bench/, tests/, examples/ sit on top and may include
anything. An include that points *upward* (or sideways into a layer
above, which is what makes subsystem cycles) couples the simulator's
layers into a ball: harness types leaking into attack code, kernel
code reaching into the whole machine. clang-tidy's
misc-header-include-cycle catches header-level cycles; this lint
catches the architectural direction compiler-free, on every CI run,
before a cycle even forms.

Mechanics: every quoted `#include "sub/header.hh"` in a scanned file
is resolved to its target subsystem (first path component) and
checked against the including file's subsystem rank. Upward includes
fail unless allowlisted in the config with a non-empty reason; stale
allowlist entries (the include no longer exists) fail too. A source
subdirectory missing from the configured order is an error — adding
a subsystem means placing it in the DAG, deliberately.

Usage: layering_lint.py [--root ROOT] [--config CONFIG]
Exit 0 clean, 1 findings, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SUFFIXES = {".cc", ".cpp", ".hh", ".hpp"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root",
                    default=str(Path(__file__).resolve().parents[2]))
    ap.add_argument("--config",
                    default=str(Path(__file__).parent /
                                "layering_lint.json"))
    args = ap.parse_args()
    root = Path(args.root)
    try:
        config = json.loads(Path(args.config).read_text())
        layers = config["layers"]
        src_dir = config.get("src", "src")
        top_dirs = config.get("top", [])
        allow = config.get("allow", [])
    except (OSError, ValueError, KeyError) as exc:
        print(f"layering_lint: bad config: {exc}", file=sys.stderr)
        return 2

    rank = {}
    for i, layer in enumerate(layers):
        for sub in (layer if isinstance(layer, list) else [layer]):
            if sub in rank:
                print(f"layering_lint: bad config: subsystem '{sub}' "
                      f"listed twice", file=sys.stderr)
                return 2
            rank[sub] = i

    errors: list = []
    allow_index = {}
    for entry in allow:
        key = (entry.get("from", ""), entry.get("to", ""))
        if not str(entry.get("reason", "")).strip():
            errors.append(
                f"allowlist entry {entry.get('from')!r} -> "
                f"{entry.get('to')!r} has an empty reason")
        allow_index[key] = False  # -> True once consumed

    base = root / src_dir
    if not base.is_dir():
        print(f"layering_lint: no {src_dir}/ under {root}",
              file=sys.stderr)
        return 2

    # Every subsystem directory must have a place in the DAG.
    for child in sorted(base.iterdir()):
        if child.is_dir() and child.name not in rank:
            errors.append(
                f"{src_dir}/{child.name}/ is not in the configured "
                f"layer order — place the subsystem in "
                f"layering_lint.json deliberately")

    files = 0
    includes = 0
    for path in sorted(base.rglob("*")):
        if path.suffix not in SUFFIXES:
            continue
        files += 1
        rel = path.relative_to(root).as_posix()
        sub = path.relative_to(base).parts[0]
        src_rank = rank.get(sub)
        if src_rank is None:
            continue  # already reported above
        for m in INCLUDE.finditer(path.read_text()):
            inc = m.group(1)
            target = inc.split("/")[0]
            if target not in rank:
                errors.append(
                    f"{rel}: includes \"{inc}\" — target subsystem "
                    f"'{target}' is not in the configured layer order")
                continue
            includes += 1
            if rank[target] <= src_rank:
                continue  # downward or same-subsystem: fine
            key = (rel, inc)
            if key in allow_index:
                allow_index[key] = True
                continue
            lineno = path.read_text()[:m.start()].count("\n") + 1
            errors.append(
                f"{rel}:{lineno}: upward include \"{inc}\" — "
                f"'{sub}' (layer {src_rank}) must not include "
                f"'{target}' (layer {rank[target]}). Move the shared "
                f"code down (as parallelMap lives in common/), "
                f"invert the dependency, or allowlist with a reason.")

    # Top-level dirs may include anything from src/, but their quoted
    # includes must still resolve to known subsystems (or their own
    # tree) — a typo'd include path shows up here.
    for d in top_dirs:
        tbase = root / d
        if not tbase.is_dir():
            continue
        for path in sorted(tbase.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            files += 1

    for (src, inc), used in sorted(allow_index.items()):
        if not used:
            errors.append(
                f"allowlist entry {src!r} -> {inc!r} went unused — "
                f"the include is gone; remove the stale entry")

    if errors:
        print(f"layering_lint: {len(errors)} finding(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"layering_lint: OK ({includes} cross-checked includes in "
          f"{files} files, {len(rank)} subsystems)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
