#!/usr/bin/env python3
"""Determinism lint: sources of run-to-run divergence.

The repo's core contract is byte-identical reports for identical specs
across serial, threaded, sharded and forked execution. This lint flags
the classic ways C++ code silently breaks that:

  * iteration over std::unordered_{map,set,...} — bucket order is
    implementation- and run-dependent (it depends on the pointer
    values and insertion history), so any loop whose effect is
    order-sensitive (building a report row, folding a non-commutative
    hash, picking "the first" element) diverges between runs. Every
    such loop must either be rewritten over an ordered container or
    carry a `// determinism: <why order cannot matter>` annotation;
  * rand()/srand()/std::random_device — unseeded or global-state
    randomness (the seeded pth::Rng is the only sanctioned source);
  * time()/localtime()/gmtime()/clock() feeding values into results —
    wall-clock state makes reports differ between runs;
  * formatting pointer values (%p, streaming a void*) — ASLR makes
    pointer text differ between runs;
  * two draws from one pth::Rng in one statement — C++ leaves the
    order of `rng.below(a) * x + rng.below(b)`'s operands unspecified,
    so which draw lands where is the compiler's choice. A name counts
    as an Rng when any scanned file declares it `Rng` or `Rng &`.

Annotations: the flagged line, or one of the 3 lines above it, must
contain `determinism:` followed by a non-empty justification.

Usage: determinism_lint.py [--root ROOT] [--config CONFIG]
Exit 0 clean, 1 findings, 2 config error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cpp_model  # noqa: E402

UNORDERED_DECL = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<")
DECL_NAME = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\s*<(?:[^<>]|<(?:[^<>]|"
    r"<[^<>]*>)*>)*>\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]")
RNG_DECL = re.compile(r"\bRng\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]")
RNG_DRAW = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:below|next|chance|range)\s*\(")
STATEMENT = re.compile(r"[^;{}]+")
RANGE_FOR = re.compile(
    r"\bfor\s*\(\s*[^;()]*?:\s*([A-Za-z_][\w.\->\[\]]*)\s*\)")
ANNOTATION = re.compile(r"determinism:\s*\S")

# (pattern, needs_strings, message): rules marked needs_strings run
# against a comment-stripped line with string literals kept, because
# the pattern only ever occurs inside format strings.
CALL_RULES = [
    (re.compile(r"(?<![\w:])s?rand\s*\("), False,
     "rand()/srand(): unseeded global-state randomness; use the "
     "seeded pth::Rng"),
    (re.compile(r"\brandom_device\b"), False,
     "std::random_device: nondeterministic entropy source; use the "
     "seeded pth::Rng"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|0|nullptr)?\s*\)"), False,
     "time(): wall clock feeding simulation or report state"),
    (re.compile(r"\b(?:localtime|gmtime|ctime|asctime)\s*\("), False,
     "calendar time: wall clock feeding simulation or report state"),
    (re.compile(r"%p[^\w%]"), True,
     "%p formats a pointer value; ASLR makes it differ between runs"),
    (re.compile(r"<<\s*(?:static_cast<\s*(?:const\s+)?void\s*\*\s*>|"
                r"\(\s*(?:const\s+)?void\s*\*\s*\))"), False,
     "streaming a pointer value; ASLR makes it differ between runs"),
]

SUFFIXES = {".cc", ".cpp", ".hh", ".hpp"}


def last_component(expr: str) -> str:
    """`other.processes` -> processes; `bankActs[bank]` -> bankActs."""
    expr = re.sub(r"\[[^\]]*\]", "", expr)
    for sep in (".", "->"):
        if sep in expr:
            expr = expr.rsplit(sep, 1)[1]
    return expr.strip()


def annotated(lines: list, idx: int) -> bool:
    for back in range(0, 4):
        if idx - back < 0:
            break
        if ANNOTATION.search(lines[idx - back]):
            return True
    return False


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root",
                    default=str(Path(__file__).resolve().parents[2]))
    ap.add_argument("--config",
                    default=str(Path(__file__).parent /
                                "determinism_lint.json"))
    args = ap.parse_args()
    root = Path(args.root)
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        print(f"determinism_lint: bad config: {exc}", file=sys.stderr)
        return 2

    scan_dirs = config.get("scan", ["src", "tools", "bench"])
    exclude = [root / e for e in config.get("exclude", [])]

    files = []
    for d in scan_dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            if any(ex in path.parents or ex == path for ex in exclude):
                continue
            files.append(path)

    # Pass 1: every identifier declared anywhere as an unordered
    # container (locals, members, parameters). Name-level matching is
    # deliberately conservative: a same-named ordered container in
    # another file still needs an annotation, which is cheap and keeps
    # the lint single-pass.
    unordered_names = set()
    rng_names = set()
    texts = {}
    for path in files:
        raw = path.read_text()
        texts[path] = raw
        stripped = cpp_model.strip_comments(raw)
        for m in DECL_NAME.finditer(stripped):
            unordered_names.add(m.group(1))
        for m in RNG_DECL.finditer(stripped):
            rng_names.add(m.group(1))

    errors = []
    for path in files:
        raw = texts[path]
        stripped = cpp_model.strip_comments(raw)
        with_strings = cpp_model.strip_comments(raw, keep_strings=True)
        raw_lines = raw.splitlines()
        for lineno, (stripped_line, strings_line) in enumerate(
                zip(stripped.splitlines(), with_strings.splitlines()),
                start=1):
            rel = path.relative_to(root)
            for m in RANGE_FOR.finditer(stripped_line):
                name = last_component(m.group(1))
                if name not in unordered_names:
                    continue
                if annotated(raw_lines, lineno - 1):
                    continue
                errors.append(
                    f"{rel}:{lineno}: iteration over unordered "
                    f"container '{name}' — bucket order differs "
                    f"between runs. Use an ordered container, sort "
                    f"first, or annotate the loop with "
                    f"'// determinism: <why order cannot matter>'.")
            for pattern, needs_strings, why in CALL_RULES:
                haystack = strings_line if needs_strings else stripped_line
                if pattern.search(haystack) and \
                        not annotated(raw_lines, lineno - 1):
                    errors.append(f"{rel}:{lineno}: {why}")
        for m in STATEMENT.finditer(stripped):
            draws = [d.group(1) for d in RNG_DRAW.finditer(m.group(0))
                     if d.group(1) in rng_names]
            twice = sorted({n for n in draws if draws.count(n) > 1})
            if not twice:
                continue
            start = m.start() + len(m.group(0)) - len(m.group(0).lstrip())
            lineno = stripped.count("\n", 0, start) + 1
            if annotated(raw_lines, lineno - 1):
                continue
            errors.append(
                f"{path.relative_to(root)}:{lineno}: two draws from Rng "
                f"'{twice[0]}' in one statement — C++ leaves their "
                f"order unspecified, so the values depend on the "
                f"compiler. Draw in separate statements, or annotate "
                f"with '// determinism: <why order cannot matter>'.")

    if errors:
        print(f"determinism_lint: {len(errors)} finding(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"determinism_lint: OK ({len(files)} files scanned)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
