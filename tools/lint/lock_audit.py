#!/usr/bin/env python3
"""Lock-discipline audit: every mutex-owning class must be annotated.

Clang Thread Safety Analysis (-DPTH_THREAD_SAFETY=ON) only proves
lock discipline for state it can see: a PTH_GUARDED_BY member of a
pth::Mutex capability. A new std::mutex-guarded member with no
annotation compiles silently and is invisible to the analysis — the
exact gap this audit closes, compiler-free, on every CI run.

For every class or struct (in any scanned .hh/.cc) that owns a
synchronization member, the audit demands:

  * the sync primitive itself is the annotated pth::Mutex from
    common/sync.hh. Raw std::mutex, std::condition_variable,
    std::once_flag and friends carry no capability attributes under
    libstdc++, so the analysis cannot check anything about them;
  * every sibling data member is PTH_GUARDED_BY / PTH_PT_GUARDED_BY
    annotated (the macro must textually follow the declarator name:
    `std::vector<Line> lines PTH_GUARDED_BY(mtx);`), or std::atomic,
    or const (immutable after construction), or carries a reasoned
    allowlist entry in lock_audit.json keyed "Class.member".

Stale allowlist entries — naming a class or member that no longer
exists, or a member that is now annotated — fail the audit, so the
list cannot rot. Empty reasons do not suppress.

Usage: lock_audit.py [--root ROOT] [--config CONFIG]
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

SUFFIXES = {".cc", ".cpp", ".hh", ".hpp"}

# The annotated wrapper (sanctioned) and the raw std primitives
# (findings when owned as members). MutexLock is RAII, not state.
WRAPPED_SYNC = re.compile(r"^\s*(?:mutable\s+)?(?:pth::)?Mutex\s")
RAW_SYNC = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex"
    r"|shared_mutex|shared_timed_mutex|condition_variable"
    r"|condition_variable_any|once_flag)\b")

ATOMIC = re.compile(r"\bstd::atomic(?:<|\b)")
PAREN_MACRO = re.compile(r"\bPTH_[A-Z_]+\s*\(")
BARE_MACRO = re.compile(r"\bPTH_[A-Z_]+\b")

CLASS_DECL = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)"
                        r"(\s*(?:final)?[^;{()=]*)\{")


def erase_annotations(stripped: str) -> str:
    """Blank every PTH_* macro invocation — PTH_GUARDED_BY(mtx),
    PTH_CAPABILITY("mutex"), bare PTH_SCOPED_CAPABILITY — with
    equal-length spaces (newlines kept), so cpp_model does not
    mistake a macro's parenthesis for a function declaration and the
    class regex sees `class Mutex {` through the type attribute."""
    out = list(stripped)
    spans = []
    for m in PAREN_MACRO.finditer(stripped):
        depth = 0
        i = m.end() - 1
        while i < len(stripped):
            if stripped[i] == "(":
                depth += 1
            elif stripped[i] == ")":
                depth -= 1
                if depth == 0:
                    break
            i += 1
        spans.append((m.start(), min(i + 1, len(stripped))))
    for m in BARE_MACRO.finditer(stripped):
        if not any(s <= m.start() < e for s, e in spans):
            spans.append((m.start(), m.end()))
    for s, e in spans:
        for j in range(s, e):
            if out[j] != "\n":
                out[j] = " "
    return "".join(out)


def is_const_member(text: str) -> bool:
    """`const std::string path_` yes; `std::vector<const T *> v` no —
    only a const before the first template bracket counts."""
    return re.search(r"(?:^|\s)const(?:\s|$)",
                     text.split("<")[0]) is not None


def class_spans(stripped: str):
    """Yield (name, body_start, body_end) for every class/struct with
    a body. Forward declarations have no '{' and never match."""
    for m in CLASS_DECL.finditer(stripped):
        start = m.end()
        depth = 1
        i = start
        while i < len(stripped) and depth:
            if stripped[i] == "{":
                depth += 1
            elif stripped[i] == "}":
                depth -= 1
            i += 1
        if not depth:
            yield m.group(2), start, i - 1


def audit_file(root: Path, path: Path, allow: dict, used_allow: set,
               errors: list) -> int:
    raw = path.read_text()
    if not re.search(r"mutex|once_flag|condition_variable",
                     raw, re.IGNORECASE):
        return 0
    rel = path.relative_to(root)
    stripped = cpp_model.strip_comments(raw)
    erased = erase_annotations(stripped)
    audited = 0

    for name, start, end in class_spans(erased):
        body = stripped[start:end]
        # Cheap pre-filter; extract_members is only paid for classes
        # that plausibly own a sync member.
        if not (RAW_SYNC.search(body) or
                re.search(r"\b(?:pth::)?Mutex\s+\w+\s*;", body)):
            continue
        try:
            model = cpp_model.extract_members(erased, name)
        except ValueError as exc:
            errors.append(f"{rel}: {name}: cannot extract members: "
                          f"{exc}")
            continue

        sync_members = []
        for member in model.members:
            if WRAPPED_SYNC.search(member.text) or \
                    RAW_SYNC.search(member.text):
                sync_members.append(member)
        if not sync_members:
            continue
        audited += 1

        for member in model.members:
            key = f"{name}.{member.name}"
            raw_sync = RAW_SYNC.search(member.text)
            if raw_sync:
                if key in allow and str(allow[key]).strip():
                    used_allow.add(key)
                    continue
                errors.append(
                    f"{rel}:{member.line}: {key} is a raw "
                    f"std::{raw_sync.group(1)} — the thread-safety "
                    f"analysis cannot see it; use the annotated "
                    f"pth::Mutex from common/sync.hh "
                    f"(or allowlist with a reason).")
                continue
            if WRAPPED_SYNC.search(member.text):
                continue  # the capability itself
            # Annotated? The macro textually follows the declarator
            # (optionally through an array suffix).
            pattern = re.compile(
                r"\b" + re.escape(member.name) +
                r"\s*(?:\[[^\]]*\])?\s*PTH_(?:PT_)?GUARDED_BY\s*\(")
            if pattern.search(body):
                continue
            if ATOMIC.search(member.text):
                continue
            if is_const_member(member.text):
                continue
            if key in allow:
                if not str(allow[key]).strip():
                    errors.append(
                        f"{rel}:{member.line}: allowlist entry for "
                        f"{key} has an empty reason")
                used_allow.add(key)
                continue
            errors.append(
                f"{rel}:{member.line}: {key} shares a class with a "
                f"mutex but is not PTH_GUARDED_BY-annotated, atomic "
                f"or const. Annotate it (macro after the declarator: "
                f"`T {member.name} PTH_GUARDED_BY(mtx);`), or "
                f"allowlist it in lock_audit.json with a reason.")
    return audited


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root",
                    default=str(Path(__file__).resolve().parents[2]))
    ap.add_argument("--config",
                    default=str(Path(__file__).parent /
                                "lock_audit.json"))
    args = ap.parse_args()
    root = Path(args.root)
    try:
        config = json.loads(Path(args.config).read_text())
    except (OSError, ValueError) as exc:
        print(f"lock_audit: bad config: {exc}", file=sys.stderr)
        return 2

    scan_dirs = config.get("scan", ["src", "tools", "bench", "tests"])
    exclude = [root / e for e in config.get("exclude", [])]
    allow = config.get("allow", {})

    errors: list = []
    used_allow: set = set()
    files = 0
    audited = 0
    for d in scan_dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in SUFFIXES:
                continue
            if any(ex in path.parents for ex in exclude):
                continue
            files += 1
            audited += audit_file(root, path, allow, used_allow,
                                  errors)

    for key in sorted(allow):
        if key not in used_allow:
            errors.append(
                f"allowlist entry '{key}' went unused — the member is "
                f"gone or now annotated; remove the stale entry")

    if errors:
        print(f"lock_audit: {len(errors)} finding(s):")
        for err in errors:
            print(f"  - {err}")
        return 1
    print(f"lock_audit: OK ({audited} mutex-owning class(es) across "
          f"{files} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
