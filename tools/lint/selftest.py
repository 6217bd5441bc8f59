#!/usr/bin/env python3
"""Selftest for the custom lints, run as a ctest case.

Exercises every lint against the seeded fixtures in
tools/lint/fixtures twice over:

  * the *_bad fixtures must FAIL with exactly the expected findings —
    a lint whose parser or patterns silently stop matching fails here,
    so the audits cannot rot into green no-ops;
  * the *_good fixtures must PASS — the sanctioned escape hatches
    (reasoned allowlist entries, `// determinism:` annotations) keep
    working.

Exit 0 when every expectation holds, 1 otherwise.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

LINT_DIR = Path(__file__).resolve().parent
FIXTURES = LINT_DIR / "fixtures"


def run(script: str, config: Path, root: Path):
    proc = subprocess.run(
        [sys.executable, str(LINT_DIR / script),
         "--config", str(config), "--root", str(root)],
        capture_output=True, text=True)
    return proc.returncode, proc.stdout + proc.stderr


CASES = [
    # (script, fixture subdir, expected exit, substrings that must all
    #  appear in the output)
    ("state_audit.py", "state_bad", 1, [
        "4 finding(s)",
        "Widget.gauge",
        "copy implementation",
        "hash implementation",
        "Widget.spare",
        "Widget.label",
    ]),
    ("state_audit.py", "state_good", 0, ["state_audit: OK"]),
    ("speckey_audit.py", "speckey_bad", 1, [
        "2 finding(s)",
        "RunSpecF.hammerReps",
        "would collide",
        "ExecOptsF.threads",
        "execution axis",
    ]),
    ("speckey_audit.py", "speckey_good", 0, ["speckey_audit: OK"]),
    ("determinism_lint.py", "det_bad", 1, [
        "9 finding(s)",
        "iteration over unordered container 'table'",
        "random_device",
        "rand()/srand()",
        "time(): wall clock",
        "calendar time",
        "%p formats a pointer",
        "streaming a pointer",
        "two draws from Rng 'rng' in one statement",
    ]),
    ("determinism_lint.py", "det_good", 0, ["determinism_lint: OK"]),
    ("lock_audit.py", "lock_bad", 1, [
        "3 finding(s)",
        "BadStore.mtx_ is a raw std::mutex",
        "BadStore.lines_",
        "not PTH_GUARDED_BY-annotated",
        "'BadStore.gone_' went unused",
    ]),
    ("lock_audit.py", "lock_good", 0, ["lock_audit: OK"]),
    ("layering_lint.py", "layer_bad", 1, [
        "3 finding(s)",
        "rogue/ is not in the configured layer order",
        "upward include \"ui/ui.hh\"",
        "went unused",
    ]),
    ("layering_lint.py", "layer_good", 0, ["layering_lint: OK"]),
]


def main() -> int:
    failures = 0
    for script, subdir, expect_exit, expect_texts in CASES:
        config = FIXTURES / subdir / "config.json"
        code, output = run(script, config, FIXTURES)
        problems = []
        if code != expect_exit:
            problems.append(f"exit {code}, expected {expect_exit}")
        for text in expect_texts:
            if text not in output:
                problems.append(f"missing expected output: {text!r}")
        if problems:
            failures += 1
            print(f"FAIL {script} on {subdir}:")
            for p in problems:
                print(f"  - {p}")
            print("  --- lint output ---")
            for line in output.splitlines():
                print(f"  | {line}")
        else:
            print(f"ok   {script} on {subdir}")
    if failures:
        print(f"lint selftest: {failures} case(s) failed")
        return 1
    print(f"lint selftest: OK ({len(CASES)} cases)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
